"""Command line contract: flags, exit codes, report shapes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from itertools import product

import pytest
from click.testing import CliRunner

import weitzlab
from weitzlab import cli
from weitzlab.cli import main
from weitzlab.kernel import KernelBasis
from weitzlab.report import (
    SweepConfig,
    SweepReport,
    enumerate_multidegrees,
    run_crosscheck,
    run_verify_sweep,
    strip_timing,
)


@pytest.fixture
def runner():
    return CliRunner()


def test_verify_d1(runner):
    result = runner.invoke(main, ["verify", "--d", "1", "--max-degree", "3"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert [c["n"] for c in report["components"]] == [[0], [1], [2], [3]]
    assert all(
        c["dim_kernel"] == c["dim_span"] == c["dim_tableau_oracle"] == 1
        for c in report["components"]
    )
    assert report["aggregate"]["violations"] == 0


def test_verify_d2(runner):
    result = runner.invoke(main, ["verify", "--d", "2", "--max-degree", "4"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["aggregate"]["violations"] == 0
    assert all(c["verdict"] for c in report["components"])
    assert report["aggregate"]["components_checked"] == len(
        enumerate_multidegrees(2, 4)
    )


def test_verify_deep_pair_order_does_not_recurse(runner):
    # d=46 has 1,035 index pairs, more than the default recursion limit
    result = runner.invoke(main, ["verify", "--d", "46", "--max-degree", "1"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["aggregate"]["components_checked"] == 47
    assert report["aggregate"]["violations"] == 0
    assert all(c["verdict"] for c in report["components"])


def test_decompose_deep_pair_order_does_not_recurse(runner):
    result = runner.invoke(main, ["decompose", "--d", "45"], input="x1\n")
    assert result.exit_code == 0
    assert "x1: 1" in result.output


def test_verify_rejects_d0(runner):
    result = runner.invoke(main, ["verify", "--d", "0", "--max-degree", "2"])
    assert result.exit_code == 2


def test_verify_writes_file_and_csv(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(
        main, ["verify", "--d", "1", "--max-degree", "2", "--out", str(out)]
    )
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["kind"] == "verify"

    out_csv = tmp_path / "report.csv"
    result = runner.invoke(
        main,
        ["verify", "--d", "1", "--max-degree", "2", "--format", "csv",
         "--out", str(out_csv)],
    )
    assert result.exit_code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "n,dim_kernel,dim_span,dim_tableau_oracle,product_count,verdict,seconds"
    assert len(lines) == 4  # header + components (0), (1), (2)


def test_verify_unwritable_path_exits_3(runner, tmp_path):
    target = tmp_path / "missing" / "report.json"
    result = runner.invoke(
        main, ["verify", "--d", "1", "--max-degree", "1", "--out", str(target)]
    )
    assert result.exit_code == 3


def test_verify_has_no_parallelism_option(runner):
    result = runner.invoke(main, ["verify", "--d", "1", "--parallelism", "2"])
    assert result.exit_code == 2


def test_import_loads_only_what_commands_share():
    # crosscheck and CSV output import these on first use; nothing imports
    # concurrent.futures since sweeps run serially
    code = (
        "import sys, weitzlab\n"
        "lazy = ['weitzlab.tensor', 'concurrent.futures', 'logging', 'csv']\n"
        "loaded = [m for m in lazy if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "missing = [n for n in weitzlab.__all__ if getattr(weitzlab, n, None) is None]\n"
        "assert not missing, missing\n"
        "assert 'weitzlab.tensor' not in sys.modules\n"
        "weitzlab.run_crosscheck(weitzlab.SweepConfig(d=1, tensor_crosscheck_limit=1))\n"
        "assert 'weitzlab.tensor' in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(weitzlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_report_determinism_after_timing_strip():
    config = SweepConfig(d=3, max_total_degree=5, output_format="json")
    first = run_verify_sweep(config).to_dict()
    second = run_verify_sweep(SweepConfig(d=3, max_total_degree=5)).to_dict()
    assert strip_timing(first) == strip_timing(second)
    assert first["content_digest"] == second["content_digest"]
    assert json.dumps(strip_timing(first), sort_keys=True) == json.dumps(
        strip_timing(second), sort_keys=True
    )


def test_enumerate_multidegrees_matches_box_filter():
    # reference: walk the whole (bound+1)^d box and keep each total in turn
    def box_filter(d, max_total, cap):
        out = []
        for total in range(max_total + 1):
            bound = min(total, cap) if cap is not None else total
            box = product(range(bound + 1), repeat=d)
            out.extend(n for n in box if sum(n) == total)
        return out

    for d in range(7):
        for max_total in range(7):
            for cap in (None, 0, 1, 2, 9):
                assert enumerate_multidegrees(d, max_total, cap) == box_filter(
                    d, max_total, cap
                )
        assert enumerate_multidegrees(d, -1) == []


def test_enumerate_multidegrees_at_the_frontier():
    # the CI tiers' inputs: every multidegree once, graded lex, none missing
    for d, max_total, cap, count in [(10, 10, None, 184_756), (12, 12, 1, 4_096)]:
        degrees = enumerate_multidegrees(d, max_total, cap)
        assert len(degrees) == count
        keys = [(sum(n), n) for n in degrees]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert {len(n) for n in degrees} == {d}
        assert max(map(max, degrees)) == (max_total if cap is None else cap)


def test_kernel_command(runner):
    result = runner.invoke(main, ["kernel", "--d", "2", "--n", "1,1"])
    assert result.exit_code == 0
    assert "dimension 2" in result.output
    assert "x1*x2" in result.output
    assert "x1*y2 - x2*y1" in result.output

    result = runner.invoke(main, ["kernel", "--d", "1", "--n", "0"])
    assert result.exit_code == 0
    assert "dimension 1" in result.output
    assert "1" in result.output

    result = runner.invoke(main, ["kernel", "--d", "2", "--n", "0,2"])
    assert result.exit_code == 0
    assert "x2^2" in result.output
    assert "dimension 1" in result.output


def test_kernel_command_bad_n(runner):
    result = runner.invoke(main, ["kernel", "--d", "2", "--n", "1,banana"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["kernel", "--d", "2", "--n", "1,1,1"])
    assert result.exit_code == 2


def never_called(*args):
    raise AssertionError(f"called with {args}")


def test_kernel_refuses_an_oversized_component_up_front(runner, monkeypatch):
    monkeypatch.setattr(cli, "kernel_basis", never_called)
    refused = [("1000,1000", 1_002_001), ("3000000,3000000", 9_000_006_000_001)]
    for n_text, dimension in refused:
        result = runner.invoke(main, ["kernel", "--d", "2", "--n", n_text])
        assert result.exit_code == 2, result.output
        assert f"component n={n_text} has dimension {dimension}, above the limit" in (
            result.output
        )
    called = []
    monkeypatch.setattr(
        cli, "kernel_basis", lambda d, n: called.append(n) or KernelBasis(d, n, (), ())
    )
    result = runner.invoke(main, ["kernel", "--d", "2", "--n", "999,999"])  # 10**6 exactly
    assert result.exit_code == 0 and called == [(999, 999)]


def test_kernel_refuses_an_oversized_weight_block_up_front(runner, monkeypatch):
    monkeypatch.setattr(cli, "kernel_basis", never_called)
    refused = [((1,) * 15, 6435), ((1,) * 16, 12870), ((200, 200, 20), 4111)]
    for n, block in refused:
        n_text = ",".join(map(str, n))
        result = runner.invoke(main, ["kernel", "--d", str(len(n)), "--n", n_text])
        assert result.exit_code == 2, result.output
        assert (
            f"component n={n_text} has a weight block of {block} positions, "
            "above the limit of 3432"
        ) in result.output
    called = []
    monkeypatch.setattr(
        cli, "kernel_basis", lambda d, n: called.append(n) or KernelBasis(d, n, (), ())
    )
    for n in [(1,) * 14, (300, 300, 10)]:  # middle blocks of 3432 and 3281
        n_text = ",".join(map(str, n))
        result = runner.invoke(main, ["kernel", "--d", str(len(n)), "--n", n_text])
        assert result.exit_code == 0, result.output
    assert called == [(1,) * 14, (300, 300, 10)]


def test_crosscheck_refuses_an_oversized_weight_block_up_front(runner, monkeypatch):
    monkeypatch.setattr(cli, "run_crosscheck", never_called)
    for limit, block in [(15, 6435), (16, 12870)]:
        result = runner.invoke(main, ["crosscheck", "--d", "2", "--limit", str(limit)])
        assert result.exit_code == 2, result.output
        assert (
            f"crosscheck --limit {limit} has a weight block of {block} positions, "
            "above the limit of 3432"
        ) in result.output
    called = []

    def spy(config):
        called.append(config.tensor_crosscheck_limit)
        return SweepReport(config, [], 0.0, kind="crosscheck")

    monkeypatch.setattr(cli, "run_crosscheck", spy)
    result = runner.invoke(main, ["crosscheck", "--d", "2", "--limit", "14"])
    assert result.exit_code == 0, result.output
    assert called == [14]


def test_decompose_refuses_an_oversized_component_up_front(runner, monkeypatch):
    monkeypatch.setattr(cli, "decompose", never_called)
    refused = [
        ([], "x1^3000000*x2^3000000", "3000000,3000000", 9_000_006_000_001),
        ([], "x1^30000000", "30000000,0", 30_000_001),
        (["--split"], "x1 + x1^3000000*x2^3000000", "3000000,3000000", 9_000_006_000_001),
    ]
    for flags, text, n_text, dimension in refused:
        result = runner.invoke(main, ["decompose", "--d", "2", *flags], input=text + "\n")
        assert result.exit_code == 2, result.output
        assert f"component n={n_text} has dimension {dimension}, above the limit" in (
            result.output
        )
    called = []
    monkeypatch.setattr(cli, "decompose", lambda f: called.append(f.multidegree()) or {})
    result = runner.invoke(main, ["decompose", "--d", "2"], input="x1^999*x2^999\n")
    assert result.exit_code == 0 and called == [(999, 999)]


def test_decompose_refuses_too_many_standard_products_up_front(runner, monkeypatch):
    monkeypatch.setattr(cli, "decompose", never_called)
    refused = [([], 17, 24310), ([], 19, 92378), (["--split"], 17, 24310)]
    for flags, d, block in refused:
        text = "*".join(f"x{i}" for i in range(1, d + 1))
        if flags:
            text = "x1 + " + text
        result = runner.invoke(main, ["decompose", "--d", str(d), *flags], input=text + "\n")
        assert result.exit_code == 2, result.output
        assert (
            f"component n={','.join(['1'] * d)} has a weight block of {block} positions, "
            "above the limit of 12870"
        ) in result.output
    called = []
    monkeypatch.setattr(cli, "decompose", lambda f: called.append(f.multidegree()) or {})
    text = "*".join(f"x{i}" for i in range(1, 17))
    result = runner.invoke(main, ["decompose", "--d", "16"], input=text + "\n")
    assert result.exit_code == 0 and called == [(1,) * 16]


def test_decompose_determinant(runner):
    result = runner.invoke(main, ["decompose", "--d", "2"], input="x1*y2 - x2*y1\n")
    assert result.exit_code == 0
    assert "u12: 1" in result.output


def test_decompose_rejects_nonconstant(runner):
    result = runner.invoke(main, ["decompose", "--d", "2"], input="y1\n")
    assert result.exit_code == 1
    assert "not in the kernel" in result.output
    assert "delta(f) = x1" in result.output


def test_decompose_with_x_power(runner):
    result = runner.invoke(
        main, ["decompose", "--d", "3"], input="x1^2*x2*y3 - x1^2*x3*y2\n"
    )
    assert result.exit_code == 0
    assert "x1^2*u23: 1" in result.output


def test_decompose_json_format(runner):
    result = runner.invoke(
        main,
        ["decompose", "--d", "2", "--format", "json"],
        input="x1*y2 - x2*y1\n",
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload[0]["n"] == [1, 1]
    assert payload[0]["terms"] == [
        {"coefficient": "1", "p": [0, 0], "u": [[1, 2, 1]], "label": "u12"}
    ]


def test_decompose_inhomogeneous(runner):
    result = runner.invoke(main, ["decompose", "--d", "1"], input="x1 + x1^2\n")
    assert result.exit_code == 2
    assert "--split" in result.output

    result = runner.invoke(
        main, ["decompose", "--d", "1", "--split"], input="x1 + x1^2\n"
    )
    assert result.exit_code == 0
    assert "x1: 1" in result.output
    assert "x1^2: 1" in result.output

    result = runner.invoke(main, ["decompose", "--d", "2"], input="x1*y2 - x2*y1 + x1\n")
    assert result.exit_code == 2
    assert "input mixes multidegrees" in result.output


@pytest.mark.parametrize("flags", [[], ["--split"]])
def test_decompose_nonconstant_before_mixed_multidegrees(runner, flags):
    result = runner.invoke(main, ["decompose", "--d", "1", *flags], input="y1 + x1^2\n")
    assert result.exit_code == 1
    assert "not in the kernel: delta(f) = x1" in result.output
    assert "mixes" not in result.output


def test_decompose_zero(runner):
    for flags in ([], ["--split"]):
        result = runner.invoke(main, ["decompose", "--d", "2", *flags], input="0\n")
        assert result.exit_code == 0
        assert result.output == "  0\n"
        result = runner.invoke(
            main, ["decompose", "--d", "2", "--format", "json", *flags], input="0\n"
        )
        assert result.exit_code == 0
        assert json.loads(result.output) == [{"n": None, "terms": []}]


def test_decompose_parse_error(runner):
    result = runner.invoke(main, ["decompose", "--d", "2"], input="x1 ** 2\n")
    assert result.exit_code == 2


def test_decompose_surfaces_conjecture_violation(runner, monkeypatch):
    # unreachable with honest inputs (the sweep certifies spanning), so the
    # loud-failure contract is checked by injecting the exception
    import weitzlab.cli as cli_mod
    from weitzlab.products import ConjectureViolation

    def explode(_f):
        raise ConjectureViolation("injected")

    monkeypatch.setattr(cli_mod, "decompose", explode)
    result = runner.invoke(main, ["decompose", "--d", "2"], input="x1*x2\n")
    assert result.exit_code == 1
    assert "CONJECTURE VIOLATION" in result.output


def test_decompose_accepts_everything_the_engine_prints(runner):
    from weitzlab.kernel import kernel_basis
    from weitzlab.poly import format_poly

    for d, n in [(2, (2, 1)), (3, (1, 1, 1)), (2, (3, 3))]:
        for poly in kernel_basis(d, n).vectors:
            result = runner.invoke(
                main, ["decompose", "--d", str(d)], input=format_poly(poly) + "\n"
            )
            assert result.exit_code == 0, result.output


def test_crosscheck_command(runner):
    result = runner.invoke(main, ["crosscheck", "--d", "2", "--limit", "4"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["kind"] == "crosscheck"
    assert report["aggregate"]["violations"] == 0
    assert all(row["ok"] for row in report["components"])


def test_crosscheck_csv(runner, tmp_path):
    out = tmp_path / "cross.csv"
    result = runner.invoke(
        main,
        ["crosscheck", "--d", "2", "--limit", "2", "--format", "csv",
         "--out", str(out)],
    )
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,checks,chains_ok,ok,seconds"
    assert len(lines) == 7  # header + six contents with |n| <= 2


@pytest.mark.parametrize("run", [run_verify_sweep, run_crosscheck])
def test_csv_cells_are_the_json_records(run):
    report = run(SweepConfig(d=2, max_total_degree=4, tensor_crosscheck_limit=4))
    records = report.to_dict()["components"]
    rows = list(csv.DictReader(io.StringIO(report.to_csv())))
    assert len(rows) == len(records) == 15
    for row, record in zip(rows, records):
        assert list(row) == list(record)
        for key, value in record.items():
            if key == "n":
                value = ",".join(map(str, value))
            elif key == "checks":
                value = json.dumps(value, sort_keys=True)
            assert row[key] == str(value)


def test_crosscheck_limit_zero_trivially_passes(runner):
    result = runner.invoke(main, ["crosscheck", "--d", "2", "--limit", "0"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["aggregate"]["violations"] == 0
    assert [row["n"] for row in report["components"]] == [[0, 0]]


def test_crosscheck_d3_limit6_includes_222(runner):
    result = runner.invoke(main, ["crosscheck", "--d", "3", "--limit", "6"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    rows = {tuple(row["n"]): row for row in report["components"]}
    row = rows[(2, 2, 2)]
    assert row["ok"]
    shapes = {tuple(check["shape"]): check for check in row["checks"]}
    assert shapes[(3, 3)]["hwv_rank"] == shapes[(3, 3)]["tableau_count"] == 5


def test_sweep_config_refuses_parallelism():
    # the field is only echoed in reports; sweeps run serially
    with pytest.raises(ValueError):
        SweepConfig(d=2, parallelism=2).validate()
