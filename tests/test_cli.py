"""Command line contract: flags, exit codes, report shapes, determinism."""

import json
import os
import subprocess
import sys
from itertools import product

import pytest
from click.testing import CliRunner

import weitzlab
from weitzlab.cli import main
from weitzlab.report import (
    SweepConfig,
    enumerate_multidegrees,
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


def test_verify_parallelism_env_default(runner, monkeypatch):
    monkeypatch.setenv("WEITZ_PARALLELISM", "2")
    result = runner.invoke(main, ["verify", "--d", "1", "--max-degree", "2"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["config"]["parallelism"] == 2


def test_import_loads_only_what_commands_share():
    # crosscheck, the pool and CSV output import these on first use
    code = (
        "import sys, weitzlab\n"
        "lazy = ['weitzlab.tensor', 'concurrent.futures', 'logging', 'csv']\n"
        "loaded = [m for m in lazy if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "missing = [n for n in weitzlab.__all__ if getattr(weitzlab, n, None) is None]\n"
        "assert not missing, missing\n"
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

    for d in range(1, 5):
        for max_total in range(7):
            for cap in (None, 0, 1, 2):
                assert enumerate_multidegrees(d, max_total, cap) == box_filter(
                    d, max_total, cap
                )


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


def test_parallel_sweep_matches_serial():
    serial = run_verify_sweep(SweepConfig(d=2, max_total_degree=3, parallelism=1))
    parallel = run_verify_sweep(SweepConfig(d=2, max_total_degree=3, parallelism=2))
    assert strip_timing(serial.to_dict())["components"] == strip_timing(
        parallel.to_dict()
    )["components"]
