"""Recorded outputs that a refactor must reproduce exactly.

The content digests are the reference configurations from ROADMAP.md.
golden/kernel.txt holds `weitz kernel` output recorded before the
integer component engine replaced the Polynomial route; each block is
the command line followed by its output.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from weitzlab.cli import main
from weitzlab.report import SweepConfig, run_verify_sweep

INVARIANTS = [
    (2, 8, 45, "bc06c2ac48193ebd049b1209e0678915b35a4f4002ccea386a7980092e6f43fa"),
    (3, 6, 84, "9b0f8ef4d6778d17cd8cd74e16f366ccf73200c8738aa38059161246ebb8dced"),
    (4, 6, 210, "179541056d156e87bdb061ac693a9b7f0402d3af6f1dc445d1de4d482292dc68"),
]

GOLDEN = Path(__file__).parent / "golden" / "kernel.txt"


def golden_kernel_runs():
    runs = []
    for block in GOLDEN.read_text().split("$ weitz ")[1:]:
        command, _, output = block.partition("\n")
        runs.append((command.split(), output))
    return runs


@pytest.mark.parametrize("d,max_degree,components,digest", INVARIANTS)
def test_invariant_digests(d, max_degree, components, digest):
    report = run_verify_sweep(SweepConfig(d=d, max_total_degree=max_degree)).to_dict()
    assert report["aggregate"]["components_checked"] == components
    assert report["aggregate"]["violations"] == 0
    assert report["content_digest"] == digest


@pytest.mark.parametrize("args,expected", golden_kernel_runs())
def test_kernel_output_matches_golden(args, expected):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0
    assert result.output == expected
