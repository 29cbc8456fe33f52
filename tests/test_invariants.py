"""Recorded outputs that a refactor must reproduce exactly.

The verify digests are the reference configurations from ROADMAP.md; the
d=4 |n|<=10 tier, whose kernel blocks reach 28 columns, was recorded with
the Bareiss reducer that tests/oracles.py keeps, and the d=8 |n|<=8 tier
by a sweep that computed every component, before components that share
a content shared one computation, and the d=8 |n|<=10 tier before a
content's kernel and span numbers were read from its sorted content.
The d=8 |n|<=12 tier of ROADMAP.md, recorded before the span was ranked
on the standard products, is too slow for this suite; CI checks it
through the CLI.  The crosscheck digests
were recorded before the tensor-block rank and the independence check
moved to integer rows, the d=3 L=9 tier before the tensor words became
integer columns over y-position masks, and the d=4 L=8 tier before the
ladder check moved from Fraction Polynomials to integer vectors, once
per sorted content.  The d=8 L=6 tier, whose 3,003 rows fall on few
sorted contents, was recorded before the tensor checks were computed
once per sorted content; CI checks the d=2 L=12, d=2 L=13, d=3 L=10 and
d=6 L=7 tiers through the CLI.  The capped tier pins the --cap
enumeration; CI checks d=12 |n|<=12 cap 1, every multilinear component,
through the CLI.  golden/kernel.txt holds
`weitz kernel` output recorded before the integer component engine
replaced the Polynomial route, and golden/decompose.txt holds
`weitz decompose --format json` certificates recorded before the solver's
back substitution moved to integers; its Plucker block, and the
certificate digest, were re-recorded when decompose moved to the
standard products, where the certificate is unique.  Each golden block
is the command line, with its standard input as a here-string after
`<<<`, followed by its output.  The certificate digest pins which
certificate is returned, not only that it re-expands.  Verify reports
are written without json's indenting encoder, so their bytes are
checked against json.dumps(indent=2) on the invariant tiers; their
digest and CSV are written from the records' fields, and checked against
the sorted-key dump and csv.DictWriter of the record dicts.
"""

import hashlib
import json
import random
import shlex
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from weitzlab.cli import main
from weitzlab.poly import Polynomial
from weitzlab.products import decompose, enumerate_products, expand
from weitzlab.report import (
    SweepConfig,
    SweepReport,
    enumerate_multidegrees,
    run_crosscheck,
    run_verify_sweep,
)

from oracles import csv_oracle, digest_oracle

INVARIANTS = [
    (2, 8, 45, "bc06c2ac48193ebd049b1209e0678915b35a4f4002ccea386a7980092e6f43fa"),
    (3, 6, 84, "9b0f8ef4d6778d17cd8cd74e16f366ccf73200c8738aa38059161246ebb8dced"),
    (4, 6, 210, "179541056d156e87bdb061ac693a9b7f0402d3af6f1dc445d1de4d482292dc68"),
    (2, 30, 496, "df6f9853b6ff14397ac6f6dba4d902b72c621c42b2ea7140e953fa29b90d1971"),
    (4, 10, 1001, "45f333bc755efd543ff49e650e64b504c1e68e33369b4e46f2fac1360357d32f"),
    (8, 8, 12870, "0c57dff3aa4d81c1e6b413aa18abaa218b1d0280b264535741d00216b78a53f7"),
    (3, 24, 2925, "c0bce663eae82aa1afab45a762258eb3aa33dde1527d05d08dcb2869cfdb17eb"),
    (8, 10, 43758, "8d34e4e42cdd774c3fb7346dd83f4982fc8d82e6cae0899ea0c86cfb8065cace"),
]

# (d, max_degree, per-index cap, components, digest): the --cap enumeration
CAPPED = [
    (5, 10, 2, 243, "f7612a59f3f69e38bd5af385f2333330a23e7bfb96b90c6a3009c9c96c2d669e"),
]

CROSSCHECK = [
    (2, 6, 28, "912a55e3a3ec048c122525a8c373ce3890fe90191891d8449035fabede48380e"),
    (3, 4, 35, "c6b76c851ea716e1de138963ea536f314be6a4f4d0ccde1559d8c4af0b2e74d6"),
    (4, 4, 70, "1802571bf1e3100e64e783434d995a9c0f18df788980b0f04f6eebfb16a0874b"),
    (3, 9, 220, "cb16c1973db522b0bc583d23f4aab33b02abf9bad7dee67466babe2fd5f9b895"),
    (4, 8, 495, "2f9ad010da3d1e9395ca5edfdcac36d9c9bd7e1bda1b9c42ab36a2027968c077"),
    (8, 6, 3003, "b4ff432ea5b08d3eab4ae85f4ea34551e550ff97223a5cf56d70677412d85ac3"),
]

CERTIFICATE_DIGEST = "e9a4c2d58a37f9d14ff191f449168478c14937413ad38d75a93b09f82cadc08d"

GOLDEN = Path(__file__).parent / "golden"


def golden_runs(name):
    """(argv, stdin or None, output) for every `$ weitz ...` block of golden/name."""
    runs = []
    for block in (GOLDEN / name).read_text().split("$ weitz ")[1:]:
        command, _, output = block.partition("\n")
        command, _, here = command.partition(" <<< ")
        stdin = shlex.split(here)[0] + "\n" if here else None
        runs.append((command.split(), stdin, output))
    return runs


def golden_kernel_runs():
    return [(args, output) for args, _, output in golden_runs("kernel.txt")]


def check_sweep(config, components, digest):
    report = run_verify_sweep(config).to_dict()
    assert report["aggregate"]["components_checked"] == components
    assert report["aggregate"]["violations"] == 0
    assert report["content_digest"] == digest


@pytest.mark.parametrize("d,max_degree,components,digest", INVARIANTS)
def test_invariant_digests(d, max_degree, components, digest):
    check_sweep(SweepConfig(d=d, max_total_degree=max_degree), components, digest)


@pytest.mark.parametrize("d,max_degree,cap,components,digest", CAPPED)
def test_capped_invariant_digests(d, max_degree, cap, components, digest):
    config = SweepConfig(d=d, max_total_degree=max_degree, per_index_cap=cap)
    check_sweep(config, components, digest)


def test_to_json_writes_the_bytes_of_json_dumps():
    """to_json writes verify records itself; json.dumps(indent=2) is the reference."""
    reports = [  # the five smallest tiers; the larger ones add only records of the same shape
        run_verify_sweep(SweepConfig(d=d, max_total_degree=m)) for d, m, _, _ in INVARIANTS[:5]
    ]
    small = reports[0]
    odd = (1e-05, 2.5e-07, 1e16, 0.0, 123.0, float("inf"), float("nan"))
    timed = [replace(c, seconds=t) for c, t in zip(small.components, odd)]
    reports.append(replace(small, components=timed, total_seconds=3e-06))
    reports.append(SweepReport(config=SweepConfig(d=2), components=[], total_seconds=1e-05))
    reports.append(run_crosscheck(SweepConfig(d=2, tensor_crosscheck_limit=3)))
    for report in reports:
        assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"


def test_content_digest_is_the_digest_of_the_record_dicts():
    """_digested writes verify records itself; the sorted-key dump of to_dict() is the reference."""
    configs = [SweepConfig(d=d, max_total_degree=m) for d, m, _, _ in INVARIANTS[:3]]
    configs += [
        SweepConfig(d=1, max_total_degree=0),
        SweepConfig(d=4, max_total_degree=4, per_index_cap=1),
    ]
    reports = [run_verify_sweep(config) for config in configs]
    small = reports[0]
    failed = list(small.components)
    failed[7] = replace(failed[7], verdict=False)
    reports.append(replace(small, components=failed))
    for report in reports:
        assert report.to_dict()["content_digest"] == digest_oracle(report)
    assert len({report.to_dict()["content_digest"] for report in reports}) == len(reports)


@pytest.mark.parametrize(
    "config",
    [SweepConfig(d=3, max_total_degree=6), SweepConfig(d=4, max_total_degree=4, per_index_cap=1)],
    ids=["d3-m6", "d4-m4-cap1"],
)
def test_to_csv_writes_the_bytes_of_dict_writer(config):
    report = run_verify_sweep(config)
    assert report.to_csv() == csv_oracle(report)


@pytest.mark.parametrize("args,expected", golden_kernel_runs())
def test_kernel_output_matches_golden(args, expected):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0
    assert result.output == expected


DECOMPOSE_RUNS = golden_runs("decompose.txt")


@pytest.mark.parametrize(
    "args,stdin,expected",
    DECOMPOSE_RUNS,
    ids=[stdin.strip() for _, stdin, _ in DECOMPOSE_RUNS],
)
def test_decompose_output_matches_golden(args, stdin, expected):
    result = CliRunner().invoke(main, args, input=stdin)
    assert result.exit_code == 0
    assert result.output == expected


@pytest.mark.parametrize("d,limit,contents,digest", CROSSCHECK)
def test_crosscheck_digests(d, limit, contents, digest):
    config = SweepConfig(d=d, tensor_crosscheck_limit=limit)
    report = run_crosscheck(config).to_dict()
    assert report["aggregate"]["components_checked"] == contents
    assert report["aggregate"]["violations"] == 0
    assert report["content_digest"] == digest


def certificate_inputs():
    """(d, n, f): one seeded rational combination of products per component, d <= 4, |n| <= 6."""
    rng = random.Random(2019)
    for d in range(1, 5):
        for n in enumerate_multidegrees(d, 6):
            terms = enumerate_products(d, n)
            f = Polynomial.zero(d)
            while f.is_zero:  # a Pluecker combination can cancel to zero
                for t in rng.sample(terms, rng.randint(1, min(4, len(terms)))):
                    f = f + expand(t) * Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            yield d, n, f


def test_decompose_certificate_digest():
    digest = hashlib.sha256()
    for _, n, f in certificate_inputs():
        certificate = decompose(f)
        key = (n, sorted((t.p, t.q, str(c)) for t, c in certificate.items()))
        digest.update(repr(key).encode())
    assert digest.hexdigest() == CERTIFICATE_DIGEST
