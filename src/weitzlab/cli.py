"""Command line surface: verify sweeps, kernel inspection, decomposition.

Exit codes: 0 all checks passed, 1 at least one verdict failed (or the
input polynomial was not a constant), 2 usage or configuration error,
such as a kernel or decompose component above MAX_COMPONENT_DIMENSION, a
kernel or crosscheck weight block above MAX_BLOCK_SIZE or a decompose one
above MAX_STANDARD_PRODUCTS, refused before any work, 3 I/O error.
"""

from __future__ import annotations

import json
import sys
from math import comb, prod

import click

from ._version import __version__
from .kernel import kernel_basis, weight_block_sizes
from .poly import PolyParseError, format_poly, parse_poly
from .products import (
    ConjectureViolation,
    NotHomogeneous,
    NotInKernel,
    decompose,
    pair_order,
)
from .report import SweepConfig, run_crosscheck, run_verify_sweep

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

MAX_COMPONENT_DIMENSION = 10**6
# A weight block of (1^n) above q = 1 eliminates delta'^2 on W_q(1^(n-1)) as a
# dense matrix, each step of n about 5 times slower than the last: kernel on
# (1^14), whose middle block has 3432 positions, takes half a minute.
MAX_BLOCK_SIZE = comb(14, 7)
# decompose builds one standard product per position of the largest block:
# (1^15)'s 6435 take 0.7 s, (1^16)'s 12870 2.2 s and 200 MB.
MAX_STANDARD_PRODUCTS = comb(16, 8)


def _parse_multidegree(text: str) -> tuple[int, ...]:
    try:
        n = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"cannot parse multidegree {text!r}")
    if any(k < 0 for k in n):
        raise click.UsageError("multidegree entries must be nonnegative")
    return n


def _check_component_size(n: tuple[int, ...]) -> None:
    """Refuse n if its dimension prod(n_i + 1) is above MAX_COMPONENT_DIMENSION.

    kernel and decompose build an object per monomial or standard product
    of the component, so a larger one runs for minutes or exhausts memory.
    """
    dimension = prod(k + 1 for k in n)
    if dimension > MAX_COMPONENT_DIMENSION:
        raise click.UsageError(
            f"component n={','.join(map(str, n))} has dimension {dimension}, "
            f"above the limit of {MAX_COMPONENT_DIMENSION}"
        )


def _check_block_size(size: int, what: str, limit: int = MAX_BLOCK_SIZE) -> None:
    """Refuse a run whose largest weight block has more than limit positions."""
    if size > limit:
        raise click.UsageError(
            f"{what} has a weight block of {size} positions, above the limit of {limit}"
        )


def _emit(report, config: SweepConfig) -> None:
    text = report.to_json() if config.output_format == "json" else report.to_csv()
    if config.output_path in ("-", ""):
        click.echo(text, nl=False)
        return
    try:
        with open(config.output_path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        click.echo(f"error: cannot write report: {exc}", err=True)
        sys.exit(EXIT_IO)


def _sweep_command(config: SweepConfig, run, unit: str) -> None:
    """Validate config, run the sweep, emit its report and exit with its verdict."""
    try:
        config.validate()
    except ValueError as exc:
        raise click.UsageError(str(exc))
    report = run(config)
    _emit(report, config)
    if report.violations:
        click.echo(f"FAIL: {report.violations} {unit}(s) disagree", err=True)
        sys.exit(EXIT_VIOLATION)
    sys.exit(EXIT_OK)


@click.group()
@click.version_option(version=__version__, prog_name="weitz")
def main():
    """Exact verification of the algebra of constants of the derivation
    sending y_i to x_i and x_i to 0."""


@main.command()
@click.option("--d", "d", type=click.IntRange(min=1), required=True,
              help="Number of variable pairs.")
@click.option("--max-degree", type=click.IntRange(min=0), default=4,
              show_default=True, help="Bound on the total multidegree |n|.")
@click.option("--cap", type=click.IntRange(min=0), default=None,
              help="Optional bound on each individual n_i.")
@click.option("--format", "output_format", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--out", "output_path", default="-", show_default=True,
              help="Report path, or - for stdout.")
def verify(d, max_degree, cap, output_format, output_path):
    """Check kernel = product span = tableau count on every component."""
    config = SweepConfig(
        d=d,
        max_total_degree=max_degree,
        per_index_cap=cap,
        output_format=output_format,
        output_path=output_path,
    )
    _sweep_command(config, run_verify_sweep, "component")


@main.command()
@click.option("--d", "d", type=click.IntRange(min=1), required=True)
@click.option("--n", "n_text", required=True,
              help="Multidegree, comma separated, e.g. 1,1.")
def kernel(d, n_text):
    """Print a basis of the constants of one multidegree component."""
    n = _parse_multidegree(n_text)
    if len(n) != d:
        raise click.UsageError(f"multidegree must have {d} entries")
    _check_component_size(n)
    _check_block_size(max(weight_block_sizes(n)), f"component n={n_text}")
    basis = kernel_basis(d, n)
    click.echo(f"component n={','.join(map(str, n))}  dimension {basis.dimension}")
    for (p, q), dim in basis.dims_by_biweight:
        click.echo(f"  bi-weight ({p},{q}): dimension {dim}")
    for poly in basis.vectors:
        click.echo(format_poly(poly))
    sys.exit(EXIT_OK)


@main.command(name="decompose")
@click.option("--d", "d", type=click.IntRange(min=1), required=True)
@click.option("--format", "output_format", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
@click.option("--split", is_flag=True,
              help="Decompose each multidegree component separately.")
@click.argument("source", type=click.File("r"), default="-")
def decompose_cmd(d, output_format, split, source):
    """Express a constant as a polynomial in x_i and the u_ij.

    Reads the polynomial from SOURCE (default stdin) in the textual
    format, e.g. 'x1*y2 - x2*y1'.
    """
    text = source.read()
    try:
        poly = parse_poly(text, d)
    except PolyParseError as exc:
        raise click.UsageError(f"cannot parse polynomial: {exc}")
    if split and not poly.is_zero:
        parts = poly.multidegree_components()
    else:
        parts = {poly.multidegree(): poly}
    for n in parts:
        if n is not None:  # a mixed input fails fast with NotHomogeneous below
            _check_component_size(n)
            what = f"component n={','.join(map(str, n))}"
            _check_block_size(max(weight_block_sizes(n)), what, MAX_STANDARD_PRODUCTS)
    try:
        certificates = {n: decompose(part) for n, part in parts.items()}
    except NotInKernel as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VIOLATION)
    except NotHomogeneous:
        click.echo(
            "error: input mixes multidegrees; rerun with --split or decompose "
            "each component separately",
            err=True,
        )
        sys.exit(EXIT_USAGE)
    except ConjectureViolation as exc:
        click.echo(f"CONJECTURE VIOLATION: {exc}", err=True)
        sys.exit(EXIT_VIOLATION)
    if output_format == "json":
        payload = [
            {
                "n": list(n) if n is not None else None,
                "terms": [
                    {
                        "coefficient": str(c),
                        "p": list(t.p),
                        "u": [
                            [i, j, e]
                            for (i, j), e in zip(pair_order(t.d), t.q)
                            if e
                        ],
                        "label": t.label(),
                    }
                    for t, c in cert.items()
                ],
            }
            for n, cert in certificates.items()
        ]
        click.echo(json.dumps(payload, indent=2))
    else:
        for n, cert in certificates.items():
            if len(certificates) > 1:
                click.echo(f"component n={','.join(map(str, n))}:")
            if not cert:
                click.echo("  0")
            for t, c in cert.items():
                click.echo(f"  {t.label()}: {c}")
    sys.exit(EXIT_OK)


@main.command()
@click.option("--d", "d", type=click.IntRange(min=1), required=True)
@click.option("--limit", type=click.IntRange(min=0), default=4, show_default=True,
              help="Bound on the content total |n| for the tensor audit.")
@click.option("--format", "output_format", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--out", "output_path", default="-", show_default=True)
def crosscheck(d, limit, output_format, output_path):
    """Audit tableau counts against tensor ranks, plus ladders."""
    _check_block_size(comb(limit, limit // 2), f"crosscheck --limit {limit}")
    config = SweepConfig(
        d=d,
        tensor_crosscheck_limit=limit,
        output_format=output_format,
        output_path=output_path,
    )
    _sweep_command(config, run_crosscheck, "content")


if __name__ == "__main__":
    main()
