"""Sweep configuration, runners, and reproducible report serialization.

Reports are plain dicts with a fixed key order so that two runs with the
same configuration produce byte-identical JSON once the timing fields are
stripped; the content digest is the sha256 of exactly that stripped form.
Components are enumerated in graded lexicographic order (total degree
first, then tuple order), which keeps reports comparable across machines.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from dataclasses import dataclass, field

from ._version import __version__
from .derivation import build_chain, delta
from .kernel import kernel_basis
from .linalg import integer_rank, primitive_integer_vector
from .products import ComponentReport, verify_component
from .tableaux import standard_tableau_count, two_row_partitions

SCHEMA_VERSION = 1

__all__ = [
    "SweepConfig",
    "SweepReport",
    "run_verify_sweep",
    "run_crosscheck",
    "enumerate_multidegrees",
    "strip_timing",
]


@dataclass
class SweepConfig:
    """Bounds and output options for a verification or crosscheck run."""

    d: int
    max_total_degree: int = 4
    per_index_cap: int | None = None
    tensor_crosscheck_limit: int = 4
    parallelism: int = 1
    output_path: str = "-"
    output_format: str = "json"

    def validate(self) -> None:
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.max_total_degree < 0:
            raise ValueError("max total degree must be nonnegative")
        if self.per_index_cap is not None and self.per_index_cap < 0:
            raise ValueError("per-index cap must be nonnegative")
        if self.tensor_crosscheck_limit < 0:
            raise ValueError("tensor crosscheck limit must be nonnegative")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.output_format!r}")

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "max_total_degree": self.max_total_degree,
            "per_index_cap": self.per_index_cap,
            "tensor_crosscheck_limit": self.tensor_crosscheck_limit,
            "parallelism": self.parallelism,
            "output_format": self.output_format,
        }


def _compositions(total: int, parts: int, cap: int):
    """Tuples of `parts` entries in 0..cap summing to total, in lex order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(max(0, total - cap * (parts - 1)), min(total, cap) + 1):
        for rest in _compositions(total - first, parts - 1, cap):
            yield (first,) + rest


def enumerate_multidegrees(
    d: int, max_total: int, cap: int | None = None
) -> list[tuple[int, ...]]:
    """All multidegrees with |n| <= max_total, graded lexicographic order."""
    out = []
    for total in range(max_total + 1):
        out.extend(_compositions(total, d, total if cap is None else cap))
    return out


def _verify_job(args: tuple[int, tuple[int, ...]]) -> ComponentReport:
    d, n = args
    return verify_component(d, n)


@dataclass
class SweepReport:
    """Config echo, one record per component, and the aggregate verdict."""

    config: SweepConfig
    components: list[ComponentReport]
    total_seconds: float
    kind: str = "verify"
    rows: list[dict] = field(default_factory=list)

    @property
    def violations(self) -> int:
        if self.rows:
            return sum(1 for r in self.rows if not r["ok"])
        return sum(1 for r in self.components if not r.verdict)

    def to_dict(self) -> dict:
        body = {
            "schema_version": SCHEMA_VERSION,
            "tool": "weitzlab",
            "tool_version": __version__,
            "kind": self.kind,
            "config": self.config.to_dict(),
            "components": (
                self.rows if self.rows else [c.to_dict() for c in self.components]
            ),
            "aggregate": {
                "components_checked": len(self.rows or self.components),
                "violations": self.violations,
                "total_seconds": self.total_seconds,
            },
        }
        body["content_digest"] = hashlib.sha256(
            json.dumps(strip_timing(body), sort_keys=True).encode()
        ).hexdigest()
        return body

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        import csv

        buf = io.StringIO()
        rows = self.to_dict()["components"]
        if self.kind == "verify":
            names = [
                "n",
                "dim_kernel",
                "dim_span",
                "dim_tableau_oracle",
                "product_count",
                "verdict",
                "seconds",
            ]
        else:
            names = ["n", "checks", "chains_ok", "ok", "seconds"]
        writer = csv.DictWriter(buf, fieldnames=names)
        writer.writeheader()
        for row in rows:
            flat = dict(row)
            flat["n"] = ",".join(str(k) for k in row["n"])
            if "checks" in flat:
                flat["checks"] = json.dumps(flat["checks"], sort_keys=True)
            writer.writerow(flat)
        return buf.getvalue()


def strip_timing(report: dict) -> dict:
    """Drop wall-clock fields and the digest; used for digests and diffs."""
    out = {}
    for key, value in report.items():
        if key in ("seconds", "total_seconds", "content_digest"):
            continue
        if isinstance(value, dict):
            out[key] = strip_timing(value)
        elif isinstance(value, list):
            out[key] = [strip_timing(v) if isinstance(v, dict) else v for v in value]
        else:
            out[key] = value
    return out


def run_verify_sweep(config: SweepConfig) -> SweepReport:
    """verify_component over every multidegree in the configured box."""
    config.validate()
    start = time.perf_counter()
    degrees = enumerate_multidegrees(
        config.d, config.max_total_degree, config.per_index_cap
    )
    jobs = [(config.d, n) for n in degrees]
    if config.parallelism > 1 and len(jobs) > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(
            max_workers=config.parallelism
        ) as pool:
            components = list(pool.map(_verify_job, jobs, chunksize=8))
    else:
        components = [_verify_job(job) for job in jobs]
    return SweepReport(
        config=config,
        components=components,
        total_seconds=time.perf_counter() - start,
    )


# ------------------------------------------------------------------ crosscheck


def _crosscheck_component(d: int, n: tuple[int, ...]) -> dict:
    """Audit one content: tableau counts vs ranks, equivariance, ladders."""
    from .tensor import (
        delta_tensor,
        element_y_coordinates,
        hwv_space_dimension,
        project_to_polynomial,
        standard_hwv_basis,
    )

    start = time.perf_counter()
    total = sum(n)
    checks = []
    ok = True
    for shape in two_row_partitions(total):
        expected = standard_tableau_count(shape)
        rank_dim = hwv_space_dimension(total, shape)
        basis = standard_hwv_basis(d, n, shape)
        constants = all(delta_tensor(w).is_zero for w in basis)
        rows = [primitive_integer_vector(element_y_coordinates(w)[1]) for w in basis]
        independent = (
            integer_rank(rows, len(rows[0])) == len(basis) if basis else True
        )
        equivariant = all(
            project_to_polynomial(delta_tensor(w)) == delta(project_to_polynomial(w))
            for w in basis
        )
        agree = rank_dim == expected and len(basis) == expected
        row_ok = agree and constants and independent and equivariant
        ok = ok and row_ok
        checks.append(
            {
                "shape": list(shape),
                "hwv_rank": rank_dim,
                "tableau_count": expected,
                "basis_size": len(basis),
                "independent": independent,
                "delta_constant": constants,
                "projection_equivariant": equivariant,
                "ok": row_ok,
            }
        )
    chains_ok = True
    for vector in kernel_basis(d, n).vectors:
        try:
            build_chain(vector)
        except ValueError:
            chains_ok = False
    ok = ok and chains_ok
    return {
        "n": list(n),
        "checks": checks,
        "chains_ok": chains_ok,
        "ok": ok,
        "seconds": time.perf_counter() - start,
    }


def run_crosscheck(config: SweepConfig) -> SweepReport:
    """Tensor-count and ladder audit over all contents up to the limit."""
    config.validate()
    start = time.perf_counter()
    degrees = enumerate_multidegrees(
        config.d, config.tensor_crosscheck_limit, config.per_index_cap
    )
    rows = [_crosscheck_component(config.d, n) for n in degrees]
    return SweepReport(
        config=config,
        components=[],
        rows=rows,
        kind="crosscheck",
        total_seconds=time.perf_counter() - start,
    )
