"""Sweep configuration, runners, and reproducible report serialization.

Reports serialize with a fixed key order so that two runs with the same
configuration produce byte-identical JSON once the timing fields are
stripped; the content digest is the sha256 of the sorted-key dump of
that stripped form.  Verify records are frozen ComponentReports, and
their JSON, digest text and CSV rows are written from the fields, with
no dict per record; to_dict() still builds the dicts, and the tests
check every byte against json and csv writing those dicts.
Components are enumerated in graded lexicographic order (total degree
first, then tuple order), which keeps reports comparable across machines.

verify and crosscheck share one sweep loop (_sweep), which builds one
record per multidegree with products.verify_component or
tensor.crosscheck_component.  The crosscheck route lives in tensor,
which run_crosscheck imports when it runs, so verify never loads it.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field, fields
from operator import attrgetter

from ._version import __version__
from .products import ComponentReport, verify_component

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
    parallelism: int = 1  # echoed in every digest; sweeps run serially
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
        if self.parallelism != 1:
            raise ValueError("sweeps run serially: parallelism must be 1")
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


def enumerate_multidegrees(
    d: int, max_total: int, cap: int | None = None
) -> list[tuple[int, ...]]:
    """All multidegrees with |n| <= max_total, graded lexicographic order.

    Pass k makes tails[t], the lex-ordered k-tuples with entries <= cap
    summing to t, by prepending each entry e to the previous tails[t - e].
    """
    top = max_total if cap is None else cap
    tails = [[()] if t == 0 else [] for t in range(max_total + 1)]
    for _ in range(d):
        tails = [
            [(e,) + rest for e in range(min(t, top) + 1) for rest in tails[t - e]]
            for t in range(max_total + 1)
        ]
    return [n for level in tails for n in level]


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

    def _digested(self) -> dict:
        """The report with an empty components list, digesting its untimed records.

        The digest hashes json.dumps(strip_timing(self.to_dict()),
        sort_keys=True).  Verify records are written by _record_digest_json,
        with no dict built; crosscheck rows, which nest, go through
        json.dumps.  The record list is spliced into the dump of the rest
        of the body at its "components" key: json escapes every quote
        inside a string, and only the top-level "components" key can be
        followed by the empty list, so the first match is that key.
        """
        if self.rows:
            records = json.dumps([strip_timing(r) for r in self.rows], sort_keys=True)
        else:
            records = "[" + ", ".join(map(_record_digest_json, self.components)) + "]"
        body = {
            "schema_version": SCHEMA_VERSION,
            "tool": "weitzlab",
            "tool_version": __version__,
            "kind": self.kind,
            "config": self.config.to_dict(),
            "components": [],
            "aggregate": {
                "components_checked": len(self.rows or self.components),
                "violations": self.violations,
                "total_seconds": self.total_seconds,
            },
        }
        text = json.dumps(strip_timing(body), sort_keys=True)
        text = text.replace('"components": []', '"components": ' + records, 1)
        body["content_digest"] = hashlib.sha256(text.encode()).hexdigest()
        return body

    def to_dict(self) -> dict:
        body = self._digested()
        body["components"] = self.rows or [c.to_dict() for c in self.components]
        return body

    def to_json(self) -> str:
        """json.dumps(self.to_dict(), indent=2) plus a newline, byte for byte.

        indent selects json's pure-Python encoder, so verify records are
        written by _record_json instead, and no record dict is built;
        the rest of the body, and crosscheck rows, which nest, still go
        through json.dumps.
        """
        if self.rows:
            return json.dumps(self.to_dict(), indent=2) + "\n"
        body = self._digested()
        fields = []
        for key, value in body.items():
            if key == "components" and self.components:
                text = "[\n" + ",\n".join(map(_record_json, self.components)) + "\n  ]"
            else:
                text = json.dumps(value, indent=2).replace("\n", "\n  ")
            fields.append(f"  {json.dumps(key)}: {text}")
        return "{\n" + ",\n".join(fields) + "\n}\n"

    def to_csv(self) -> str:
        """One row per record, n written as "a,b,...".

        Verify rows are written straight from the ComponentReports;
        crosscheck rows from their dicts, checks as sorted-key JSON.
        """
        import csv

        buf = io.StringIO()
        if self.kind == "verify":
            names = [f.name for f in fields(ComponentReport)]  # n first
            cells = attrgetter(*names[1:])
            writer = csv.writer(buf)
            writer.writerow(names)
            for c in self.components:
                writer.writerow((",".join(map(str, c.n)), *cells(c)))
            return buf.getvalue()
        writer = csv.DictWriter(buf, fieldnames=["n", "checks", "chains_ok", "ok", "seconds"])
        writer.writeheader()
        for row in self.rows:
            flat = dict(row)
            flat["n"] = ",".join(str(k) for k in row["n"])
            flat["checks"] = json.dumps(flat["checks"], sort_keys=True)
            writer.writerow(flat)
        return buf.getvalue()


def _float_json(value: float) -> str:
    """json.dumps(value) for a float: its repr when finite."""
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


def _record_json(c: ComponentReport) -> str:
    """c.to_dict() as json.dumps(indent=2) writes it in the components list."""
    n = ",\n        ".join(map(str, c.n))  # never empty: SweepConfig.validate keeps d >= 1
    return (
        f'    {{\n      "n": [\n        {n}\n      ],\n'
        f'      "dim_kernel": {c.dim_kernel},\n'
        f'      "dim_span": {c.dim_span},\n'
        f'      "dim_tableau_oracle": {c.dim_tableau_oracle},\n'
        f'      "product_count": {c.product_count},\n'
        f'      "verdict": {"true" if c.verdict else "false"},\n'
        f'      "seconds": {_float_json(c.seconds)}\n    }}'
    )


def _record_digest_json(c: ComponentReport) -> str:
    """json.dumps(c.to_dict() without "seconds", sort_keys=True)."""
    n = ", ".join(map(str, c.n))
    return (
        f'{{"dim_kernel": {c.dim_kernel}, "dim_span": {c.dim_span}, '
        f'"dim_tableau_oracle": {c.dim_tableau_oracle}, "n": [{n}], '
        f'"product_count": {c.product_count}, '
        f'"verdict": {"true" if c.verdict else "false"}}}'
    )


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


def _sweep(config: SweepConfig, limit: int, record) -> tuple[list, float]:
    """(record(d, n) for each n with |n| <= limit, seconds), after config.validate()."""
    config.validate()
    start = time.perf_counter()
    degrees = enumerate_multidegrees(config.d, limit, config.per_index_cap)
    records = [record(config.d, n) for n in degrees]
    return records, time.perf_counter() - start


def run_verify_sweep(config: SweepConfig) -> SweepReport:
    """verify_component over every multidegree in the configured box, serially.

    verify_component is read as this module's global when the sweep
    starts, so rebinding report.verify_component before it (as
    perfbench's tracer does) takes effect.
    """
    components, seconds = _sweep(config, config.max_total_degree, verify_component)
    return SweepReport(config=config, components=components, total_seconds=seconds)


def run_crosscheck(config: SweepConfig) -> SweepReport:
    """Tensor-count and ladder audit over every multidegree with |n| <= the limit.

    One row per multidegree; its checks are read from the cache of its
    sorted nonzero content (see tensor.crosscheck_component).  tensor is
    imported here, so a verify run never loads it.
    """
    from .tensor import crosscheck_component

    limit = config.tensor_crosscheck_limit
    rows, seconds = _sweep(config, limit, crosscheck_component)
    return SweepReport(config, [], seconds, kind="crosscheck", rows=rows)
