"""Span tracing for the benchmark's traced runs, kept outside the package.

install() rebinds each traced function under the name its caller looks it
up by (for example products.kostka, which verify_component calls), so the
package itself is untouched and the rebinding lives only in the process
that installs it (and in pool workers forked from it).  Each call records
a span (id, parent id, name, start, end); a layer's self time is its span
durations minus the durations of its direct child spans.  Calls are
strictly nested within one process, so the children of a span never
overlap and their summed durations are exactly the part of the parent's
interval they cover.

Spans are aggregated after every component (or, for the decompose stream,
once at the end) and the aggregate travels back with the component's
report, which is how per-layer numbers leave pool workers.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field, fields

from weitzlab import kernel, linalg, poly, products, report, tableaux
from weitzlab.products import ComponentReport

__all__ = ["Tracer", "TracedReport", "install", "self_times"]


def self_times(spans) -> dict[str, float]:
    """Self time per span name from (id, parent_id, name, start, end) records.

    parent_id is None for a root span.  Every parent must be among the
    spans, which holds whenever they are taken with no span open.
    """
    name_of = {sid: name for sid, _, name, _, _ in spans}
    out: dict[str, float] = defaultdict(float)
    for _, parent, name, start, end in spans:
        out[name] += end - start
        if parent is not None:
            out[name_of[parent]] -= end - start
    return dict(out)


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.max: dict[str, int] = defaultdict(int)
        self.names: list[str] = []

    def wrap(self, name, fn, cached=False, on_result=None):
        """fn with a span per call; cached=True also counts lru_cache hits.

        on_result(tracer, args, result, hit) records layer-specific counts;
        hit is None for uncached functions.
        """
        self.names.append(name)
        spans, stack, clock, counts = self.spans, self.stack, self.clock, self.counts

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1] if stack else None
            if cached:
                misses = fn.cache_info().misses
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            counts[name + ".calls"] += 1
            hit = fn.cache_info().misses == misses if cached else None
            if hit:
                counts[name + ".hits"] += 1
            if on_result is not None:
                on_result(self, args, result, hit)
            return result

        return traced

    def drain(self) -> dict:
        """Aggregate and forget everything recorded so far; no span may be open."""
        if self.stack:
            raise RuntimeError("cannot drain while a span is open")
        out = {
            "self_s": self_times(self.spans),
            "counts": dict(self.counts),
            "max": dict(self.max),
        }
        self.spans.clear()
        self.counts.clear()
        self.max.clear()
        return out


@dataclass(frozen=True)
class TracedReport(ComponentReport):
    """A ComponentReport carrying the layer aggregate of its own component.

    to_dict() is inherited unchanged, so reports and digests are the same
    as untraced ones.
    """

    layers: dict | None = field(default=None, compare=False)


def _count_cells(tracer, args, result, hit):
    rows = args[0]
    tracer.counts["rowred.echelonize.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_dim(tracer, args, result, hit):
    key = "poly.component_basis.max_dim"
    tracer.max[key] = max(tracer.max[key], len(result))


def _count_products(tracer, args, result, hit):
    if not hit:
        tracer.counts["products.enumerate_products.total"] += len(result)


def install(tracer: Tracer) -> None:
    """Rebind every traced layer where its caller looks it up."""
    wrap = tracer.wrap
    products.kostka = wrap("tableaux.kostka", tableaux.kostka, cached=True)
    products.expand = wrap("products.expand", products.expand, cached=True)
    products.kernel_basis = wrap("kernel.kernel_basis", kernel.kernel_basis, cached=True)
    traced_is_constant = wrap("derivation.is_constant", products.is_constant)
    products.is_constant = kernel.is_constant = traced_is_constant
    traced_basis = wrap(
        "poly.component_basis", poly.component_basis, cached=True, on_result=_count_dim
    )
    products.component_basis = kernel.component_basis = traced_basis
    products.enumerate_products = wrap(
        "products.enumerate_products",
        products.enumerate_products,
        cached=True,
        on_result=_count_products,
    )
    products.span_dimension = wrap("products.span_dimension", products.span_dimension)
    products.decompose = wrap("products.decompose", products.decompose)
    poly.parse_poly = wrap("poly.parse_poly", poly.parse_poly)
    linalg.LinearSolver.__init__ = wrap(
        "linalg.LinearSolver.init", linalg.LinearSolver.__init__
    )
    linalg.LinearSolver.solve = wrap("linalg.LinearSolver.solve", linalg.LinearSolver.solve)
    linalg._core.echelonize = wrap(
        "rowred.echelonize", linalg._core.echelonize, on_result=_count_cells
    )
    verify = wrap("report.verify_component", report.verify_component)
    plain = [f.name for f in fields(ComponentReport)]

    def verify_and_drain(d, n):
        rep = verify(d, n)
        return TracedReport(**{k: getattr(rep, k) for k in plain}, layers=tracer.drain())

    report.verify_component = verify_and_drain
