"""One benchmark step in a fresh interpreter; prints one JSON object.

run.py starts this script once per timed repetition, so each repetition
pays for interpreter start-up, the package import and cold lru_caches,
as every `weitz` command does.

    python3 perfbench/worker.py rep --workload sweep-wide [--trace] [--probe]
    python3 perfbench/worker.py rep --workload decompose-stream --inputs FILE
    python3 perfbench/worker.py gen --workload decompose-stream --seed 1 --out FILE
    python3 perfbench/worker.py preflight

rep --probe stops at the point where the first operation would be issued,
which run.py uses to sample set-up time on its own.
"""

import argparse
import json
import os
import random
import resource
import sys
import time

import weitzlab
from weitzlab import kernel, poly, products, tableaux
from weitzlab.poly import Polynomial
from weitzlab.report import SweepConfig, enumerate_multidegrees, run_verify_sweep

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.json")

# Bound before a traced run rebinds products.expand; re-expanding
# certificates after the timed stream must not record spans.
_expand = products.expand


class WarmCacheError(RuntimeError):
    """A package cache held entries before a repetition's first operation."""


def package_caches() -> dict:
    """The package's unbounded lru_caches, by the module that defines them."""
    return {
        "poly.component_basis": poly.component_basis,
        "kernel.kernel_basis": kernel.kernel_basis,
        "products.enumerate_products": products.enumerate_products,
        "products.expand": products.expand,
        "products._component_solver": products._component_solver,
        "tableaux.kostka": tableaux.kostka,
    }


def assert_cold(caches: dict) -> None:
    warm = sorted(name for name, fn in caches.items() if fn.cache_info().currsize)
    if warm:
        raise WarmCacheError("caches not empty before the first op: " + ", ".join(warm))


def _usage():
    """(CPU seconds of this process and its reaped children, peak RSS in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss)


def _sweep(spec: dict, tracer) -> dict:
    config = SweepConfig(
        d=spec["d"], max_total_degree=spec["max_degree"], parallelism=spec["parallelism"]
    )
    start = time.perf_counter()
    report = run_verify_sweep(config)
    assembled = time.perf_counter()
    text = report.to_json()
    end = time.perf_counter()
    cpu, rss = _usage()
    out = {
        "wall_s": end - start,
        "assembly_s": end - assembled,
        "cpu_end": cpu,
        "peak_rss_kb": rss,
        "op_s": [c.seconds for c in report.components],
        "attempted": len(report.components),
        "failed": sum(1 for c in report.components if not c.verdict),
        "content_digest": json.loads(text)["content_digest"],
    }
    if tracer is not None:
        out["layers"] = [c.layers for c in report.components]
    return out


def _reexpands(f: Polynomial, certificate: dict) -> bool:
    total = Polynomial.zero(f.d)
    for term, coeff in certificate.items():
        total = total + _expand(term) * coeff
    return total == f


def _decompose(spec: dict, lines: list[str], tracer) -> dict:
    d = spec["d"]
    op_s = []
    results = []
    errors = []
    start = time.perf_counter()
    for text in lines:
        t = time.perf_counter()
        try:
            f = poly.parse_poly(text, d)
            certificate = products.decompose(f)
        except Exception as exc:  # a raising op is a failed op; the stream goes on
            f = certificate = None
            errors.append(f"{text}: {exc!r}")
        op_s.append(time.perf_counter() - t)
        results.append((f, certificate))
    end = time.perf_counter()
    cpu, rss = _usage()
    out = {
        "wall_s": end - start,
        "assembly_s": 0.0,
        "cpu_end": cpu,
        "peak_rss_kb": rss,
        "op_s": op_s,
        "attempted": len(lines),
        "errors": errors[:3],
    }
    if tracer is not None:
        out["layers"] = [tracer.drain()]
    out["failed"] = sum(
        1 for f, cert in results if cert is None or not _reexpands(f, cert)
    )
    return out


def rep(spec: dict, inputs: str | None, trace: bool, probe: bool) -> dict:
    caches = package_caches()
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    lines = None
    if spec["kind"] == "decompose":
        with open(inputs) as handle:
            lines = handle.read().splitlines()
    assert_cold(caches)
    cpu_start, _ = _usage()
    out = {"first_op": time.monotonic()}
    if probe:
        return out
    if lines is None:
        out.update(_sweep(spec, tracer))
    else:
        out.update(_decompose(spec, lines, tracer))
    out["cpu_s"] = out.pop("cpu_end") - cpu_start
    if tracer is not None:
        out["span_names"] = tracer.names
    return out


def generate(spec: dict, seed: int) -> list[str]:
    """Seeded constants: random combinations of a component's products.

    Every component gets one constant; the rest go to seeded random
    components, and the stream is shuffled.
    """
    rng = random.Random(seed)
    d = spec["d"]
    degrees = [
        n for n in enumerate_multidegrees(d, spec["max_degree"]) if sum(n) >= spec["min_degree"]
    ]
    if len(degrees) != spec["components"]:
        raise RuntimeError(f"expected {spec['components']} components, found {len(degrees)}")
    picks = degrees + [rng.choice(degrees) for _ in range(spec["constants"] - len(degrees))]
    rng.shuffle(picks)
    coeffs = [c for c in range(-spec["max_coeff"], spec["max_coeff"] + 1) if c]
    lines = []
    for n in picks:
        terms = products.enumerate_products(d, n)
        f = Polynomial.zero(d)
        while f.is_zero:  # a Pluecker combination can cancel to zero
            k = rng.randint(1, min(spec["max_terms"], len(terms)))
            for term in rng.sample(terms, k):
                f = f + products.expand(term) * rng.choice(coeffs)
        lines.append(poly.format_poly(f))
    return lines


def preflight(invariants: list[dict]) -> list[dict]:
    out = []
    for inv in invariants:
        report = run_verify_sweep(SweepConfig(d=inv["d"], max_total_degree=inv["max_degree"]))
        out.append(
            {
                "d": inv["d"],
                "max_degree": inv["max_degree"],
                "components": len(report.components),
                "violations": report.violations,
                "content_digest": report.to_dict()["content_digest"],
            }
        )
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["rep", "gen", "preflight"])
    parser.add_argument("--workload")
    parser.add_argument("--inputs")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    if args.mode == "preflight":
        out = {"invariants": preflight(spec["invariants"])}
    elif args.mode == "gen":
        lines = generate(spec["workloads"][args.workload], args.seed)
        with open(args.out, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        out = {"constants": len(lines)}
    else:
        out = rep(spec["workloads"][args.workload], args.inputs, args.trace, args.probe)
    out["env"] = {
        "backend": weitzlab.BACKEND,
        "python": sys.version.split()[0],
        "cpus": len(os.sched_getaffinity(0)),
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
