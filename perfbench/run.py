#!/usr/bin/env python3
"""weitzlab benchmark: end-to-end metrics per workload, or a traced per-layer split.

    python3 perfbench/run.py --workload sweep-wide --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the package is imported from src/.
Workloads, their recorded content digests and the ROADMAP invariants are
in perfbench/workloads.json; metric names and units are in BENCHMARK.json.

Every timed repetition is a fresh interpreter (worker.py), because the
package's lru_caches are cold for every `weitz` command a user runs.  A
run first reproduces the invariant digests, generates the decompose
stream in its own process when needed, samples set-up time with a few
probe starts, then repeats the workload for --seconds (at least
MIN_REPS times) and reports medians over repetitions.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced repetitions and prints the per-layer metrics; the traced ones
rebind the package's layer functions inside the worker (tracer.py).

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  A digest, verdict, certificate or cold-cache failure
makes correct false and the exit code 1.  Each run also writes its raw
samples and environment to .perfbench/results/ for compare.py.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
MIN_REPS = 3  # untraced repetitions; a traced run needs MIN_PAIRS of each kind
MIN_PAIRS = 2
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # every run must end within 180 s
MIN_TAIL = 10  # samples required beyond a reported percentile


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with q% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of count samples lie above the nearest-rank q-th percentile."""
    return count - max(1, math.ceil(q / 100 * count))


def digest_problems(expected: dict, observed: dict, label: str) -> list[str]:
    """Mismatches between a recorded sweep and a reproduced one."""
    problems = []
    for key in ("components", "content_digest"):
        if observed.get(key) != expected[key]:
            problems.append(f"{label}: {key} {observed.get(key)} != recorded {expected[key]}")
    if observed.get("violations", 0):
        problems.append(f"{label}: {observed['violations']} verdict(s) failed")
    return problems


def merge_layers(total: dict, part: dict) -> None:
    """Fold one drained trace aggregate into a running total, in place."""
    for key in ("self_s", "counts"):
        bucket = total.setdefault(key, {})
        for name, value in part[key].items():
            bucket[name] = bucket.get(name, 0) + value
    bucket = total.setdefault("max", {})
    for name, value in part["max"].items():
        bucket[name] = max(bucket.get(name, value), value)


class WorkerFailed(RuntimeError):
    pass


class Runner:
    """Starts worker.py steps, each in its own process group, under one deadline."""

    def __init__(self, root: str, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(
            os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0"
        )

    def call(self, args: list[str]) -> tuple[float, dict]:
        """Run one step; returns (monotonic time it was started, its JSON output)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerFailed("run deadline reached")
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, WORKER, *args],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise WorkerFailed(f"{' '.join(args)}: timed out") from None
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or ["no output"]
            raise WorkerFailed(f"{' '.join(args)}: exit {proc.returncode}: {tail[0]}")
        return started, json.loads(out.splitlines()[-1])


def end_to_end(reps: list[dict], setups: list[float], attempted: int, failed: int) -> dict:
    """Medians over repetitions; op latencies are percentiles over ops.

    Every repetition runs the same ops in the same order, so each op's
    latency is first taken as its median over repetitions.  That keeps a
    momentary slowdown in one repetition from reordering ops near a
    percentile.
    """
    count = len(reps[0]["op_s"])
    if any(len(r["op_s"]) != count for r in reps):
        raise ValueError("repetitions ran different numbers of ops")
    for q in (50, 90):
        if samples_beyond(count, q) < MIN_TAIL:
            raise ValueError(f"too few ops for p{q}: {count}")
    per_op = [statistics.median(ops) for ops in zip(*(r["op_s"] for r in reps))]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "op_p50_ms": percentile(per_op, 50) * 1e3,
        "op_p90_ms": percentile(per_op, 90) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reps) / 1024,
        "ok_ops_ratio": (attempted - failed) / attempted,
    }


def _layer_value(name: str, agg: dict, rep: dict, spans: list[str]):
    """One per-layer metric of one traced repetition, chosen by its name's suffix."""
    if name == "report.assembly_s":
        return rep["assembly_s"]
    if name == "trace.wall_s":
        return rep["wall_s"]
    layer, _, kind = name.rpartition(".")
    if kind == "self_s":
        if layer not in spans:
            raise KeyError(f"{name}: no traced span named {layer}")
        return agg["self_s"].get(layer, 0.0)
    counts = agg["counts"]
    if kind == "cache_hit_ratio":
        calls = counts.get(layer + ".calls", 0)
        return counts.get(layer + ".hits", 0) / calls if calls else 0.0
    if kind == "max_dim":
        return agg["max"].get(name, 0)
    return counts.get(name, 0)


def per_layer(names: list[str], traced: list[dict], plain: list[dict], workers: int) -> dict:
    """Medians over traced repetitions; utilization and overhead need the untraced ones."""
    samples = {name: [] for name in names}
    for rep in traced:
        agg: dict = {}
        for part in rep["layers"]:
            merge_layers(agg, part)
        for name in names:
            if name not in ("report.pool.utilization", "trace.overhead_ratio"):
                samples[name].append(_layer_value(name, agg, rep, rep["span_names"]))
    samples["report.pool.utilization"] = [
        sum(r["op_s"]) / (workers * r["wall_s"]) for r in plain
    ]
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    samples["trace.overhead_ratio"] = [traced_wall / plain_wall]
    return {name: statistics.median(samples[name]) for name in names}


def main(argv=None) -> int:
    with open(os.path.join(HERE, "workloads.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "weitzlab", "__init__.py")):
        print("error: src/weitzlab not found; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    metrics_spec = declared["per_layer" if args.trace else "end_to_end"]
    work = spec["workloads"][args.workload]
    run_start = time.monotonic()
    runner = Runner(root, run_start + RUN_LIMIT_S)
    state = os.path.join(root, ".perfbench")
    os.makedirs(os.path.join(state, "results"), exist_ok=True)

    problems: list[str] = []
    envs = []
    _, pre = runner.call(["preflight"])
    envs.append(pre["env"])
    for inv, seen in zip(spec["invariants"], pre["invariants"]):
        problems += digest_problems(inv, seen, f"invariant d={inv['d']} M={inv['max_degree']}")

    rep_args = ["rep", "--workload", args.workload]
    if work["kind"] == "decompose":
        inputs = os.path.join(state, f"{args.workload}-seed{args.seed}.txt")
        runner.call(["gen", "--workload", args.workload, "--seed", str(args.seed), "--out", inputs])
        rep_args += ["--inputs", inputs]

    def timed(extra: list[str]) -> tuple[float, dict]:
        started, out = runner.call(rep_args + extra)
        envs.append(out["env"])
        return out["first_op"] - started, out

    timed(["--probe"])  # unmeasured: fills bytecode and file caches
    setups = [timed(["--probe"])[0] for _ in range(0 if args.trace else SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    measure_start = time.monotonic()
    min_rounds = MIN_PAIRS if args.trace else MIN_REPS
    kinds = [[], ["--trace"]] if args.trace else [[]]
    ops = work["components"] if work["kind"] == "sweep" else work["constants"]
    while True:
        try:
            for extra in kinds:
                setup, out = timed(extra)
                (traced if extra else plain).append(out)
                attempted += out["attempted"]
                failed += out["failed"]
                problems += out.get("errors", [])
                if not extra:
                    setups.append(setup)
        except WorkerFailed as exc:
            problems.append(str(exc))
            attempted += ops
            failed += ops
            break
        now = time.monotonic()
        per_round = (now - measure_start) / len(plain)
        # start a round only if it fits: in --seconds once the minimum is met,
        # and always in the run limit
        if len(plain) >= min_rounds and now + per_round - measure_start > args.seconds:
            break
        if now + per_round - run_start > RUN_LIMIT_S - 5:
            break

    if work["kind"] == "sweep":
        for digest in sorted({out["content_digest"] for out in plain + traced}):
            if digest != work["content_digest"]:
                problems.append(
                    f"{args.workload}: content_digest {digest} != recorded {work['content_digest']}"
                )
    if failed:
        problems.append(f"{failed} of {attempted} ops failed")
    if len({json.dumps(e, sort_keys=True) for e in envs}) != 1:
        problems.append(f"steps ran in different environments: {envs}")
    if not plain or (args.trace and not traced):
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1

    names = [m["name"] for m in metrics_spec]
    if args.trace:
        values = per_layer(names, traced, plain, work.get("parallelism", 1))
    else:
        values = end_to_end(plain, setups, attempted, failed)
        values = {name: values[name] for name in names}
    units = {m["name"]: m["unit"] for m in metrics_spec}
    env = envs[0]
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"backend {env['backend']}  python {env['python']}  cpus {env['cpus']}"
    )
    print(
        f"repetitions {len(plain)} untraced, {len(traced)} traced; "
        f"{len(plain[0]['op_s'])} ops each (latency samples); {len(setups)} set-up samples"
    )
    for problem in problems:
        print(f"FAIL: {problem}")
    for name in names:
        print(f"  {name:<40} {values[name]:>14.6g} {units[name]}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "metrics": values,
        "problems": problems,
        "setup_s": setups,
        "wall_s": [r["wall_s"] for r in plain],
    }
    result_path = os.path.join(
        state, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(result_path, "w") as handle:
        json.dump(record, handle, indent=1)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except WorkerFailed as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        sys.exit(1)
