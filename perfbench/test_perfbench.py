"""Tests for the benchmark's own arithmetic and gates.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from weitzlab import poly  # noqa: E402


def test_percentile_small_counts():
    assert run.percentile([7.0], 50) == 7.0
    assert run.percentile([7.0], 90) == 7.0
    assert run.percentile([2.0, 1.0], 50) == 1.0
    assert run.percentile([2.0, 1.0], 90) == 2.0
    assert run.percentile(list(range(1, 11)), 90) == 9
    assert run.percentile(list(range(1, 11)), 100) == 10
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_samples_beyond_percentile():
    assert run.samples_beyond(1, 50) == 0
    assert run.samples_beyond(10, 90) == 1
    # sweep-deep has 190 ops: p90 leaves 19 beyond it, p95 only 9
    assert run.samples_beyond(190, 90) == 19
    assert run.samples_beyond(190, 95) == 9


def test_self_times_of_nested_spans():
    spans = [  # (id, parent, name, start, end), in the order spans close
        (1, 0, "b", 1.0, 4.0),
        (3, 2, "d", 6.0, 8.0),
        (2, 0, "c", 5.0, 9.0),
        (0, None, "a", 0.0, 10.0),
        (4, None, "b", 10.0, 10.5),
    ]
    assert tracer.self_times(spans) == {"a": 3.0, "b": 3.5, "c": 2.0, "d": 2.0}


def test_tracer_records_parents_and_cache_hits():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: next(ticks))
    calls = []

    def inner(x):
        calls.append(x)
        return x

    traced_inner = tr.wrap("inner", inner)
    traced_outer = tr.wrap("outer", lambda x: traced_inner(x) + traced_inner(x))
    assert traced_outer(2) == 4
    # outer spans ticks 0..5, the two inner calls 1..2 and 3..4
    assert tr.drain() == {
        "self_s": {"outer": 3, "inner": 2},
        "counts": {"inner.calls": 2, "outer.calls": 1},
        "max": {},
    }
    poly.component_basis.cache_clear()
    basis = tr.wrap("basis", poly.component_basis, cached=True)
    basis(2, (1, 1))
    basis(2, (1, 1))
    assert tr.drain()["counts"] == {"basis.calls": 2, "basis.hits": 1}
    poly.component_basis.cache_clear()


def test_digest_gate_fires_on_tampered_digest():
    inv = {"d": 2, "max_degree": 8, "components": 45,
           "content_digest": "bc06c2ac48193ebd049b1209e0678915b35a4f4002ccea386a7980092e6f43fa"}
    (seen,) = worker.preflight([inv])
    assert run.digest_problems(inv, seen, "d=2") == []
    tampered = dict(inv, content_digest="0" * 64)
    (problem,) = run.digest_problems(tampered, seen, "d=2")
    assert "content_digest" in problem
    assert run.digest_problems(inv, dict(seen, violations=1), "d=2")


def test_cold_cache_assertion():
    caches = worker.package_caches()
    for fn in caches.values():
        fn.cache_clear()
    worker.assert_cold(caches)
    poly.component_basis(2, (1, 1))
    with pytest.raises(worker.WarmCacheError, match="poly.component_basis"):
        worker.assert_cold(caches)
    poly.component_basis.cache_clear()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_refuses_mixed_backends(tmp_path):
    for side, backend in (("base", "python"), ("new", "cython")):
        (tmp_path / side).mkdir()
        record = {"workload": "sweep-wide", "trace": 0, "metrics": {"wall_s": 1.0},
                  "env": {"backend": backend, "python": "3.11.7", "cpus": 2}}
        (tmp_path / side / "r.json").write_text(json.dumps(record))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"),
         str(tmp_path / "base"), str(tmp_path / "new")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "different backends" in proc.stderr
