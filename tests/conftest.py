import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("suite", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("suite")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def decompose_stream():
    """(d, lines): the benchmark's seed-1 decompose-stream constants, as text."""
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    workload = json.loads((PERFBENCH / "workloads.json").read_text())["workloads"]
    stream = workload["decompose-stream"]
    return stream["d"], worker.generate(stream, 1)
