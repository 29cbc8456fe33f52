"""The package's module layout: its import graph and the names perfbench reads.

The three routes stay independent only as long as their modules do: the
Kostka oracle (tableaux) imports nothing from the package, the span route
(products) reaches linalg only through kernel, and crosscheck (tensor)
does not import products.  The graph below is read with ast from the
source, imports inside functions included, so a new edge fails here
before it can share code between routes.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import weitzlab

PACKAGE = Path(weitzlab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

# module -> the package modules it imports
GRAPH = {
    "__init__": {
        "_version", "derivation", "kernel", "linalg", "poly", "products", "report",
        "tableaux",
    },
    "_rowred_py": set(),
    "_version": set(),
    "cli": {"_version", "kernel", "poly", "products", "report"},
    "derivation": {"poly"},
    "kernel": {"linalg", "poly"},
    "linalg": {"_rowred_py"},
    "poly": set(),
    "products": {"derivation", "kernel", "poly", "tableaux"},
    "report": {"_version", "products", "tensor"},
    "tableaux": set(),
    "tensor": {"kernel", "linalg", "poly", "tableaux"},
}


def package_imports(module: str) -> list[tuple[str, str]]:
    """(package module, imported name) for every package import in module.

    from .kernel import x gives ("kernel", "x"); from . import kernel and
    import weitzlab.kernel give ("kernel", "kernel").
    """
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("weitzlab."):
                    name = alias.name.split(".")[1]
                    out.append((name, name))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module
            elif node.module == "weitzlab" or (node.module or "").startswith("weitzlab."):
                source = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                out.append((source, alias.name) if source else (alias.name, alias.name))
    return out


def test_the_import_graph_is_pinned():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == set(GRAPH)
    for module in sorted(modules):
        edges = {source for source, _ in package_imports(module)}
        assert edges == GRAPH[module], module


def test_no_module_imports_a_private_name_of_another():
    for module in sorted(GRAPH):
        for _, name in package_imports(module):
            if name.startswith("_") and name != "__version__":
                # the one exception: from . import _rowred_py as _core
                assert (module, name) == ("linalg", "_rowred_py"), (module, name)


CONTRACT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer, worker
from weitzlab.report import SweepConfig, run_verify_sweep

worker.assert_cold(worker.package_caches())
tracer.install(tracer.Tracer())
report = run_verify_sweep(SweepConfig(d=2, max_total_degree=3))
print(json.dumps({
    "records": len(report.components),
    "layers": [sorted(c.layers) for c in report.components],
    "verify_traced": all(
        "report.verify_component" in c.layers["self_s"] for c in report.components
    ),
    "tensor_loaded": "weitzlab.tensor" in sys.modules,
}))
"""


def test_perfbench_runs_a_traced_sweep_on_the_package():
    # perfbench reads and rebinds package names (its tracer and worker);
    # a rename that breaks them must fail here, not only in a benchmark run
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", CONTRACT, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["records"] == 10
    assert out["layers"] == [["counts", "max", "self_s"]] * 10
    assert out["verify_traced"]
    assert not out["tensor_loaded"]  # a verify sweep never imports crosscheck
