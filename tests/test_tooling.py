"""Source and script checks: no `assert` in the library, scipy only where a
from-scratch matching is solved, scripts run."""

import ast
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import onlinecover
from onlinecover import allocation, engine, harness, oracle

PACKAGE = Path(onlinecover.__file__).resolve().parent
ROOT = PACKAGE.parents[1]


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one vanishes
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _import_time_nodes(tree):
    """Every node that runs when the module is imported: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _is_scipy(name):
    return name == "scipy" or name.startswith("scipy.")


def test_library_imports_scipy_only_inside_functions():
    # a module-level scipy import loads it for every command, solver or not
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _import_time_nodes(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(_is_scipy(a.name) for a in node.names))
        or (isinstance(node, ast.ImportFrom) and _is_scipy(node.module or ""))
    ]
    assert found == []


SCIPY_PROBE = """
import json, sys
from onlinecover import engine
from onlinecover.harness import cli_main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {"codes": [cli_main(argv) for argv in json.loads(sys.argv[1])]}
report["after_commands"] = scipy_modules()
step, at_first_step = engine.greedy_allocation_step, []

def probe(*args, **kwargs):
    if not at_first_step:
        at_first_step.append(scipy_modules())
    return step(*args, **kwargs)

engine.greedy_allocation_step = probe
report["final_code"] = cli_main(json.loads(sys.argv[2]))
report["at_first_final_step"] = at_first_step[0]
print(json.dumps(report))
"""


def test_scipy_is_loaded_only_by_a_final_solve():
    """Prefix, adversary and ski-rental commands never import scipy; a
    final-mode simulate imports it before its first arrival is stepped."""
    commands = [
        ["simulate", "--gen", "triangular:20", "--algo", "waterfill", "--f", "linear-alpha",
         "--prefix"],
        ["adversary", "--budget", "2,5", "--algo", "primal-dual", "--f", "linear-alpha"],
        ["ski-rental", "--buy", "0,4", "--rent", "1,0", "--t-end", "6", "--algo", "waterfill",
         "--f", "linear-alpha"],
    ]
    final = ["simulate", "--gen", "random:30,0.2", "--algo", "primal-dual", "--f", "linear-alpha"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent),
                                                        os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(commands), json.dumps(final)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0]
    assert report["after_commands"] == []
    assert report["final_code"] == 0
    assert "scipy.sparse.csgraph" in report["at_first_final_step"]


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("ratio_experiments.py", ["--n", "20", "--seeds", "1", "--densities", "0.2"],
         "instance,algo,f,cover_ratio,matching_ratio,max_inv1,max_inv2"),
        ("adversary_sweep.py", ["--sizes", "5,10", "--algo", "primal-dual"],
         "d,ratio,arrivals,phase_sizes,budget_exhausted"),
        ("reproduce_constants.py", ["--tol", "1e-6"], "golden-section optimum: k = "),
    ],
)
def test_script_runs(script, args, header):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent),
                                                        os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith(header) for line in proc.stdout.splitlines()[:2])


def test_bench_tracer_patch_points_exist_and_count():
    """``bench/tracer.py`` wraps package attributes by name; a rename would
    leave ``--trace 1`` counting nothing.  Its counters must see f, F and
    Hopcroft-Karp, and uninstalling must restore every attribute."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    owners = (allocation, engine, harness, oracle, allocation.AllocationFunction,
              allocation.QuadratureTable, harness.EngineAlgorithm)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer, allocation, engine, harness, oracle)
        with contextlib.redirect_stdout(io.StringIO()):
            code = harness.cli_main(
                ["simulate", "--gen", "random:30,0.2", "--algo", "primal-dual"]
            )
    finally:
        tracer.uninstall()
    assert code == 0
    for name in ("allocation.F", "allocation.f", "oracle.hk"):
        assert tracer.counted[name][0] > 0, name
    for owner, snapshot in zip(owners, before):
        changed = [k for k, v in snapshot.items() if vars(owner).get(k) is not v]
        assert changed == [], owner
