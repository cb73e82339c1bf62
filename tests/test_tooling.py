"""Source and script checks: no `assert` in the library, no scipy at
runtime, no unused import, no private name without a caller, scripts run."""

import ast
import contextlib
import importlib.util
import io
import json
import os
import re
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


def _is_scipy(name):
    return name == "scipy" or name.startswith("scipy.")


def test_library_imports_no_scipy():
    # scipy is a test-only reference; an import anywhere in the library,
    # even inside a function, would make it a runtime dependency again
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(_is_scipy(a.name) for a in node.names))
        or (isinstance(node, ast.ImportFrom) and _is_scipy(node.module or ""))
    ]
    assert found == []


def test_library_modules_use_every_name_they_import():
    # no linter runs here; __init__.py imports names only to re-export them
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_every_private_module_name_has_a_caller():
    # no helper without a caller: each module-level _name (a def, a class or
    # an assignment target, tuple targets included) is read or imported
    # somewhere in the package outside the statement that defines it
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    refs = []  # (module, name, line) of every name read or imported
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((module, node.id, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                refs += [(module, a.name, node.lineno) for a in node.names]
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__") and not any(
                    r == name and not (m == module and node.lineno <= line <= node.end_lineno)
                    for m, r, line in refs
                ):
                    found.append(f"{module}:{node.lineno} {name}")
    assert found == []



def test_private_classes_read_every_attribute_they_set():
    # no state that nothing needs: each attribute a private class stores
    # through self. (an augmented assignment only stores) is loaded, from
    # some object, somewhere in the package
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and cls.name.startswith("_")):
                continue
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"
                        and node.attr not in loaded):
                    found.append(f"{module}:{node.lineno} {cls.name}.{node.attr}")
    assert found == []

SCIPY_PROBE = """
import contextlib, io, json, sys
if sys.argv[2] == "blocked":
    sys.modules["scipy"] = None  # any scipy import now raises ImportError
from onlinecover.harness import cli_main

runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    runs.append([code, out.getvalue()])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"runs": runs, "scipy_modules": loaded}))
"""

CLI_COMMANDS = [
    ["simulate", "--gen", "random:30,0.2", "--algo", "primal-dual", "--f", "linear-alpha"],
    ["simulate", "--gen", "triangular:20", "--algo", "waterfill", "--f", "linear-alpha",
     "--prefix"],
    ["optimize-f", "--tol", "1e-6"],
    ["verify"],
    ["adversary", "--budget", "2,5", "--algo", "primal-dual", "--f", "linear-alpha"],
    ["ski-rental", "--buy", "0,4", "--rent", "1,0", "--t-end", "6", "--algo", "waterfill",
     "--f", "linear-alpha"],
]


def _probe(mode):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent),
                                                        os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(CLI_COMMANDS), mode],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_cli_command_loads_scipy():
    """Every command, a final-mode simulate included, runs without scipy:
    none imports it, and with every scipy import made to fail each still
    exits 0 and prints the same output, ``#summary`` line and all."""
    free = _probe("plain")
    assert free["scipy_modules"] == []
    assert [code for code, _ in free["runs"]] == [0] * len(CLI_COMMANDS)
    assert all(out for _, out in free["runs"])
    assert sum("#summary" in out for _, out in free["runs"]) >= 4
    assert _probe("blocked")["runs"] == free["runs"]


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("ratio_experiments.py", ["--n", "20", "--seeds", "1", "--densities", "0.2"],
         "instance,algo,f,cover_ratio,matching_ratio,max_inv1,max_inv2"),
        ("adversary_sweep.py", ["--sizes", "5,10", "--algo", "primal-dual"],
         "d,ratio,arrivals,phase_sizes,budget_exhausted"),
        ("reproduce_constants.py", ["--tol", "1e-6"], "golden-section optimum: k = "),
        ("adversary_sweep.py", ["--sizes", "5", "--f", "family-k:2"],
         "d,ratio,arrivals,phase_sizes,budget_exhausted"),
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


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# a tiny command of each run the benchmark measures, and the traced entry
# points it passes through
TRACED_COMMANDS = [
    (["simulate", "--gen", "random:30,0.2", "--algo", "primal-dual"],
     ["instance.resolve_generator", "allocation.resolve_allocation", "engine.run_stream",
      "oracle.fractional_optima_general"]),
    (["simulate", "--gen", "triangular:20", "--algo", "waterfill", "--f", "linear-alpha",
      "--prefix"],
     ["instance.resolve_generator", "allocation.resolve_allocation", "engine.run_stream",
      "oracle.prefix_optimal_values"]),
    (["adversary", "--budget", "3,5", "--algo", "primal-dual", "--f", "linear-alpha"],
     ["allocation.resolve_allocation", "harness.adaptive_adversary_vc",
      "harness.EngineAlgorithm.process", "oracle.prefix_optimal_values"]),
    (["ski-rental", "--buy", "0,4", "--rent", "1,0", "--t-end", "6", "--algo", "waterfill",
      "--f", "linear-alpha"],
     ["instance.reduce_ski_rental", "allocation.resolve_allocation", "engine.run_stream",
      "oracle.prefix_optimal_values"]),
]


def test_bench_tracer_patch_points_exist_and_count(monkeypatch):
    """``bench/tracer.py`` wraps package attributes by name; a rename, or a
    call through a reference captured before the wrapper was installed,
    would leave ``--trace 1`` counting nothing without an error.  Each run
    must record a span for every entry point it passes through and one
    water-filling step span per arrival stepped (and one primal-dual step
    span, for primal-dual), the counters must see f, F and Hopcroft-Karp,
    ``bench/command.py``'s first-step probe must fire once and step aside,
    and uninstalling must restore every attribute."""
    tracer_mod = _bench_module("tracer")
    command = _bench_module("command")
    owners = (allocation, engine, harness, oracle, allocation.AllocationFunction,
              allocation.QuadratureTable, harness.EngineAlgorithm)
    before = [dict(vars(owner)) for owner in owners]
    step = engine.Algorithm.step
    stepped = 0

    def counted_step(self, event):
        nonlocal stepped
        stepped += 1
        return step(self, event)

    monkeypatch.setattr(engine.Algorithm, "step", counted_step)
    for argv, entry_points in TRACED_COMMANDS:
        tracer = tracer_mod.Tracer()
        stepped = 0
        first_step = []
        try:
            tracer_mod.install(tracer, allocation, engine, harness, oracle)
            traced_step = engine.greedy_allocation_step
            command._first_step_probe(engine, first_step)
            with contextlib.redirect_stdout(io.StringIO()):
                code = harness.cli_main(argv)
            probe_stayed = engine.greedy_allocation_step is not traced_step
        finally:
            tracer.uninstall()
        assert code == 0, argv
        assert len(first_step) == 1 and not probe_stayed, argv
        recorded = {rec[0] for rec in tracer.spans}
        assert [name for name in entry_points if name not in recorded] == [], argv
        counts = tracer.layer_figures(stepped)[1]
        assert stepped > 0 and counts["spans.engine.greedy_allocation_step"] == stepped, argv
        pd_steps = counts.get("spans.engine.primal_dual_step", 0)
        assert pd_steps == (stepped if "primal-dual" in argv else 0), argv
        if argv[0] == "simulate" and "--prefix" not in argv:
            for name in ("allocation.F", "allocation.f", "oracle.hk"):
                assert tracer.counted[name][0] > 0, name
        for owner, snapshot in zip(owners, before):
            changed = [k for k, v in snapshot.items() if vars(owner).get(k) is not v]
            assert changed == [], owner


SUMMARY_KEYS = {
    "simulate": ["algo", "f", "n", "edges", "opt_fractional", "cover_ratio", "matching_ratio",
                 "max_inv1_slack", "max_inv2_slack", "feas_slack", "zero_weight_arrivals"],
    "simulate --prefix": ["algo", "f", "n", "edges", "cover_ratio", "max_inv1_slack",
                          "max_inv2_slack", "feas_slack", "zero_weight_arrivals"],
    "adversary": ["ratio", "phases", "arrivals", "budget_exhausted"],
    "ski-rental": ["worst_prefix_cover_ratio", "reduced_optimum", "strategy_optimum",
                   "sentinel_potential", "zero_weight_arrivals"],
}


@pytest.mark.parametrize(
    "argv,keys",
    [(argv, keys) for (argv, _), keys in zip(TRACED_COMMANDS, SUMMARY_KEYS.values())],
    ids=list(SUMMARY_KEYS),
)
def test_summary_keys_are_pinned(argv, keys):
    """Each run prints one ``#summary`` line with these keys in this order,
    and ``bench/checks.py`` reads every key it can parse (those without a
    digit) to the same value."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert harness.cli_main(argv) == 0
    text = out.getvalue()
    assert text.startswith("#summary,") and text.count("\n") == 1
    fields = dict(re.findall(r"(\w+)=(\[[^\]]*\]|[^,]*)", text.rstrip("\n")[len("#summary,"):]))
    assert list(fields) == keys
    readable = {k: v for k, v in fields.items() if not any(c.isdigit() for c in k)}
    assert readable.items() <= _bench_module("checks").parse_summary(text).items()
