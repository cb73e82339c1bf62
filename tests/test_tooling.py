"""Source and script checks: no `assert` in the library, scripts run."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import onlinecover

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
