"""Invariants must not rest on `assert`, which `python -O` strips."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Criteria 3, 6 and 10 compare the closed forms phi_closed and hom_closed
# with their oracles; emptied closed forms must fail them.
SABOTAGED_BATTERY = """
import json
from p2models import models, selftest
models.phi_closed = lambda *args, **kwargs: []
models.hom_closed = lambda *args, **kwargs: []
results = selftest.run_selftest(3, ["3", "6", "10"])
print(json.dumps({r.cid: r.passed for r in results}))
"""


def test_no_assert_statements_in_package():
    found = []
    for path in sorted((SRC / "p2models").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_sabotaged_battery_fails_under_optimize():
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-O", "-c", SABOTAGED_BATTERY],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"3": False, "6": False, "10": False}
