"""The package imports numpy only where it computes with it.

A CLI run at the paper's working point computes for under a millisecond, so
its wall time is mostly imports; numpy alone took longer than the rest of
the package together.  Only ``analysis.reduced_entropy`` (and so
``verify-basis``) needs it, and imports it when called.  Each case runs in a
fresh interpreter, because this test session has imported numpy already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import contextlib, io, json, sys
import qubus_forge, qubus_forge.cli
from qubus_forge.cli import main

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, (argv, code)
    return json.loads(out.getvalue())
"""


def _run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_generate_and_sweep_leave_numpy_unloaded():
    out = _run_python("""
assert "numpy" not in sys.modules, "import"
doc = run("generate", "--n", "3", "--balanced")
assert doc["fidelity_vs_target"] is not None
assert "numpy" not in sys.modules, "generate"
doc = run("sweep", "--alpha", "1,50", "--theta", "0.01,0.1", "--eta", "0.5,1")
assert len(doc["rows"]) == 8
print("numpy" in sys.modules)
""")
    assert out == "False\n"


def test_verify_basis_loads_numpy_when_it_runs():
    out = _run_python("""
assert "numpy" not in sys.modules
doc = run("verify-basis", "--n", "2")
assert doc["passed"] and doc["states"] == 4
print("numpy" in sys.modules)
""")
    assert out == "True\n"
