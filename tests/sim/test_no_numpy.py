"""Smoke test: the DES core imports with numpy absent.

numpy is the ``[perf]`` optional extra, not a hard dependency — the
scheduler, primitives, and the FairShareLink fluid model are pure
Python.  This test imports them in a subprocess with a meta-path hook
that blocks every ``numpy`` import.
"""

import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[2] / "src")

_BLOCKER = """
import sys

class _NumpyBlocker:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy blocked by test_no_numpy")
        return None

sys.meta_path.insert(0, _NumpyBlocker())
"""


def _run(script: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": _SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.slow
def test_sim_package_imports_without_numpy():
    script = _BLOCKER + """
import repro.sim
import repro.sim.primitives
import repro.sim.channel
import repro.sim.link
import repro.sim.resources
import repro.sim.trace
import sys
assert "numpy" not in sys.modules
print("ok")
"""
    assert _run(script).strip() == "ok"
