"""Every example in ``examples/`` runs end to end.

The examples are user-facing entry points into the public API, so an
API change that breaks one shows up here. Each runs in its own
interpreter with ``PYTHONPATH=src``, as its docstring tells a reader
to, and must exit 0 and print something.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted(path.name for path in (ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs(example):
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / example)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
