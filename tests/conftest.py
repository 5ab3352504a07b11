"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import geopoly

# The directory that holds the geopoly these tests import, installed or not.
SRC = str(Path(geopoly.__file__).resolve().parents[1])


@pytest.fixture
def fresh_python():
    """``fresh_python(*argv)`` runs ``python *argv`` in a fresh interpreter
    that imports this geopoly, and returns the finished process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return lambda *argv: subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=300
    )
