"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import orlicz

# CI runs replay the same examples on every run, so a property cannot flake
# there; local runs keep hypothesis' random exploration.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

SRC = str(Path(orlicz.__file__).resolve().parents[1])


@pytest.fixture
def run_python():
    """Run a Python snippet in a fresh interpreter on this source tree, with
    the given string-hash seed, and return what it printed."""

    def run(code: str, hash_seed: int = 0) -> str:
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(hash_seed))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
