"""Shared fixtures: the CLI run on a mutated copy of the package."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import legscale


@pytest.fixture
def run_mutant(tmp_path):
    """run_mutant(file, old, new, *argv): `python -m legscale *argv` on a copy of
    the package in which the text `old`, which must occur exactly once in
    `file`, is replaced by `new`. Returns the finished process (text output)."""

    def run(file, old, new, *argv):
        package = tmp_path / "legscale"
        shutil.copytree(Path(legscale.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
        source = package / file
        text = source.read_text(encoding="utf-8")
        assert text.count(old) == 1, old
        source.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "legscale", *argv], capture_output=True, text=True, env=env, timeout=300
        )

    return run
