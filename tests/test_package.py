"""The package surface: every name in ``asyncsag.__all__`` exists, and the
README's library example runs as printed."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

import asyncsag

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from asyncsag import *", namespace)
    assert len(set(asyncsag.__all__)) == len(asyncsag.__all__)
    missing = [name for name in asyncsag.__all__ if name not in namespace]
    assert missing == []


def test_readme_library_example_runs_and_replays_the_trace():
    """The first python block under "## Library use" runs, and the replay
    deviation it prints is at machine precision."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library use\n"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, f"{README}:Library use", "exec"), {})
    (deviation,) = printed.getvalue().split()
    assert 0.0 <= float(deviation) <= 1e-9


def test_runtime_dependencies_are_numpy_only():
    """mpmath is the tests' independent oracle, not a runtime dependency."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]

    def names(requirements):
        return [re.match(r"[A-Za-z0-9_.-]+", req).group(0)
                for req in requirements]

    assert names(project["dependencies"]) == ["numpy"]
    assert "mpmath" in names(project["optional-dependencies"]["test"])
