"""The package surface: every name in ``asyncsag.__all__`` exists, the
README's library example runs as printed and its module table is complete,
and everything defined under ``src/asyncsag`` is read there."""

from __future__ import annotations

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

import asyncsag

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = Path(asyncsag.__file__).resolve().parent

# Definitions that nothing under src/asyncsag reads, each kept for the
# reader named beside it.
KEPT = {
    # the matrix_bytes probe of bench/tracer.py sums the three matrices'
    # nbytes, reaching i_act by getattr
    "augmented.EventMatrices.i_act": "bench/tracer.py",
    "augmented.SparseMatrix.nbytes": "bench/tracer.py",
    # by-products of the formulas that one_minus_delta, one_minus_c and
    # alpha come from, which gates 11 and 02 read
    "augmented.RateConstants.delta": "gate 11, test_augmented.py",
    "augmented.RateConstants.c": "gate 11",
    "mspbe.SpectralConstants.g_max_eig": "gates 02 and 11, test_baselines.py",
}


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


def test_readme_module_table_lists_every_module():
    text = README.read_text(encoding="utf-8")
    layout = text[text.index("\n## Layout\n"):text.index("\n## Install\n")]
    listed = re.findall(r"^\| `asyncsag\.(\w+)` \|", layout, re.MULTILINE)
    modules = [path.stem for path in sorted(SRC.glob("*.py"))
               if path.stem not in ("__init__", "__main__")]
    assert sorted(listed) == modules


def _loads(nodes) -> tuple[set[str], set[str]]:
    """The names and the attribute names that ``nodes`` load, outside
    annotations (a type named only in a signature is never built)."""
    names, attrs = set(), set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                stack.extend(child for child in
                             (value if isinstance(value, list) else [value])
                             if isinstance(child, ast.AST))
    return names, attrs


def unread_definitions(src: Path) -> list[str]:
    """Every top-level function and class, method and class-body annotated
    field of the modules in ``src`` that nothing there reads, as
    "module.Class.name".

    Code outside any definition is live, and so is the body of a live
    definition. A definition is live once live code loads its name: a
    function, class or method by a ``Name`` or an ``Attribute`` load, a
    field by an ``Attribute`` load only (a local of the same name does not
    read it), and a member only while its class is live. Dunder methods
    are called implicitly, so they are not listed and their bodies are
    live with their class. The search runs until nothing changes, so a
    helper whose one reader is unread is unread too. ``__init__.py`` is
    left out: a re-export is not a use.

    What it cannot see: names are matched, not objects, so one load of
    ``.y`` reads every field and method named ``y`` (a field that a
    namesake hides must be found by hand); and a reader by string, as
    ``getattr``, ``dataclasses.fields`` or ``vars`` read, is no load.
    """
    members = []   # (qualified name, name, is a field, class, code)
    live_code = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            qual = f"{path.stem}.{getattr(stmt, 'name', '')}"
            if isinstance(stmt, ast.FunctionDef):
                members.append((qual, stmt.name, False, None, [stmt]))
            elif isinstance(stmt, ast.ClassDef):
                body = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
                members.append((qual, stmt.name, False, None, body))
                for item in stmt.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not re.fullmatch(r"__\w+__", item.name)):
                        members.append((f"{qual}.{item.name}", item.name,
                                        False, qual, [item]))
                    elif (isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)):
                        members.append((f"{qual}.{item.target.id}",
                                        item.target.id, True, qual,
                                        [item]))
                    else:
                        body.append(item)
            else:
                live_code.append(stmt)
    live: set[str] = set()
    names, attrs = _loads(live_code)
    while True:
        found = [(qual, code) for qual, name, field, owner, code in members
                 if qual not in live and owner in live | {None}
                 and (name in attrs or not field and name in names)]
        if not found:
            return sorted({qual for qual, *_ in members} - live)
        live.update(qual for qual, _ in found)
        more_names, more_attrs = _loads(node for _, code in found
                                        for node in code)
        names |= more_names
        attrs |= more_attrs


def test_src_defines_only_what_src_reads():
    """A definition that only the tests, the benchmark or nobody reads
    fails here unless KEPT names its reader; a KEPT entry that src/ reads
    again fails too."""
    unread = unread_definitions(SRC)
    extra = [qual for qual in unread if qual not in KEPT]
    assert not extra, f"nothing under src/ reads {', '.join(extra)}"
    stale = [qual for qual in KEPT if qual not in unread]
    assert not stale, f"src/ reads {', '.join(stale)}; drop it from KEPT"
