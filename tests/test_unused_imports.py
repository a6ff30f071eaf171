"""Every import a module makes is one it uses.

The scan walks every module of ``src/repro``, ``tests`` and ``examples``
except the package ``__init__.py`` files, whose imports are the package's
re-exports.  A name
an import binds must be loaded somewhere in the module, listed in its
``__all__``, or named in a string annotation (``-> "CompiledProgram"``).
An import line marked ``# noqa: F401`` is kept for its side effect (the
pass registrations in ``transforms/pipelines.py``) and is exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _annotation_strings(tree):
    """Every string constant inside an annotation."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            annotations.append(node.returns)
            for arg in (arguments.posonlyargs + arguments.args
                        + arguments.kwonlyargs
                        + [arguments.vararg, arguments.kwarg]):
                if arg is not None:
                    annotations.append(arg.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        if annotation is None:
            continue
        for leaf in ast.walk(annotation):
            if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                yield leaf.value


def _used_names(tree):
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for text in _annotation_strings(tree):
        try:
            parsed = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        used |= {node.id for node in ast.walk(parsed)
                 if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str):
    """``(line, name)`` of every imported name ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            line = getattr(alias, "lineno", node.lineno)
            if "# noqa: F401" in lines[line - 1]:
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append((line, bound))
    return unused


def modules():
    return [path for root in (SRC, ROOT / "tests", ROOT / "examples")
            for path in sorted(root.rglob("*.py"))
            if path.name != "__init__.py"]


def label(path):
    """A module's path below ``src/repro``, or below the repository root."""
    return path.relative_to(SRC if SRC in path.parents else ROOT).as_posix()


@pytest.mark.parametrize("path", modules(), ids=label)
def test_module_uses_every_import(path):
    found = unused_imports(path.read_text(encoding="utf-8"))
    assert not found, "unused imports: " + ", ".join(
        f"{label(path)}:{line} {name}" for line, name in found)


def test_a_planted_unused_import_is_found():
    planted = (
        "from typing import Dict, List, Optional\n"
        "import numpy as np\n"
        "from . import passes  # noqa: F401\n"
        "__all__ = ['Optional']\n"
        "def f(x: 'Dict[str, int]') -> None:\n"
        "    return x\n"
    )
    assert unused_imports(planted) == [(1, "List"), (2, "np")]
