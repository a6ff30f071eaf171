"""The compiler layers do not reach into the runtime.

``ir``, ``dialects``, ``frontend`` and ``transforms`` build and rewrite IR;
what executes it lives in ``runtime`` above them.  An import the other way
lets a pass depend on how its output runs, as the deleted vectorizability
tag did.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def runtime_imports(text, path):
    """The ``(line, module)`` of every import of ``repro.runtime`` in ``text``,
    the source of the module at ``path``."""
    package = path.relative_to(SRC.parent).parent.parts
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else ()
            module = ".".join(base + ((node.module,) if node.module else ()))
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name == "repro.runtime" or name.startswith("repro.runtime.")]
    return found


@pytest.mark.parametrize("layer", ["ir", "dialects", "frontend", "transforms"])
def test_compiler_layer_imports_nothing_from_the_runtime(layer):
    files = sorted((SRC / layer).rglob("*.py"))
    assert files
    found = {str(path.relative_to(SRC)): runtime_imports(path.read_text(), path)
             for path in files}
    assert {path: lines for path, lines in found.items() if lines} == {}


def test_the_scan_sees_relative_and_absolute_imports():
    probe = ("from ..runtime.kernel_compiler import compile_apply\n"
             "from .. import runtime\n"
             "import repro.runtime.interpreter\n"
             "from ..ir import Operation\n"
             "from .stencil_fusion import fuse\n")
    found = runtime_imports(probe, SRC / "transforms" / "probe.py")
    assert found == [
        (1, "repro.runtime.kernel_compiler"),
        (1, "repro.runtime.kernel_compiler.compile_apply"),
        (2, "repro.runtime"),
        (3, "repro.runtime.interpreter"),
    ]
