"""The compiler layers do not reach into the runtime.

``ir``, ``dialects``, ``frontend`` and ``transforms`` build and rewrite IR;
what executes it lives in ``runtime`` above them.  An import the other way
lets a pass depend on how its output runs, as the deleted vectorizability
tag did.  Likewise every op is defined by a dialect and every pass by the
transforms: an op a pass module defines is unknown to a reader that never
imports the passes.
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


# -- the op and pass tables ------------------------------------------------------

def misplaced(table, package):
    """The names in ``table`` whose class is defined outside ``package``."""
    return sorted(name for name, cls in table.items()
                  if not cls.__module__.startswith(package + "."))


def test_every_op_is_defined_by_a_dialect_and_every_pass_by_the_transforms():
    import repro.dialects  # noqa: F401
    import repro.transforms  # noqa: F401
    from repro.ir import OP_CLASSES, PASSES

    assert len(OP_CLASSES) == 87 and len(PASSES) == 13
    assert misplaced(OP_CLASSES, "repro.dialects") == []
    assert misplaced(PASSES, "repro.transforms") == []


def test_an_op_class_a_pass_module_defines_is_caught():
    from repro.ir import OP_CLASSES, Operation

    # Built without its own ``name``, so it stays out of the real table.
    planted = type("PlantedOp", (Operation,),
                   {"__module__": "repro.transforms.distributed"})
    assert misplaced({**OP_CLASSES, "dmp.planted": planted},
                     "repro.dialects") == ["dmp.planted"]


def test_a_second_op_of_one_name_raises_where_it_is_defined():
    from repro.dialects import arith
    from repro.ir import OP_CLASSES, Operation

    with pytest.raises(ValueError, match="'arith.addf' defined twice"):
        type("SecondAddf", (Operation,), {"name": "arith.addf"})
    assert OP_CLASSES["arith.addf"] is arith.AddfOp
