"""An extension point needs two implementations.

A base class with one subclass, or a hook that one subclass overrides, is
generality nothing uses: the indirection costs a reader a jump and buys no
second behaviour. The census scans the module-level classes of ``src/`` with
the AST. For every class another one subclasses it counts the direct
subclasses, and for every method or class attribute a subclass overrides it
counts the overriding definitions below the topmost class defining it. Each
count must be at least two, or the entry is listed in ``SINGLE`` with its
reason. Exception classes are left out: a typed error with one subclass is a
message, not an extension point.

Bases resolve through each module's imports, relative and re-exported, so
two classes sharing a bare name in different modules are not confused.
"""

import ast
import builtins
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: "Base" or "Base.member" -> why one implementation is enough.
SINGLE = {
    "Backend.uses_stencil_flow": (
        "two values: flang-only runs no stencil flow, every other backend "
        "does"),
    "CompiledKernel": (
        "only a gpu launch clips its lattice by the launch's guards"),
}


def module_sources():
    """``{module name: source}`` for every module under ``src/``."""
    sources = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        sources[".".join(parts)] = path.read_text()
    return sources


class _Module:
    """One parsed module: its classes and what its imports bind."""

    def __init__(self, name, text, is_package):
        tree = ast.parse(text)
        self.classes = {node.name: node for node in tree.body
                        if isinstance(node, ast.ClassDef)}
        package = name if is_package else name.rpartition(".")[0]
        #: local name -> ("module", dotted) or ("symbol", (module, name)).
        self.bindings = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.bindings[alias.asname] = ("module", alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = package.split(".")[:len(package.split(".")) - node.level + 1] \
                    if node.level else []
                source = ".".join(base + ([node.module] if node.module else []))
                for alias in node.names:
                    self.bindings[alias.asname or alias.name] = (
                        "symbol", (source, alias.name))


class Census:
    """Classes, bases and members of a set of module sources."""

    def __init__(self, sources):
        packages = {name.rpartition(".")[0] for name in sources}
        self.modules = {name: _Module(name, text, name in packages)
                        for name, text in sources.items()}

    def resolve(self, module, expr):
        """The ``(module, class)`` a base expression names, or its builtin
        name for a builtin, or None when it leads outside ``src/``."""
        if isinstance(expr, ast.Name):
            return self._lookup(module, expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            kind, target = self.modules[module].bindings.get(
                expr.value.id, (None, None))
            if kind == "symbol":  # ``from . import mod`` then ``mod.Class``
                target = ".".join(filter(None, target))
            if kind and target in self.modules:
                return self._lookup(target, expr.attr)
        return None

    def _lookup(self, module, name, seen=()):
        if (module, name) in seen:
            return None
        info = self.modules[module]
        if name in info.classes:
            return module, name
        kind, target = info.bindings.get(name, (None, None))
        if kind == "symbol":
            source, symbol = target
            if f"{source}.{symbol}" in self.modules:
                return None  # a module, not a class
            if source in self.modules:
                return self._lookup(source, symbol, seen + ((module, name),))
            return None
        if kind is None and name in vars(builtins):
            return name
        return None

    def classes(self):
        """``{(module, class): (ClassDef, [resolved bases])}``."""
        return {(module, name): (node, [self.resolve(module, base)
                                        for base in node.bases])
                for module, info in self.modules.items()
                for name, node in info.classes.items()}

    def report(self):
        """``{"Base" or "Base.member": implementation count}`` for every
        extension point with fewer than two implementations."""
        classes = self.classes()

        def is_exception(key, seen=()):
            if isinstance(key, str):
                value = vars(builtins).get(key)
                return isinstance(value, type) and issubclass(value, BaseException)
            if key is None or key in seen:
                return False
            return any(is_exception(base, seen + (key,)) for base in classes[key][1])

        subclasses = defaultdict(list)
        for key, (_, bases) in classes.items():
            for base in bases:
                if isinstance(base, tuple):
                    subclasses[base].append(key)

        def members(node):
            names = set()
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    names.add(stmt.target.id)
            return names - {"__doc__"}

        def descendants(key):
            for sub in subclasses.get(key, ()):
                yield sub
                yield from descendants(sub)

        def ancestors(key):
            for base in classes[key][1]:
                if isinstance(base, tuple):
                    yield base
                    yield from ancestors(base)

        found = {}
        for key, (node, _) in classes.items():
            if key not in subclasses or is_exception(key):
                continue
            name = key[1]
            if len(subclasses[key]) < 2:
                found[name] = len(subclasses[key])
            defined = members(node)
            for member in sorted(defined):
                if any(member in members(classes[a][0]) for a in ancestors(key)):
                    continue  # counted at the topmost class defining it
                count = sum(member in members(classes[d][0])
                            for d in set(descendants(key)))
                if count == 1:
                    found[f"{name}.{member}"] = count
        return found


def test_every_extension_point_has_two_implementations_or_a_reason():
    found = Census(module_sources()).report()
    # A listed class covers what its one subclass overrides.
    unlisted = {entry: count for entry, count in found.items()
                if entry not in SINGLE and entry.split(".")[0] not in SINGLE}
    assert unlisted == {}, (
        "extension points with one implementation; fold them, or list each "
        f"in SINGLE with its reason: {unlisted}")
    assert sorted(set(SINGLE) - set(found)) == [], (
        "listed entries that now have two implementations or are gone")
    assert len(SINGLE) <= 3


# -- the census sees what it is meant to see -----------------------------------

def _plant(sources, module, header, lines):
    """``sources`` with ``lines`` inserted into ``module`` under the class
    line ``header``, or appended when ``header`` is None."""
    text = "\n".join(lines) + "\n"
    if header is None:
        sources[module] += "\n" + text
    else:
        assert header + "\n" in sources[module]
        sources[module] = sources[module].replace(header + "\n", header + "\n" + text, 1)
    return sources


def test_the_deleted_runtime_hook_planted_back_fails_the_census():
    hook = ["    def interpreter_kwargs(self, options, overrides):",
            "        return overrides"]
    sources = _plant(module_sources(), "repro.api.backends",
                     "class Backend:", hook)
    sources = _plant(sources, "repro.api.backends",
                     "class GpuBackend(Backend):", hook)
    assert Census(sources).report().get("Backend.interpreter_kwargs") == 1


def test_the_deleted_pattern_framework_planted_back_fails_the_census():
    sources = _plant(module_sources(), "repro.ir.rewriting", None, [
        "class RewritePattern:",
        "    def match_and_rewrite(self, op, rewriter):",
        "        raise NotImplementedError"])
    assert "RewritePattern" not in Census(sources).report()  # no subclass yet
    sources = _plant(sources, "repro.transforms.cleanup", None, [
        "from ..ir.rewriting import RewritePattern",
        "class _FoldConstants(RewritePattern):",
        "    def match_and_rewrite(self, op, rewriter):",
        "        pass"])
    found = Census(sources).report()
    assert found["RewritePattern"] == 1
    assert found["RewritePattern.match_and_rewrite"] == 1


def test_bases_resolve_by_module_not_by_bare_name():
    sources = {
        "pkg": "",
        "pkg.a": "class Base:\n    def hook(self):\n        pass\n",
        "pkg.b": "class Base:\n    pass\n",
        "pkg.c": ("from .a import Base\nfrom . import b\n"
                  "class One(Base):\n    def hook(self):\n        pass\n"
                  "class Two(b.Base):\n    def hook(self):\n        pass\n"),
        "pkg.d": "from .c import Base as Again\nclass Three(Again):\n    pass\n",
    }
    census = Census(sources)
    assert census.classes()[("pkg.c", "Two")][1] == [("pkg.b", "Base")]
    assert census.classes()[("pkg.d", "Three")][1] == [("pkg.a", "Base")]
    # pkg.a.Base has two subclasses (One, Three) but one hook override;
    # pkg.b.Base has one subclass, and ``Two.hook`` overrides nothing.
    assert census.report() == {"Base.hook": 1, "Base": 1}


@pytest.mark.parametrize("base", ["Exception", "ValueError"])
def test_exception_hierarchies_are_left_out(base):
    census = Census({
        "m": (f"class Error({base}):\n    code = 1\n"
              "class Narrow(Error):\n    code = 2\n"),
    })
    assert census.report() == {}
