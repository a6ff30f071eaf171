"""Module passes, the pass registry and ``mlir-opt``-style pipeline strings.

A pass pipeline can be described textually, e.g.::

    canonicalize,scf-parallel-loop-tiling{parallel-loop-tile-sizes=32,32,1},cse

which mirrors how the paper drives ``mlir-opt`` (Listing 4).  Options are
parsed into strings / ints / int-lists and passed to the pass constructor as
keyword arguments (dashes become underscores).

A name in a pipeline is either *implemented* (a registered pass, scheduled and
run) or *accepted*: an MLIR pass the paper's pipelines name that has nothing to
do on this substrate.  Accepted names are parsed and recorded, never run.
"""

from __future__ import annotations

import inspect
import re
import time
from typing import Callable, Dict, List, Optional, Set, Tuple, Type, Union

from .context import Context
from .operation import Operation

PassOption = Union[str, int, float, bool, Tuple[int, ...]]


class ModulePass:
    """Base class: a transformation applied to a whole module."""

    #: Pipeline name of the pass, e.g. ``"convert-scf-to-openmp"``.
    name: str = "unnamed-pass"

    def apply(self, ctx: Context, module: Operation) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<pass {self.name}>"


class PassStatistics:
    """Timing and change statistics for one executed pass."""

    def __init__(self, name: str, seconds: float, ops_before: int, ops_after: int):
        self.name = name
        self.seconds = seconds
        self.ops_before = ops_before
        self.ops_after = ops_after

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<{self.name}: {self.seconds * 1e3:.2f} ms, "
            f"{self.ops_before}->{self.ops_after} ops>"
        )


class PassRegistry:
    """Global registry mapping pipeline names to pass classes or factories."""

    def __init__(self):
        self._passes: Dict[str, Callable[..., ModulePass]] = {}
        #: Names a pipeline may mention that have nothing to do here.
        self.accepted: Set[str] = set()

    def register(self, pass_class: Type[ModulePass], name: Optional[str] = None) -> None:
        key = name or pass_class.name
        self._passes[key] = pass_class

    def register_factory(self, name: str, factory: Callable[..., ModulePass]) -> None:
        self._passes[name] = factory

    def get(self, name: str) -> Callable[..., ModulePass]:
        if name not in self._passes:
            raise KeyError(
                f"unknown pass '{name}'; implemented passes: {self.names()}; "
                f"accepted (parsed, nothing to run): {sorted(self.accepted)}"
            )
        return self._passes[name]

    def names(self) -> List[str]:
        return sorted(self._passes)

    def __contains__(self, name: str) -> bool:
        return name in self._passes


#: The process-wide registry used by :class:`PassManager` by default.
GLOBAL_PASS_REGISTRY = PassRegistry()


def register_pass(pass_class: Type[ModulePass]) -> Type[ModulePass]:
    """Class decorator registering a pass in the global registry."""
    GLOBAL_PASS_REGISTRY.register(pass_class)
    return pass_class


def _parse_option_value(raw: str) -> PassOption:
    raw = raw.strip()
    if raw in ("true", "false"):
        return raw == "true"
    if re.fullmatch(r"-?\d+", raw):
        return int(raw)
    if re.fullmatch(r"-?\d+(,-?\d+)+", raw):
        return tuple(int(v) for v in raw.split(","))
    if re.fullmatch(r"-?\d*\.\d+", raw):
        return float(raw)
    return raw


def parse_pipeline(pipeline: str) -> List[Tuple[str, Dict[str, PassOption]]]:
    """Parse ``"a,b{x=1 y=2,3},c"`` into ``[(name, options), ...]``.

    Commas inside ``{...}`` belong to option values (matching mlir-opt), so the
    splitter tracks brace depth.
    """
    entries: List[str] = []
    depth = 0
    current = ""
    for ch in pipeline:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced '}}' in pipeline '{pipeline}'")
        if ch == "," and depth == 0:
            entries.append(current)
            current = ""
        else:
            current += ch
    if depth != 0:
        raise ValueError(f"unbalanced '{{' in pipeline '{pipeline}'")
    if current.strip():
        entries.append(current)

    result: List[Tuple[str, Dict[str, PassOption]]] = []
    for entry in entries:
        entry = entry.strip()
        if not entry:
            continue
        match = re.fullmatch(r"([A-Za-z0-9_.\-]+)(\{(.*)\})?", entry, re.DOTALL)
        if match is None:
            raise ValueError(f"malformed pipeline entry '{entry}'")
        name = match.group(1)
        options: Dict[str, PassOption] = {}
        body = match.group(3)
        if body:
            for item in body.split():
                if "=" not in item:
                    options[item.replace("-", "_")] = True
                    continue
                key, value = item.split("=", 1)
                options[key.replace("-", "_")] = _parse_option_value(value)
        result.append((name, options))
    return result


class PassManager:
    """Runs a sequence of module passes, optionally verifying between passes."""

    def __init__(
        self,
        ctx: Optional[Context] = None,
        *,
        verify_each: bool = True,
        registry: Optional[PassRegistry] = None,
    ):
        if ctx is None:
            from .context import default_context

            ctx = default_context()
        self.ctx = ctx
        self.verify_each = verify_each
        self.registry = registry or GLOBAL_PASS_REGISTRY
        self.passes: List[ModulePass] = []
        #: Accepted names the pipeline mentioned, in order; none is scheduled.
        self.accepted: List[str] = []
        self.statistics: List[PassStatistics] = []

    # -- building the pipeline ---------------------------------------------

    def add(self, pass_or_name: Union[ModulePass, str], **options: PassOption) -> "PassManager":
        if not isinstance(pass_or_name, str):
            self.passes.append(pass_or_name)
        elif pass_or_name in self.registry.accepted:
            self.accepted.append(pass_or_name)
        else:
            pass_cls = self.registry.get(pass_or_name)
            try:
                self.passes.append(pass_cls(**options))
            except TypeError:
                known = inspect.signature(pass_cls).parameters
                unknown = sorted(set(options) - set(known))
                if not unknown:
                    raise
                raise KeyError(
                    f"pass '{pass_or_name}' has no option(s) {unknown}; "
                    f"its options: {sorted(known)}"
                ) from None
        return self

    def add_pipeline(self, pipeline: str) -> "PassManager":
        for name, options in parse_pipeline(pipeline):
            self.add(name, **options)
        return self

    # -- execution ----------------------------------------------------------------

    def run(self, module: Operation) -> List[PassStatistics]:
        self.statistics = []
        ops_after = sum(1 for _ in module.walk())
        for pass_instance in self.passes:
            ops_before = ops_after
            start = time.perf_counter()
            pass_instance.apply(self.ctx, module)
            elapsed = time.perf_counter() - start
            ops_after = sum(1 for _ in module.walk())
            self.statistics.append(
                PassStatistics(pass_instance.name, elapsed, ops_before, ops_after)
            )
            if self.verify_each:
                module.verify()
        return self.statistics


__all__ = [
    "ModulePass",
    "PassManager",
    "PassRegistry",
    "PassStatistics",
    "GLOBAL_PASS_REGISTRY",
    "register_pass",
    "parse_pipeline",
]
