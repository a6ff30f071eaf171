"""Module passes, the pass table and ``mlir-opt``-style pipeline strings.

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
from typing import Dict, List, Set, Tuple, Type, Union

from .operation import Operation

PassOption = Union[str, int, float, bool, Tuple[int, ...]]


class ModulePass:
    """Base class: a transformation applied to a whole module."""

    #: Pipeline name of the pass, e.g. ``"convert-scf-to-openmp"``.
    name: str = "unnamed-pass"

    def apply(self, module: Operation) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<pass {self.name}>"


class PassStatistics:
    """Timing and change statistics for one executed pass; ``verify_seconds``
    is 0.0 when the pass mutated nothing, so its state was already checked."""

    def __init__(self, name: str, seconds: float, ops_before: int, ops_after: int,
                 verify_seconds: float = 0.0):
        self.name = name
        self.seconds = seconds
        self.ops_before = ops_before
        self.ops_after = ops_after
        self.verify_seconds = verify_seconds

    def __repr__(self) -> str:
        return (
            f"<{self.name}: {self.seconds * 1e3:.2f} ms, "
            f"{self.ops_before}->{self.ops_after} ops, "
            f"verify {self.verify_seconds * 1e3:.2f} ms>"
        )


#: Pipeline name -> pass class, filled by :func:`register_pass` as each
#: :mod:`repro.transforms` module defines its passes.
PASSES: Dict[str, Type[ModulePass]] = {}

#: Names a pipeline may mention that have nothing to do here; the module that
#: names them (:mod:`repro.transforms.pipelines`) adds them.
ACCEPTED_PASSES: Set[str] = set()


def register_pass(pass_class: Type[ModulePass]) -> Type[ModulePass]:
    """Class decorator entering a pass in :data:`PASSES` under its name."""
    PASSES[pass_class.name] = pass_class
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
    """Runs a sequence of module passes, verifying the module before and
    after each one; names resolve through :data:`PASSES`."""

    def __init__(self):
        self.passes: List[ModulePass] = []
        #: Accepted names the pipeline mentioned, in order; none is scheduled.
        self.accepted: List[str] = []
        self.statistics: List[PassStatistics] = []

    # -- building the pipeline ---------------------------------------------

    def add(self, pass_or_name: Union[ModulePass, str], **options: PassOption) -> "PassManager":
        if not isinstance(pass_or_name, str):
            self.passes.append(pass_or_name)
            return self
        name = pass_or_name
        if name not in PASSES and name not in ACCEPTED_PASSES:
            from .. import transforms  # noqa: F401  (defining a pass registers it)
        if name in ACCEPTED_PASSES:
            self.accepted.append(name)
            return self
        pass_cls = PASSES.get(name)
        if pass_cls is None:
            raise KeyError(
                f"unknown pass '{name}'; implemented passes: {sorted(PASSES)}; "
                f"accepted (parsed, nothing to run): {sorted(ACCEPTED_PASSES)}"
            )
        try:
            self.passes.append(pass_cls(**options))
        except TypeError:
            known = inspect.signature(pass_cls).parameters
            unknown = sorted(set(options) - set(known))
            if not unknown:
                raise
            raise KeyError(
                f"pass '{name}' has no option(s) {unknown}; "
                f"its options: {sorted(known)}"
            ) from None
        except ValueError as exc:
            given = " ".join(f"{key.replace('_', '-')}={value}"
                             for key, value in options.items())
            raise ValueError(f"pass '{name}' rejects {{{given}}}: {exc}") from exc
        return self

    def add_pipeline(self, pipeline: str) -> "PassManager":
        for name, options in parse_pipeline(pipeline):
            self.add(name, **options)
        return self

    # -- execution ----------------------------------------------------------------

    def run(self, module: Operation) -> List[PassStatistics]:
        """Run the passes, verifying the module before and after each one
        (``verify()`` re-checks what the pass changed and returns the
        module's op count)."""
        self.statistics = []
        ops_after = module.verify()
        for pass_instance in self.passes:
            ops_before = ops_after
            start = time.perf_counter()
            pass_instance.apply(module)
            elapsed = time.perf_counter() - start
            checked = module.is_verified
            start = time.perf_counter()
            ops_after = module.verify()
            verify_seconds = 0.0 if checked else time.perf_counter() - start
            self.statistics.append(PassStatistics(
                pass_instance.name, elapsed, ops_before, ops_after, verify_seconds))
        return self.statistics


__all__ = [
    "ModulePass",
    "PassManager",
    "PassStatistics",
    "PASSES",
    "ACCEPTED_PASSES",
    "register_pass",
    "parse_pipeline",
]
