"""Compiled artifacts: what a backend's lowering produced for one source.

A :class:`CompiledArtifact` is the unit the :class:`repro.api.Session` cache
stores — everything downstream execution needs (the FIR module, the extracted
stencil module after the backend's lowering, discovery/extraction metadata and
per-pass statistics), and nothing of the request that produced it: source,
backend and options belong to the :class:`repro.api.Request` each handle
holds.  Interpreters built from one artifact never mutate its modules, so a
single artifact is safely shared by any number of fluent handles, whatever
their runtime options, and concurrent batch runs — and so is what linking
those modules yields (:attr:`CompiledArtifact.linked`): derived from them on
the first run, never compared, printed or persisted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dialects.builtin import ModuleOp
from ..runtime.interpreter import LinkTable


@dataclass
class CompiledArtifact:
    """Everything one backend's flow produced for one Fortran source."""

    fir_module: ModuleOp
    stencil_module: Optional[ModuleOp] = None
    discovered_stencils: Dict[str, int] = field(default_factory=dict)
    extracted_functions: List[str] = field(default_factory=list)
    pass_statistics: List = field(default_factory=list)

    @property
    def modules(self) -> List[ModuleOp]:
        """The modules the interpreter links at run time (§3, Figure 1)."""
        mods = [self.fir_module]
        if self.stencil_module is not None:
            mods.append(self.stencil_module)
        return mods

    @property
    def linked(self) -> LinkTable:
        """:attr:`modules` linked once, when first run (§3, Figure 1)."""
        if "_linked" not in self.__dict__:  # racing first runs keep one table
            self.__dict__.setdefault("_linked", LinkTable(self.modules))
        return self.__dict__["_linked"]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<CompiledArtifact "
            f"stencils={sum(self.discovered_stencils.values())} "
            f"extracted={len(self.extracted_functions)}>"
        )


__all__ = ["CompiledArtifact"]
