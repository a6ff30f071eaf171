"""Schedule-chain directives: the pure data layer of the scheduling API.

A schedule chain is a tuple of directives, each a tuple whose first element
names the transform:

* ``("tile", (t0, ..., tr))`` — tile the loop nest, one size per dimension;
* ``("reorder", (p0, ..., pm))`` — permute the innermost ``m`` serial loops;
* ``("unroll", (dim, factor))`` — unroll loop ``dim`` by ``factor``.

The chain lives on :class:`repro.api.BackendOptions` as compile-time
cache-key material, so this module must stay import-light (options cannot
depend on the dialects or the transform machinery).  Structural validation
against the actual loop nest happens at lower time in
:mod:`repro.transforms.schedule_transforms`.
"""

from __future__ import annotations

from typing import Sequence, Tuple

#: The transform names a schedule chain may contain.
DIRECTIVES = ("tile", "reorder", "unroll")


class ScheduleError(ValueError):
    """An illegal schedule: malformed chain, or a transform that does not
    apply to the compiled loop structure.  Always loud, never a silent
    miscompile — :meth:`repro.schedule.Schedule.verify` backs this up with
    the crosscheck oracle."""


def _int_tuple(values, directive: str) -> Tuple[int, ...]:
    try:
        result = tuple(int(v) for v in values)
    except (TypeError, ValueError):
        raise ScheduleError(
            f"{directive}: expected a sequence of integers, got {values!r}"
        ) from None
    if any(not isinstance(v, int) or isinstance(v, bool) for v in values):
        raise ScheduleError(
            f"{directive}: expected a sequence of integers, got {values!r}"
        )
    return result


def normalize_schedule_chain(chain) -> Tuple[Tuple, ...]:
    """Validate and canonicalise a schedule chain to nested tuples.

    Accepts lists (e.g. from JSON-carried options) and returns hashable
    tuples; raises :class:`ScheduleError` on malformed directives.  Adjacent
    stencils are fused by discovery (the ``fuse_stencils`` compile option),
    not by a directive.
    """
    if chain is None:
        return ()
    normalized = []
    for entry in chain:
        if isinstance(entry, str):
            entry = (entry,)
        try:
            parts = tuple(entry)
        except TypeError:
            raise ScheduleError(
                f"schedule directive must be a tuple, got {entry!r}"
            ) from None
        if not parts:
            raise ScheduleError("empty schedule directive")
        name = parts[0]
        if name not in DIRECTIVES:
            raise ScheduleError(
                f"unknown schedule directive {name!r}; expected one of "
                f"{DIRECTIVES}"
            )
        if name == "tile":
            if len(parts) != 2:
                raise ScheduleError("tile takes exactly one argument: sizes")
            sizes = _int_tuple(parts[1], "tile")
            if not sizes or any(s < 1 for s in sizes):
                raise ScheduleError(
                    f"tile sizes must be positive, got {parts[1]!r}"
                )
            normalized.append(("tile", sizes))
        elif name == "reorder":
            if len(parts) != 2:
                raise ScheduleError(
                    "reorder takes exactly one argument: the permutation"
                )
            perm = _int_tuple(parts[1], "reorder")
            if len(perm) < 2 or sorted(perm) != list(range(len(perm))):
                raise ScheduleError(
                    f"reorder argument must be a permutation of "
                    f"0..{max(len(perm) - 1, 1)}, got {parts[1]!r}"
                )
            normalized.append(("reorder", perm))
        elif name == "unroll":
            if len(parts) != 2:
                raise ScheduleError(
                    "unroll takes exactly one argument: (loop, factor)"
                )
            pair = _int_tuple(parts[1], "unroll")
            if len(pair) != 2:
                raise ScheduleError(
                    f"unroll argument must be (loop, factor), got {parts[1]!r}"
                )
            loop, factor = pair
            if loop < 0:
                raise ScheduleError(f"unroll loop index must be >= 0, got {loop}")
            if factor < 2:
                raise ScheduleError(f"unroll factor must be >= 2, got {factor}")
            normalized.append(("unroll", (loop, factor)))
    return tuple(normalized)


def describe_chain(chain: Sequence[Tuple]) -> str:
    """A compact human-readable rendering, e.g.
    ``tile(4,8).reorder(1,0).unroll(2,2)`` — used in error messages."""
    parts = []
    for directive in chain:
        name = directive[0]
        if len(directive) == 1:
            parts.append(f"{name}()")
        else:
            args = directive[1]
            if isinstance(args, tuple):
                parts.append(f"{name}({','.join(str(a) for a in args)})")
            else:  # pragma: no cover - normalized chains are tuples
                parts.append(f"{name}({args})")
    return ".".join(parts) if parts else "<empty>"


__all__ = [
    "DIRECTIVES",
    "ScheduleError",
    "normalize_schedule_chain",
    "describe_chain",
]
