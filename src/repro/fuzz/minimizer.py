"""Delta-debugging minimizer for divergent fuzz kernels.

Given a :class:`~repro.fuzz.generator.KernelSpec` and a ``reproduces``
predicate (typically :meth:`DifferentialRunner.reproduces` bound to the
divergent configuration label), the minimizer repeatedly proposes smaller
candidate specs and keeps any candidate for which the divergence still
reproduces.  Reduction passes, in the order they are attempted each round:

1. **drop statements** — remove one assignment at a time;
2. **simplify expressions** — replace any subtree with one of its children
   or with the constant ``1.0`` (this subsumes "zero offsets": an ``Access``
   with offsets collapses to a constant);
3. **zero offsets** — rewrite a neighbour access to the loop centre;
4. **drop arrays / scalar** — remove an unused second array or the unused
   scalar parameter from the signature;
5. **shrink nests** — reduce the rank by dropping the outermost dimension
   (only when every access is centred in that dimension);
6. **shrink domains** — clamp every extent toward the minimum legal extent,
   and reduce the sweep count to 1.

Termination is guaranteed: every accepted candidate strictly decreases the
structural measure :meth:`KernelSpec.size` plus the extent sum, both bounded
below.  The whole process is deterministic — candidate order is fixed, no
randomness is drawn — so a given ``(seed, config)`` minimizes to the same
kernel every time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, Tuple

from .generator import (
    Access,
    Const,
    KernelSpec,
    Statement,
    expr_arrays,
    expr_paths,
    expr_replace,
    expr_uses_scalar,
)


@dataclass
class MinimizationResult:
    """The outcome of a minimization run."""

    original: KernelSpec
    minimized: KernelSpec
    steps: int
    candidates_tried: int


def _measure(spec: KernelSpec) -> Tuple[int, int, int]:
    """The strictly-decreasing well-founded measure: structural size, then
    total domain extent, then sweep count."""
    return (spec.size(), sum(spec.extents), spec.sweeps)


def _with_statements(spec: KernelSpec,
                     statements: List[Statement]) -> KernelSpec:
    return replace(spec, statements=tuple(statements))


def _prune_signature(spec: KernelSpec) -> KernelSpec:
    """Drop arrays/scalar no longer referenced by any statement.  The first
    array always stays — it is the distributed entry's field argument and
    every statement writes it."""
    used = set()
    scalar_used = False
    for stmt in spec.statements:
        used.add(stmt.target)
        used |= expr_arrays(stmt.expr)
        scalar_used = scalar_used or expr_uses_scalar(stmt.expr)
    arrays = tuple(name for index, name in enumerate(spec.arrays)
                   if index == 0 or name in used)
    has_scalar = spec.has_scalar and scalar_used
    if arrays != spec.arrays or has_scalar != spec.has_scalar:
        spec = replace(spec, arrays=arrays, has_scalar=has_scalar)
    return spec


def _candidates(spec: KernelSpec) -> Iterator[KernelSpec]:
    """Smaller candidate specs, most-aggressive first within each pass."""
    # Pass 1: drop whole statements (keep at least one).
    if len(spec.statements) > 1:
        for index in range(len(spec.statements)):
            kept = [s for i, s in enumerate(spec.statements) if i != index]
            yield _prune_signature(_with_statements(spec, kept))

    # Pass 2: replace any expression subtree with a child or a constant.
    for stmt_index, stmt in enumerate(spec.statements):
        for path, node in expr_paths(stmt.expr):
            replacements = []
            if hasattr(node, "arg"):
                replacements.append(node.arg)
            if hasattr(node, "lhs"):
                replacements.extend((node.lhs, node.rhs))
            if not isinstance(node, Const):
                replacements.append(Const(1.0))
            for repl in replacements:
                new_expr = expr_replace(stmt.expr, path, repl)
                if new_expr == stmt.expr:
                    continue
                statements = list(spec.statements)
                statements[stmt_index] = Statement(stmt.target, new_expr)
                yield _prune_signature(_with_statements(spec, statements))

    # Pass 3: zero out neighbour offsets (centre the access).
    for stmt_index, stmt in enumerate(spec.statements):
        for path, node in expr_paths(stmt.expr):
            if isinstance(node, Access) and any(node.offsets):
                centred = Access(node.array, (0,) * len(node.offsets))
                new_expr = expr_replace(stmt.expr, path, centred)
                statements = list(spec.statements)
                statements[stmt_index] = Statement(stmt.target, new_expr)
                yield _with_statements(spec, statements)

    # Pass 4: shrink the nest — drop the outermost dimension when no access
    # offsets along it (every rendered subscript there is the loop centre).
    # Distributed specs stay at rank >= 2: the process-grid decomposition
    # needs two partitionable dimensions.
    min_rank = 2 if spec.style == "distributed" else 1
    if spec.rank > min_rank:
        axis = spec.rank - 1  # outermost loop == last dimension
        can_drop = all(
            not isinstance(node, Access) or node.offsets[axis] == 0
            for stmt in spec.statements
            for _, node in expr_paths(stmt.expr))
        if can_drop:
            statements = []
            for stmt in spec.statements:
                def strip(expr):
                    for path, node in expr_paths(expr):
                        if isinstance(node, Access):
                            expr = expr_replace(
                                expr, path,
                                Access(node.array, node.offsets[:axis]))
                    return expr
                statements.append(Statement(stmt.target, strip(stmt.expr)))
            yield _with_statements(
                replace(spec, rank=spec.rank - 1,
                        extents=spec.extents[:axis]),
                statements)

    # Pass 5: shrink domains and sweeps.
    floor = spec.min_extent
    if any(extent > floor for extent in spec.extents):
        yield replace(spec, extents=tuple(floor for _ in spec.extents))
        shrunk = tuple(max(floor, extent - 1) for extent in spec.extents)
        if shrunk != spec.extents:
            yield replace(spec, extents=shrunk)
    if spec.sweeps > 1:
        yield replace(spec, sweeps=1)


def minimize(spec: KernelSpec,
             reproduces: Callable[[KernelSpec], bool],
             max_rounds: int = 200) -> MinimizationResult:
    """Greedy delta-debugging: accept the first strictly-smaller candidate
    that still reproduces, restart the pass list, stop at a fixed point."""
    current = spec
    steps = 0
    tried = 0
    for _ in range(max_rounds):
        improved = False
        for candidate in _candidates(current):
            if _measure(candidate) >= _measure(current):
                continue
            tried += 1
            if reproduces(candidate):
                current = candidate
                steps += 1
                improved = True
                break
        if not improved:
            break
    return MinimizationResult(original=spec, minimized=current,
                              steps=steps, candidates_tried=tried)


__all__ = ["minimize", "MinimizationResult"]
