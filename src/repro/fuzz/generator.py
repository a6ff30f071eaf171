"""Generative Fortran kernels: the spec-based generator behind the
differential fuzz farm and the frontend's round-trip test.

:func:`generate_spec` builds a structured :class:`KernelSpec` — rank,
extents, sweeps, stencil offsets, intrinsics, expression trees — that
*renders* to Fortran instead of being generated as text.  Specs are the unit
the whole fuzz farm operates on:

* **replayable**: a spec is a pure function of ``(seed, GeneratorConfig)``,
  so any case reproduces from two integers and a config; specs also
  serialise to JSON (:meth:`KernelSpec.to_dict`) for the persisted corpus.
* **executable everywhere**: generated expressions are NaN/Inf-free by
  construction (``sqrt`` renders over ``abs``, division denominators are
  clamped, ``exp`` only applies to leaves), so bitwise comparison against
  the scalar oracle is meaningful on every backend.
* **minimizable**: the delta-debugging minimizer shrinks specs
  structurally (drop statements, hoist subexpressions, zero offsets,
  shrink extents) via :func:`expr_paths` / :func:`expr_replace`, then
  re-renders — no fragile text surgery.
* **shape-parameterizable**: :meth:`KernelSpec.render` accepts a shape
  override, which is what lets the dmp backend compile one kernel per
  rank-local padded shape through ``distribute(source_builder=...)``.

``style="distributed"`` specs are constrained to what the DMP halo-exchange
machinery supports — a single array, orthogonal (star) offsets of at most
the halo width — while ``style="general"`` specs roam wider: ranks 1–3,
diagonal and width-2 offsets, a second array and a scalar parameter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

#: Loop index variables, innermost first (dimension order).
LOOP_VARS = ("i", "j", "k")


# ---------------------------------------------------------------------------
# Expression trees for executable specs
# ---------------------------------------------------------------------------

#: Intrinsics the executable generator draws from.  ``tan`` is deliberately
#: absent: its near-pole magnitudes make downstream products overflow, and
#: the farm wants finite, bitwise-comparable values everywhere.
EXECUTABLE_INTRINSICS = ("sqrt", "abs", "exp", "sin", "cos", "tanh")
#: Binary operators; ``div`` renders with a clamped denominator.
EXECUTABLE_BINARY_OPS = ("+", "-", "*", "div", "min", "max")


@dataclass(frozen=True)
class Access:
    """An array read at a constant neighbour offset per dimension."""

    array: str
    offsets: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "offsets", tuple(int(o) for o in self.offsets))


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class ScalarRef:
    """The scalar parameter ``s`` (read-only in generated kernels)."""


@dataclass(frozen=True)
class Unary:
    fn: str
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    lhs: "Expr"
    rhs: "Expr"


Expr = Union[Access, Const, ScalarRef, Unary, Binary]


def _subscript(var: str, offset: int) -> str:
    if offset == 0:
        return var
    return f"{var}{'+' if offset > 0 else '-'}{abs(offset)}"


def render_expr(expr: Expr, indices: Sequence[str]) -> str:
    """Render one expression tree to Fortran over loop ``indices``.

    Numerical safety is enforced here, not in the tree: ``sqrt`` renders over
    ``abs`` and ``div`` clamps its denominator away from zero, so every
    generated kernel stays NaN/Inf-free on inputs of any sign.
    """
    if isinstance(expr, Access):
        subs = ", ".join(_subscript(indices[d], o)
                         for d, o in enumerate(expr.offsets))
        return f"{expr.array}({subs})"
    if isinstance(expr, Const):
        return f"{expr.value:.3f}d0"
    if isinstance(expr, ScalarRef):
        return "s"
    if isinstance(expr, Unary):
        arg = render_expr(expr.arg, indices)
        if expr.fn == "sqrt":
            return f"sqrt(abs({arg}))"
        return f"{expr.fn}({arg})"
    if isinstance(expr, Binary):
        lhs = render_expr(expr.lhs, indices)
        rhs = render_expr(expr.rhs, indices)
        if expr.op == "div":
            return f"({lhs} / max(abs({rhs}), 0.5d0))"
        if expr.op in ("min", "max"):
            return f"{expr.op}({lhs}, {rhs})"
        return f"({lhs} {expr.op} {rhs})"
    raise TypeError(f"unknown expression node {expr!r}")


def expr_paths(expr: Expr, prefix: Tuple[int, ...] = ()) -> Iterator[Tuple[Tuple[int, ...], Expr]]:
    """Every (path, node) pair in pre-order; a path is a tuple of child
    indices from the root (Unary child = 0, Binary children = 0, 1)."""
    yield prefix, expr
    if isinstance(expr, Unary):
        yield from expr_paths(expr.arg, prefix + (0,))
    elif isinstance(expr, Binary):
        yield from expr_paths(expr.lhs, prefix + (0,))
        yield from expr_paths(expr.rhs, prefix + (1,))


def expr_replace(expr: Expr, path: Tuple[int, ...], new: Expr) -> Expr:
    """A copy of ``expr`` with the node at ``path`` replaced by ``new``."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(expr, Unary):
        if head != 0:
            raise IndexError(f"unary node has no child {head}")
        return Unary(expr.fn, expr_replace(expr.arg, rest, new))
    if isinstance(expr, Binary):
        if head == 0:
            return Binary(expr.op, expr_replace(expr.lhs, rest, new), expr.rhs)
        if head == 1:
            return Binary(expr.op, expr.lhs, expr_replace(expr.rhs, rest, new))
        raise IndexError(f"binary node has no child {head}")
    raise IndexError(f"leaf node has no child {head}")


def expr_weight(expr: Expr) -> int:
    """Structural size used by the minimizer's strictly-decreasing measure:
    constants are the cheapest leaves, accesses cost extra per offset cell so
    zeroing offsets and demoting reads to constants both count as progress."""
    if isinstance(expr, Const):
        return 1
    if isinstance(expr, ScalarRef):
        return 2
    if isinstance(expr, Access):
        return 2 + sum(abs(o) for o in expr.offsets)
    if isinstance(expr, Unary):
        return 1 + expr_weight(expr.arg)
    if isinstance(expr, Binary):
        return 1 + expr_weight(expr.lhs) + expr_weight(expr.rhs)
    raise TypeError(f"unknown expression node {expr!r}")


def expr_arrays(expr: Expr) -> frozenset:
    """Names of every array read anywhere in the tree."""
    return frozenset(node.array for _, node in expr_paths(expr)
                     if isinstance(node, Access))


def expr_uses_scalar(expr: Expr) -> bool:
    return any(isinstance(node, ScalarRef) for _, node in expr_paths(expr))


# ---------------------------------------------------------------------------
# Kernel specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    """One assignment: ``target(i, j, k) = expr`` at the loop centre."""

    target: str
    expr: Expr


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the executable generator — half of a case's replay identity.

    A fuzz case is fully determined by ``(seed, config)``; the defaults are
    what ``python -m repro.fuzz`` and the tier-1 differential test run.
    """

    #: Fraction of specs generated in the dmp-compatible "distributed" style.
    distributed_fraction: float = 0.35
    max_rank: int = 3
    max_statements: int = 2
    max_depth: int = 3
    #: Chance a general-style spec uses width-2 stencil offsets.
    wide_offset_fraction: float = 0.25
    #: Chance a general-style spec takes the scalar parameter ``s``.
    scalar_fraction: float = 0.5
    #: Chance a general-style spec declares a second array ``b``.
    second_array_fraction: float = 0.6
    #: Chance a spec wraps its statements in a 2-sweep iteration loop.
    sweep_fraction: float = 0.3
    intrinsics: Tuple[str, ...] = EXECUTABLE_INTRINSICS

    def to_dict(self) -> Dict[str, object]:
        return {
            "distributed_fraction": self.distributed_fraction,
            "max_rank": self.max_rank,
            "max_statements": self.max_statements,
            "max_depth": self.max_depth,
            "wide_offset_fraction": self.wide_offset_fraction,
            "scalar_fraction": self.scalar_fraction,
            "second_array_fraction": self.second_array_fraction,
            "sweep_fraction": self.sweep_fraction,
            "intrinsics": list(self.intrinsics),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GeneratorConfig":
        data = dict(data)
        data["intrinsics"] = tuple(data.get("intrinsics", EXECUTABLE_INTRINSICS))
        return cls(**data)


DEFAULT_CONFIG = GeneratorConfig()


@dataclass(frozen=True)
class KernelSpec:
    """A structured, replayable, renderable fuzz kernel."""

    seed: int
    style: str  # "general" | "distributed"
    rank: int
    extents: Tuple[int, ...]
    sweeps: int
    arrays: Tuple[str, ...]
    has_scalar: bool
    max_offset: int
    statements: Tuple[Statement, ...]

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(int(e) for e in self.extents))
        object.__setattr__(self, "arrays", tuple(self.arrays))
        object.__setattr__(self, "statements", tuple(self.statements))

    # -- identity ------------------------------------------------------------

    @property
    def entry(self) -> str:
        return f"kernel_s{self.seed}"

    @property
    def min_extent(self) -> int:
        """Smallest extent with a non-empty interior under the loop bounds."""
        return 2 * self.max_offset + 3

    def written_arrays(self) -> frozenset:
        return frozenset(s.target for s in self.statements)

    def read_arrays(self) -> frozenset:
        read = frozenset()
        for s in self.statements:
            read |= expr_arrays(s.expr)
        return read

    @property
    def flang_comparable(self) -> bool:
        """True when the flang-only (plain FIR, in-place) execution must
        agree with the stencil flow: no written array is ever read, so
        snapshot (Jacobi) and in-place semantics coincide."""
        return not (self.written_arrays() & self.read_arrays())

    @property
    def alias_pair(self) -> Optional[Tuple[str, str]]:
        """A (read-only, written) pair of arrays one ndarray may be passed
        for — every array of a spec has the same shape — or None."""
        written = self.written_arrays()
        read_only = self.read_arrays() - written
        return (min(read_only), min(written)) if read_only and written else None

    def size(self) -> int:
        """Structural size: statement count plus expression weights (the
        minimizer's primary shrink metric)."""
        return len(self.statements) + sum(expr_weight(s.expr)
                                          for s in self.statements)

    def replace(self, **changes) -> "KernelSpec":
        return replace(self, **changes)

    # -- rendering -----------------------------------------------------------

    def render(self, shape: Optional[Sequence[int]] = None) -> str:
        """Fortran source for this spec, optionally over override extents.

        ``shape`` re-parameterises the array extents without touching the
        kernel body — exactly what ``distribute(source_builder=...)`` needs
        to compile one module per rank-local padded shape.
        """
        shape = tuple(int(s) for s in shape) if shape is not None else self.extents
        if len(shape) != self.rank:
            raise ValueError(
                f"shape {shape} does not match spec rank {self.rank}"
            )
        indices = LOOP_VARS[:self.rank]
        dim_params = ", ".join(f"n{d + 1} = {extent}"
                               for d, extent in enumerate(shape))
        dim_names = ", ".join(f"n{d + 1}" for d in range(self.rank))
        declarations = [
            f"  real(kind=8), intent(inout) :: {name}({dim_names})"
            for name in self.arrays
        ]
        if self.has_scalar:
            declarations.append("  real(kind=8), intent(inout) :: s")
        int_names = list(indices) + (["it"] if self.sweeps > 1 else [])
        lb = self.max_offset + 1
        opening = [
            f"  do {var} = {lb}, n{dim + 1} - {self.max_offset}"
            for dim, var in reversed(list(enumerate(indices)))
        ]
        closing = ["  end do"] * self.rank
        if self.sweeps > 1:
            opening.insert(0, f"  do it = 1, {self.sweeps}")
            closing.append("  end do")
        body = [
            f"      {s.target}({', '.join(indices)}) = "
            f"{render_expr(s.expr, indices)}"
            for s in self.statements
        ]
        args = list(self.arrays) + (["s"] if self.has_scalar else [])
        lines = [
            "",
            f"subroutine {self.entry}({', '.join(args)})",
            "  implicit none",
            f"  integer, parameter :: {dim_params}",
            *declarations,
            f"  integer :: {', '.join(int_names)}",
            *opening,
            *body,
            *closing,
            f"end subroutine {self.entry}",
            "",
        ]
        return "\n".join(lines)

    # -- serialisation (corpus persistence) ----------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "style": self.style,
            "rank": self.rank,
            "extents": list(self.extents),
            "sweeps": self.sweeps,
            "arrays": list(self.arrays),
            "has_scalar": self.has_scalar,
            "max_offset": self.max_offset,
            "statements": [
                {"target": s.target, "expr": _expr_to_dict(s.expr)}
                for s in self.statements
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "KernelSpec":
        return cls(
            seed=int(data["seed"]),
            style=str(data["style"]),
            rank=int(data["rank"]),
            extents=tuple(data["extents"]),
            sweeps=int(data["sweeps"]),
            arrays=tuple(data["arrays"]),
            has_scalar=bool(data["has_scalar"]),
            max_offset=int(data["max_offset"]),
            statements=tuple(
                Statement(s["target"], _expr_from_dict(s["expr"]))
                for s in data["statements"]
            ),
        )


def _expr_to_dict(expr: Expr) -> Dict[str, object]:
    if isinstance(expr, Access):
        return {"kind": "access", "array": expr.array,
                "offsets": list(expr.offsets)}
    if isinstance(expr, Const):
        return {"kind": "const", "value": expr.value}
    if isinstance(expr, ScalarRef):
        return {"kind": "scalar"}
    if isinstance(expr, Unary):
        return {"kind": "unary", "fn": expr.fn, "arg": _expr_to_dict(expr.arg)}
    if isinstance(expr, Binary):
        return {"kind": "binary", "op": expr.op,
                "lhs": _expr_to_dict(expr.lhs), "rhs": _expr_to_dict(expr.rhs)}
    raise TypeError(f"unknown expression node {expr!r}")


def _expr_from_dict(data: Dict[str, object]) -> Expr:
    kind = data["kind"]
    if kind == "access":
        return Access(str(data["array"]), tuple(data["offsets"]))
    if kind == "const":
        return Const(float(data["value"]))
    if kind == "scalar":
        return ScalarRef()
    if kind == "unary":
        return Unary(str(data["fn"]), _expr_from_dict(data["arg"]))
    if kind == "binary":
        return Binary(str(data["op"]), _expr_from_dict(data["lhs"]),
                      _expr_from_dict(data["rhs"]))
    raise ValueError(f"unknown expression kind {kind!r}")


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _gen_offsets(rng: random.Random, rank: int, max_offset: int,
                 star: bool) -> Tuple[int, ...]:
    if star:
        # Orthogonal only: centre, or exactly one dimension displaced by one
        # (what the DMP scatter/halo machinery fills — corner ghosts stay 0).
        pick = rng.randrange(0, rank + 1)
        if pick == rank:
            return (0,) * rank
        sign = rng.choice((-1, 1))
        return tuple(sign if d == pick else 0 for d in range(rank))
    return tuple(rng.randrange(-max_offset, max_offset + 1)
                 for _ in range(rank))


def _gen_leaf(rng: random.Random, arrays: Sequence[str], rank: int,
              max_offset: int, star: bool, has_scalar: bool) -> Expr:
    kind = rng.randrange(0, 4)
    if kind <= 1:
        name = rng.choice(arrays)
        return Access(name, _gen_offsets(rng, rank, max_offset, star))
    if kind == 2 or not has_scalar:
        return Const(round(rng.uniform(0.5, 4.0), 3))
    return ScalarRef()


def _gen_expr(rng: random.Random, arrays: Sequence[str], rank: int,
              max_offset: int, star: bool, has_scalar: bool,
              intrinsics: Sequence[str], depth: int) -> Expr:
    if depth <= 0 or rng.random() < 0.3:
        return _gen_leaf(rng, arrays, rank, max_offset, star, has_scalar)
    kind = rng.randrange(0, 3)
    if kind == 0:
        fn = rng.choice(intrinsics)
        # exp only ever applies to a leaf: bounded argument, no overflow.
        if fn == "exp":
            arg = _gen_leaf(rng, arrays, rank, max_offset, star, has_scalar)
        else:
            arg = _gen_expr(rng, arrays, rank, max_offset, star, has_scalar,
                            intrinsics, depth - 1)
        return Unary(fn, arg)
    op = rng.choice(EXECUTABLE_BINARY_OPS)
    lhs = _gen_expr(rng, arrays, rank, max_offset, star, has_scalar,
                    intrinsics, depth - 1)
    rhs = _gen_expr(rng, arrays, rank, max_offset, star, has_scalar,
                    intrinsics, depth - 1)
    return Binary(op, lhs, rhs)


def generate_spec(seed: int,
                  config: GeneratorConfig = DEFAULT_CONFIG) -> KernelSpec:
    """Generate the executable kernel spec for ``(seed, config)``.

    Deterministic: the same pair always yields the same spec (asserted in
    the generator tests).
    """
    rng = random.Random(seed)
    distributed = rng.random() < config.distributed_fraction
    if distributed:
        style = "distributed"
        rank = rng.choice((2, 3))
        max_offset = 1
        arrays: Tuple[str, ...] = ("a",)
        has_scalar = False
        star = True
    else:
        style = "general"
        rank = rng.randrange(1, config.max_rank + 1)
        wide = rng.random() < config.wide_offset_fraction
        max_offset = 2 if wide else 1
        two = rng.random() < config.second_array_fraction
        arrays = ("a", "b") if two else ("a",)
        has_scalar = rng.random() < config.scalar_fraction
        star = False
    min_extent = 2 * max_offset + 3
    extents = tuple(rng.randrange(min_extent, min_extent + 5)
                    for _ in range(rank))
    sweeps = 2 if rng.random() < config.sweep_fraction else 1
    n_statements = rng.randrange(1, config.max_statements + 1)
    statements = []
    for _ in range(n_statements):
        target = "a" if style == "distributed" else rng.choice(arrays)
        depth = rng.randrange(1, config.max_depth + 1)
        expr = _gen_expr(rng, arrays, rank, max_offset, star, has_scalar,
                         config.intrinsics, depth)
        statements.append(Statement(target, expr))
    return KernelSpec(
        seed=seed, style=style, rank=rank, extents=extents, sweeps=sweeps,
        arrays=arrays, has_scalar=has_scalar, max_offset=max_offset,
        statements=tuple(statements),
    )


__all__ = [
    "LOOP_VARS",
    "EXECUTABLE_INTRINSICS",
    "EXECUTABLE_BINARY_OPS",
    "Access",
    "Const",
    "ScalarRef",
    "Unary",
    "Binary",
    "Expr",
    "Statement",
    "render_expr",
    "expr_paths",
    "expr_replace",
    "expr_weight",
    "expr_arrays",
    "expr_uses_scalar",
    "GeneratorConfig",
    "DEFAULT_CONFIG",
    "KernelSpec",
    "generate_spec",
]
