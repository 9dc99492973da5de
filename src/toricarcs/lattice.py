"""Exact lattice arithmetic.

Vectors live in one of two mutually dual integer lattices, tagged "N"
(one-parameter subgroups) and "M" (characters), with the canonical pairing
defined only between opposite sides.  Everything is computed over Python's
arbitrary-precision integers; no floating point anywhere.

The module also provides the small amount of integer linear algebra the
rest of the package needs, all of it on one elimination: Hermite-style row
reduction with a tracked unimodular transform.  Rank is its pivot count,
and exact linear solving eliminates the augmented matrix and
back-substitutes in fractions.Fraction, the only rational step.
Quotient lattices by a saturated subspace are built from the Hermite
transform so that projections are reproducible across runs.

The checks live at the public boundary: LatticeVector takes coordinates
through operator.index, so a non-integer raises TypeError, and so does
primitive_tuple; lift, and quotient_lattice for each generator, take a
plain int sequence or an N-side vector with _coords; and pairing, project
and push_dual check side and dimension with _checked.  Internal loops
take _dot on the plain int tuples, with no pairing call, _primitive, with
no operator.index, and _section and _push, the unchecked lift and
push_dual.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, index, mul
from typing import Iterator, Sequence

N_SIDE = "N"
M_SIDE = "M"

__all__ = [
    "N_SIDE",
    "M_SIDE",
    "INF",
    "Infinite",
    "is_finite",
    "LatticeVector",
    "nvec",
    "mvec",
    "pairing",
    "primitive_tuple",
    "QuotientLattice",
    "quotient_lattice",
    "row_hermite",
    "rank_of",
    "solve_linear",
]


class Infinite:
    """The absorbing value +oo of extended semigroup arithmetic.

    Addition of an int or INF yields INF, positive integer scaling yields
    INF, and INF compares strictly greater than every integer.  Any other
    operand, a float or a Fraction included, raises TypeError.
    """

    _singleton = None

    def __new__(cls) -> "Infinite":
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self) -> str:
        return "INF"

    def __add__(self, other):
        if isinstance(other, (int, Infinite)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k > 0:
            return self
        raise ValueError("INF may only be scaled by a positive integer")

    __mul__ = __rmul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Infinite)

    def __hash__(self) -> int:
        return hash("toricarcs-INF")

    def __lt__(self, other) -> bool:
        if isinstance(other, (int, Infinite)):
            return False
        return NotImplemented

    def __le__(self, other) -> bool:
        if isinstance(other, (int, Infinite)):
            return isinstance(other, Infinite)
        return NotImplemented

    def __gt__(self, other) -> bool:
        if isinstance(other, Infinite):
            return False
        if isinstance(other, int):
            return True
        return NotImplemented

    def __ge__(self, other) -> bool:
        if isinstance(other, (int, Infinite)):
            return True
        return NotImplemented


INF = Infinite()


def is_finite(value) -> bool:
    return not isinstance(value, Infinite)


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _checked(v, side: str, dim: int) -> tuple[int, ...]:
    """The coordinates of v, refused unless v is a LatticeVector of the given side and dimension."""
    if not isinstance(v, LatticeVector):
        raise TypeError(f"expected a LatticeVector, got {v!r}")
    if v.side != side:
        raise ValueError(f"expected an {side}-side vector, got an {v.side}-side one")
    if v.dim != dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {dim}")
    return v.coords


def _coords(v, side: str, dim: int | None = None) -> tuple[int, ...]:
    """The int coordinates of v, a LatticeVector or a plain sequence of ints.

    A LatticeVector of the other side is refused as _checked refuses it, and
    so is a v of another dimension than dim, when dim is given.
    """
    if isinstance(v, LatticeVector):
        return _checked(v, side, v.dim if dim is None else dim)
    coords = tuple(map(index, v))
    if dim is not None and len(coords) != dim:
        raise ValueError(f"dimension mismatch: {len(coords)} vs {dim}")
    return coords


def _within_budget(work: int, budget: int, doing: str, unit: str) -> None:
    """Refuse a scan whose work, counted before it starts, exceeds its budget.

    Every work budget of the package is checked here; the ValueError reads
    "<doing> <work> <unit>, more than the budget of <budget>".
    """
    if work > budget:
        raise ValueError(f"{doing} {work} {unit}, more than the budget of {budget}")


def _int_at_least(value, least: int, name: str) -> None:
    """Refuse a level or a bound: TypeError unless an int and not a bool, ValueError below least."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


_set = object.__setattr__


class _Record:
    """Base of the package's immutable values.

    A subclass names its fields in __slots__, in constructor order; a dict
    maps each field to its type, which becomes the slot's docstring.  A
    slot named _x is a cache, not a field, and the base __init__ sets it to
    None.  The fields are a record's identity, whatever its caches hold: a
    record builds from positional or keyword fields, equals only a record
    of its own class with equal fields, hashes as the tuple of its fields,
    reduces to its class and that tuple for copy and pickle, and refuses
    assignment and deletion.  A subclass may validate in its own __init__
    and write a repr of its own, but defines no __eq__ or __reduce__, so its
    constructor takes the fields in this order; it defines __hash__ only
    when a field does not hash, as TruncatedSeries does for its dict.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__slots__", ()))
        cls._fields = fields = getattr(cls, "_fields", ()) + tuple(n for n in names if n[0] != "_")
        cls._caches = getattr(cls, "_caches", ()) + tuple(n for n in names if n[0] == "_")
        # the field tuple; attrgetter of one name returns the bare value, not a 1-tuple
        get = attrgetter(*fields)
        cls._values = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))

    def __init__(self, *args, **kwargs):
        for name in self._caches:
            _set(self, name, None)
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            _set(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unexpected or repeated fields {sorted(kwargs)}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


class LatticeVector(_Record):
    """An integer vector tagged with the lattice it belongs to."""

    __slots__ = {"coords": "tuple[int, ...]", "side": "str"}

    def __init__(self, coords, side):
        _set(self, "coords", coords)
        _set(self, "side", side)
        self.__post_init__()

    def __post_init__(self):
        # a method of its own: perfbench/tracer.py wraps it to count constructions
        if self.side not in (N_SIDE, M_SIDE):
            raise ValueError(f"side must be {N_SIDE!r} or {M_SIDE!r}, got {self.side!r}")
        _set(self, "coords", tuple(map(index, self.coords)))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]

    def _check_compatible(self, other: "LatticeVector") -> None:
        if not isinstance(other, LatticeVector):
            raise TypeError("expected a LatticeVector")
        if other.side != self.side:
            raise ValueError("cannot combine vectors from opposite lattices")
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        self._check_compatible(other)
        return LatticeVector(tuple(a + b for a, b in zip(self.coords, other.coords)), self.side)

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        self._check_compatible(other)
        return LatticeVector(tuple(a - b for a, b in zip(self.coords, other.coords)), self.side)

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(tuple(-a for a in self.coords), self.side)

    def __rmul__(self, k: int) -> "LatticeVector":
        if not isinstance(k, int):
            raise TypeError("scaling factor must be an integer")
        return LatticeVector(tuple(k * a for a in self.coords), self.side)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def nvec(*coords: int) -> LatticeVector:
    return LatticeVector(tuple(coords), N_SIDE)


def mvec(*coords: int) -> LatticeVector:
    return LatticeVector(tuple(coords), M_SIDE)


def pairing(v: LatticeVector, u: LatticeVector) -> int:
    """Canonical pairing of an N-side with an M-side vector, exactly."""
    if not isinstance(v, LatticeVector):
        raise TypeError(f"pairing expects two LatticeVectors, got {v!r}")
    return _dot(v.coords, _checked(u, M_SIDE if v.side == N_SIDE else N_SIDE, v.dim))


def primitive_tuple(coords: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(gcd, primitive coords) of a nonzero integer sequence; gcd is positive, and a bool reads as an int."""
    return _primitive(tuple(map(index, coords)))


def _primitive(coords: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """primitive_tuple of a sequence of ints, unchecked: one gcd call, and no division when it is 1."""
    g = math.gcd(*coords)
    if g == 1:
        return 1, tuple(coords)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return g, tuple([c // g for c in coords])


# ---------------------------------------------------------------------------
# integer matrices, stored as tuples of row tuples
# ---------------------------------------------------------------------------


def row_hermite(matrix: Sequence[Sequence[int]]):
    """Row echelon form over the integers with a tracked unimodular transform.

    Returns (H, U, Uinv, rank) with U @ matrix == H, U unimodular, the first
    `rank` rows of H in echelon position with positive pivots and the rest
    zero.  Pivot choice is deterministic: the row of smallest absolute pivot
    value, lowest index first, which makes every downstream basis choice
    reproducible.  This is the package's only elimination loop.
    """
    H = [list(map(int, row)) for row in matrix]
    m = len(H)
    ncols = len(H[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    # Uinv transposed: the column operation on Uinv that undoes a row
    # operation on U is a row operation on V
    V = [row[:] for row in U]

    rank = 0
    for col in range(ncols):
        if rank == m:
            break
        while True:
            pivots = [(abs(H[i][col]), i) for i in range(rank, m) if H[i][col] != 0]
            if not pivots:
                break
            ip = min(pivots)[1]
            if ip != rank:
                H[rank], H[ip] = H[ip], H[rank]
                U[rank], U[ip] = U[ip], U[rank]
                V[rank], V[ip] = V[ip], V[rank]
            hp, up, pivot = H[rank], U[rank], H[rank][col]
            done = True
            for i in range(rank + 1, m):
                q = H[i][col] // pivot
                if q:
                    # row_i -= q * row_rank; Uinv's column rank += q * its column i
                    H[i] = [a - q * b for a, b in zip(H[i], hp)]
                    U[i] = [a - q * b for a, b in zip(U[i], up)]
                    V[rank] = [a + q * b for a, b in zip(V[rank], V[i])]
                if H[i][col] != 0:
                    done = False
            if done:
                break
        if H[rank][col] != 0:
            if H[rank][col] < 0:
                H[rank] = [-a for a in H[rank]]
                U[rank] = [-a for a in U[rank]]
                V[rank] = [-a for a in V[rank]]
            rank += 1

    return tuple(map(tuple, H)), tuple(map(tuple, U)), tuple(zip(*V)), rank


def rank_of(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals, computed exactly."""
    return row_hermite(matrix)[3]


def solve_linear(matrix: Sequence[Sequence[int]], rhs: Sequence) -> tuple[Fraction, ...] | None:
    """Solve matrix @ x = rhs exactly; None if inconsistent.

    Requires the solution to be unique (full column rank); raises otherwise.
    Eliminates [matrix | rhs], each row scaled by its rhs denominator: the
    system is inconsistent iff the last pivot lies in the rhs column.
    """
    n = len(matrix[0]) if matrix else 0
    aug = []
    for i, row in enumerate(matrix):
        b = Fraction(rhs[i])
        aug.append([b.denominator * a for a in row] + [b.numerator])
    H, _, _, rank = row_hermite(aug)
    if rank and not any(H[rank - 1][:n]):
        return None
    if rank < n:
        raise ValueError("underdetermined system: solution is not unique")
    # the pivots sit on the diagonal of the top n x n block
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        tail = sum(H[i][j] * x[j] for j in range(i + 1, n))
        x[i] = Fraction(H[i][n] - tail, H[i][i])
    return tuple(x)


# ---------------------------------------------------------------------------
# quotient lattices
# ---------------------------------------------------------------------------


class QuotientLattice(_Record):
    """The image lattice of Z^n under quotient by a saturated subspace.

    projection_matrix maps N onto Z^q (q = ambient - rank of the span) with
    kernel the saturated subspace, all that it depends on; section_matrix is
    a right inverse, so projection . section = identity on the quotient.
    """

    __slots__ = {
        "ambient_dim": "int",
        "projection_matrix": "tuple[tuple[int, ...], ...]",
        "section_matrix": "tuple[tuple[int, ...], ...]",
    }

    @property
    def quotient_dim(self) -> int:
        return len(self.projection_matrix)

    def project(self, v: LatticeVector) -> LatticeVector:
        coords = _checked(v, N_SIDE, self.ambient_dim)
        return LatticeVector(tuple(_dot(row, coords) for row in self.projection_matrix), N_SIDE)

    def lift(self, w) -> LatticeVector:
        return LatticeVector(self._section(_coords(w, N_SIDE, self.quotient_dim)), N_SIDE)

    def _section(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """lift on the int coordinates of a quotient point, unchecked."""
        return tuple(_dot(row, coords) for row in self.section_matrix)

    def push_dual(self, u: LatticeVector) -> LatticeVector:
        """S^T u, S the section, for u vanishing on the subspace, i.e. with P^T S^T u = u, P the projection."""
        coords = _checked(u, M_SIDE, self.ambient_dim)
        pushed, rows = self._push(coords), self.projection_matrix
        if any(x != sum(w * row[i] for row, w in zip(rows, pushed)) for i, x in enumerate(coords)):
            raise ValueError("character does not vanish on the subspace")
        return LatticeVector(pushed, M_SIDE)

    def _push(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """push_dual on the int coordinates of a character vanishing on the subspace, unchecked."""
        return tuple(_dot(col, coords) for col in zip(*self.section_matrix))


def quotient_lattice(ambient_dim: int, generators: Sequence) -> QuotientLattice:
    """Quotient of Z^ambient_dim by the saturated span of the generators.

    Each generator is a plain sequence of ints or an N-side LatticeVector,
    of length ambient_dim.  Any generators will do, dependent ones included:
    the kernel of the projection is the saturation of their span, so the
    quotient is torsion-free of rank ambient_dim minus the rank of the
    generators.
    """
    gens = [_coords(g, N_SIDE, ambient_dim) for g in generators]
    # columns of A are the generators; the rows U[r:], those with U @ A zero,
    # span the integer left kernel of A, whose common zeros are the saturated
    # span whatever the rank
    A = [[g[i] for g in gens] for i in range(ambient_dim)]
    _, U, Uinv, r = row_hermite(A)
    return QuotientLattice(ambient_dim, U[r:], tuple(row[r:] for row in Uinv))
