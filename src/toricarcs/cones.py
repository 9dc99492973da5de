"""Strongly convex rational polyhedral cones and fans.

Cones are given by primitive integer ray generators.  Dual descriptions are
computed by an incremental double-description pass over exact integers:
halfspaces are inserted one at a time, first consuming the lineality space,
then combining adjacent rays across the new wall.  A face is its tight set,
and the pass returns every constraint's; a Cone keeps its dual rays' as
_walls.  So adjacency, extremality, strong convexity, faces, smallest faces
and the facets of the triangulation are all read on the tight sets of the
one double description, with no rank or zero test per pair, ray or facet.

Inputs are checked once, at the public boundary: generators with _coords,
which refuses an M-side vector, and the argument of contains,
tight_ray_indices and smallest_face_containing with _checked.  Then _dot
works on int tuples built once per object: Cone.key, Cone._dual_keys and
FaceRef.key.  The two incidence questions the orbit layer asks have one
unchecked kernel each on Cone: _holds(x), whether a point lies in the cone
(contains without the check), and _is_face(key), whether some of its rays
are all the rays of one face (is_face_of and Fan read it).

On top of that sit face lattices, the smoothness test, the pulling
triangulation, lattice points of parallelepipeds, Hilbert bases of pointed
lattice semigroups, cone-order comparisons, quotients by faces, and the
homogenized rays of the polyhedra the ideal machinery needs.  A Hilbert
basis is the irreducible part of one generating set: the rays and the
[0, 1) parallelepiped points of the simplices of the triangulation.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import index, le
from typing import Iterable, Iterator, Sequence

from .lattice import (
    M_SIDE,
    N_SIDE,
    LatticeVector,
    QuotientLattice,
    _checked,
    _coords,
    _dot,
    _primitive,
    _Record,
    _set,
    _within_budget,
    quotient_lattice,
    row_hermite,
)

__all__ = [
    "Cone",
    "FaceRef",
    "Fan",
    "FaceQuotient",
    "is_smooth",
    "hilbert_basis_dual",
    "leq_sigma",
    "quotient_by_face",
    "intersect_cones",
    "is_face_of",
    "lattice_points_where",
    "dual_generators",
]


def _neg(a: Sequence[int]) -> tuple[int, ...]:
    return tuple(-x for x in a)


def _canonical_sign(vec: Sequence[int]) -> tuple[int, ...]:
    """Primitive representative of a line: first nonzero coordinate positive."""
    _, prim = _primitive(vec)
    for c in prim:
        if c != 0:
            return prim if c > 0 else _neg(prim)
    raise ValueError("zero vector")


def _along(v: Sequence[int], l0: Sequence[int], d0: int, a: Sequence[int]) -> list[int]:
    """d0 v - (a . v) l0, on the wall of a when a . l0 = d0: v moved along l0, a . v taken once."""
    t = _dot(a, v)
    return [d0 * x - t * y for x, y in zip(v, l0)]


def dual_generators(
    constraints: Sequence[Sequence[int]], dim: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], tuple[frozenset[int], ...]]:
    """Generator description of {x in R^dim : c . x >= 0 for all c}.

    Returns (rays, lineality_basis, walls): primitive integer tuples, each
    sorted, with one ray per extreme ray modulo the lineality space L,
    reduced canonically modulo L; walls[k] is the frozenset of indices of
    the rays on which constraint k vanishes.  A zero constraint vanishes
    on every vector, so its wall is every ray.

    The constraints are inserted one at a time, and after each the list
    holds exactly the extreme rays of the cone so far modulo its lineality
    L, each with its zero set: the processed constraints that vanish on it.
    A constraint a not vanishing on L cuts L down to its kernel in L,
    turns a line l0 of L with a . l0 > 0 into a ray, and moves each ray
    along l0 onto a's wall, which keeps it extreme and keeps its zero set,
    since every processed constraint vanishes on L.  Otherwise the rays on
    the new wall's side are kept, and each adjacent pair across it is
    joined on the wall.  Faces are tight sets: the smallest face holding
    rays p and m is cut out by their common zero set Z, and its rays are
    the rays whose zero sets contain Z, so p and m are adjacent iff no
    third ray's zero set contains Z (Fukuda & Prodon, Double description
    method revisited, 1996, Prop. 7).  Rays are reduced modulo L once, at
    the end; every constraint vanishes on L, so the zero sets are kept.
    """
    lin = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[tuple[int, ...], int]] = []  # (ray, bitmask of the processed rows zero on it)
    bit = 1
    for raw in constraints:
        a = tuple(map(index, raw))
        if len(a) != dim:
            raise ValueError(f"constraint {list(a)} has length {len(a)}, not {dim}")
        hit = next((i for i, l in enumerate(lin) if _dot(a, l) != 0), None)
        if hit is not None:
            l0 = lin.pop(hit)
            d0 = _dot(a, l0)
            if d0 < 0:
                l0, d0 = _neg(l0), -d0
            lin = [_canonical_sign(_along(l, l0, d0, a)) for l in lin]
            rays = [(_primitive(_along(r, l0, d0, a))[1], z | bit) for r, z in rays]
            rays.append((l0, bit - 1))
        else:
            values = [_dot(a, r) for r, _ in rays]
            plus = [(r, z, v) for (r, z), v in zip(rays, values) if v > 0]
            minus = [(r, z, v) for (r, z), v in zip(rays, values) if v < 0]
            new_rays = [(r, z | bit if v == 0 else z) for (r, z), v in zip(rays, values) if v >= 0]
            for (rp, zp, vp), (rm, zm, vm) in itertools.product(plus, minus):
                common = zp & zm
                if any(z & common == common and r != rp and r != rm for r, z in rays):
                    continue
                combo = tuple(vp * x - vm * y for x, y in zip(rm, rp))
                new_rays.append((_primitive(combo)[1], common | bit))
            rays = new_rays
        bit <<= 1
    if lin:
        q = quotient_lattice(dim, lin)
        rays = [(q._section(_primitive([_dot(row, r) for row in q.projection_matrix])[1]), z) for r, z in rays]
    rays.sort()
    walls = tuple(frozenset(i for i, (_, z) in enumerate(rays) if z >> k & 1) for k in range(bit.bit_length() - 1))
    return tuple(r for r, _ in rays), tuple(sorted(lin)), walls


class Cone(_Record):
    """A strongly convex rational polyhedral cone, canonicalized.

    Input generators are scaled to primitive vectors, deduplicated, and
    reduced to the extreme rays, which key holds sorted, as int tuples.  The
    dual description (extreme rays of the dual plus, for lower-dimensional
    cones, a basis of the annihilator of the span) is computed at
    construction and kept as int tuples too, so all later membership tests
    are pure integer arithmetic.  rays, dual_rays and span_normals are the
    same tuples as LatticeVectors, built the first time each is read.
    """

    __slots__ = ("key", "dim_ambient", "_dual_ray_keys", "_normal_keys",  # the coords of dual_rays, span_normals
                 "_dual_keys", "_walls",  # dual_generator_list() coords; _walls[j]: the rays on dual ray j
                 "_rays", "_dual_rays", "_span_normals", "_duals",  # the LatticeVectors, built on first read
                 "_faces", "_hilbert", "_basis",  # _basis: (_adapted_dual_basis of key,), on first read
                 "_face_refs",  # the FaceRefs face_from_indices has checked, by sorted index tuple
                 "_strata")  # stratum records by face key, for labels over this cone; see arcs._stratum

    def __init__(self, rays: Iterable, dim_ambient: int | None = None):
        ray_tuples: list[tuple[int, ...]] = []
        for r in rays:
            coords = _coords(r, N_SIDE)
            if dim_ambient is None:
                dim_ambient = len(coords)
            if len(coords) != dim_ambient:
                raise ValueError("ray dimension mismatch")
            if all(c == 0 for c in coords):
                continue
            ray_tuples.append(_primitive(coords)[1])
        if dim_ambient is None:
            raise ValueError("ambient dimension required for a cone with no rays")
        ray_tuples = sorted(set(ray_tuples))

        dual_rays, dual_lin, tight = dual_generators(ray_tuples, dim_ambient)
        # tight[g]: the dual rays generator g is on.  A generator tight on every
        # dual ray vanishes on the dual, so its negative lies in the cone: a line;
        # else the dual rays' sum is positive on every generator, so the dual is
        # full-dimensional.  A generator is extreme iff the smallest face holding
        # it, cut out by the dual rays tight on it, holds no other generator:
        # its tight set is in no other's.
        if any(len(t) == len(dual_rays) for t in tight):
            raise ValueError("cone is not strongly convex (contains a line)")
        extreme = [g for g, t in enumerate(tight) if sum(map(t.issubset, tight)) == 1]

        super().__init__(tuple(ray_tuples[g] for g in extreme), dim_ambient)
        walls = (frozenset(i for i, g in enumerate(extreme) if j in tight[g]) for j in range(len(dual_rays)))
        _set(self, "_walls", tuple(walls))
        _set(self, "_dual_ray_keys", dual_rays)
        _set(self, "_normal_keys", dual_lin)
        _set(self, "_dual_keys", tuple(sorted(dual_rays + dual_lin + tuple(map(_neg, dual_lin)))))
        _set(self, "_face_refs", {})
        _set(self, "_strata", {})

    def __repr__(self) -> str:
        return f"Cone({[list(r) for r in self.key]}, dim={self.dim_ambient})"

    # -- the LatticeVectors, built on first read -------------------------------

    def _vectors(self, slot: str, keys: tuple[tuple[int, ...], ...], side: str) -> tuple[LatticeVector, ...]:
        if getattr(self, slot) is None:
            _set(self, slot, tuple(LatticeVector(k, side) for k in keys))
        return getattr(self, slot)

    @property
    def rays(self) -> tuple[LatticeVector, ...]:
        """The extreme rays, sorted: key as N-side vectors."""
        return self._vectors("_rays", self.key, N_SIDE)

    @property
    def dual_rays(self) -> tuple[LatticeVector, ...]:
        """The extreme rays of the dual modulo its lineality, sorted."""
        return self._vectors("_dual_rays", self._dual_ray_keys, M_SIDE)

    @property
    def span_normals(self) -> tuple[LatticeVector, ...]:
        """A basis of the annihilator of the span, sorted: the dual's lineality."""
        return self._vectors("_span_normals", self._normal_keys, M_SIDE)

    # -- basic geometry -----------------------------------------------------

    @property
    def dim(self) -> int:
        # the span normals are a basis of the annihilator of the span
        return self.dim_ambient - len(self._normal_keys)

    def is_full_dimensional(self) -> bool:
        return self.dim == self.dim_ambient

    def dual_generator_list(self) -> tuple[LatticeVector, ...]:
        """Generators of the dual cone, sorted and built once; lineality contributes +/- pairs."""
        return self._vectors("_duals", self._dual_keys, M_SIDE)

    def halfspace_data(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(normal, 0) pairs cutting out the cone, for point enumeration."""
        return tuple((u, 0) for u in self._dual_keys)

    def contains(self, v: LatticeVector) -> bool:
        return self._holds(_checked(v, N_SIDE, self.dim_ambient))

    def _holds(self, x: tuple[int, ...]) -> bool:
        """contains on the int coordinates of a point of the right rank, unchecked."""
        return all(_dot(x, u) >= 0 for u in self._dual_keys)

    def tight_ray_indices(self, u: LatticeVector) -> tuple[int, ...]:
        y = _checked(u, M_SIDE, self.dim_ambient)
        return tuple(i for i, r in enumerate(self.key) if not _dot(r, y))

    # -- faces --------------------------------------------------------------

    def faces(self) -> tuple["FaceRef", ...]:
        if self._faces is None:
            refs = (FaceRef(self, k) for k in _face_keys(self._walls, len(self.key)))
            _set(self, "_faces", tuple(sorted(refs, key=lambda f: (len(f.indices), f.indices))))
        return self._faces

    def face_from_indices(self, indices: Sequence[int]) -> "FaceRef":
        """The face spanned by the given rays; refused unless they are all of its rays.

        A face once checked is kept in _face_refs, so the same indices give the same FaceRef.
        """
        wanted = tuple(sorted(map(index, indices)))
        face = self._face_refs.get(wanted)
        if face is None and all(0 <= i < len(self.key) for i in wanted):
            face = self._face_cut_by(w for w in self._walls if w.issuperset(wanted))
            if face.indices == wanted:
                self._face_refs[wanted] = face
            else:
                face = None
        if face is None:
            raise ValueError(f"ray subset {list(wanted)} does not span a face")
        return face

    def zero_face(self) -> "FaceRef":
        return FaceRef(self, ())

    def full_face(self) -> "FaceRef":
        return FaceRef(self, range(len(self.key)))

    def smallest_face_containing(self, vectors: Sequence[LatticeVector]) -> "FaceRef":
        """The rays on every dual ray tight at all the vectors, without the face lattice."""
        if not all(map(self.contains, vectors)):
            raise ValueError("vector outside the cone has no containing face")
        return self._face_at([v.coords for v in vectors])

    def _face_at(self, points: Sequence[tuple[int, ...]]) -> "FaceRef":
        """smallest_face_containing for the coordinates of points of the cone, unchecked."""
        return self._face_cut_by(
            w for u, w in zip(self._dual_ray_keys, self._walls) if not any(_dot(x, u) for x in points)
        )

    def _is_face(self, key: tuple[tuple[int, ...], ...]) -> bool:
        """Whether key, sorted points of the cone, is all the rays of the smallest face holding it."""
        return self._face_at(key).key == key

    def _face_cut_by(self, walls: Iterable[frozenset[int]]) -> "FaceRef":
        """The face cut out by some dual rays, given by their walls: the rays on all of them."""
        return FaceRef(self, frozenset(range(len(self.key))).intersection(*walls))

    def _adapted_basis(self) -> tuple[tuple[int, ...], ...] | None:
        """_adapted_dual_basis of the rays, computed on first read and kept; None unless smooth."""
        if self._basis is None:
            _set(self, "_basis", (_adapted_dual_basis(self.key, self.dim_ambient),))
        return self._basis[0]

    # -- Hilbert basis of the cone's own semigroup ----------------------------

    def hilbert_basis(self) -> tuple[LatticeVector, ...]:
        if self._hilbert is None:
            basis = _hilbert_of_pointed(self.key, self._walls, self._dual_keys, self.dim)
            _set(self, "_hilbert", tuple(LatticeVector(b, N_SIDE) for b in basis))
        return self._hilbert


def _face_keys(tight_sets: Iterable[Iterable[int]], nrays: int) -> set[frozenset[int]]:
    """Faces of a cone as sets of ray indices.

    tight_sets are the rays on which valid inequalities vanish, and must
    include every facet; each is a face, and every face is an intersection
    of facets, so the faces are the full set and all intersections of them.
    """
    walls = {frozenset(t) for t in tight_sets}
    full = frozenset(range(nrays))
    keys = {full}
    todo = [full]
    while todo:
        face = todo.pop()
        for wall in walls:
            meet = face & wall
            if meet not in keys:
                keys.add(meet)
                todo.append(meet)
    return keys


class FaceRef(_Record):
    """A face of a parent cone, addressed by distinct indices of its rays (else ValueError); key is built once.

    It does not check that the indices span a face: face_from_indices,
    OrbitLabel and quotient_by_face do.
    """

    __slots__ = {"parent": "Cone", "indices": "tuple[int, ...]", "_key": "the rays' coordinates"}

    def __init__(self, parent: Cone, indices: Iterable[int]):
        indices = tuple(sorted(map(index, indices)))
        key = parent.key
        if indices and (indices[0] < 0 or indices[-1] >= len(key) or len(set(indices)) < len(indices)):
            raise ValueError(f"face indices {list(indices)} are not distinct ray indices of the cone")
        _set(self, "parent", parent)
        _set(self, "indices", indices)
        _set(self, "_key", tuple([key[i] for i in indices]))

    @property
    def rays(self) -> tuple[LatticeVector, ...]:
        return tuple(self.parent.rays[i] for i in self.indices)

    @property
    def key(self) -> tuple:
        return self._key

    @property
    def is_zero(self) -> bool:
        return not self.indices

    def __repr__(self) -> str:
        return f"FaceRef(indices={list(self.indices)})"


def lattice_points_where(
    constraints: Sequence[tuple[Sequence[int], int]],
    lo: Sequence[int],
    hi: Sequence[int],
) -> Iterator[tuple[int, ...]]:
    """Integer points of a box with a . x >= b for every (a, b), in lexicographic order.

    The most sum_{i>k} a_i x_i can reach over the box does not depend on
    x_0..x_k, so it is computed once.  With x_0..x_{k-1} fixed, each
    constraint allows x_k the range where it can still be met, read off by
    ceil or floor division, and x_k runs over the meet of these ranges with
    [lo_k, hi_k]; a constraint with a_k = 0 that cannot be met ends the
    branch.  Each range is necessary, so no point is lost.  At the last
    coordinate nothing follows, so each range is exactly its constraint,
    and no point reached is rejected.

    An equality a . x = b is given as the pair (a, b), (-a, -b).  The range
    at the last coordinate is then exact too, a single value or none, so a
    scan of a hyperplane's slice yields exactly its points.
    """
    dim = len(lo)
    if any(a > b for a, b in zip(lo, hi)):
        return
    rows = [tuple(a) for a, _ in constraints]
    # reach[k][c]: the most sum_{i>=k} a_i x_i of constraint c can be over the box
    reach = [[0] * len(rows)]
    for k in reversed(range(dim)):
        reach.append([t + max(a[k] * lo[k], a[k] * hi[k]) for t, a in zip(reach[-1], rows)])
    reach.reverse()

    def rec(k, prefix, need):
        # need[c] = b - sum_{i<k} a_i x_i for constraint c
        low, high = lo[k], hi[k]
        for a, r, t in zip(rows, need, reach[k + 1]):
            c, g = a[k], r - t
            if c > 0:
                low = max(low, -(-g // c))
            elif c < 0:
                high = min(high, g // c)
            elif g > 0:
                return
        if k == dim - 1:
            for x in range(low, high + 1):
                yield prefix + (x,)
            return
        for x in range(low, high + 1):
            yield from rec(k + 1, prefix + (x,), [r - a[k] * x for a, r in zip(rows, need)])

    need = [b for _, b in constraints]
    if dim == 0:
        if all(b <= 0 for b in need):
            yield ()
        return
    yield from rec(0, (), need)


def _parallelepiped(gens: Sequence[Sequence[int]]):
    """Lattice points sum l_i g_i of independent g_i, each l_i in [0, 1).

    There is one point per coset of the lattice the g_i generate in the
    lattice points of their span.  row_hermite on the matrix A of the g_i
    as columns gives U A = H with H's top k x k block upper triangular,
    diagonal d, and zero below.  So the span's lattice points are
    Uinv[:, :k] y for y in Z^k, the g_i's lattice is the y in H Z^k, and
    the y with 0 <= y_i < d_i are one point per coset: prod d_i = |det| of
    them.  D = prod d_i makes D H^-1 the adjugate, so back-substitution
    gives D l in integers, and taking off floor(l_i) g_i leaves the cube.

    Returns None if the g_i are dependent, else (count, points) with the
    points an iterator, so a caller can weigh the count first.
    """
    k, n = len(gens), len(gens[0])
    H, _, Uinv, rank = row_hermite([[g[i] for g in gens] for i in range(n)])
    if rank < k:
        return None
    d = [H[i][i] for i in range(k)]
    volume = math.prod(d)

    def points():
        for y in itertools.product(*(range(di) for di in d)):
            scaled = [0] * k  # D l
            for i in reversed(range(k)):
                tail = sum(H[i][j] * scaled[j] for j in range(i + 1, k))
                scaled[i] = (volume * y[i] - tail) // d[i]
            shift = [s // volume for s in scaled]
            yield tuple(
                sum(Uinv[r][i] * y[i] - shift[i] * gens[i][r] for i in range(k)) for r in range(n)
            )

    return volume, points()


def _triangulation(
    gens: Sequence[Sequence[int]], walls: Iterable[Iterable[int]], rank: int
) -> list[tuple[int, ...]]:
    """Maximal simplices, sorted index tuples into gens, of the pulling triangulation of cone(gens).

    walls are the index sets of the gens on which valid inequalities of the
    pointed cone vanish, every facet among them; a face is the set of gens
    it holds.  rank is the rank of the gens, which the caller's cone
    already holds: Cone.dim, or the ambient rank for the dual of a
    full-dimensional cone.  A face K with independent gens is its own
    simplex; any other is coned from its least index a over its facets
    that miss a.  These
    are the inclusion-maximal K cap W, W a wall missing a.  Each K cap W is
    a proper face of K missing a.  Every proper face H of K missing a lies
    in a facet of K missing a, as the facets of K holding H meet in H.  A
    facet G of K missing a is the meet of the walls holding it, one of
    which, W, misses a, so K cap W is G.  Facets have rank one less than
    K's, so the rank is needed only at the root.  The facets cover K, as
    x - t g_a leaves the pointed K through a facet positive at g_a.  Each
    face is triangulated by one rule, whichever face reaches it (a face
    holding a is pulled from a too), so the simplices meet in common faces
    (De Loera, Rambau & Santos, Triangulations, 4.3).  No gens, no simplex.
    """
    walls = [frozenset(w) for w in walls]
    done: dict[frozenset[int], list[tuple[int, ...]]] = {}

    def pull(face: frozenset[int], rank: int) -> list[tuple[int, ...]]:
        if face in done:
            return done[face]
        if len(face) == rank:
            done[face] = [tuple(sorted(face))]
        else:
            a = min(face)
            meets = {face & w for w in walls if a not in w}
            facets = [f for f in meets if not any(f < g for g in meets)]
            done[face] = [(a,) + s for f in facets for s in pull(f, rank - 1)]
        return done[face]

    return sorted(pull(frozenset(range(len(gens))), rank)) if gens else []


def _minimal(points: Iterable[tuple[int, ...]], normals: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The minimal points, sorted, in the order q <= p iff a . q <= a . p for every normal a.

    Each point is read once as its tuple of values a . p.  The points are
    taken by their degree, the sum of their values, l . p for l the sum of
    the normals, ties broken lexicographically, and a point is kept unless
    a kept point has every value <= its own.  A point q < p has no value larger and one
    smaller, so it is taken before p; the first point taken among those
    below p has no kept point below it, so it is kept and p is dropped.
    Points with equal values differ by the lineality of the order (for the
    dual of a lower-dimensional cone, the cone's annihilator); of these the
    lexicographically first is kept.  This is the degree-ordered reduction
    of Normaliz (Bruns & Ichim, J. Algebra 324, 2010).

    So p is compared only with the kept points of strictly lower degree: a
    point of equal degree is below p only if its values equal p's, which
    the set of the values kept at p's degree settles.  Two points of one degree are
    never compared, and an antichain of one degree costs no comparison.
    """
    values = {p: tuple(_dot(a, p) for a in normals) for p in points}
    kept: list[tuple[int, ...]] = []
    lower: list[tuple[int, ...]] = []  # the values of the kept points of lower degree than p
    level: set[tuple[int, ...]] = set()  # those of p's degree
    degree = None
    for d, p, v in sorted((sum(v), p, v) for p, v in values.items()):
        if d != degree:
            degree = d
            lower += level
            level = set()
        if v not in level and not any(all(map(le, q, v)) for q in lower):
            kept.append(p)
            level.add(v)
    return sorted(kept)


# Most cover points a Hilbert basis may enumerate; see _hilbert_of_pointed.
# The benchmark's charts need at most 49; the dual of e1..e4,(1,2,3,5,13) needs
# 28,561 (0.9 s), the 5-cube cone dual to the cross-polytope 3840 (0.3 s).
MAX_HILBERT_COVER_POINTS = 50_000


def _hilbert_of_pointed(gens, walls, normals, rank: int) -> tuple[tuple[int, ...], ...]:
    """Minimal generating set of cone(gens) cap Z^n, a pointed cone of the given rank cut out by a . x >= 0.

    walls, the gens on each facet, come from the cone's double description.
    The simplices S of _triangulation cover the cone.  A lattice point of S
    less its whole steps floor(l_i) g_i is in the [0, 1) parallelepiped of
    S, so the gens and the nonzero box points generate the monoid, and hold
    its irreducible elements.  A reducible p is q + r, q and r nonzero in
    the cone, so q < p; an irreducible p has no candidate q < p, as p - q
    would be a nonzero point of the cone.  So the basis is their _minimal.

    Work budget: the boxes hold sum |det S| points, counted before any is
    enumerated; more than MAX_HILBERT_COVER_POINTS raises ValueError.
    """
    cells = [_parallelepiped([gens[i] for i in s]) for s in _triangulation(gens, walls, rank)]
    count = sum(volume for volume, _ in cells)
    _within_budget(count, MAX_HILBERT_COVER_POINTS, "Hilbert basis would enumerate", "cover points")
    return tuple(_minimal(itertools.chain(gens, (p for _, cell in cells for p in cell if any(p))), normals))


# ---------------------------------------------------------------------------
# module-level operation surface
# ---------------------------------------------------------------------------


def _adapted_dual_basis(rays: Sequence[tuple[int, ...]], dim: int) -> tuple[tuple[int, ...], ...] | None:
    """A basis of M whose first rows are dual to the rays; None unless the rays extend to a basis of N.

    The rays extend to a basis iff H = U @ A (row_hermite, the rays as the
    columns of A) has full column rank and unit pivots: its top block T is
    then unimodular.  The rows T^-1 U[:d] pair to delta_ij with the rays,
    and U's other rows, zero on every ray, complete the basis (torus factor).
    """
    d = len(rays)
    H, U, _, rank = row_hermite([[r[i] for r in rays] for i in range(dim)])
    if rank != d or any(H[i][i] != 1 for i in range(d)):
        return None
    rows = [list(row) for row in U]
    for i in reversed(range(d)):
        for k in range(i + 1, d):
            rows[i] = [a - H[i][k] * b for a, b in zip(rows[i], rows[k])]
    return tuple(map(tuple, rows))


def is_smooth(c: Cone) -> bool:
    """True iff the primitive rays extend to a basis of the ambient lattice."""
    return c._adapted_basis() is not None


@lru_cache(maxsize=None)
def hilbert_basis_dual(c: Cone) -> tuple[LatticeVector, ...]:
    """Minimal generating set of the dual semigroup (full-dimensional cones)."""
    if not c.is_full_dimensional():
        raise ValueError(
            "dual semigroup of a lower-dimensional cone is not pointed; "
            "Hilbert basis is unsupported"
        )
    walls = [frozenset(j for j, w in enumerate(c._walls) if i in w) for i in range(len(c.key))]  # the transpose
    basis = _hilbert_of_pointed(c._dual_ray_keys, walls, c.key, c.dim_ambient)
    return tuple(LatticeVector(b, M_SIDE) for b in basis)


def leq_sigma(c: Cone, v: LatticeVector, v2: LatticeVector) -> bool:
    """The cone order: v <= v2 iff v2 - v lies in the cone."""
    if not c.contains(v):
        raise ValueError(f"{tuple(v.coords)} is not in the cone")
    if not c.contains(v2):
        raise ValueError(f"{tuple(v2.coords)} is not in the cone")
    return c.contains(v2 - v)


class FaceQuotient(_Record):
    """Quotient data for a cone modulo the span of one of its faces."""

    __slots__ = {"lattice": "QuotientLattice", "image_cone": "Cone"}

    def project(self, v: LatticeVector) -> LatticeVector:
        return self.lattice.project(v)


@lru_cache(maxsize=None)
def _stratum_quotient(ambient_dim: int, face_key: tuple) -> QuotientLattice:
    """N modulo the span of the rays face_key: the lattice of a stratum's orbits."""
    return quotient_lattice(ambient_dim, face_key)


@lru_cache(maxsize=None)
def _face_quotient_cached(parent: Cone, face_key: tuple) -> FaceQuotient:
    q = _stratum_quotient(parent.dim_ambient, face_key)
    image = Cone((tuple(_dot(row, r) for row in q.projection_matrix) for r in parent.key), q.quotient_dim)
    return FaceQuotient(q, image)


def quotient_by_face(c: Cone, f: FaceRef) -> FaceQuotient:
    """Quotient lattice and image cone of c modulo the span of f.

    ValueError unless f is a face of c, whatever cone f's parent is.
    """
    if not is_face_of(f, c.full_face()):
        raise ValueError("not a face of the given cone")
    return _face_quotient_cached(c, f.key)


def intersect_cones(c1: Cone, c2: Cone) -> Cone:
    """The meet of two cones: strongly convex as they are, so its dual generators have no lineality."""
    if c1.dim_ambient != c2.dim_ambient:
        raise ValueError("ambient dimension mismatch")
    return Cone(dual_generators(c1._dual_keys + c2._dual_keys, c1.dim_ambient)[0], c1.dim_ambient)


def _homogenized_rays(
    constraints: Sequence[tuple[Sequence[int], int]], dim: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[frozenset[int], ...]]:
    """Extreme rays (x, s) of the homogenization of {x : a . x >= b for all (a, b)}, and their walls.

    The homogenized cone is cut out by a . x - b s >= 0 and s >= 0.  Rays
    with s > 0 are the vertices x / s, rays with s = 0 the recession rays.
    One double-description pass, whose walls are the tight sets of the
    constraints in order, then s = 0; the polyhedron must not contain a line.
    """
    homog = [tuple(a) + (-int(b),) for a, b in constraints]
    homog.append((0,) * dim + (1,))
    rays, lin, walls = dual_generators(homog, dim + 1)
    if lin:
        raise ValueError("polyhedron contains a line")
    return rays, walls


class Fan(_Record):
    """A finite fan: face-closed, intersection-compatible strongly convex cones."""

    __slots__ = ("maximal_cones", "_strata")  # _strata: as Cone's

    def __init__(self, maximal_cones: Sequence[Cone]):
        cones = sorted(set(maximal_cones), key=lambda c: c.key)
        if not cones:
            raise ValueError("a fan needs at least one cone")
        dim = cones[0].dim_ambient
        for c in cones:
            if c.dim_ambient != dim:
                raise ValueError("all cones of a fan share one ambient lattice")
        kept = [
            c
            for c in cones
            if not any(d != c and is_face_of(c.full_face(), d.full_face()) for d in cones)
        ]
        for c1, c2 in itertools.combinations(kept, 2):
            meet = dual_generators(c1._dual_keys + c2._dual_keys, dim)[0]  # the rays intersect_cones finds
            if not c1._is_face(meet) or not c2._is_face(meet):
                raise ValueError("cones do not intersect in a common face; not a valid fan")
        super().__init__(tuple(kept))
        _set(self, "_strata", {})

    @property
    def dim_ambient(self) -> int:
        return self.maximal_cones[0].dim_ambient

    def strata(self) -> tuple[FaceRef, ...]:
        """One canonical FaceRef per cone of the fan, deterministically."""
        seen: dict[tuple, FaceRef] = {}
        for c in self.maximal_cones:
            for f in c.faces():
                seen.setdefault(f.key, f)
        return tuple(seen[k] for k in sorted(seen, key=lambda k: (len(k), k)))


def is_face_of(sub: FaceRef, sup: FaceRef) -> bool:
    """Whether the cone of sub is a face of the cone of sup (allows equality).

    Exact for any two faces, of one cone or of two: a face of sup has its
    rays among sup's, and it is a face of sup exactly when it is a face of
    sup's parent, i.e. the smallest parent face containing it is itself.
    """
    return set(sub.key) <= set(sup.key) and sup.parent._is_face(sub.key)
