"""Invariant monomial ideals and contact loci on an affine toric chart.

The order function of a monomial ideal at a lattice point of the cone is
the minimum pairing against the ideal's exponents; it is piecewise linear
on the subdivision of the cone dual to the Newton polytope.  Irreducible
components of the p-th contact locus correspond to the cone-order-minimal
lattice points with order exactly p, each carrying a divisorial valuation
through its primitive decomposition.  The same machinery locates the
components of the arc-space fiber over the singular locus directly from the
relative interiors of the singular faces.

One double description per ideal, kept on it, serves newton, polar,
contact and the compact faces at every level: the rays of the homogenized
level-1 set, the tight set of each of its constraints and its compact
faces, walked once.  Inputs are checked once, at the public boundary;
then _dot works on int tuples.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import sub
from typing import Iterable, Sequence

from .arcs import OrbitLabel
from .cones import (
    Cone,
    FaceRef,
    _dot,
    _face_keys,
    _homogenized_rays,
    _minimal,
    _parallelepiped,
    _triangulation,
    _unimodular,
    is_smooth,
    lattice_points_where,
)
from .lattice import (
    M_SIDE,
    N_SIDE,
    LatticeVector,
    _checked,
    _Record,
    _set,
    _within_budget,
    is_finite,
    primitive_tuple,
)

__all__ = [
    "MonomialIdeal",
    "monomial_ideal",
    "NewtonData",
    "PolarData",
    "ContactComponent",
    "ToricValuation",
    "order_function",
    "newton_polytope",
    "dual_fan",
    "polar_polytope",
    "compact_face_lattice_points",
    "is_minimal_in_contact",
    "contact_components",
    "singular_faces",
    "sing_components",
    "lift_to_open_stratum",
    "toric_valuation",
    "toric_valuation_eval",
]


class MonomialIdeal(_Record):
    """An invariant monomial ideal: reduced exponent list on a chart cone."""

    __slots__ = {
        "chart": "Cone",
        "generators": "tuple[LatticeVector, ...]",
        "discarded": "tuple[LatticeVector, ...]",
        "_level_one": "the level-1 cone's rays, tight sets and compact faces, once computed",
    }


def _coords(v, side: str, dim: int) -> tuple[int, ...]:
    """The coordinates of v, a LatticeVector or a sequence of ints, checked once."""
    return _checked(v if isinstance(v, LatticeVector) else LatticeVector(tuple(v), side), side, dim)


def _in_dual(chart: Cone, u: tuple[int, ...]) -> bool:
    return all(_dot(r, u) >= 0 for r in chart.key)


def _in_chart(chart: Cone, x: tuple[int, ...]) -> bool:
    return all(_dot(x, u) >= 0 for u in chart._dual_keys)


def _order(a: MonomialIdeal, x: tuple[int, ...]) -> int:
    return min(_dot(x, u.coords) for u in a.generators)


def monomial_ideal(chart: Cone, exponents: Iterable) -> MonomialIdeal:
    """Validate and reduce a generator list for an invariant monomial ideal.

    A generator is discarded when it lies in another generator plus the dual
    cone (its monomial is a multiple of the other's); the discarded list is
    kept for reporting.  The kept ones are cones._minimal of the exponents
    in the order read on the chart's rays; of generators that differ by the
    dual's lineality (on a lower-dimensional chart) the lexicographically
    smallest is kept.
    """
    gens = set()
    for e in exponents:
        u = _coords(e, M_SIDE, chart.dim_ambient)
        if not _in_dual(chart, u):
            raise ValueError(f"exponent {u} is outside the dual semigroup")
        gens.add(u)
    if not gens:
        raise ValueError("a monomial ideal needs at least one generator")
    minimal = set(_minimal(gens, chart.key))
    kept = tuple(LatticeVector(u, M_SIDE) for u in sorted(gens) if u in minimal)
    return MonomialIdeal(chart, kept, tuple(LatticeVector(u, M_SIDE) for u in sorted(gens - minimal)))


def order_function(a: MonomialIdeal, v) -> int:
    """Minimal order of the ideal along arcs with order data v.

    v may be a lattice point of the chart cone, or an orbit label whose
    extended order function assigns INF to characters off the stratum's
    annihilator.  Homogeneous of degree one and monotone along the cone.
    """
    if isinstance(v, OrbitLabel):
        return min(v.order_at(u) for u in a.generators)
    x = _coords(v, N_SIDE, a.chart.dim_ambient)
    if not _in_chart(a.chart, x):
        raise ValueError(f"{x} is not in the chart cone")
    return _order(a, x)


# ---------------------------------------------------------------------------
# Newton polytope, dual fan, polar polytope
# ---------------------------------------------------------------------------


class NewtonData(_Record):
    """Vertices of the Newton polytope with the dual subdivision of the cone."""

    __slots__ = {
        "vertices": "tuple[LatticeVector, ...]",
        "redundant": "tuple[LatticeVector, ...]",
        "dual_fan_cones": "tuple[Cone, ...]",
    }


class PolarData(_Record):
    """Exact vertex data of {v in the cone : order >= p}.

    compact_faces lists the bounded faces of the level set as tuples of
    vertex indices; every lattice point on one of them has order exactly p.
    """

    __slots__ = {
        "level": "int",
        "vertices": "tuple[tuple[Fraction, ...], ...]",
        "compact_faces": "tuple[tuple[int, ...], ...]",
        "recession_rays": "tuple[tuple[int, ...], ...]",
    }


def _level_constraints(a: MonomialIdeal, p: int) -> list[tuple[tuple[int, ...], int]]:
    """Halfspaces a . v >= b cutting out {v in the cone : order(v) >= p}."""
    return [(u.coords, p) for u in a.generators] + list(a.chart.halfspace_data())


def _level_cone(a: MonomialIdeal):
    """The homogenized level-1 set, one double description kept on the ideal.

    Returns its extreme rays (x, s); the tight set, the indices of the
    rays where it is an equality, of each of u . x >= s for the generators
    u, w . x >= 0 for the chart walls w and s >= 0, in that order; and
    each compact face, a nonempty face whose rays all have s > 0, as its
    ray indices with the indices of the constraints tight on it.  A face
    is an intersection of tight sets, so the faces are cones._face_keys of
    the tight sets, walked here once.

    The order is homogeneous of degree one, so the level-p set is p times
    the level-1 set: (x, s) -> (p x, s) maps one homogenized cone onto the
    other, as u . x >= s becomes u . (p x) >= p s and the chart walls are
    linear.  So every level reads this record: the level-p vertices are
    p x / s, and the recession rays (s = 0), the tight sets and the
    compact faces are those of level 1.
    """
    if a._level_one is None:
        if not a.chart.is_full_dimensional():
            raise ValueError("Newton polytope machinery needs a full-dimensional chart")
        constraints = _level_constraints(a, 1)
        rays = _homogenized_rays(constraints, a.chart.dim_ambient)
        walls = [frozenset(i for i, r in enumerate(rays) if _dot(c, r) == b * r[-1]) for c, b in constraints]
        walls.append(frozenset(i for i, r in enumerate(rays) if r[-1] == 0))
        faces = tuple(
            (face, tuple(k for k, wall in enumerate(walls[:-1]) if face <= wall))
            for face in _face_keys(walls, len(rays))
            if face and all(rays[i][-1] for i in face)
        )
        _set(a, "_level_one", (rays, tuple(walls), faces))
    return a._level_one


def newton_polytope(a: MonomialIdeal) -> NewtonData:
    """Vertices of conv(generators) + dual cone; non-vertex generators flagged.

    The cell of a generator u, where u attains the order, is the image
    under (x, s) -> x of the face u . x = s of the level-1 cone of
    _level_cone.  A point v of the cell lies on that face as (v, u . v):
    w . v >= u . v for every generator w, and u . v >= 0 as u is in the
    dual.  Every point of the face is such a point, and (x, s) -> x is one
    to one there, as s = u . x.  So the cell is the Cone of the x-parts of
    the rays in u's tight set; u is a vertex iff its cell is full-dimensional.
    """
    rays, walls, _ = _level_cone(a)
    cells = {u: Cone([rays[i][:-1] for i in wall], a.chart.dim_ambient) for u, wall in zip(a.generators, walls)}
    vertices = sorted((u for u, cell in cells.items() if cell.is_full_dimensional()), key=lambda u: u.coords)
    return NewtonData(
        vertices=tuple(vertices),
        redundant=tuple(sorted((u for u in cells if u not in vertices), key=lambda u: u.coords)),
        dual_fan_cones=tuple(cells[u] for u in vertices),
    )


def dual_fan(a: MonomialIdeal) -> tuple[Cone, ...]:
    """Subdivision of the chart cone into the linearity regions of the order."""
    return tuple(sorted(newton_polytope(a).dual_fan_cones, key=lambda c: c.key))


def _check_level(p) -> None:
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise ValueError("the level p must be a positive integer")


def polar_polytope(a: MonomialIdeal, p: int) -> PolarData:
    """Vertices and compact faces of the level-p polytope of the order function.

    The level-p set is p times the level-1 set (see _level_cone), so each
    vertex is p x / s for a ray (x, s) of the homogenized level-1 set with
    s > 0, the recession rays are its rays with s = 0, and its compact
    faces, the nonempty faces made of vertices alone, are kept on the ideal.
    """
    _check_level(p)
    rays, _, faces = _level_cone(a)
    points = {i: tuple(Fraction(p * x, r[-1]) for x in r[:-1]) for i, r in enumerate(rays) if r[-1] > 0}
    vertices = tuple(sorted(points.values()))
    position = {v: k for k, v in enumerate(vertices)}
    return PolarData(
        level=p,
        vertices=vertices,
        compact_faces=tuple(sorted(tuple(sorted(position[points[i]] for i in face)) for face, _ in faces)),
        recession_rays=tuple(sorted(r[:-1] for r in rays if r[-1] == 0)),
    )


# Most box points contact_components, or compact_face_lattice_points over
# all its faces, may scan; a larger box raises ValueError before any scan.
# The largest contact box stored with the benchmark holds 360 points.  On
# the orthant with the ideal (1, 1, 1), p = 40 weighs a box of 74,088 points;
# its one slice holds the 861 points of order 40, and the query takes about
# 0.11 s on a 2-vCPU host, Python 3.11, almost all of it in _minimal over
# those 861 incomparable points.
MAX_CONTACT_BOX_POINTS = 100_000


def _box_points(lo: Sequence[int], hi: Sequence[int]) -> int:
    return math.prod(h - l + 1 for l, h in zip(lo, hi))


def _negated(constraint: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
    """-a . x >= -b: with a . x >= b, the pair makes the equality a . x = b for lattice_points_where."""
    a, b = constraint
    return tuple(-c for c in a), -b


def _vertex_box(tops, p: int, widen=()) -> tuple[list[int], list[int]]:
    """Floor below and ceil above of p x / s over the level-1 rays (x, s) in tops, widened by the sum of widen."""
    n = len(tops[0]) - 1
    lo = [min(p * r[j] // r[-1] for r in tops) + sum(min(0, w[j]) for w in widen) for j in range(n)]
    hi = [max(-(-p * r[j] // r[-1]) for r in tops) + sum(max(0, w[j]) for w in widen) for j in range(n)]
    return lo, hi


def compact_face_lattice_points(a: MonomialIdeal, p: int) -> tuple[tuple[int, ...], ...]:
    """All lattice points on compact faces of the level-p set, sorted.

    Each face is scanned in the box of its vertices, floor below and ceil
    above, with every constraint tight on the face given as an equality,
    so the scan yields exactly the face's points in the box.  The boxes
    are summed against MAX_CONTACT_BOX_POINTS first.
    """
    _check_level(p)
    rays, _, faces = _level_cone(a)
    constraints = _level_constraints(a, p)
    boxes = [
        (*_vertex_box([rays[i] for i in face], p), [_negated(constraints[k]) for k in tight]) for face, tight in faces
    ]
    work = sum(_box_points(lo, hi) for lo, hi, _ in boxes)
    _within_budget(work, MAX_CONTACT_BOX_POINTS, "compact_face_lattice_points would scan", "box points")
    return tuple(sorted({pt for lo, hi, tight in boxes for pt in lattice_points_where(constraints + tight, lo, hi)}))


# ---------------------------------------------------------------------------
# contact components
# ---------------------------------------------------------------------------


class ContactComponent(_Record):
    """A cone-order-minimal lattice point with its primitive decomposition.

    The attached divisorial valuation is e times the prime-divisor valuation
    of the primitive vector v0; level is the contact order, or None for
    components over the singular locus.
    """

    __slots__ = {
        "point": "tuple[int, ...]",
        "e": "int",
        "v0": "tuple[int, ...]",
        "level": "int | None",
    }


def _component(point: tuple[int, ...], level: int | None) -> ContactComponent:
    return ContactComponent(point, *primitive_tuple(point), level)


def is_minimal_in_contact(a: MonomialIdeal, p: int, v) -> bool:
    """Local minimality test: no single Hilbert-basis step stays at order p.

    Equivalent to global minimality among lattice points of order p because
    the order function is monotone along the cone, so any descent can be
    taken one Hilbert step at a time without leaving the level set.
    """
    _check_level(p)
    x = _coords(v, N_SIDE, a.chart.dim_ambient)
    if not _in_chart(a.chart, x):
        raise ValueError(f"{x} is not in the chart cone")
    if _order(a, x) != p:
        raise ValueError(f"order of {x} is not {p}")
    for h in a.chart.hilbert_basis():
        w = tuple(map(sub, x, h.coords))
        if _in_chart(a.chart, w) and _order(a, w) >= p:
            return False
    return True


def contact_components(a: MonomialIdeal, p: int) -> tuple[ContactComponent, ...]:
    """Minimal lattice points of order exactly p, with primitive decompositions.

    These are the minimal generators of order p of the ideal {order >= p},
    which is conv(V) + sigma for V the level-p vertices.  If a point of it
    is x + sum l_i r_i with x in conv(V) and some l_i >= 1 on a primitive
    ray r_i, then stepping back by r_i stays in the ideal.  So every minimal
    generator lies in conv(V) + sum [0, 1) r_i: the scanned box is the
    vertex box widened by sum min(0, r_i) below and sum max(0, r_i) above.

    The level-p vertices are p x / s for the rays (x, s) of the homogenized
    level-1 set with s > 0 (see _level_cone), so the vertex box is read in
    integers off them: floor(p x_j / s) below and ceil(p x_j / s) above.

    The candidates are the box points of order exactly p.  The order is
    monotone along the cone, so a point of the ideal below one of order p
    has order p too: a point of order p is minimal in the ideal iff no
    other point of order p lies below it, and then it is a candidate.
    Below a candidate that is not minimal lies a minimal point of order p,
    itself a candidate, so cones._minimal of the candidates, read on the
    chart's dual rays, gives the components without a Hilbert basis.

    A point has order exactly p iff it has order >= p and some generator u
    pairs to p with it.  So the candidates are the union over u of the
    slices u . x = p of the order >= p region in the box, each scanned by
    lattice_points_where with the equality as a pair of inequalities; a
    point on two slices is kept once.

    Work budget: a box of more than MAX_CONTACT_BOX_POINTS points raises
    ValueError before it is scanned.  Every node a slice scan visits is a
    prefix of a box point, so a scan visits at most d times the box points
    for d the rank, and the query at most (generators) * d * (box points).
    """
    _check_level(p)
    level = _level_constraints(a, p)
    tops = [r for r in _level_cone(a)[0] if r[-1] > 0]
    if not tops:
        return ()
    lo, hi = _vertex_box(tops, p, a.chart.key)
    _within_budget(_box_points(lo, hi), MAX_CONTACT_BOX_POINTS, "contact would scan", "box points")
    exact = {x for u in a.generators for x in lattice_points_where(level + [_negated((u.coords, p))], lo, hi)}
    return tuple(_component(pt, p) for pt in _minimal(exact, [u.coords for u in a.chart.dual_rays]))


# ---------------------------------------------------------------------------
# components over the singular locus
# ---------------------------------------------------------------------------


def singular_faces(c: Cone) -> tuple[FaceRef, ...]:
    """Faces whose primitive rays do not extend to a lattice basis."""
    if is_smooth(c):
        return ()
    return tuple(f for f in c.faces() if not _unimodular(f.key))


# Most candidates sing_components may enumerate, box points plus distinct ray
# sums; see its docstring.  The benchmark's largest sing chart needs 15, the
# 4-cube cone 24 + 33, the 5-cube cone 120 + 131 (0.03 s), the 6-cube cone
# 720 + 473 (0.2 s).  A_2047 needs 2048: about 1 s on a 2-vCPU Xeon, Python 3.11.
MAX_SING_PARALLELEPIPED_POINTS = 2048


def sing_components(c: Cone) -> tuple[ContactComponent, ...]:
    """Labels of the components of the arc fiber over the singular locus.

    These are the cone-order-minimal lattice points of the union I of the
    relative interiors of the singular faces, a monoid ideal since every
    face containing a singular face is singular.  A point sum_F l_i r_i,
    every l_i > 0, lies in relint tau(F), tau(F) the smallest face holding
    the rays F.  A face is its tight set, so the faces are cones._face_keys
    of the walls, the rays tight on a dual ray.  The candidates are (a) the
    nonzero points of each [0, 1) parallelepiped of cones._triangulation
    and (b) the ray sum over each set G of rays that is no face while every
    facet G - {j} is one.

    (a) is in I: a box point g with support F is in span F but not in ZF,
    so the rays of tau(F), which hold F, are no lattice basis of its span,
    as g's coordinates on them would be integers.  (b) is in I: tau(G) has
    more rays than G, so it is not simplicial, as every set of rays of a
    simplicial face is a face; so it is singular.  A minimal v is
    sum l_i r_i on some simplex.  If its fractional part g is nonzero, g
    is in I and v - g is in the cone, so v = g.  Otherwise the ray sum w
    over the support F is in relint tau(F) with v, and w <= v, so v = w.
    Were F a face, it would be simplicial and singular, and its nonzero box
    points would lie in I below w.  Were a proper subset G of F no face,
    its ray sum would lie in I, as for (b), below w by the ray sum over
    F - G.  So w is of kind (b).  In a simplicial chart every set of rays
    is a face, so its faces are not walked.

    The candidates lie in I and hold its minimal points, so the minimal
    candidates, by cones._minimal on the chart's dual rays, are the
    components: below a candidate not minimal in I lies a minimal point of
    I, itself a candidate.  No generating set of the chart is needed.

    Work: the walk meets each face with each wall, then grows each face F
    by each ray past max F and looks up the facets, so each G is grown once,
    from G - {max G}.  The triangulation restricts to every face, so there
    are at most sum 2^|S| faces over the simplices S.  The walk is not
    weighed, as Cone.faces is not.  Work budget: sum |det| box points plus
    the distinct ray sums (b), the points _minimal reads, counted before
    any box point is enumerated; more than MAX_SING_PARALLELEPIPED_POINTS
    = 2048 raises ValueError, so _minimal makes at most 2048 * 2047 / 2
    comparisons.
    """
    rays = c.key
    walls = [frozenset(i for i, r in enumerate(rays) if not _dot(r, u)) for u in c._dual_keys]
    cells = [_parallelepiped([rays[i] for i in s]) for s in _triangulation(rays, walls)]
    faces = _face_keys(walls, len(rays)) if len(rays) > c.dim else set()
    grown = (f | {i} for f in faces for i in range(max(f, default=-1) + 1, len(rays)))
    sets = (g for g in grown if g not in faces and all(g - {j} in faces for j in g))
    sums = {tuple(map(sum, zip(*(rays[i] for i in g)))) for g in sets}
    work = sum(volume for volume, _ in cells) + len(sums)
    _within_budget(work, MAX_SING_PARALLELEPIPED_POINTS, "sing would enumerate", "parallelepiped points")
    boxes = [p for _, cell in cells for p in cell if any(p)]
    minimal = _minimal(boxes + list(sums), [u.coords for u in c.dual_rays])
    return tuple(_component(pt, None) for pt in minimal)


# ---------------------------------------------------------------------------
# lifting contact orbits to the open stratum
# ---------------------------------------------------------------------------


def lift_to_open_stratum(a: MonomialIdeal, o: OrbitLabel) -> LatticeVector:
    """A lattice point of the cone with the same projection and the same order.

    For an orbit in a nonzero stratum meeting the contact locus at level p,
    adds a large multiple of a relative-interior point of the stratum face
    to a section lift, which fixes all pairings on the stratum's annihilator
    and pushes every other pairing above p.
    """
    p = order_function(a, o)
    if not is_finite(p):
        raise ValueError("orbit meets no contact locus: order is infinite")
    if o.face.is_zero:
        return LatticeVector(o.point, N_SIDE)
    face, w = o.face.key, o._lift
    v1 = tuple(map(sum, zip(*face)))
    k = 0
    for u in a.chart._dual_keys:
        if not any(_dot(r, u) for r in face):
            continue
        num, den = -_dot(w, u), _dot(v1, u)
        if den <= 0:
            raise ArithmeticError("interior point pairs nonpositively off the annihilator")
        if num > 0:
            k = max(k, -(-num // den))
    lifted = tuple(x + (k + p + 1) * y for x, y in zip(w, v1))
    if not _in_chart(a.chart, lifted):
        raise ArithmeticError(f"lift {lifted} left the chart cone")
    if tuple(_dot(row, lifted) for row in o.quotient.projection_matrix) != o.point:
        raise ArithmeticError(f"lift {lifted} does not project to {o.point}")
    if _order(a, lifted) != p:
        raise ArithmeticError(f"lift {lifted} changed the order {p}")
    return LatticeVector(lifted, N_SIDE)


# ---------------------------------------------------------------------------
# toric valuations
# ---------------------------------------------------------------------------


class ToricValuation(_Record):
    """The divisorial valuation attached to a nonzero lattice point of the cone."""

    __slots__ = {"chart": "Cone", "point": "tuple[int, ...]", "e": "int", "v0": "tuple[int, ...]"}


def toric_valuation(chart: Cone, v) -> ToricValuation:
    x = _coords(v, N_SIDE, chart.dim_ambient)
    if not any(x):
        raise ValueError("the zero vector defines no valuation")
    if not _in_chart(chart, x):
        raise ValueError(f"{x} is not in the chart cone")
    return ToricValuation(chart, x, *primitive_tuple(x))


def toric_valuation_eval(val: ToricValuation, f: Sequence[tuple]) -> int:
    """Value of the valuation on a polynomial given by (coefficient, exponent) pairs."""
    if not f:
        raise ValueError("empty support: the zero polynomial has no finite order")
    orders = []
    for coeff, exponent in f:
        if coeff == 0:
            raise ValueError("support coefficients must be nonzero")
        u = _coords(exponent, M_SIDE, len(val.point))
        if not _in_dual(val.chart, u):
            raise ValueError(f"exponent {u} is outside the dual semigroup")
        orders.append(_dot(val.point, u))
    return min(orders)
