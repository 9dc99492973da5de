"""Orbit calculus on the arc space of a toric variety.

Orbits of the arc-torus action are labelled by a stratum face tau together
with a lattice point of the quotient lattice N_tau.  Equivalently, an orbit
is a semigroup hom from the chart's dual semigroup to Z>=0 + INF, and
OrbitLabel.order_at is that hom: label validity, dominance (orbit-closure
containment) and the poset's walls are all read from it on a chart's dual
generators.  The module also converts between the two pictures, realizes
labels as monomial arcs, and certifies dominating pairs with one-parameter
deformation families verified by truncated power-series arithmetic.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, repeat
from operator import index, or_
from typing import Mapping, Sequence

from .cones import (
    Cone,
    FaceRef,
    Fan,
    _stratum_quotient,
    hilbert_basis_dual,
    lattice_points_where,
)
from .lattice import (
    INF,
    M_SIDE,
    N_SIDE,
    Infinite,
    LatticeVector,
    QuotientLattice,
    _checked,
    _coords,
    _dot,
    _int_at_least,
    _Record,
    _set,
    _within_budget,
    is_finite,
    solve_linear,
)
from .series import TruncatedSeries

__all__ = [
    "SemigroupHom",
    "OrbitLabel",
    "orbit_label",
    "classify_hom",
    "hom_from_label",
    "monomial_arc",
    "cylinder_level",
    "dominates",
    "OrbitPoset",
    "orbit_poset",
    "WitnessEntry",
    "DominanceWitness",
    "dominance_witness",
]


class SemigroupHom(_Record):
    """Values of an additive map from the dual Hilbert generators to Z>=0 or INF."""

    __slots__ = {"cone": "Cone", "values": "tuple"}

    def __init__(self, cone: Cone, values: Sequence):
        gens = hilbert_basis_dual(cone)
        vals = tuple(values)
        if len(vals) != len(gens):
            raise ValueError("one value per dual Hilbert generator is required")
        for v in vals:
            if isinstance(v, Infinite):
                continue
            if not isinstance(v, int) or v < 0:
                raise ValueError("values must be nonnegative integers or INF")
        _set(self, "cone", cone)
        _set(self, "values", vals)

    @property
    def generators(self) -> tuple[LatticeVector, ...]:
        return hilbert_basis_dual(self.cone)


def _maximal_cones(ambient) -> tuple[Cone, ...]:
    if isinstance(ambient, Cone):
        return (ambient,)
    if isinstance(ambient, Fan):
        return ambient.maximal_cones
    raise TypeError("ambient must be a Cone or a Fan")


def _charts_over(ambient, face: FaceRef) -> tuple[Cone, ...]:
    """The maximal cones of the ambient that hold every ray of the face, each tested by Cone._holds.

    A face whose parent is the ambient has its rays among the ambient's, the one chart, so no ray is tested.
    """
    if face.parent is ambient:
        return (ambient,)
    return tuple(c for c in _maximal_cones(ambient) if all(map(c._holds, face.key)))


def _build_stratum(ambient, face: FaceRef, charts: tuple[Cone, ...]):
    """The one builder of stratum records: made unchecked from the charts over a face with none kept.

    A record is (N_tau, the face on the first chart as Fan.strata picks it, finite): per maximal cone,
    the frozenset of positions of its dual generators vanishing on the face, where the stratum's orbits
    are finite, or None off it.  It is kept on the ambient, once per face, and never replaced.
    """
    key, chart = face.key, charts[0]
    if face.parent is not chart:
        face = FaceRef(chart, map(chart.key.index, key))
    finite = tuple(frozenset(k for k, u in enumerate(c._dual_keys) if not any(_dot(r, u) for r in key))
                   if c in charts else None for c in _maximal_cones(ambient))
    record = ambient._strata[key] = _stratum_quotient(chart.dim_ambient, key), face, finite
    return record


def _stratum(ambient, face: FaceRef):
    """The stratum record of a face over an ambient, kept in ambient._strata by face key.

    Its first use takes the charts holding the face's rays from _charts_over, checks with Cone._is_face
    that the face is a face of each and calls _build_stratum; when no chart holds it or one has it as no
    face, it raises ValueError, keeping nothing.  Only OrbitLabel.__init__ and classify_hom call it.
    """
    record = ambient._strata.get(face.key)
    if record is None:
        charts = _charts_over(ambient, face)
        if not charts or not all(chart._is_face(face.key) for chart in charts):
            raise ValueError("the stratum is not a face of a chart containing its rays")
        record = _build_stratum(ambient, face, charts)
    return record


def _holders(ambient, finite, lift):
    """The positions of the charts holding an orbit: over its stratum (finite), lift >= 0 at the keys finite there."""
    for i, (chart, positions) in enumerate(zip(_maximal_cones(ambient), finite)):
        if positions is not None and all(_dot(lift, chart._dual_keys[k]) >= 0 for k in positions):
            yield i


class OrbitLabel(_Record):
    """An arc-space orbit: a stratum face and a point of the quotient lattice.

    The constructor validates its arguments and raises ValueError unless
    the point has one coordinate per rank of the stratum's quotient
    lattice, some chart holds the face's rays, the face is a face of every
    such chart, and on one of them order_at is >= 0 on every dual
    generator; orbit_label is this constructor.  _stratum checks the face
    once per face and ambient, as it builds the stratum record kept on the
    ambient.  A label holds that record and its face, so orbit readers look
    nothing up and labels of one orbit are equal whichever chart's face
    built them.  The point is a sequence of ints or an N-side LatticeVector.
    """

    __slots__ = {
        "ambient": "Cone | Fan",
        "face": "FaceRef",
        "point": "tuple[int, ...]",
        "_lift": "the point lifted to N, an int tuple",
        "_home": "the first position in _holders, the chart dominates reads",
        "_record": "the stratum record kept on the ambient for the face (see _stratum)",
    }

    def __init__(self, ambient, face: FaceRef, point: Sequence[int]):
        point = _coords(point, N_SIDE)
        if face.parent.dim_ambient != _maximal_cones(ambient)[0].dim_ambient:
            raise ValueError("the stratum and the ambient lie in lattices of different ranks")
        record = _stratum(ambient, face)
        if len(point) != record[0].quotient_dim:
            raise ValueError(f"point has {len(point)} coordinates, expected {record[0].quotient_dim}")
        lift = record[0]._section(point)
        home = next(_holders(ambient, record[2], lift), None)
        if home is None:
            raise ValueError("point lies in no chart's image cone for this stratum")
        self._hold(ambient, record, point, lift, home)

    @classmethod
    def _from_image(cls, ambient, record, point: tuple[int, ...], home: int) -> "OrbitLabel":
        """A label without the point checks, for a point read off the image cone of its home chart."""
        return cls.__new__(cls)._hold(ambient, record, point, record[0]._section(point), home)

    def _hold(self, ambient, record, point, lift, home) -> "OrbitLabel":
        """Write the fields, the face being the record's, then the caches: six calls, no loop."""
        _set(self, "ambient", ambient)
        _set(self, "face", record[1])
        _set(self, "point", point)
        _set(self, "_lift", lift)
        _set(self, "_home", home)
        _set(self, "_record", record)
        return self

    @property
    def quotient(self) -> QuotientLattice:
        return self._record[0]

    def order_at(self, u: LatticeVector):
        """The orbit's hom at u: INF unless u vanishes on the face, else u at the point lifted to N."""
        return self._order(_checked(u, M_SIDE, len(self._lift)))

    def _order(self, y: tuple[int, ...]):
        """order_at on an int tuple of the right rank, unchecked."""
        return INF if any(_dot(r, y) for r in self.face.key) else _dot(self._lift, y)

    def __repr__(self) -> str:
        return f"OrbitLabel(stratum={[list(r) for r in self.face.key]}, v={list(self.point)})"


orbit_label = OrbitLabel


# ---------------------------------------------------------------------------
# semigroup homomorphisms <-> labels
# ---------------------------------------------------------------------------


def classify_hom(c: Cone, h: SemigroupHom | Mapping | Sequence) -> OrbitLabel:
    """Stratum face and lattice point realizing a consistent semigroup hom.

    The finiteness locus of a semigroup homomorphism to Z>=0 + INF is cut out
    by a unique face of the cone; the finite values then determine a unique
    point of the quotient lattice by exact linear solving.  Value assignments
    violating an additive relation among the generators are rejected.  A
    Mapping gives one value per dual Hilbert generator and nothing else: a key
    that is no generator, or two keys naming one, raise ValueError.
    """
    gens = hilbert_basis_dual(c)
    if isinstance(h, SemigroupHom):
        if h.cone != c:
            raise ValueError("homomorphism belongs to a different cone")
        values = h.values
    elif isinstance(h, Mapping):
        lookup = {}
        for key, val in h.items():
            coords = _coords(key, M_SIDE, c.dim_ambient)
            if coords in lookup:
                raise ValueError(f"two keys name the character {coords}")
            lookup[coords] = val
        try:
            values = tuple(lookup.pop(g.coords) for g in gens)
        except KeyError as missing:
            raise ValueError(f"no value for dual generator {missing}") from None
        if lookup:
            raise ValueError(f"keys {sorted(lookup)} are not dual Hilbert generators of the cone")
        values = SemigroupHom(c, values).values
    else:
        values = SemigroupHom(c, tuple(h)).values

    valued = [(g, v) for g, v in zip(gens, values) if is_finite(v)]
    # tau: the rays on which every finite generator vanishes, all of them when none is finite
    tight = [i for i, r in enumerate(c.key) if not any(_dot(r, g.coords) for g, _ in valued)]
    tau = c.face_from_indices(tight)

    # every generator inside the finiteness face must carry a finite value
    for g, v in zip(gens, values):
        if is_finite(v):
            continue
        if not any(_dot(r, g.coords) for r in tau.key):
            raise ValueError(
                f"inconsistent values: generator {g.coords} lies in the "
                "finiteness face but is assigned INF"
            )

    q = _stratum(c, tau)[0]
    solution = solve_linear([q._push(g.coords) for g, _ in valued], [v for _, v in valued])
    if solution is None or any(x.denominator != 1 for x in solution):
        raise ValueError("values violate an additive relation among the generators")
    return OrbitLabel(c, tau, [int(x) for x in solution])


def hom_from_label(o: OrbitLabel, chart: Cone | None = None) -> SemigroupHom:
    """The extended order function of an orbit on a chart's dual generators.

    The chart must be a Cone, or TypeError is raised, have the orbit's
    stratum as a face, not only its rays, and hold the orbit: a chart over
    the stratum on which the orbit's order is negative at some generator
    raises ValueError, as no hom to Z>=0 + INF is there.
    """
    key = o.face.key
    if chart is None:
        if not isinstance(o.ambient, Cone):
            raise ValueError("a chart cone is required for labels over a fan")
        chart = o.ambient
    elif not isinstance(chart, Cone):
        raise TypeError(f"chart must be a Cone, got {chart!r}")
    elif chart.dim_ambient != len(o._lift) or not all(map(chart._holds, key)) or not chart._is_face(key):
        raise ValueError(f"chart {chart!r} does not contain the stratum {list(key)} as a face")
    values = tuple(o._order(g.coords) for g in hilbert_basis_dual(chart))
    if min(values, default=0) < 0:
        raise ValueError(f"chart {chart!r} does not hold the orbit {o!r}")
    return SemigroupHom(chart, values)


def monomial_arc(
    o: OrbitLabel, precision: int | None = None
) -> dict[LatticeVector, TruncatedSeries]:
    """The monomial arc of a label: each dual generator goes to a power of t.

    Generators with infinite order map to the zero series; the assignment
    satisfies every additive relation of the dual semigroup exactly, so all
    binomial relations of the chart hold on the nose.  The series are exact
    through t-degree `precision`, which must be at least the largest finite
    order (the label's cylinder level on the open stratum).
    """
    hom = hom_from_label(o)
    finite_vals = [v for v in hom.values if is_finite(v)]
    level = max(finite_vals, default=0)
    precision = level if precision is None else index(precision)
    if precision < level:
        raise ValueError(f"precision must be at least the largest order {level}")
    cutoff = precision + 1
    out = {}
    for g, v in zip(hom.generators, hom.values):
        if is_finite(v):
            out[g] = TruncatedSeries.monomial(v, 0, 1, t_precision=cutoff)
        else:
            out[g] = TruncatedSeries.zero(cutoff)
    return out


def cylinder_level(o: OrbitLabel) -> int:
    """Truncation level at which the orbit is a cylinder (open stratum only)."""
    if not o.face.is_zero:
        raise ValueError("cylinder level is defined on the open stratum only")
    if not isinstance(o.ambient, Cone):
        raise ValueError("cylinder level requires an affine chart")
    hom = hom_from_label(o)
    return max((v for v in hom.values if is_finite(v)), default=0)


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------


def dominates(o1: OrbitLabel, o2: OrbitLabel) -> bool:
    """Orbit-closure containment: o1 <= o2 as homs on o2's home chart.

    True iff o1's stratum tau is a face of o2's stratum gamma and sigma,
    the first maximal cone that holds o2, has 0 <= o1.order_at(u) <=
    o2.order_at(u), INF above every integer, for each u of
    sigma.dual_generator_list().  One chart decides (Ishii and Kollar,
    Duke Math. J. 120 (2003)): the arcs of U_sigma are open and stable
    under the arc torus, so if o2's orbit, which lies in them, is in o1's
    orbit closure, o1's orbit meets them and lies in them, where the
    affine criterion holds.  Any chart that holds o2 gives this answer,
    and no other passes it, as it puts o2 above o1 >= 0 on o2's keys.

    This is the lattice criterion: o1's point lies in sigma's image in
    N_tau, and o2's point minus o1's, projected to N_gamma, in sigma's
    image in N_gamma.  That image is dual to the face sigma^vee cap
    gamma^perp, spanned by the generators of sigma^vee vanishing on gamma:
    the dual keys where o2 is finite.  So it runs on ints off the stratum
    records, by the rule orbit_poset reads for all its nodes at once:
    sigma is over tau, o2's finite keys on sigma are among o1's, o1 >= 0
    at its finite keys and o2 - o1 >= 0 at o2's.  The key test is the face
    test: o2's keys span sigma^vee cap gamma^perp, so all vanish on tau iff
    tau lies in gamma, and then tau, a face of sigma, is a face of gamma.
    """
    ambient, home = o1.ambient, o2._home
    if ambient != o2.ambient:
        raise ValueError("orbit labels live over different ambients")
    low, high = o1._record[2][home], o2._record[2][home]
    if low is None or not high <= low:
        return False
    keys, a, b = _maximal_cones(ambient)[home]._dual_keys, o1._lift, o2._lift
    return all(_dot(a, keys[k]) >= 0 for k in low) and all(_dot(a, keys[k]) <= _dot(b, keys[k]) for k in high)


class OrbitPoset(_Record):
    """Bounded slice of the dominance order: nodes, full order, cover edges."""

    __slots__ = {
        "nodes": "tuple[OrbitLabel, ...]",
        "relation": "frozenset[tuple[int, int]]",
        "covers": "tuple[tuple[int, int], ...]",
    }


# Most box points orbit_poset may scan; see its docstring.
MAX_POSET_BOX_POINTS = 512


def _chart_rows(points, walls):
    """The rows of a stratum's nodes on one chart over it, for orbit_poset.

    A node is the point p; its value at a dual key finite on the stratum is
    p at the key's pushed wall, which is the key at p's lift.
    """
    return [[_dot(p, w) for w in walls] for p in points]


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def orbit_poset(ambient, bound: int) -> OrbitPoset:
    """All orbit labels with sup-norm at most `bound`, ordered by dominance.

    Nodes are deterministic: strata in face order, points lexicographic.
    Cover edges are the transitive reduction of dominance restricted to the
    node set.  `bound` must be an int and not a bool; anything else raises
    TypeError before any face is walked.

    A chart's image in N_tau is cut out by the chart's dual generators
    that vanish on tau, pushed down to N_tau: they span the dual face
    sigma^vee cap tau^perp (see dominates), so no image cone is built.
    Each stratum's record is the one kept on the ambient, else _build_stratum's,
    made without _stratum's face check: a cone of a fan is a face of each chart over it.

    The order is read from the homs, with no dominates call, one chart at
    a time.  On a chart sigma, a node's row is its hom at the dual keys
    finite on its stratum: the key u_k pushed down to N_tau is S^T u_k, S
    the section matrix, and a tau-node's value there is its point at that
    wall, which is u_k at its lift, so no wall or node is read through a
    LatticeVector.  A node a is below b iff, on b's home chart, the first
    whose scan holds b, a is >= 0 on its row and, wherever b is finite, a
    is finite and a <= b: the rule of dominates, face test included, so no
    pair of strata is formed.

    Work budget: every node is a point of a box that is scanned, one box
    [-bound, bound]^d per stratum and chart over it, d the rank of the
    stratum's quotient lattice.  So the node count n is at most the sum of
    (2 bound + 1)^d over strata and charts.  That sum is computed before
    any box is scanned, and a ValueError naming it is raised when it
    exceeds MAX_POSET_BOX_POINTS = 512.  Each stratum has a chart over it
    and each box holds its origin, so the number of strata is weighed
    first; before the faces are walked, a simplicial maximal cone with k
    rays is weighed by its 2^k faces.  Once the nodes are scanned:
      - each node's row is read once per chart over its stratum, one
        product per finite key, and checked >= 0 once;
      - per chart sigma and dual key k of sigma, the nonnegative nodes
        finite at k are sorted by their value at k, and the bitmask of
        each prefix is kept: at most m sorts of at most n nodes per
        chart, m the dual keys;
      - a node's lower set, on its home chart alone, is the AND over its
        finite keys k of the prefix of nodes with value at k at most its
        own: one bisect and one AND of n-bit sets per node and finite key,
        at most n * m in all, with no pairwise comparison; a key where the
        node is INF constrains nothing;
      - (i, j) is a cover iff no node lies above i and below j: one AND
        of the n-bit sets above i and below j per related pair.
    """
    _int_at_least(bound, 0, "bound")
    doing = f"orbit poset at bound {bound} would scan"
    simplicial = [2 ** c.dim for c in _maximal_cones(ambient) if len(c.key) == c.dim]
    _within_budget(max(simplicial, default=0), MAX_POSET_BOX_POINTS, doing + " at least", "box points")
    strata = ambient.strata() if isinstance(ambient, Fan) else ambient.faces()
    _within_budget(len(strata), MAX_POSET_BOX_POINTS, doing + " at least", "box points")
    plan = [ambient._strata.get(f.key) or _build_stratum(ambient, f, _charts_over(ambient, f)) for f in strata]
    box = sum((len(finite) - finite.count(None)) * (2 * bound + 1) ** q.quotient_dim for q, _, finite in plan)
    _within_budget(box, MAX_POSET_BOX_POINTS, doing, "box points")
    charts = _maximal_cones(ambient)
    nodes: list[OrbitLabel] = []
    groups = [[] for _ in charts]  # per chart: (first node, finite keys, rows of _chart_rows) of each stratum over it
    for record in plan:
        q, _, finite = record
        box_lo, box_hi = [-bound] * q.quotient_dim, [bound] * q.quotient_dim
        walls = [(i, [q._push(charts[i]._dual_keys[k]) for k in positions])
                 for i, positions in enumerate(finite) if positions is not None]
        # each point's home chart, the first whose scan holds it: the charts are read last to first
        homes = {p: i for i, ws in reversed(walls) for p in lattice_points_where([(w, 0) for w in ws], box_lo, box_hi)}
        points = sorted(homes)
        for i, ws in walls:
            groups[i].append((len(nodes), finite[i], _chart_rows(points, ws)))
        nodes += [OrbitLabel._from_image(ambient, record, p, homes[p]) for p in points]
    down = [0] * len(nodes)
    for i, group in enumerate(groups):
        columns, below_all = {}, 0  # per dual key: (value, bit) of the nonnegative nodes finite there
        for first, positions, rows in group:
            for j, row in enumerate(rows, first):
                if min(row, default=0) >= 0:
                    below_all |= 1 << j
                    for k, x in zip(positions, row):
                        columns.setdefault(k, []).append((x, 1 << j))
        prefixes = {}
        for k, column in columns.items():
            column.sort()
            prefixes[k] = [x for x, _ in column], list(accumulate((bit for _, bit in column), or_, initial=0))
        for first, positions, rows in group:
            cuts = [prefixes[k] for k in positions]  # the stratum's origin is a node in each of these columns
            for j, row in enumerate(rows, first):
                if nodes[j]._home == i:  # the home chart decides (see dominates)
                    below = below_all
                    for (values, masks), x in zip(cuts, row):
                        below &= masks[bisect_right(values, x)]
                    down[j] = below & ~(1 << j)
    relation = [pair for j, below in enumerate(down) for pair in zip(_bits(below), repeat(j))]
    up = [0] * len(nodes)
    for i, j in relation:
        up[i] |= 1 << j
    covers = tuple(sorted(pair for pair in relation if not up[pair[0]] & down[pair[1]]))
    return OrbitPoset(tuple(nodes), frozenset(relation), covers)


# ---------------------------------------------------------------------------
# deformation witnesses
# ---------------------------------------------------------------------------


class WitnessEntry(_Record):
    """Verification record for one dual generator of the witness chart."""

    __slots__ = {
        "character": "tuple[int, ...]",
        "in_ring": "bool",
        "order_generic": "int | None",
        "order_at_zero": "int | None",
        "expected_generic": "int",
        "expected_at_zero": "int | None",
        "ok": "bool",
    }


class DominanceWitness(_Record):
    """Explicit one-parameter family interpolating between two orbits."""

    __slots__ = {
        "chart": "Cone",
        "precision": "int",
        "family": "tuple[tuple[tuple[int, ...], TruncatedSeries], ...]",
        "entries": "tuple[WitnessEntry, ...]",
        "verified": "bool",
    }


def dominance_witness(
    o1: OrbitLabel, o2: OrbitLabel, t_precision: int | None = None
) -> DominanceWitness:
    """Deformation family certifying that o1's orbit closure contains o2's.

    The family lives on the first smooth chart that holds o2, which shows
    the domination as each chart that holds o2 does (see dominates), in the
    chart's own dual basis: the rows dual to its rays, then the
    torus-factor rows orthogonal to every ray.  Each character u takes
    the orders a = o1.order_at(u) and b = o2.order_at(u), read on the basis
    rows as int tuples by OrbitLabel._order, unchecked; characters with a
    INF are dual to a ray of o1's stratum and are left out.  A ray character
    is sent to t^b + lambda*t^a when b is finite and to lambda*t^a when it
    is infinite on the target stratum.  A torus-factor character has orders
    (0, 0), and it and its inverse are both sent to the constant series 1,
    an exact unit pair, so the cost does not depend on the precision.  The
    verification report checks that generic lambda recovers o1's orders
    and that lambda = 0 recovers o2's.  Its in_ring field is always true:
    TruncatedSeries refuses a negative exponent at construction, so every
    image lies in the power-series ring.  ValueError is raised when o1 does
    not dominate o2 or no smooth chart holds o2.
    """
    if not dominates(o1, o2):
        raise ValueError("lattice criterion fails: o1 does not dominate o2")
    charts, held = _maximal_cones(o2.ambient), _holders(o2.ambient, o2._record[2], o2._lift)
    chart = next((charts[i] for i in held if charts[i]._adapted_basis() is not None), None)
    if chart is None:
        raise ValueError("no smooth chart realizes this domination; witness unsupported")
    basis = chart._adapted_basis()

    d = len(chart.key)
    pair_data = []  # (character, a, b, is a ray character)
    for i, u in enumerate(basis):
        a = o1._order(u)
        if is_finite(a):
            pair_data.append((u, a, o2._order(u), i < d))

    max_order = max((x for _, a, b, _ in pair_data for x in (a, b) if is_finite(x)), default=0)
    t_precision = 2 * max_order + 1 if t_precision is None else index(t_precision)
    if t_precision <= 2 * max_order:
        raise ValueError(
            f"t_precision must exceed twice the largest order ({2 * max_order})"
        )

    family = []
    entries = []

    def record(char, series, expected_a, expected_b):
        og = series.t_order_generic()
        oz = series.t_order_at_zero()
        ok = og == expected_a and (
            oz == expected_b if is_finite(expected_b) else series.vanishes_at_zero()
        )
        family.append((char, series))
        entries.append(
            WitnessEntry(
                character=char,
                in_ring=True,
                order_generic=og,
                order_at_zero=oz if is_finite(expected_b) else None,
                expected_generic=expected_a,
                expected_at_zero=expected_b if is_finite(expected_b) else None,
                ok=ok,
            )
        )

    for char, a, b, on_ray in pair_data:
        if on_ray:
            terms = {(b, 0): 1, (a, 1): 1} if is_finite(b) else {(a, 1): 1}
            record(char, TruncatedSeries(terms, t_precision), a, b)
        elif a != 0 or b != 0:
            raise ArithmeticError(f"unit character {char} has orders ({a}, {b}), not (0, 0)")
        else:
            one = TruncatedSeries.monomial(0, t_precision=t_precision)
            record(char, one, 0, 0)
            record(tuple(-x for x in char), one, 0, 0)

    verified = all(e.ok for e in entries)
    return DominanceWitness(
        chart=chart,
        precision=t_precision,
        family=tuple(family),
        entries=tuple(entries),
        verified=verified,
    )
