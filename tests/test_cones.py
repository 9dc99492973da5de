import copy
import itertools
import math
import pickle
import random
import re
import time

import pytest

from conftest import counting, cross_polytope_cone, cube_cone, draws, random_full_cone, simplex_product_cone
from oracles import (
    box_points_where,
    brute_dual_generators,
    cone_rays_by_rank,
    decomposes_over,
    dot,
    dual_generators_by_rank,
    face_cone,
    hilbert_by_zonotope_scan,
    in_cone_rational,
    minimal_by_pairs,
    minors,
    parallelepiped_by_box_scan,
    solve_square,
    triangulation_faults,
)

from toricarcs.arcs import OrbitLabel, orbit_label
from toricarcs.cones import (
    Cone,
    FaceRef,
    _minimal,
    _parallelepiped,
    _triangulation,
    Fan,
    dual_generators,
    hilbert_basis_dual,
    intersect_cones,
    is_smooth,
    lattice_points_where,
    leq_sigma,
    quotient_by_face,
)
from toricarcs.ideals import sing_components, singular_faces
from toricarcs.lattice import mvec, nvec, rank_of


# -- dual cones ---------------------------------------------------------------


def test_dual_cone_a1():
    # frozen from the brute-force half-space oracle over |u|_oo <= 3
    c = Cone([(1, 0), (1, 2)])
    assert [u.coords for u in c.dual_generator_list()] == [(0, 1), (2, -1)]


def test_dual_cone_quadrant_self_dual():
    q = Cone([(1, 0), (0, 1)])
    assert [u.coords for u in q.dual_generator_list()] == [(0, 1), (1, 0)]


def test_dual_cone_single_ray_has_lineality_pair():
    r = Cone([(1, 0)], 2)
    assert [u.coords for u in r.dual_generator_list()] == [(0, -1), (0, 1), (1, 0)]


def test_dual_cone_matches_brute_oracle():
    # The oracle searches a box, so the box must hold every dual ray.  A 2D cone's
    # rays are primitive parts of generators with entries in [-spread, spread], so
    # their entries are too; its dual's extreme rays are the primitive inward normals
    # of its two extreme rays, (-b, a) or (b, -a) for a primitive ray (a, b).  So
    # every dual ray has sup-norm at most the spread, and box = spread is enough.
    rng = random.Random(11)
    spread = box = 3
    for _ in range(25):
        c = random_full_cone(rng, 2, spread=spread)
        expected = brute_dual_generators([r.coords for r in c.rays], 2, box=box)
        got = sorted(u.coords for u in c.dual_rays)
        assert all(abs(x) <= box for u in got for x in u), (c.key, got)
        assert got == expected, (c.key, got, expected)


def test_strong_convexity_rejected():
    with pytest.raises(ValueError):
        Cone([(1, 0), (-1, 0)])
    with pytest.raises(ValueError):
        Cone([(1, 0), (0, 1), (-1, -1)])


def test_non_extreme_generators_dropped():
    c = Cone([(1, 0), (1, 1), (0, 1)])
    assert c.key == ((0, 1), (1, 0))
    square = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    # (1, 0, 2) is in the relative interior of a facet, (1, 1, 2) in the interior
    assert Cone(square + [(1, 0, 2), (1, 1, 2)]).key == tuple(square)
    # (1, 2, 0) is redundant in a 2-dim cone of 3-space, whose dual has lineality
    assert Cone([(1, 0, 0), (0, 1, 0), (1, 2, 0)]).key == ((0, 1, 0), (1, 0, 0))


def test_dual_generators_refuses_a_constraint_of_the_wrong_length():
    for constraint in ((1, 0, 0), (1,)):
        with pytest.raises(ValueError, match=re.escape(str(list(constraint)))):
            dual_generators([(0, 1), constraint], 2)
    with pytest.raises(ValueError):
        dual_generators([(1,)], 0)


def _constraint_lists(rng, count):
    """Seeded constraint lists in dimensions 1-6, with zero, repeated, negated and redundant rows."""
    lists = []
    while len(lists) < count:
        dim = rng.randint(1, 6)
        rows = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(0, dim + 3))]
        if rows and rng.random() < 0.3:
            rows.append(rng.choice(rows))
        if rows and rng.random() < 0.3:
            rows.append(tuple(-x for x in rng.choice(rows)))
        if len(rows) > 1 and rng.random() < 0.3:
            a, b = rng.sample(rows, 2)
            rows.append(tuple(rng.randint(1, 2) * x + y for x, y in zip(a, b)))
        if rng.random() < 0.2:
            rows.append((0,) * dim)
        rng.shuffle(rows)
        lists.append((rows, dim))
    return lists


def _walls_by_dot(rows, rays):
    """The rays each row vanishes on, by the zero test the returned walls replace."""
    return tuple(frozenset(i for i, r in enumerate(rays) if dot(a, r) == 0) for a in rows)


def test_dual_generators_and_cone_rays_match_the_rank_oracle():
    # the tight-set route against the rank criterion it replaced, on the
    # constraints and, where they span a strongly convex cone, on the same
    # rows read as generators; each returned wall against a zero test on
    # the returned rays, so a wall read before the reduction modulo the
    # lineality, or before the sort, would show
    cones = zeros = lines = 0
    for rows, dim in _constraint_lists(random.Random(1996), 2000):
        rays, lineality, walls = dual_generators(rows, dim)
        assert (rays, lineality) == dual_generators_by_rank(rows, dim), (rows, dim)
        assert walls == _walls_by_dot(rows, rays), (rows, dim)
        zeros += any(not any(a) for a in rows)
        lines += bool(rays and lineality)
        try:
            c = Cone(rows, dim)
        except ValueError:
            dual_rays, dual_lin = dual_generators_by_rank(rows, dim)
            assert rank_of(dual_rays + dual_lin) < dim, (rows, dim)
            continue
        assert c.key == cone_rays_by_rank(rows, dim), (rows, dim)
        cones += 1
    assert cones > 500 and zeros > 100 and lines > 100, (cones, zeros, lines)
    # a zero row keeps its place, so walls[k] stays row k's, and its wall is every ray;
    # x + z >= 0, y + z >= 0 keep the line (1, 1, -1), taken off the rays after the pass
    for rows, dim, expected in [
        ([(1, 0), (0, 0), (0, 1)], 2, (((0, 1), (1, 0)), (), ({0}, {0, 1}, {1}))),
        ([(0, 0, 0), (1, 0, 0)], 3, (((1, 0, 0),), ((0, 0, 1), (0, 1, 0)), ({0}, set()))),
        ([(0, 0)], 2, ((), ((0, 1), (1, 0)), (set(),))),
        ([(1, 0, 1), (0, 1, 1), (1, 1, 2)], 3, (((0, -1, 1), (0, 1, 0)), ((1, 1, -1),), ({1}, {0}, set()))),
    ]:
        rays, lineality, walls = dual_generators(rows, dim)
        assert (rays, lineality, walls) == expected and walls == _walls_by_dot(rows, rays), rows


def test_cone_refuses_exactly_the_generators_whose_dual_is_not_full_dimensional():
    # the tight-set test of Cone against the rank of the dual's generators
    lines = 0
    for rows, dim in _constraint_lists(random.Random(2024), 1500):
        dual_rays, dual_lin = dual_generators_by_rank(rows, dim)
        has_line = rank_of(dual_rays + dual_lin) < dim
        try:
            Cone(rows, dim)
        except ValueError:
            assert has_line, (rows, dim)
            lines += 1
        else:
            assert not has_line, (rows, dim)
    assert 100 < lines < 1400


def _twins(record):
    return copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))


def test_key_is_built_once_and_survives_copy_and_pickle():
    c = Cone([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 2)])
    assert c.key is c.key and c.key == tuple(r.coords for r in c.rays)
    for twin in _twins(c):
        assert twin == c and hash(twin) == hash(c) and twin.key == c.key
    with pytest.raises(AttributeError):
        c.key = ()
    assert c.dual_generator_list() is c.dual_generator_list()
    assert [u.coords for u in c.dual_generator_list()] == sorted(u.coords for u in c.dual_rays)
    # FaceRef and OrbitLabel keep their caches in _x slots: the fields, equality and reduction are as before
    edge = next(f for f in c.faces() if len(f.indices) == 2)
    assert edge.key is edge.key and edge.key == tuple(r.coords for r in edge.rays)
    assert edge.__reduce__() == (FaceRef, (c, edge.indices))
    for twin in _twins(edge):
        assert twin == edge and hash(twin) == hash(edge) and twin.key == edge.key
    with pytest.raises(AttributeError):
        edge._key = ()
    for label in (orbit_label(c, c.zero_face(), (1, 1, 3)), orbit_label(c, edge, (0,))):
        assert label.__reduce__() == (OrbitLabel, (c, label.face, label.point))
        for twin in _twins(label):
            assert twin == label and hash(twin) == hash(label) and twin._lift == label._lift
            assert twin.face.key == label.face.key


# a lower-dimensional chart, a non-simplicial one and the 4-cube cone
_COUNTED_CHARTS = [
    [(1, 0, 0), (1, 2, 0)],
    [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
    [x + (1,) for x in itertools.product((0, 1), repeat=4)],
]


@pytest.mark.parametrize("gens", _COUNTED_CHARTS, ids=["lower", "square", "4-cube"])
def test_faces_are_read_off_tight_sets_with_one_rank_at_the_root(monkeypatch, gens):
    import toricarcs.cones as cones

    # the rank is the cone's own: neither the cone nor its triangulation eliminates
    eliminations = counting(monkeypatch, cones, "row_hermite")
    quotients = counting(monkeypatch, cones, "quotient_lattice")
    c = Cone(gens)
    assert eliminations == []  # strong convexity is read on the tight sets too
    del quotients[:]
    cones.dual_generators(gens, len(gens[0]))
    assert eliminations == [] and len(quotients) <= 1
    _triangulation(c.key, (c.tight_ray_indices(u) for u in c.dual_rays), c.dim)
    assert eliminations == []
    smallest = counting(monkeypatch, Cone, "smallest_face_containing")
    sing_components(c)
    assert smallest == []


@pytest.mark.parametrize("gens", _COUNTED_CHARTS, ids=["lower", "square", "4-cube"])
def test_a_cone_builds_its_vectors_on_first_read(monkeypatch, gens):
    import toricarcs.lattice as lattice

    made = counting(monkeypatch, lattice.LatticeVector, "__post_init__")
    c = Cone(gens)
    # making a cone builds no vector, not even where a lower-dimensional one hands its
    # lineality to quotient_lattice
    assert made == []
    for name, keys, side in (("rays", c.key, "N"), ("dual_rays", c._dual_ray_keys, "M"),
                             ("span_normals", c._normal_keys, "M")):
        del made[:]
        first = getattr(c, name)
        assert len(made) == len(first) == len(keys)
        del made[:]
        assert getattr(c, name) is first and made == []
        assert first == tuple(lattice.LatticeVector(k, side) for k in keys)


def test_cone_dim_is_rank_of_rays():
    cones = [Cone([], 0), Cone([], 3), Cone([(1, 2)], 2), Cone([(1, 0, 0), (0, 1, 0)], 3)]
    cones += [Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])]
    rng = random.Random(9)
    while len(cones) < 25:
        gens = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(rng.randint(1, 4))]
        try:
            cones.append(Cone(gens, 3))
        except ValueError:
            continue
    assert {c.dim for c in cones} == {0, 1, 2, 3}
    for c in cones:
        assert c.dim == rank_of([r.coords for r in c.rays]), c


# -- faces -------------------------------------------------------------------


def test_faces_counts():
    assert len(Cone([(1, 0), (0, 1)]).faces()) == 4
    assert len(Cone([(1, 0), (1, 2)]).faces()) == 4
    assert len(Cone([(1, 2)], 2).faces()) == 2
    assert len(Cone([], 2).faces()) == 1


def test_faces_simplicial_count_is_power_of_two():
    rng = random.Random(5)
    for dim in (2, 3):
        for _ in range(10):
            c = random_full_cone(rng, dim, spread=2)
            if len(c.rays) == dim:
                assert len(c.faces()) == 2**dim


def test_faces_closed_under_intersection():
    c = Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
    keys = {f.indices for f in c.faces()}
    for a in keys:
        for b in keys:
            assert tuple(sorted(set(a) & set(b))) in keys


def test_face_from_indices_keeps_each_face_it_checks(monkeypatch):
    c = Cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    first = c.face_from_indices([1, 0])
    cuts = counting(monkeypatch, Cone, "_face_cut_by")
    assert c.face_from_indices((0, 1)) is first and c.face_from_indices([1, 0]) is first
    assert cuts == []
    # a refused subset is not kept, and is refused again
    for _ in range(2):
        with pytest.raises(ValueError, match="does not span a face"):
            c.face_from_indices([0, 3])
    assert len(cuts) == 2 and sorted(c._face_refs) == [(0, 1)]


def test_face_from_indices_accepts_exactly_the_faces():
    from test_arcs import ORACLE_CONES, ORACLE_FANS

    charts = [p.values[0] for p in ORACLE_CONES]
    charts += [c for p in ORACLE_FANS for c in p.values[0].maximal_cones]
    charts += [Cone([(1, 0)], 2), Cone([(1, 0, 0), (1, 2, 0)])]
    for c in charts:
        for f in c.faces():
            assert c.face_from_indices(f.indices) == f
            assert c.face_from_indices(reversed(f.indices)) == f
        n = len(c.rays)
        found = [s for k in range(n + 1) for s in itertools.combinations(range(n), k) if _spans_face(c, s)]
        assert found == sorted((f.indices for f in c.faces()), key=lambda s: (len(s), s))
        for bad in [(n,), (-1,), (0, n), (0, 0)]:
            with pytest.raises(ValueError, match=r"ray subset \[.*\] does not span a face"):
                c.face_from_indices(bad)
    conifold = charts[0]
    with pytest.raises(ValueError, match=r"ray subset \[0, 3\] does not span a face"):
        conifold.face_from_indices((3, 0))


def _spans_face(c, indices):
    try:
        c.face_from_indices(indices)
    except ValueError:
        return False
    return True


def test_face_cone_roundtrip(a1):
    for f in a1.faces():
        sub = face_cone(f)
        for r in sub.rays:
            assert a1.contains(r)


# -- smoothness ---------------------------------------------------------------


def test_is_smooth_examples():
    assert is_smooth(Cone([(1, 0), (0, 1)]))
    assert not is_smooth(Cone([(1, 0), (1, 2)]))
    assert is_smooth(Cone([(1, 2)], 2))
    assert is_smooth(Cone([(3, 5)], 2))
    assert is_smooth(Cone([], 2))
    assert not is_smooth(Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]))


# -- hilbert bases ------------------------------------------------------------


def test_hilbert_basis_dual_examples():
    assert [u.coords for u in hilbert_basis_dual(Cone([(1, 0), (1, 2)]))] == [
        (0, 1),
        (1, 0),
        (2, -1),
    ]
    assert [u.coords for u in hilbert_basis_dual(Cone([(1, 0), (0, 1)]))] == [
        (0, 1),
        (1, 0),
    ]
    assert [u.coords for u in hilbert_basis_dual(Cone([(1, 0), (1, 3)]))] == [
        (0, 1),
        (1, 0),
        (3, -1),
    ]


def test_hilbert_basis_dual_rejects_lower_dimensional():
    with pytest.raises(ValueError):
        hilbert_basis_dual(Cone([(1, 2)], 2))


def test_hilbert_basis_decomposition_property():
    rng = random.Random(23)
    for _ in range(8):
        c = random_full_cone(rng, 2, spread=3)
        basis = [u.coords for u in hilbert_basis_dual(c)]
        rays = [r.coords for r in c.rays]

        def member(u):
            return all(sum(a * b for a, b in zip(r, u)) >= 0 for r in rays)

        for x in range(-6, 7):
            for y in range(-6, 7):
                if member((x, y)):
                    assert decomposes_over((x, y), basis, member)
        for i, b in enumerate(basis):
            others = basis[:i] + basis[i + 1 :]
            assert not decomposes_over(b, others, member)


def test_hilbert_basis_points_primal():
    c = Cone([(1, 0), (1, 2)])
    assert [v.coords for v in c.hilbert_basis()] == [(1, 0), (1, 1), (1, 2)]
    ray = Cone([(2, 3)], 2)
    assert [v.coords for v in ray.hilbert_basis()] == [(2, 3)]


def _hilbert_scan_cones():
    cones = [Cone([(1, 0), (1, n + 1)]) for n in range(1, 17)]
    # the seeded random 3D charts of the sing zonotope-scan test
    rng = random.Random(5)
    for _ in draws("_hilbert_scan_cones"):
        if len(cones) == 22:
            break
        cone = random_full_cone(rng, 3, spread=2)
        if singular_faces(cone):
            cones.append(cone)
    cones += [
        Cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
        Cone([(1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1)]),
        Cone([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]),
        Cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -2, 1)]),
        Cone([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 11)]),
        Cone([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (3, 1, 3, 8)]),
        Cone([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (1, 2, 3, 4, 9)]),
        # lower-dimensional cones: primal bases only
        Cone([(2, 3)], 2),
        Cone([(1, 0, 1), (1, 3, 1)]),
        Cone([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 3, 0)]),
    ]
    return cones


def test_hilbert_scan_cones_raise_a_named_error_instead_of_hanging(monkeypatch):
    # a fault that leaves every drawn chart smooth ends the draws at collection
    monkeypatch.setitem(_hilbert_scan_cones.__globals__, "singular_faces", lambda cone: ())
    with pytest.raises(RuntimeError, match="^_hilbert_scan_cones: "):
        _hilbert_scan_cones()


@pytest.mark.parametrize("c", _hilbert_scan_cones(), ids=repr)
def test_hilbert_bases_match_the_zonotope_scan(c):
    primal = hilbert_by_zonotope_scan(list(c.key), c.halfspace_data())
    assert [v.coords for v in c.hilbert_basis()] == primal
    if c.is_full_dimensional():
        dual = hilbert_by_zonotope_scan([u.coords for u in c.dual_rays], [(r, 0) for r in c.key])
        assert [u.coords for u in hilbert_basis_dual(c)] == dual


def test_hilbert_bases_scan_no_box(monkeypatch):
    import toricarcs.cones as cones

    scans = []

    def counting_scan(*args):
        scans.append(args)
        return lattice_points_where(*args)

    monkeypatch.setattr(cones, "lattice_points_where", counting_scan)
    c = Cone([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (3, 1, 3, 8)])
    assert len(hilbert_basis_dual.__wrapped__(c)) == 29
    assert len(c.hilbert_basis()) == 11
    assert scans == []


def test_minimal_matches_the_pairwise_rule():
    # both orders of a chart: sigma's cut out by its dual generators, and sigma^vee's by its
    # rays, which has the lineality sigma^perp when sigma is lower-dimensional
    rng = random.Random(15)
    ties = kinds = 0
    for trial in range(60):
        dim = 2 + trial % 3
        while True:
            gens = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, dim + 1))]
            try:
                chart = Cone(gens, dim)
            except ValueError:
                continue
            if chart.rays:
                break
        for normals in ([u.coords for u in chart.dual_generator_list()], list(chart.key)):
            box = [p for p in itertools.product(range(-3, 4), repeat=dim) if all(dot(a, p) >= 0 for a in normals)]
            points = rng.sample(box, min(len(box), rng.randint(2, 14)))
            points += [tuple(x + y for x, y in zip(p, l.coords)) for p in points[:3] for l in chart.span_normals]
            values = {tuple(dot(a, p) for a in normals) for p in points}
            ties += len(values) < len(set(points))
            kinds |= 1 << chart.is_full_dimensional()
            assert _minimal(points, normals) == minimal_by_pairs(points, normals), (chart, normals, points)
    assert ties > 5 and kinds == 3
    # named cases: an antichain of one degree, equal value tuples, and the dual of a
    # lower-dimensional cone, whose order has the cone's annihilator as its lineality
    orthant = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    antichain = [p for p in itertools.product(range(7), repeat=3) if sum(p) == 6]
    tied = [(1, 2, z) for z in (0, 5, -3)] + [(2, 1, 0), (2, 1, 4), (0, 4, 1), (3, 3, 3)]
    flat = Cone([(1, 0, 0), (1, 2, 0)])
    dual = [p for p in itertools.product(range(-2, 3), repeat=3) if all(dot(r, p) >= 0 for r in flat.key)]
    for points, normals in ((antichain, orthant), (tied, orthant[:2]), (dual, flat.key)):
        assert _minimal(points, normals) == minimal_by_pairs(points, normals), (normals, points)
    assert _minimal(antichain, orthant) == antichain
    assert _minimal(tied, orthant[:2]) == [(0, 4, 1), (1, 2, -3), (2, 1, 0)]


def test_minimal_compares_no_two_points_of_one_degree(monkeypatch):
    # a point below p of the same degree has p's values, so only lower degrees are compared
    import toricarcs.cones as cones

    calls = []
    monkeypatch.setattr(cones, "le", lambda a, b: calls.append((a, b)) or a <= b)
    orthant = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    level = [p for p in itertools.product(range(6), repeat=3) if sum(p) == 5]
    assert _minimal(level, orthant) == level and calls == []
    tied = [(1, 2, z) for z in (0, 5, -3)] + [(2, 1, 0)]
    assert _minimal(tied, orthant[:2]) == [(1, 2, -3), (2, 1, 0)] and calls == []
    # the points of degree 5 are compared with the one kept point of degree 3 alone
    top = [p for p in level if p[0] < 3]
    assert _minimal(top + [(3, 0, 0)], orthant) == sorted(top + [(3, 0, 0)])
    assert 0 < len(calls) <= len(orthant) * len(top)


def test_hilbert_basis_dual_rank_5():
    c = Cone([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (1, 2, 3, 5, 13)])
    basis = hilbert_basis_dual(c)
    assert len(basis) == 59
    assert {u.coords for u in c.dual_rays} <= {u.coords for u in basis}


def test_hilbert_budget_counts_the_cover(monkeypatch):
    import toricarcs.cones as cones

    # the hexagon is pulled from (-1, -1, 1) into 4 triangles of determinants 1, 1, 2 and 2;
    # their boxes hold 6 points, its normalized volume
    hexagon = [(1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1)]
    monkeypatch.setattr(cones, "MAX_HILBERT_COVER_POINTS", 6)
    assert len(Cone(hexagon).hilbert_basis()) == 7
    monkeypatch.setattr(cones, "MAX_HILBERT_COVER_POINTS", 5)
    with pytest.raises(ValueError, match="6 cover points, more than the budget of 5"):
        Cone(hexagon).hilbert_basis()


def test_hilbert_default_budget_refuses_a_large_determinant_at_once():
    c = Cone([(1, 0), (1, 10**9)])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="1000000000 cover points, more than the budget of 50000"):
        hilbert_basis_dual(c)
    with pytest.raises(ValueError, match="1000000000 cover points, more than the budget of 50000"):
        c.hilbert_basis()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dual_hilbert_basis_of_a_cross_polytope_cone_is_the_cube_at_height_one(n):
    # (u, t) pairs >= 0 with every (+-e_i, 1) iff |u_i| <= t, so the dual is the cone over the cube
    # [-1, 1]^n at height 1.  Its lattice points at height t are the u with |u|_oo <= t, and each is
    # a sum of t points of {-1, 0, 1}^n, coordinate by coordinate; the height-1 points, lying at
    # the least nonzero height, are irreducible.  So the basis is the 3^n points of height 1.
    cone = cross_polytope_cone(n)
    basis = [u.coords for u in hilbert_basis_dual(cone)]
    assert basis == sorted(u + (1,) for u in itertools.product((-1, 0, 1), repeat=n))
    if n <= 3:
        assert basis == hilbert_by_zonotope_scan([u.coords for u in cone.dual_rays], [(r, 0) for r in cone.key])


# -- parallelepipeds ---------------------------------------------------------------


def _parallelepiped_cases():
    """Seeded independent generator sets of rank 1 to 5, some in a larger ambient."""
    rng = random.Random(2010)
    cases = [
        [(2, 2, 0)],
        [(1, 1, 0), (1, -1, 0)],
        [(2, 0, 0, 0), (0, 0, 3, 0)],
        [(1, 2, 0), (0, 2, 2)],
    ]
    # (rank, ambient, spread) keeps every bounding box below 8000 points
    shapes = [(1, 2, 4), (1, 3, 3), (2, 2, 3), (2, 3, 2), (3, 3, 2), (3, 4, 1), (4, 4, 1), (5, 5, 1)]
    for rank, ambient, spread in shapes:
        drawn = 0
        while drawn < 3:
            gens = [tuple(rng.randint(-spread, spread) for _ in range(ambient)) for _ in range(rank)]
            if rank_of(gens) == rank:
                cases.append(gens)
                drawn += 1
    return cases


def test_parallelepiped_matches_box_scan_oracle():
    proper = 0
    for gens in _parallelepiped_cases():
        count, points = _parallelepiped(gens)
        points = list(points)
        assert sorted(points) == parallelepiped_by_box_scan(gens), gens
        # one point per coset of the generated lattice in the span's lattice,
        # whose index is the gcd of the maximal minors
        index = math.gcd(*minors([list(g) for g in gens], len(gens)))
        assert count == len(points) == index, gens
        rows = [[g[j] for g in gens] for j in range(len(gens[0]))]
        for i, p in enumerate(points):
            for q in points[:i]:
                lam = solve_square(rows, [a - b for a, b in zip(p, q)])
                assert any(x.denominator != 1 for x in lam), (gens, p, q)
        proper += index > 1
    assert proper >= 10


def test_parallelepiped_refuses_dependent_generators():
    assert _parallelepiped([(1, 2, 3), (2, 4, 6)]) is None
    assert _parallelepiped([(1, 0), (0, 1), (1, 1)]) is None


# -- the pulling triangulation --------------------------------------------------------


def _pulled(gens, normals):
    """cones._triangulation of the pointed cone(gens) cut out by the normals, walls read off them."""
    return _triangulation(gens, ([i for i, g in enumerate(gens) if dot(a, g) == 0] for a in normals), rank_of(gens))


def test_triangulation_matches_the_exact_oracle():
    # a pointed cone of rank 2 has two rays, so the non-simplicial charts drawn are of rank 3 and 4;
    # a quarter of them lie in a rank-4 or rank-5 lattice, in which a ray (x, c . x) keeps rank 3 or 4
    rng = random.Random(2010)
    charts = []
    while len(charts) < 100:
        dim = rng.choice([3, 3, 4])
        chart = random_full_cone(rng, dim)
        if len(chart.rays) == dim:
            continue
        if len(charts) % 4 == 3:
            c = [rng.randint(-2, 2) for _ in range(dim)]
            chart = Cone([r + (dot(c, r),) for r in chart.key])
        charts.append(chart)
    for chart in charts:
        simplices = _pulled(chart.key, [u.coords for u in chart.dual_generator_list()])
        assert len(simplices) > 1
        assert triangulation_faults(chart.key, simplices, 2) == [], chart
    named = [
        (Cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]), 3),
        (Cone([(1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1)]), 3),
        (cube_cone(3), 2),
        (cube_cone(4), 1),
        (simplex_product_cone(2, 3), 1),
        # a 6D chart where some K cap W, W missing K's least ray, has rank below K's less one
        (Cone([(0, 0, 0, 1, 1, 1), (0, 0, 2, 1, 0, 1), (0, 1, 2, 1, 1, 1), (0, 1, 2, 2, 0, 1), (1, 2, 0, 2, 1, 1),
               (2, 0, 1, 1, 1, 1), (2, 0, 1, 2, 2, 1), (2, 1, 0, 2, 2, 1), (2, 2, 0, 1, 0, 1)]), 1),
    ]
    for chart, bound in named:
        simplices = _pulled(chart.key, [u.coords for u in chart.dual_rays])
        assert triangulation_faults(chart.key, simplices, bound) == [], chart
    for n, bound in ((2, 3), (3, 2), (4, 1)):
        dual = [u.coords for u in cross_polytope_cone(n).dual_rays]
        simplices = _pulled(dual, cross_polytope_cone(n).key)
        assert triangulation_faults(dual, simplices, bound) == [], n


def test_triangulation_oracle_sees_a_gap_and_an_overlap():
    square = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    # one triangle leaves a gap: its diagonal bounds one simplex, and (1, 1, 1) lies in none
    gap = triangulation_faults(square, [(0, 1, 2)], 2)
    assert ("facet in 1 simplices", (1, 2)) in gap and ("in no simplex", (1, 1, 1)) in gap
    # a third triangle overlaps: (1, 2, 4) is inside two, and the outer edge (0, 1) bounds two
    both = triangulation_faults(square, [(0, 1, 2), (1, 2, 3), (0, 1, 3)], 4)
    assert ("in two interiors", (1, 2, 4)) in both and ("facet in 2 simplices", (0, 1)) in both
    assert triangulation_faults(square, [(0, 1, 2), (1, 2, 3)], 4) == []


# -- membership and the cone order ----------------------------------------------


def test_contains_examples(a1):
    assert a1.contains(nvec(1, 1))
    assert not a1.contains(nvec(0, 1))
    assert a1.contains(nvec(0, 0))


def test_contains_matches_rational_combination_oracle():
    rng = random.Random(31)
    for _ in range(20):
        dim = rng.choice([2, 3])
        c = random_full_cone(rng, dim, spread=3)
        rays = [r.coords for r in c.rays]
        for _ in range(25):
            v = tuple(rng.randint(-5, 5) for _ in range(dim))
            assert c.contains(nvec(*v)) == in_cone_rational(rays, v)


def test_leq_sigma_examples(a1):
    assert leq_sigma(a1, nvec(1, 1), nvec(2, 1))
    assert not leq_sigma(a1, nvec(2, 1), nvec(1, 1))
    assert not leq_sigma(a1, nvec(1, 1), nvec(1, 2))
    assert not leq_sigma(a1, nvec(1, 2), nvec(1, 1))


def test_leq_sigma_rejects_outside_points(a1):
    with pytest.raises(ValueError):
        leq_sigma(a1, nvec(0, 1), nvec(1, 1))
    with pytest.raises(ValueError):
        leq_sigma(a1, nvec(1, 1), nvec(0, 1))


def test_leq_sigma_axioms_fuzz():
    rng = random.Random(47)
    for _ in range(6):
        dim = rng.choice([2, 3])
        c = random_full_cone(rng, dim, spread=2)
        pts = []
        rays = [r.coords for r in c.rays]
        while len(pts) < 12:
            v = tuple(rng.randint(0, 5) for _ in range(dim))
            if c.contains(nvec(*v)):
                pts.append(nvec(*v))
        for _ in range(200):
            a, b, d = (rng.choice(pts) for _ in range(3))
            assert leq_sigma(c, a, a)
            if leq_sigma(c, a, b) and leq_sigma(c, b, a):
                assert a == b
            if leq_sigma(c, a, b) and leq_sigma(c, b, d):
                assert leq_sigma(c, a, d)


# -- quotients ------------------------------------------------------------------


def test_quotient_by_ray_face(a1):
    f = a1.smallest_face_containing([nvec(1, 0)])
    fq = quotient_by_face(a1, f)
    assert fq.lattice.quotient_dim == 1
    assert fq.project(nvec(3, 1)).coords == (1,)
    assert fq.image_cone.key == ((1,),)


def test_quotient_by_zero_face_is_identity(a1):
    fq = quotient_by_face(a1, a1.zero_face())
    assert fq.image_cone.key == a1.key
    assert fq.project(nvec(2, 1)).coords == (2, 1)


def test_quotient_by_full_face_is_zero(a1):
    fq = quotient_by_face(a1, a1.full_face())
    assert fq.lattice.quotient_dim == 0
    assert fq.image_cone.key == ()


def test_quotient_rejects_non_face(a1):
    q = Cone([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        quotient_by_face(a1, q.smallest_face_containing([nvec(0, 1)]))


def test_quotient_rejects_a_non_face_of_its_own_parent():
    # FaceRef checks no face-ness, so a FaceRef of c itself is checked too: three
    # vertices of the square of a pyramid used to give the square's quotient, and
    # two rays of a non-simplicial chart failed on an image cone with a line
    pyramid = Cone([(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1), (0, -1, 0, 1), (0, 0, 1, 1)])
    chart = Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
    for c, indices in [(pyramid, (0, 1, 3)), (chart, (0, 3))]:
        with pytest.raises(ValueError, match="not a face of the given cone"):
            quotient_by_face(c, FaceRef(c, indices))
    square = pyramid.face_from_indices((0, 1, 3, 4))
    assert quotient_by_face(pyramid, FaceRef(pyramid, square.indices)).image_cone == Cone([(1,)])


def test_quotient_lattice_map_surjective_on_cone_points(a1):
    # sampled surjectivity: image-cone points lift into the cone
    f = a1.smallest_face_containing([nvec(1, 0)])
    fq = quotient_by_face(a1, f)
    interior = nvec(1, 0)
    for w in range(0, 6):
        lift = fq.lattice.lift((w,))
        k = 0
        while not a1.contains(lift + k * interior):
            k += 1
            assert k < 50
        lifted = lift + k * interior
        assert fq.project(lifted).coords == (w,)


# -- duality involution ------------------------------------------------------------


def test_duality_involution_fuzz():
    rng = random.Random(2)
    for _ in range(60):
        dim = rng.choice([2, 3, 4])
        c = random_full_cone(rng, dim, spread=2 if dim > 2 else 4)
        d = Cone([u.coords for u in c.dual_rays], dim)
        dd = Cone([u.coords for u in d.dual_rays], dim)
        assert dd.key == c.key


# -- fans ---------------------------------------------------------------------------


def test_fan_accepts_compatible_cones():
    fan = Fan([Cone([(1, 0), (0, 1)]), Cone([(0, 1), (-1, 0)])])
    assert len(fan.maximal_cones) == 2
    assert any(f.key == ((0, 1),) for f in fan.strata())


def test_fan_builds_no_cone_beyond_its_intersections(monkeypatch):
    # six cones between consecutive rays, singular and smooth ones
    rays = [(1, 0), (1, 2), (0, 1), (-1, 2), (-1, 0), (-2, -1), (0, -1)]
    maximal = [Cone([a, b]) for a, b in zip(rays, rays[1:])]
    built = []
    init = Cone.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Cone, "__init__", counting_init)
    fan = Fan(maximal)
    assert len(fan.maximal_cones) == 6
    assert len(built) <= math.comb(6, 2)


def test_fan_checks_its_meets_without_building_a_cone(monkeypatch):
    # each pairwise meet is one double description, checked by _face_at on both cones
    import toricarcs.cones as cones

    c1, c2 = Cone([(1, 0), (1, 2)]), Cone([(1, 2), (-1, 1)])
    built = counting(monkeypatch, Cone, "__init__")
    meets = counting(monkeypatch, cones, "dual_generators")
    assert len(Fan([c1, c2]).maximal_cones) == 2
    assert built == [] and len(meets) == 1


def test_fan_rejects_bad_intersection():
    with pytest.raises(ValueError):
        Fan([Cone([(1, 0), (1, 2)]), Cone([(1, 1), (0, 1)])])


def test_fan_strata_deterministic():
    fan = Fan([Cone([(1, 0), (0, 1)]), Cone([(0, 1), (-1, 0)])])
    keys = [f.key for f in fan.strata()]
    assert keys[0] == ()
    assert len(keys) == len(set(keys)) == 6


def test_intersect_cones():
    c1 = Cone([(1, 0), (0, 1)])
    c2 = Cone([(0, 1), (-1, 0)])
    meet = intersect_cones(c1, c2)
    assert meet.key == ((0, 1),)


def test_dual_cone_two_dim_in_three_space():
    c = Cone([(1, 0, 0), (0, 1, 0)], 3)
    gen_list = [u.coords for u in c.dual_generator_list()]
    assert gen_list == [(0, 0, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert [l.coords for l in c.span_normals] == [(0, 0, 1)]


def test_faces_of_two_dim_cone_in_three_space():
    c = Cone([(1, 0, 0), (0, 1, 0)], 3)
    assert len(c.faces()) == 4


# -- box enumeration ------------------------------------------------------------


def test_lattice_points_where_matches_the_box_filter():
    rng = random.Random(31)
    kinds = set()
    for _ in range(800):
        dim = rng.randint(0, 4)
        lo = [rng.randint(-3, 2) for _ in range(dim)]
        hi = [x + rng.randint(-1, 4) for x in lo]
        constraints = [
            (tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-4, 8))
            for _ in range(rng.randint(0, 4))
        ]
        expected = box_points_where(constraints, lo, hi)
        assert list(lattice_points_where(constraints, lo, hi)) == expected, (constraints, lo, hi)
        if any(a > b for a, b in zip(lo, hi)):
            kinds.add("empty box")
        elif not expected:
            kinds.add("infeasible")
        elif dim == 0:
            kinds.add("dim 0")
        else:
            kinds.add("points")
        if any(0 in a for a, _ in constraints):
            kinds.add("zero coefficient")
    assert kinds == {"empty box", "infeasible", "dim 0", "points", "zero coefficient"}
    # a constraint with no variable that fails empties the box, and one that holds does nothing
    assert list(lattice_points_where([((0, 0), 1)], [0, 0], [1, 1])) == []
    assert list(lattice_points_where([((0, 0), 0)], [0, 0], [0, 1])) == [(0, 0), (0, 1)]
    assert list(lattice_points_where([((), 1)], [], [])) == []
    # an equality a . x = b is the pair (a, b), (-a, -b); with b read off a box point, most
    # draws hold points on the hyperplane
    rng = random.Random(37)
    found = 0
    for _ in range(400):
        dim = rng.randint(1, 4)
        lo = [rng.randint(-3, 2) for _ in range(dim)]
        hi = [x + rng.randint(0, 4) for x in lo]
        constraints = [
            (tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-4, 8))
            for _ in range(rng.randint(0, 3))
        ]
        for _ in range(rng.randint(1, 2)):
            a = tuple(rng.randint(-3, 3) for _ in range(dim))
            b = sum(c * rng.randint(l, h) for c, l, h in zip(a, lo, hi))
            constraints += [(a, b), (tuple(-c for c in a), -b)]
        rng.shuffle(constraints)
        expected = box_points_where(constraints, lo, hi)
        assert list(lattice_points_where(constraints, lo, hi)) == expected, (constraints, lo, hi)
        found += bool(expected)
    assert found > 100


@pytest.mark.parametrize(
    "build",
    [
        lambda: Cone([(1.9, 0), (0, 1)]),
        lambda: dual_generators([(1, 0.5)], 2),
        lambda: FaceRef(Cone([(1, 0), (0, 1)]), [0.0]),
    ],
    ids=["Cone", "dual_generators", "FaceRef"],
)
def test_a_non_integer_input_raises_type_error(build):
    # int() would truncate: Cone([(1.9, 0), (0, 1)]) used to be the orthant
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("indices", [[-1], [2], [0, 0]], ids=["negative", "past_the_rays", "repeated"])
def test_a_face_index_outside_the_rays_or_repeated_raises_value_error(indices):
    # [-1] used to give ray 1's stratum unequal to face_from_indices([1]), [2] an IndexError,
    # and [0, 0] a face with a repeated ray
    with pytest.raises(ValueError, match="not distinct ray indices of the cone"):
        FaceRef(Cone([(1, 0), (1, 2)]), indices)


def test_a_cone_refuses_m_side_generators():
    with pytest.raises(ValueError, match="expected an N-side vector, got an M-side one"):
        Cone([mvec(1, 0), mvec(1, 2)])
    # plain int tuples stay accepted, dual rays among them
    c = Cone([(1, 0), (1, 2)])
    assert Cone([nvec(1, 0), nvec(1, 2)]) == c
    assert Cone([u.coords for u in Cone([u.coords for u in c.dual_rays]).dual_rays]) == c
