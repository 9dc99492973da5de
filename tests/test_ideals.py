import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import counting, cube_cone, draws, random_full_cone, simplex_product_cone
from oracles import (
    brute_contact_minimal,
    brute_sing_minimal,
    compact_face_points_by_fractions,
    contact_by_region_filter,
    face_cone,
    in_cone_rational,
    newton_by_vertex_cells,
    polar_by_face_lattice,
    sing_by_simplex_subsets,
    sing_by_zonotope_scan,
)

from toricarcs.arcs import monomial_arc, orbit_label, orbit_poset
from toricarcs.cones import Cone, _homogenized_rays
from toricarcs.ideals import (
    _level_constraints,
    compact_face_lattice_points,
    contact_components,
    dual_fan,
    is_minimal_in_contact,
    lift_to_open_stratum,
    monomial_ideal,
    newton_polytope,
    order_function,
    polar_polytope,
    sing_components,
    singular_faces,
    toric_valuation,
    toric_valuation_eval,
)
from toricarcs.lattice import INF, is_finite, mvec, nvec


@pytest.fixture
def a1_max(a1):
    return monomial_ideal(a1, [(0, 1), (1, 0), (2, -1)])


@pytest.fixture
def q23(quadrant):
    return monomial_ideal(quadrant, [(2, 0), (0, 3)])


# -- construction and reduction ------------------------------------------------


def test_ideal_rejects_exponent_outside_dual(a1):
    with pytest.raises(ValueError):
        monomial_ideal(a1, [(0, 1), (-1, 0)])


def test_ideal_reduction_report(quadrant):
    ideal = monomial_ideal(quadrant, [(2, 0), (0, 3), (2, 3)])
    assert [u.coords for u in ideal.generators] == [(0, 3), (2, 0)]
    assert [u.coords for u in ideal.discarded] == [(2, 3)]


# -- order function --------------------------------------------------------------


def test_order_function_examples(a1_max):
    assert order_function(a1_max, nvec(1, 1)) == 1
    assert order_function(a1_max, nvec(2, 2)) == 2
    assert order_function(a1_max, nvec(1, 0)) == 0


def test_order_function_rejects_outside(a1_max):
    with pytest.raises(ValueError):
        order_function(a1_max, nvec(0, 1))


def test_order_function_on_labels(a1, a1_max):
    ray12 = a1.smallest_face_containing([nvec(1, 2)])
    assert order_function(a1_max, orbit_label(a1, ray12, (0,))) == 0
    top = orbit_label(a1, a1.full_face(), ())
    assert order_function(a1_max, top) == INF


def test_order_homogeneity_and_monotonicity_fuzz():
    rng = random.Random(13)
    for _ in range(5):
        chart = random_full_cone(rng, 2, spread=3)
        gens = []
        while len(gens) < 2:
            u = tuple(rng.randint(-4, 4) for _ in range(2))
            if any(u) and all(
                sum(a * b for a, b in zip(r.coords, u)) >= 0 for r in chart.rays
            ):
                gens.append(u)
        ideal = monomial_ideal(chart, gens)
        pts = []
        while len(pts) < 10:
            v = tuple(rng.randint(-6, 6) for _ in range(2))
            if chart.contains(nvec(*v)):
                pts.append(nvec(*v))
        for _ in range(200):
            v = rng.choice(pts)
            w = rng.choice(pts)
            k = rng.randint(0, 5)
            assert order_function(ideal, k * v) == k * order_function(ideal, v)
            assert order_function(ideal, v + w) >= order_function(ideal, v)


# -- Newton polytope and dual fan ---------------------------------------------------


def test_newton_vertices_two_incomparable(q23):
    data = newton_polytope(q23)
    assert [u.coords for u in data.vertices] == [(0, 3), (2, 0)]
    assert data.redundant == ()


def test_newton_flags_midpoint_generator(a1_max):
    # (1,0) sits on the compact edge between (0,1) and (2,-1)
    data = newton_polytope(a1_max)
    assert [u.coords for u in data.vertices] == [(0, 1), (2, -1)]
    assert [u.coords for u in data.redundant] == [(1, 0)]


def test_newton_principal(quadrant):
    data = newton_polytope(monomial_ideal(quadrant, [(1, 1)]))
    assert [u.coords for u in data.vertices] == [(1, 1)]


def test_dual_fan_quadrant(q23):
    cells = dual_fan(q23)
    assert {c.key for c in cells} == {((0, 1), (3, 2)), ((1, 0), (3, 2))}


def test_dual_fan_principal_is_whole_cone(quadrant):
    cells = dual_fan(monomial_ideal(quadrant, [(1, 1)]))
    assert len(cells) == 1 and cells[0].key == quadrant.key


def test_dual_fan_a1_max_two_cells_with_diagonal_wall(a1_max):
    # one linearity region per Newton vertex; the wall is the (1,1) ray
    cells = dual_fan(a1_max)
    assert {c.key for c in cells} == {((1, 0), (1, 1)), ((1, 1), (1, 2))}


def test_dual_fan_covers_cone_and_g_linear(q23):
    cells = dual_fan(q23)
    vertices = [u.coords for u in newton_polytope(q23).vertices]
    for x in range(0, 7):
        for y in range(0, 7):
            v = nvec(x, y)
            assert any(c.contains(v) for c in cells)
    for cell in cells:
        # on each cell the order function is linear: attained by one vertex
        attaining = None
        for u in vertices:
            if all(
                sum(a * b for a, b in zip(r.coords, u))
                == order_function(q23, r)
                for r in cell.rays
            ):
                attaining = u
        assert attaining is not None


# -- polar polytopes ------------------------------------------------------------------


def test_polar_vertex_rational(q23):
    data = polar_polytope(q23, 1)
    assert data.vertices == ((Fraction(1, 2), Fraction(1, 3)),)
    assert data.compact_faces == ((0,),)


def test_polar_scaling_integral(q23):
    data = polar_polytope(q23, 6)
    assert data.vertices == ((Fraction(3), Fraction(2)),)


def test_polar_principal_segment(quadrant):
    data = polar_polytope(monomial_ideal(quadrant, [(1, 1)]), 1)
    assert set(data.vertices) == {(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))}
    assert (0, 1) in data.compact_faces


def _random_exponents(rng, chart, count):
    """count nonzero exponents, each a combination of the chart's dual rays with coefficients 0..3."""
    dual = [u.coords for u in chart.dual_rays]
    dim = chart.dim_ambient
    gens = []
    for _ in draws("_random_exponents"):
        if len(gens) == count:
            return gens
        coeffs = [rng.randint(0, 3) for _ in dual]
        u = tuple(sum(c * d[j] for c, d in zip(coeffs, dual)) for j in range(dim))
        if any(u):
            gens.append(u)


def test_polar_polytope_matches_face_lattice_route():
    rng = random.Random(17)
    charts = [random_full_cone(rng, dim, spread=2) for dim in (2, 3) for _ in range(8)]
    charts.append(Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]))
    for chart in charts:
        for _ in range(2):
            gens = _random_exponents(rng, chart, chart.dim_ambient + 2)
            ideal = monomial_ideal(chart, gens)
            for p in range(1, 5):
                data = polar_polytope(ideal, p)
                got = (data.vertices, data.recession_rays, data.compact_faces)
                assert got == polar_by_face_lattice(ideal, p), (chart.key, gens, p)


def test_level_p_set_is_p_times_the_level_1_set():
    rng = random.Random(23)
    for dim in (2, 3, 2, 3, 2, 3):
        chart = random_full_cone(rng, dim, spread=2)
        gens = _random_exponents(rng, chart, rng.randint(1, dim + 2))
        ideal = monomial_ideal(chart, gens)
        one = polar_polytope(ideal, 1)
        for p in range(1, 8):
            data = polar_polytope(ideal, p)
            assert data.vertices == tuple(tuple(p * x for x in v) for v in one.vertices)
            assert (data.compact_faces, data.recession_rays) == (one.compact_faces, one.recession_rays)
            # the vertices p x / s read off the level-1 rays, and the recession rays, are those of a
            # fresh pass at level p
            fresh = _homogenized_rays(_level_constraints(ideal, p), dim)
            vertices = tuple(sorted(tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in fresh if r[-1] > 0))
            recession = tuple(sorted(r[:-1] for r in fresh if r[-1] == 0))
            assert (data.vertices, data.recession_rays) == (vertices, recession), (chart.key, gens, p)


@pytest.mark.parametrize("seed", range(4))
def test_newton_polar_and_compact_faces_match_the_old_routes(seed):
    # seeded ideals on 2-, 3- and 4-dim charts against the per-generator cells of
    # newton_by_vertex_cells and the Fraction face boxes of compact_face_points_by_fractions;
    # doubling the drawn exponents makes the sum of the first two a midpoint, no vertex
    rng = random.Random(1000 + seed)
    redundant = 0
    for i in range(15):
        dim = 2 + i % 3
        chart = random_full_cone(rng, dim, spread=2)
        drawn = _random_exponents(rng, chart, rng.randint(2, dim + 2))
        gens = [tuple(2 * x for x in u) for u in drawn] + [tuple(map(sum, zip(drawn[0], drawn[1])))]
        ideal = monomial_ideal(chart, gens)
        vertices, flagged, cells = newton_by_vertex_cells(ideal)
        data = newton_polytope(ideal)
        assert [u.coords for u in data.vertices] == list(vertices), (chart.key, gens)
        assert [u.coords for u in data.redundant] == list(flagged), (chart.key, gens)
        assert data.dual_fan_cones == cells, (chart.key, gens)
        assert dual_fan(ideal) == tuple(sorted(cells, key=lambda c: c.key))
        redundant += len(flagged)
        for p in range(1, 4):
            polar = polar_polytope(ideal, p)
            got = (polar.vertices, polar.recession_rays, polar.compact_faces)
            assert got == polar_by_face_lattice(ideal, p), (chart.key, gens, p)
            points = compact_face_lattice_points(ideal, p)
            assert points == compact_face_points_by_fractions(ideal, p), (chart.key, gens, p)
    assert redundant > 0  # the draws reach generators that are no vertex


def test_newton_polar_and_contact_read_one_level_cone(monkeypatch):
    import toricarcs.cones as cones

    chart = Cone([(0, 1, 0), (1, 0, 0), (1, 1, 2)])
    # (0, 3, 0) is the midpoint of (0, 0, 2) and (0, 6, -2)
    ideal = monomial_ideal(chart, [(0, 0, 2), (0, 6, -2), (0, 3, 0), (1, 1, -1)])
    k = len(ideal.generators)
    calls = counting(monkeypatch, cones, "dual_generators")
    polar_polytope(ideal, 1)
    assert len(calls) == 1  # the level-1 cone, kept on the ideal
    calls.clear()
    data = newton_polytope(ideal)
    assert len(calls) == k and data.redundant  # one Cone per generator's cell
    calls.clear()
    for p in range(1, 4):
        polar_polytope(ideal, p)
        contact_components(ideal, p)
        compact_face_lattice_points(ideal, p)
    assert calls == []
    newton_by_vertex_cells(ideal)
    assert len(calls) == 2 * k  # the old route: a dual and a Cone per generator


def test_one_ideal_walks_its_compact_faces_once(monkeypatch):
    import toricarcs.ideals as ideals

    # the singular 3D chart of scripts/contact_profile.py: the level cone's faces are walked
    # when it is built, and every later query at every level reads the kept compact faces
    ideal = monomial_ideal(Cone([(0, 1, 0), (1, 0, 0), (1, 1, 2)]), [(0, 0, 1), (0, 3, -1), (1, 1, -1)])
    walks = counting(monkeypatch, ideals, "_face_keys")
    newton_polytope(ideal)
    for p in range(1, 5):
        assert polar_polytope(ideal, p).compact_faces
        compact_face_lattice_points(ideal, p)
        contact_components(ideal, p)
    assert len(walks) == 1


def test_one_ideal_answers_every_level_in_any_order():
    chart = Cone([(0, 1, 0), (1, 0, 0), (1, 1, 2)])
    gens = [(0, 0, 1), (0, 3, -1), (1, 1, -1)]
    shared = monomial_ideal(chart, gens)
    queries = [(query, p) for query in (polar_polytope, contact_components) for p in range(1, 13)]
    random.Random(5).shuffle(queries)
    for query, p in queries:
        assert query(shared, p) == query(monomial_ideal(chart, gens), p), (query.__name__, p)
    assert shared._level_one is not None


def test_polar_and_contact_reject_a_bool_level(q23, a1_max):
    for query in (polar_polytope, contact_components, compact_face_lattice_points):
        with pytest.raises(ValueError):
            query(q23, True)
    # (1, 1) has order 1 == True
    with pytest.raises(ValueError):
        is_minimal_in_contact(a1_max, True, nvec(1, 1))


# -- minimality ------------------------------------------------------------------------


def test_is_minimal_examples(q23, a1_max):
    assert is_minimal_in_contact(q23, 6, nvec(3, 2))
    assert not is_minimal_in_contact(q23, 6, nvec(3, 3))
    assert is_minimal_in_contact(a1_max, 1, nvec(1, 1))


def test_contact_takes_no_step_set(quadrant, monkeypatch):
    import toricarcs.ideals as ideals

    hilbert = counting(monkeypatch, Cone, "hilbert_basis")
    ideal = monomial_ideal(quadrant, [(1, 0), (0, 1)])
    assert [c.point for c in contact_components(ideal, 1)] == [(1, 1)]
    assert [c.point for c in contact_components(ideal, 2)] == [(2, 2)]
    assert hilbert == []
    # the local test still steps back by the chart's Hilbert basis (0, 1) and (1, 0)
    orders = counting(monkeypatch, ideals, "_order")
    assert is_minimal_in_contact(ideal, 1, nvec(1, 1))
    assert [x for _, x in orders] == [(1, 1), (1, 0), (0, 1)]
    assert len(hilbert) == 1


def test_sing_takes_no_step_set(a2, monkeypatch):
    import toricarcs.ideals as ideals

    # one [0, 1) box per simplex of the triangulation, and no Hilbert basis: A_2 is its own one
    # simplex, and the hexagon is pulled into 4 triangles
    hilbert = counting(monkeypatch, Cone, "hilbert_basis")
    boxes = counting(monkeypatch, ideals, "_parallelepiped")
    assert [c.point for c in sing_components(a2)] == [(1, 1), (1, 2)]
    assert boxes == [([(1, 0), (1, 3)],)]
    hexagon = Cone([(1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1)])
    assert [c.point for c in sing_components(hexagon)] == [(0, 0, 1)]
    assert len(boxes) == 1 + 4 and hilbert == []


def test_is_minimal_rejects_wrong_level(q23):
    with pytest.raises(ValueError):
        is_minimal_in_contact(q23, 5, nvec(3, 2))


def test_local_minimality_agrees_with_global_oracle():
    rng = random.Random(41)
    cones = [Cone([(1, 0), (0, 1)]), Cone([(1, 0), (1, 2)]), Cone([(1, 0), (2, 3)])]
    for chart in cones:
        rays = [r.coords for r in chart.rays]
        gens = []
        while len(gens) < 2:
            u = tuple(rng.randint(-3, 4) for _ in range(2))
            if any(u) and all(sum(a * b for a, b in zip(r, u)) >= 0 for r in rays):
                gens.append(u)
        ideal = monomial_ideal(chart, gens)

        def member(v):
            return in_cone_rational(rays, v)

        for p in (1, 2, 3):
            level = [
                v
                for v in itertools.product(range(0, 13), repeat=2)
                if member(v) and min(sum(a * b for a, b in zip(v, u)) for u in gens) == p
            ]
            for v in level:
                global_min = not any(
                    w != v and member(tuple(a - b for a, b in zip(v, w)))
                    for w in level
                )
                assert is_minimal_in_contact(ideal, p, nvec(*v)) == global_min, (
                    chart.key,
                    gens,
                    p,
                    v,
                )


# -- contact components -------------------------------------------------------------------


def test_contact_components_examples(q23, a1_max):
    assert [(c.point, c.e, c.v0) for c in contact_components(q23, 6)] == [
        ((3, 2), 1, (3, 2))
    ]
    assert contact_components(q23, 1) == ()
    assert [(c.point, c.e, c.v0) for c in contact_components(a1_max, 1)] == [
        ((1, 1), 1, (1, 1))
    ]


def test_contact_components_reject_nonpositive_level(q23):
    with pytest.raises(ValueError):
        contact_components(q23, 0)


def test_contact_matches_brute_oracle(q23, a1_max):
    for ideal in (q23, a1_max):
        rays = [r.coords for r in ideal.chart.rays]
        gens = [u.coords for u in ideal.generators]

        def member(v):
            return in_cone_rational(rays, v)

        for p in range(1, 7):
            expected = brute_contact_minimal(rays, gens, p, 4 * p, member)
            got = [list(c.point) for c in contact_components(ideal, p)]
            assert got == [list(v) for v in expected], (gens, p)


def test_contact_components_beyond_the_polar_vertex_box(a1, a2):
    # the level-3 vertex of (2,-1) on A_1 is (3/2, 0), yet the component is
    # (2, 1): the scan must reach past the vertex box along the chart's rays
    for ideal in (monomial_ideal(a1, [(2, -1)]), monomial_ideal(a2, [(3, -1)])):
        rays = [r.coords for r in ideal.chart.rays]
        gens = [u.coords for u in ideal.generators]

        def member(v):
            return in_cone_rational(rays, v)

        for p in range(1, 5):
            expected = brute_contact_minimal(rays, gens, p, 4 * p, member)
            got = [list(c.point) for c in contact_components(ideal, p)]
            assert got == [list(v) for v in expected], (gens, p)
    assert [c.point for c in contact_components(monomial_ideal(a1, [(2, -1)]), 3)] == [(2, 1)]


def test_contact_matches_brute_oracle_on_singular_3d_chart():
    chart = Cone([(0, 1, 0), (1, 0, 0), (1, 1, 2)])
    rays = [r.coords for r in chart.rays]
    ideal = monomial_ideal(chart, [(0, 0, 1), (0, 3, -1), (1, 1, -1)])
    gens = [u.coords for u in ideal.generators]

    def member(v):
        return in_cone_rational(rays, v)

    for p in (1, 2):
        expected = brute_contact_minimal(rays, gens, p, 5, member)
        got = [list(c.point) for c in contact_components(ideal, p)]
        assert got == [list(v) for v in expected], p


@pytest.mark.parametrize("seed", range(3))
def test_contact_slices_match_the_region_filter(seed):
    # seeded ideals on 2-, 3- and 4-dim charts against the scan of the whole order >= p
    # region of the box, filtered to order exactly p, in contact_by_region_filter
    rng = random.Random(2000 + seed)
    for i in range(9):
        dim = 2 + i % 3
        chart = random_full_cone(rng, dim, spread=2)
        gens = _random_exponents(rng, chart, rng.randint(1, dim + 2))
        ideal = monomial_ideal(chart, gens)
        for p in range(1, 7):
            got = tuple(c.point for c in contact_components(ideal, p))
            assert got == contact_by_region_filter(ideal, p), (chart.key, gens, p)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_orthant_contact_is_the_points_of_coordinate_sum_p(d):
    # the ideal (1, ..., 1) on the d-dim orthant: the components are the C(p + d - 1, d - 1)
    # points of N^d with coordinate sum p
    orthant = Cone([tuple(int(i == j) for j in range(d)) for i in range(d)])
    ideal = monomial_ideal(orthant, [(1,) * d])
    for p in range(1, 7):
        points = [c.point for c in contact_components(ideal, p)]
        assert len(points) == math.comb(p + d - 1, d - 1), (d, p)
        assert all(sum(x) == p and min(x) >= 0 for x in points), (d, p)


@pytest.mark.parametrize("p", [20, 40])
def test_contact_draws_only_points_of_order_p(monkeypatch, p):
    # on the orthant with the ideal (1, 1, 1), the box scan of the order >= p region drew
    # 9,108 points at p = 20 and 62,608 at p = 40; the slice scan draws the C(p + 2, 2)
    # points of order p, each of them a component
    import toricarcs.ideals as ideals

    scan = ideals.lattice_points_where
    drawn = []

    def recorded(*args):
        for x in scan(*args):
            drawn.append(x)
            yield x

    monkeypatch.setattr(ideals, "lattice_points_where", recorded)
    ideal = monomial_ideal(Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), [(1, 1, 1)])
    components = contact_components(ideal, p)
    assert all(order_function(ideal, x) == p for x in drawn)
    assert len(drawn) == len(components) == math.comb(p + 2, 2)


def test_compact_face_points_are_minimal_components(q23, quadrant):
    principal = monomial_ideal(quadrant, [(1, 1)])
    for ideal, p in [(q23, 6), (q23, 12), (principal, 1), (principal, 3)]:
        face_points = compact_face_lattice_points(ideal, p)
        component_points = tuple(c.point for c in contact_components(ideal, p))
        for pt in face_points:
            assert pt in component_points


def test_divisible_p_coincidence(quadrant, a1_max):
    # when p clears the polar-vertex denominators, minimal elements are
    # exactly the lattice points of the compact faces
    samples = [
        (monomial_ideal(quadrant, [(2, 0), (0, 3)]), 6),
        (monomial_ideal(quadrant, [(3, 0), (0, 1)]), 3),
        (a1_max, 1),
    ]
    for ideal, p in samples:
        denominators = [
            x.denominator for v in polar_polytope(ideal, 1).vertices for x in v
        ]
        lcm = 1
        for d in denominators:
            lcm = lcm * d // __import__("math").gcd(lcm, d)
        assert lcm == p
        face_points = compact_face_lattice_points(ideal, p)
        component_points = tuple(c.point for c in contact_components(ideal, p))
        assert face_points == component_points


# -- singular locus --------------------------------------------------------------------------


def test_singular_faces(quadrant, a1, a2):
    assert singular_faces(quadrant) == ()
    assert [f.key for f in singular_faces(a1)] == [a1.key]
    assert [f.key for f in singular_faces(a2)] == [a2.key]


def test_singular_faces_match_smoothness_of_face_cones():
    from toricarcs.cones import is_smooth

    charts = [Cone([(1, 0), (1, n + 1)]) for n in range(1, 9)]
    rng = random.Random(3)
    charts += [random_full_cone(rng, 3, spread=2) for _ in range(8)]
    for c in charts:
        expected = tuple(f for f in c.faces() if not is_smooth(face_cone(f)))
        assert singular_faces(c) == expected, c


def test_singular_faces_of_a_smooth_cone_build_no_face_lattice(monkeypatch):
    # the 18-dim orthant has 2^18 faces, all smooth
    from toricarcs import cones

    orthant = Cone([tuple(int(i == j) for j in range(18)) for i in range(18)])
    walked = counting(monkeypatch, cones, "_face_keys")
    assert singular_faces(orthant) == ()
    assert sing_components(orthant) == ()
    assert walked == []


def test_sing_components_examples(quadrant, a1, a2):
    assert sing_components(quadrant) == ()
    assert [c.point for c in sing_components(a1)] == [(1, 1)]
    assert [c.point for c in sing_components(a2)] == [(1, 1), (1, 2)]
    for c in sing_components(a1):
        assert (c.e, c.v0) == (1, (1, 1))


def test_sing_components_match_brute_oracle():
    for n in range(1, 5):
        cone = Cone([(1, 0), (1, n + 1)])
        expected = brute_sing_minimal(cone, 2 * n)
        got = [list(c.point) for c in sing_components(cone)]
        assert got == [list(v) for v in expected]


@pytest.mark.parametrize("n", [8, 16, 32])
def test_sing_components_an_closed_form(n):
    cone = Cone([(1, 0), (1, n + 1)])
    assert [c.point for c in sing_components(cone)] == [(1, k) for k in range(1, n + 1)]


def test_sing_components_match_brute_oracle_3d():
    # the chart lies in the positive orthant, so every point below a
    # component lies in the same box as the component
    cone = Cone([(1, 0, 0), (0, 1, 0), (1, 2, 7)])
    assert max(x for c in sing_components(cone) for x in c.point) <= 6
    assert [c.point for c in sing_components(cone)] == brute_sing_minimal(cone, 6)


@pytest.mark.parametrize(
    "rays,expected",
    [
        ([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [(0, 0, 1)]),
        ([(1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1)], [(0, 0, 1)]),
        ([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)], [(1, 1, 1)]),
        ([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -2, 1)], [(0, -1, 1), (0, 0, 1)]),
    ],
    ids=["conifold", "hexagon", "square_over_edge", "kite"],
)
def test_sing_components_match_brute_oracle_non_simplicial(rays, expected):
    # a point w below a component v has w and v - w in the cone, so it stays
    # in the box of side 3: on the cones over a polygon at height 1,
    # |x|, |y| <= 2z and z <= 1; the square over an edge lies in the
    # positive orthant, so there w <= v = (1, 1, 1) coordinatewise
    cone = Cone(rays)
    got = [c.point for c in sing_components(cone)]
    assert got == expected
    assert brute_sing_minimal(cone, 3) == expected


def test_sing_components_match_brute_oracle_random_3d():
    from toricarcs.cones import is_smooth

    rng = random.Random(0)
    checked = 0
    while checked < 4:
        try:
            cone = Cone([tuple(rng.randint(-1, 2) for _ in range(3)) for _ in range(3)])
        except ValueError:
            continue
        if not cone.is_full_dimensional() or is_smooth(cone):
            continue
        got = [list(c.point) for c in sing_components(cone)]
        assert got and max(abs(x) for v in got for x in v) <= 3, cone
        assert got == [list(v) for v in brute_sing_minimal(cone, 3)], cone
        checked += 1


def _sing_scan_charts():
    charts = [Cone([(1, 0), (1, n + 1)]) for n in range(1, 17)]
    rng = random.Random(5)
    for _ in draws("_sing_scan_charts"):
        if len(charts) == 22:
            break
        cone = random_full_cone(rng, 3, spread=2)
        if singular_faces(cone):
            charts.append(cone)
    charts += [
        Cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
        Cone([(1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1)]),
        Cone([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]),
        Cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -2, 1)]),
        Cone([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 11)]),
        Cone([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (3, 1, 3, 8)]),
        # lower-dimensional charts
        Cone([(1, 0, 1), (1, 3, 1)]),
        Cone([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 3, 0)]),
    ]
    return charts


def test_sing_scan_charts_raise_a_named_error_instead_of_hanging(monkeypatch):
    # a fault that leaves every drawn chart smooth ends the draws at collection
    monkeypatch.setitem(_sing_scan_charts.__globals__, "singular_faces", lambda cone: ())
    with pytest.raises(RuntimeError, match="^_sing_scan_charts: "):
        _sing_scan_charts()


@pytest.mark.parametrize("cone", _sing_scan_charts(), ids=repr)
def test_sing_components_match_the_zonotope_scan(cone):
    assert [c.point for c in sing_components(cone)] == sing_by_zonotope_scan(cone)


@pytest.mark.parametrize("cone", _sing_scan_charts(), ids=repr)
def test_sing_components_match_the_simplex_subset_scan(cone):
    assert [c.point for c in sing_components(cone)] == sing_by_simplex_subsets(cone)


def _non_simplicial_charts(count=200):
    # full-dimensional charts of rank 3 to 5 with more rays than their rank, whose subset scan
    # reads at most MAX_SING_PARALLELEPIPED_POINTS = 2048 points, with that scan's answer
    rng = random.Random(22)
    charts = []
    for _ in draws("_non_simplicial_charts"):
        if len(charts) == count:
            return charts
        dim = 3 + len(charts) % 3
        gens = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(dim + 1, dim + 4))]
        try:
            cone = Cone(gens, dim)
            if cone.is_full_dimensional() and len(cone.key) > dim:
                charts.append((cone, sing_by_simplex_subsets(cone, 2048)))
        except ValueError:
            continue


def test_sing_components_match_the_simplex_subset_scan_on_seeded_non_simplicial_charts():
    # 2000 charts drawn the same way from seed 7 agreed in a longer run outside the suite
    charts = _non_simplicial_charts()
    assert {cone.dim for cone, _ in charts} == {3, 4, 5}
    for cone, expected in charts:
        assert [c.point for c in sing_components(cone)] == expected, cone


def test_sing_components_rank_5_within_a_second():
    # frozen after one comparison with sing_by_zonotope_scan, which took 42.6 s on a 2-vCPU Xeon VM
    cone = Cone([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (1, 2, 3, 4, 9)])
    start = time.perf_counter()
    got = [c.point for c in sing_components(cone)]
    assert time.perf_counter() - start < 1.0
    assert got == [
        (1, 1, 1, 1, 1),
        (1, 1, 1, 1, 2),
        (1, 1, 1, 2, 3),
        (1, 1, 2, 2, 4),
        (1, 2, 2, 3, 5),
        (1, 2, 2, 3, 6),
        (1, 2, 3, 4, 7),
        (1, 2, 3, 4, 8),
    ]


# -- closed-form families --------------------------------------------------------------
#
# Each cone below is the cone over a lattice polytope P at height 1, so a point (y, h) of the
# cone has h >= 0, and h = 0 only at 0.  Two points at one height are never comparable in the
# cone order, as their difference would be a nonzero point at height 0.


@pytest.mark.parametrize("a, b", [(1, 1), (1, 2), (1, 3), (2, 2), (1, 4), (2, 3), (3, 3)])
def test_sing_of_a_simplex_product_has_one_component_per_square_face(a, b):
    # The faces of P = Delta_a x Delta_b are the products F x G of faces.  If F or G is a point,
    # F x G is a unimodular simplex, so the singular faces are those with dim F, dim G >= 1.  A
    # point of relint cone(F x G) at height h is (p, q, h), p a sum of h vertices of F using each
    # at least once, likewise q.  At height 2 that forces F and G to be edges, and the point is the
    # square's center (f1 + f2, g1 + g2, 2).  Any higher point lies above such a center: take
    # f1 != f2 among the vertices p uses and g1 != g2 among those of q, and the rest is h - 2
    # vertices of F and of G, a point of the cone.  So the components are the C(a+1, 2) C(b+1, 2)
    # square centers, all at height 2.
    cone = simplex_product_cone(a, b)
    got = [c.point for c in sing_components(cone)]
    assert len(got) == math.comb(a + 1, 2) * math.comb(b + 1, 2)
    assert {p[-1] for p in got} == {2}
    if a + b <= 3:
        assert got == sing_by_zonotope_scan(cone)


@pytest.mark.parametrize("n, count", [(2, 1), (3, 7), (4, 33), (5, 131), (6, 473)])
def test_sing_of_a_cube_cone_has_one_component_per_face_of_dimension_two_or_more(n, count):
    # A face of [0, 1]^n of dimension <= 1 is a point or a unit edge, a unimodular simplex, and one
    # of dimension k >= 2 is a k-cube, not a simplex, so singular.  The face x + [0, 1]^D has one
    # point of relint at height 2, its center (2x + sum_D e_i, 2).  A point (y, h) of its relint
    # has y_j = h x_j off D and 1 <= y_i <= h - 1 on D, so (y, h) minus the center lies in
    # (h - 2) [0, 1]^n at height h - 2, in the cone.  So the components are the centers of the
    # faces of dimension >= 2: 1 at n = 2, 6 + 1 at n = 3, 24 + 8 + 1 at n = 4, 80 + 40 + 10 + 1
    # at n = 5, and 3^6 - 2^6 - 6 * 2^5 = 473 at n = 6.
    cone = cube_cone(n)
    got = [c.point for c in sing_components(cone)]
    assert len(got) == count and {p[-1] for p in got} == {2}
    if n <= 3:
        assert got == sing_by_zonotope_scan(cone)


def test_sing_budget_counts_candidates_only(a2, monkeypatch):
    import toricarcs.ideals as ideals

    # A_2: the full face is the only singular face, with 3 candidates
    monkeypatch.setattr(ideals, "MAX_SING_PARALLELEPIPED_POINTS", 3)
    assert [c.point for c in sing_components(a2)] == [(1, 1), (1, 2)]
    monkeypatch.setattr(ideals, "MAX_SING_PARALLELEPIPED_POINTS", 2)
    with pytest.raises(ValueError, match="3 parallelepiped points, more than the budget of 2"):
        sing_components(a2)


def test_sing_budget_counts_box_points_and_distinct_ray_sums(monkeypatch):
    import toricarcs.ideals as ideals

    # the 4-cube cone is pulled into 24 unimodular simplices: 24 box points.  A set of rays whose
    # facets are faces but which is no face is a pair of vertices that is no edge, C(16, 2) - 32 =
    # 88 of them: the cube's graph has no triangle, and no three vertices span a face.  Such a pair
    # is a diagonal of the smallest face holding it, of dimension >= 2, and sums to twice its
    # center at height 2; so the 88 pairs give 24 + 8 + 1 = 33 distinct sums.  24 + 33 = 57
    monkeypatch.setattr(ideals, "MAX_SING_PARALLELEPIPED_POINTS", 57)
    assert len(sing_components(cube_cone(4))) == 33
    monkeypatch.setattr(ideals, "MAX_SING_PARALLELEPIPED_POINTS", 56)
    with pytest.raises(ValueError, match="57 parallelepiped points, more than the budget of 56"):
        sing_components(cube_cone(4))


@pytest.mark.parametrize("k", [0, 4, 8])
def test_sing_of_the_conifold_times_an_orthant_is_one_component(k):
    # e1, e2, e3, e1 + e2 - e3 span the conifold, a cone over a unit square, whose one singular
    # face is the whole cone, with both diagonals summing to (1, 1, 0).  Times the k-dim orthant,
    # a face is a face of each factor, so the singular faces are those holding the conifold, and
    # the component is (1, 1, 0, ..., 0).  At k = 8 the face walk meets 10 * 2^8 faces.
    n = 3 + k
    square = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]
    rays = [r + (0,) * k for r in square] + [tuple(int(i == j) for j in range(n)) for i in range(3, n)]
    assert [c.point for c in sing_components(Cone(rays))] == [(1, 1) + (0,) * (n - 2)]


def test_sing_takes_one_parallelepiped_on_a_simplicial_chart(monkeypatch):
    import toricarcs.cones as cones
    import toricarcs.ideals as ideals

    # e1, (1, 2, 0, ...), e3..e12 is simplicial, so it is its own one simplex: one box of |det| = 2
    # points, no face-lattice walk, and no ray-sum scan
    n = 12
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays[1] = (1, 2) + (0,) * (n - 2)
    boxes = counting(monkeypatch, ideals, "_parallelepiped")
    walks = counting(monkeypatch, cones, "_face_keys")
    sing_walks = counting(monkeypatch, ideals, "_face_keys")
    assert [c.point for c in sing_components(Cone(rays))] == [(1, 1) + (0,) * (n - 2)]
    assert len(boxes) == 1 and walks == [] and sing_walks == []


def test_sing_default_budget_refuses_a_large_determinant_at_once():
    cone = Cone([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (1, 2, 3, 4, 10**9)])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="budget of 2048"):
        sing_components(cone)
    assert time.perf_counter() - start < 1.0


def test_contact_budget_counts_box_points(monkeypatch):
    import toricarcs.ideals as ideals

    # the orthant with the ideal (1, 1, 1) at p = 1: the box is [0, 2]^3, 27 points; its
    # compact faces, a triangle, three edges and three vertices, have boxes of 8 + 3 * 4 + 3
    orthant = monomial_ideal(Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), [(1, 1, 1)])
    monkeypatch.setattr(ideals, "MAX_CONTACT_BOX_POINTS", 27)
    assert [c.point for c in contact_components(orthant, 1)] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    monkeypatch.setattr(ideals, "MAX_CONTACT_BOX_POINTS", 26)
    with pytest.raises(ValueError, match="contact would scan 27 box points, more than the budget of 26"):
        contact_components(orthant, 1)
    monkeypatch.setattr(ideals, "MAX_CONTACT_BOX_POINTS", 23)
    assert compact_face_lattice_points(orthant, 1) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    monkeypatch.setattr(ideals, "MAX_CONTACT_BOX_POINTS", 22)
    with pytest.raises(ValueError, match="scan 23 box points, more than the budget of 22"):
        compact_face_lattice_points(orthant, 1)


def test_contact_default_budget_refuses_a_high_level_at_once():
    orthant = monomial_ideal(Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), [(1, 1, 1)])
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"{100002 ** 3} box points, more than the budget of 100000"):
        contact_components(orthant, 100000)
    with pytest.raises(ValueError, match="budget of 100000"):
        compact_face_lattice_points(orthant, 100000)
    assert time.perf_counter() - start < 1.0


def test_sing_equals_union_of_contact_components(a1, a2):
    # the singular-locus ideal of an A_n chart is the maximal ideal;
    # components over Sing X are the contact components over all p >= 1,
    # deduplicated by domination
    from toricarcs.cones import hilbert_basis_dual, leq_sigma

    for chart in (a1, a2):
        ideal = monomial_ideal(chart, [u.coords for u in hilbert_basis_dual(chart)])
        collected = []
        for p in range(1, 8):
            collected.extend(c.point for c in contact_components(ideal, p))
        kept = []
        for v in collected:
            dominated = any(
                w != v and leq_sigma(chart, nvec(*w), nvec(*v)) for w in collected
            )
            if not dominated:
                kept.append(v)
        assert sorted(kept) == [c.point for c in sing_components(chart)]


# -- orbit/contact compatibility ---------------------------------------------------------------


def test_orbit_contact_containment_exhaustive(a1, a1_max):
    # the extended order of a label equals p exactly when its monomial arc
    # meets the ideal at order p
    poset = orbit_poset(a1, 3)
    for node in poset.nodes:
        g = order_function(a1_max, node)
        if is_finite(g):
            arc = monomial_arc(node, max(g + 1, 8))
            arc_order = min(
                (s.t_order_generic() for u, s in arc.items()
                 if u in {x for x in a1_max.generators} and not s.is_zero()),
                default=None,
            )
            assert arc_order == g
        else:
            arc = monomial_arc(node, 8)
            assert all(
                arc[u].is_zero() for u in a1_max.generators
            )


def test_stratum_lifting_constructive(a1, a1_max):
    poset = orbit_poset(a1, 3)
    for node in poset.nodes:
        if node.face.is_zero:
            continue
        p = order_function(a1_max, node)
        if not is_finite(p) or p < 1:
            continue
        lifted = lift_to_open_stratum(a1_max, node)
        assert a1.contains(lifted)
        assert node.quotient.project(lifted).coords == node.point
        assert order_function(a1_max, lifted) == p


def test_stratum_lifting_on_the_open_stratum_is_the_point(a1, a1_max):
    lifted_any = False
    for node in orbit_poset(a1, 3).nodes:
        if not node.face.is_zero or not is_finite(order_function(a1_max, node)):
            continue
        lifted = lift_to_open_stratum(a1_max, node)
        assert lifted == nvec(*node.point)
        assert order_function(a1_max, lifted) == order_function(a1_max, node)
        lifted_any = True
    assert lifted_any


# -- toric valuations ------------------------------------------------------------------------------


def test_valuation_examples(a1):
    val = toric_valuation(a1, nvec(1, 1))
    assert toric_valuation_eval(val, [(1, (0, 1)), (1, (2, -1))]) == 1
    val2 = toric_valuation(a1, nvec(2, 1))
    assert toric_valuation_eval(val2, [(1, (0, 1)), (1, (1, 0))]) == 1
    assert toric_valuation_eval(val2, [(7, (1, 0))]) == 2


def test_valuation_primitive_decomposition(a1):
    val = toric_valuation(a1, nvec(2, 2))
    assert (val.e, val.v0) == (2, (1, 1))


def test_valuation_rejects_bad_input(a1):
    with pytest.raises(ValueError):
        toric_valuation(a1, nvec(0, 0))
    val = toric_valuation(a1, nvec(1, 1))
    with pytest.raises(ValueError):
        toric_valuation_eval(val, [])
    with pytest.raises(ValueError):
        toric_valuation_eval(val, [(0, (0, 1))])
    with pytest.raises(ValueError):
        toric_valuation_eval(val, [(1, (-1, 0))])


def test_valuation_agrees_with_arc_order(a1):
    # without coefficient cancellation the valuation is the t-order along
    # the label's monomial arc; with cancellation it is a lower bound
    label = orbit_label(a1, a1.zero_face(), (2, 1))
    arc = monomial_arc(label, 10)
    val = toric_valuation(a1, nvec(2, 1))
    terms = [(1, (0, 1)), (1, (1, 0))]
    series = arc[mvec(0, 1)] + arc[mvec(1, 0)]
    assert toric_valuation_eval(val, terms) == series.t_order_generic() == 1
    # cancellation: x - x has valuation bound 1 but the series vanishes
    cancel = arc[mvec(0, 1)] - arc[mvec(0, 1)]
    assert toric_valuation_eval(val, [(1, (0, 1)), (-1, (0, 1))]) == 1
    assert cancel.is_zero()


_QUADRANT = Cone([(1, 0), (0, 1)])
_IDEAL = monomial_ideal(_QUADRANT, [(2, 0), (0, 1)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: monomial_ideal(_QUADRANT, [(1.5, 0)]),
        lambda: order_function(_IDEAL, (2.5, 1)),
        lambda: is_minimal_in_contact(_IDEAL, 1, (0, 1.0)),
        lambda: toric_valuation(_QUADRANT, (1, 1.5)),
        lambda: toric_valuation_eval(toric_valuation(_QUADRANT, (1, 1)), [(1, (0.5, 1))]),
    ],
    ids=["monomial_ideal", "order_function", "is_minimal_in_contact", "toric_valuation", "toric_valuation_eval"],
)
def test_a_non_integer_point_or_exponent_raises_type_error(call):
    # int() would truncate: order_function(ideal, (2.5, 1)) used to answer at (2, 1)
    with pytest.raises(TypeError):
        call()
