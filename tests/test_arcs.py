import copy
import itertools
import pickle
import random
import sys

import pytest

from conftest import MAX_DRAWS, counting, draws, random_full_cone, random_smooth_cone
from oracles import (
    dominates_by_hom_order,
    dominates_by_image_cones,
    is_face_by_cone,
    orbit_poset_by_pairs,
    poset_nodes_by_image_cones,
    rank_fraction,
)

from toricarcs import cones
from toricarcs.arcs import (
    OrbitLabel,
    classify_hom,
    cylinder_level,
    dominance_witness,
    dominates,
    hom_from_label,
    monomial_arc,
    orbit_label,
    orbit_poset,
)
from toricarcs.cones import Cone, FaceRef, Fan, hilbert_basis_dual, is_face_of, is_smooth, quotient_by_face
from toricarcs.lattice import INF, is_finite, mvec, nvec, pairing, row_hermite
from toricarcs.series import TruncatedSeries


# -- classification of semigroup homomorphisms --------------------------------


def test_classify_hom_open_stratum(a1):
    label = classify_hom(a1, {(0, 1): 1, (1, 0): 1, (2, -1): 1})
    assert label.face.is_zero
    assert label.point == (1, 1)


def test_classify_hom_ray_stratum(a1):
    label = classify_hom(a1, {(0, 1): INF, (1, 0): INF, (2, -1): 0})
    assert label.face.key == ((1, 2),)
    assert label.point == (0,)


def test_classify_hom_rejects_relation_violation(a1):
    # (0,1) + (2,-1) = 2*(1,0) forces h(0,1) + h(2,-1) = 2 h(1,0)
    with pytest.raises(ValueError):
        classify_hom(a1, {(0, 1): 1, (1, 0): 0, (2, -1): 0})


def test_classify_hom_rejects_infinity_inside_finiteness_face(a1):
    # finiteness locus must be a face: (1,0) lies in the face spanned by the
    # finite generators (0,1), (2,-1), so INF there is inconsistent
    with pytest.raises(ValueError):
        classify_hom(a1, {(0, 1): 2, (1, 0): INF, (2, -1): 0})


def test_classify_hom_refuses_keys_from_the_other_lattice(a1):
    # the keys are characters: an N-side vector is refused, an M-side one or an int tuple read
    with pytest.raises(ValueError):
        classify_hom(a1, {nvec(0, 1): 1, nvec(1, 0): 1, nvec(2, -1): 1})
    label = classify_hom(a1, {mvec(0, 1): 1, mvec(1, 0): 1, mvec(2, -1): 1})
    assert label == classify_hom(a1, {(0, 1): 1, (1, 0): 1, (2, -1): 1})


def test_classify_hom_refuses_a_key_that_is_no_dual_generator(a1):
    # (1, 1) = (0, 1) + (1, 0) is no Hilbert generator, and 99 contradicts 1 + 1;
    # (-1, 0) is not even in the dual cone; neither may be ignored
    hom = {(0, 1): 1, (1, 0): 1, (2, -1): 1}
    for extra, value in [((1, 1), 99), ((-1, 0), 3)]:
        with pytest.raises(ValueError, match="are not dual Hilbert generators") as raised:
            classify_hom(a1, {**hom, extra: value})
        assert str(extra) in str(raised.value)
    # two keys naming one generator: neither may win silently
    with pytest.raises(ValueError, match="two keys name the character"):
        classify_hom(a1, {**hom, mvec(0, 1): 2})
    assert classify_hom(a1, hom).point == (1, 1)


def test_classify_hom_refuses_float_keys(a1):
    with pytest.raises(TypeError):
        classify_hom(a1, {(0.0, 1.0): 1, (1.0, 0.0): 1, (2.0, -1.0): 1})


def test_classify_hom_all_infinite(a1):
    label = classify_hom(a1, {(0, 1): INF, (1, 0): INF, (2, -1): INF})
    assert label.face.key == a1.key
    assert label.point == ()


def test_hom_from_label_examples(a1):
    label = orbit_label(a1, a1.zero_face(), (1, 1))
    assert hom_from_label(label).values == (1, 1, 1)
    top = orbit_label(a1, a1.full_face(), ())
    assert hom_from_label(top).values == (INF, INF, INF)
    # the ray (1, 2): its quotient's image cone is the ray -1; order_at is INF off its annihilator
    ray = orbit_label(a1, a1.face_from_indices([1]), (-1,))
    assert [ray.order_at(u) for u in hilbert_basis_dual(a1)] == [INF, INF, 1]
    assert hom_from_label(ray).values == (INF, INF, 1)


def test_hom_from_label_refuses_a_chart_off_the_stratum():
    c1 = Cone([(1, 0), (0, 1)])
    c2 = Cone([(0, 1), (-1, -1)])
    fan = Fan([c1, c2, Cone([(-1, -1), (1, 0)])])
    ray = next(f for f in fan.strata() if f.key == ((1, 0),))
    label = orbit_label(fan, ray, (0,))
    assert hom_from_label(label, c1).values == (0, INF)
    with pytest.raises(ValueError, match="does not contain the stratum"):
        hom_from_label(label, c2)
    # orders are read on int tuples, so a chart in a lattice of another rank is refused first
    zero = orbit_label(fan, c1.zero_face(), (1, 1))
    with pytest.raises(ValueError, match="does not contain the stratum"):
        hom_from_label(zero, Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    for chart in (fan, [c1], c1.key):
        with pytest.raises(TypeError, match="chart must be a Cone"):
            hom_from_label(label, chart)


def test_hom_from_label_refuses_a_chart_holding_the_rays_of_no_face():
    # the stratum is a 2-face of a triangle cone; on the conifold its two rays are a
    # diagonal, so the chart holds them but has no face with exactly those rays
    chart = Cone([(1, 0, 1), (-1, 0, 1), (0, 1, 1)])
    edge = next(f for f in chart.faces() if f.key == ((-1, 0, 1), (1, 0, 1)))
    label = orbit_label(chart, edge, (1,))
    assert hom_from_label(label).values == (INF, INF, 1, INF)
    with pytest.raises(ValueError, match="does not contain the stratum .* as a face"):
        hom_from_label(label, Cone(CONIFOLD))


def test_orbit_label_refuses_a_foreign_face():
    # ray sets of a chart that are not faces of it: two opposite conifold rays, and
    # three of the four rays of a conifold face, which span that face
    conifold = Cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    over = Cone([(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0), (0, 0, 0, 1)])
    cases = [
        (conifold, Cone([(1, 0, 1), (-1, 0, 1)]).full_face()),
        (over, Cone([(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0)]).full_face()),
    ]
    for chart, face in cases:
        for point in [(0,), (1,)]:
            with pytest.raises(ValueError, match="not a face of a chart"):
                orbit_label(chart, face, point)
    face = over.smallest_face_containing(cases[1][1].rays)
    assert len(face.key) == 4
    assert orbit_label(over, face, (1,)).face == face


def test_orbit_label_constructor_validates(a1):
    over = Cone([(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0), (0, 0, 0, 1)])
    not_a_face = Cone([(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0)]).full_face()
    # so dominates never sees these labels
    for point in [(1,), (2,)]:
        with pytest.raises(ValueError, match="not a face of a chart"):
            OrbitLabel(over, not_a_face, point)
    with pytest.raises(ValueError, match="point has 1 coordinates, expected 2"):
        OrbitLabel(a1, a1.zero_face(), (1,))
    # (-1, 0) pairs to -2 with the dual ray (2, -1) of A_1
    with pytest.raises(ValueError, match="point lies in no chart's image cone"):
        OrbitLabel(a1, a1.zero_face(), (-1, 0))
    with pytest.raises(ValueError, match="point lies in no chart's image cone"):
        OrbitLabel(a1, a1.face_from_indices([1]), (1,))
    assert orbit_label is OrbitLabel


def test_round_trip_exhaustive_small_values(a1):
    # every consistent hom with finite values <= 5 comes from a label and
    # classifies back to it; every other assignment is rejected
    consistent = {}
    for face in a1.faces():
        fq = quotient_by_face(a1, face)
        dim = fq.lattice.quotient_dim
        for point in itertools.product(range(-10, 11), repeat=dim):
            if not fq.image_cone.contains(nvec(*point)):
                continue
            label = orbit_label(a1, face, point)
            hom = hom_from_label(label)
            if all(not is_finite(v) or v <= 5 for v in hom.values):
                consistent[hom.values] = label
    assert len(consistent) > 20
    values_range = list(range(6)) + [INF]
    for assignment in itertools.product(values_range, repeat=3):
        if assignment in consistent:
            label = classify_hom(a1, assignment)
            expected = consistent[assignment]
            assert label.face.key == expected.face.key
            assert label.point == expected.point
        else:
            with pytest.raises(ValueError):
                classify_hom(a1, assignment)


# -- monomial arcs -------------------------------------------------------------


def test_monomial_arc_orders(a1):
    label = orbit_label(a1, a1.zero_face(), (2, 1))
    arc = monomial_arc(label, 8)
    assert {g.coords: s.t_order_generic() for g, s in arc.items()} == {
        (0, 1): 1,
        (1, 0): 2,
        (2, -1): 3,
    }


def test_monomial_arc_satisfies_binomial_relation(a1):
    label = orbit_label(a1, a1.zero_face(), (1, 1))
    arc = monomial_arc(label, 6)
    x, y, z = arc[mvec(0, 1)], arc[mvec(1, 0)], arc[mvec(2, -1)]
    assert x * z == y * y


def test_monomial_arc_on_ray_stratum(a1):
    face = a1.smallest_face_containing([nvec(1, 2)])
    label = orbit_label(a1, face, (0,))
    arc = monomial_arc(label, 4)
    assert arc[mvec(0, 1)].is_zero()
    assert arc[mvec(1, 0)].is_zero()
    assert arc[mvec(2, -1)].t_order_generic() == 0


def test_monomial_arc_relations_fuzz():
    rng = random.Random(3)
    for _ in range(5):
        c = Cone([(1, 0), (1, rng.choice([2, 3, 4]))])
        gens = hilbert_basis_dual(c)
        v = nvec(rng.randint(0, 3) + 1, rng.randint(0, 2))
        if not c.contains(v):
            continue
        label = orbit_label(c, c.zero_face(), v.coords)
        prec = 3 * max(pairing(v, g) for g in gens) + 1
        arc = monomial_arc(label, prec)
        one = arc[gens[0]] ** 0
        # check every kernel relation of the generator matrix
        _, U, _, rank = row_hermite([list(g.coords) for g in gens])
        for row in U[rank:]:
            pos = {g: k for g, k in zip(gens, row) if k > 0}
            neg = {g: -k for g, k in zip(gens, row) if k < 0}
            lhs = one
            for g, k in pos.items():
                lhs = lhs * arc[g] ** k
            rhs = one
            for g, k in neg.items():
                rhs = rhs * arc[g] ** k
            assert lhs == rhs


def test_cylinder_level(a1):
    assert cylinder_level(orbit_label(a1, a1.zero_face(), (1, 1))) == 1
    assert cylinder_level(orbit_label(a1, a1.zero_face(), (2, 1))) == 3
    assert cylinder_level(orbit_label(a1, a1.zero_face(), (0, 0))) == 0


def test_cylinder_level_rejects_nonzero_stratum(a1):
    face = a1.smallest_face_containing([nvec(1, 0)])
    with pytest.raises(ValueError):
        cylinder_level(orbit_label(a1, face, (1,)))


# -- dominance -----------------------------------------------------------------


def test_dominates_same_stratum(a1):
    zero = a1.zero_face()
    v = orbit_label(a1, zero, (1, 1))
    w = orbit_label(a1, zero, (2, 1))
    assert dominates(v, w)
    assert not dominates(w, v)


def test_dominates_cross_stratum(a1):
    face = a1.smallest_face_containing([nvec(1, 0)])
    upstairs = orbit_label(a1, a1.zero_face(), (3, 1))
    downstairs = orbit_label(a1, face, (1,))
    assert dominates(upstairs, downstairs)
    assert not dominates(downstairs, upstairs)


def test_dominates_incomparable(a1):
    zero = a1.zero_face()
    v = orbit_label(a1, zero, (1, 1))
    w = orbit_label(a1, zero, (1, 2))
    assert not dominates(v, w)
    assert not dominates(w, v)


def test_dominates_rejects_mixed_ambients(a1, quadrant):
    v = orbit_label(a1, a1.zero_face(), (1, 1))
    w = orbit_label(quadrant, quadrant.zero_face(), (1, 1))
    with pytest.raises(ValueError):
        dominates(v, w)


def test_dominance_implies_face_relation(a1):
    poset = orbit_poset(a1, 2)
    for i, j in poset.relation:
        tau = poset.nodes[i].face
        gamma = poset.nodes[j].face
        assert set(tau.indices) <= set(gamma.indices)


def test_dominance_transitive_across_strata(a1):
    poset = orbit_poset(a1, 2)
    rel = poset.relation
    for i, j in rel:
        for k, l in rel:
            if j == k:
                assert (i, l) in rel


def test_strata_closure_lifting(a1):
    # every orbit over a stratum is dominated by an orbit over each smaller
    # stratum with the same projected point
    from toricarcs.arcs import _stratum_quotient

    poset = orbit_poset(a1, 3)
    strata = {f.key: f for f in a1.faces()}
    for node in poset.nodes:
        tau = node.face
        if tau.is_zero:
            continue
        for gamma in a1.faces():
            if gamma.key == tau.key or not set(gamma.indices) <= set(tau.indices):
                continue
            q_gamma = _stratum_quotient(2, gamma.key)
            q_tau = _stratum_quotient(2, tau.key)
            # lift node.point into N_gamma staying over the same point
            w = q_gamma.project(q_tau.lift(node.point))
            interior = tau.rays[0]
            for r in tau.rays[1:]:
                interior = interior + r
            shift = q_gamma.project(interior)
            image = quotient_by_face(a1, gamma).image_cone
            k = 0
            while not image.contains(w + k * shift):
                k += 1
                assert k < 100
            upstairs = orbit_label(a1, gamma, (w + k * shift).coords)
            assert dominates(upstairs, node)
            assert q_tau.project(q_gamma.lift(upstairs.point)).coords == node.point


# -- orbit posets ----------------------------------------------------------------


def test_orbit_poset_quadrant_bound1(quadrant):
    poset = orbit_poset(quadrant, 1)
    zero_nodes = {n.point: i for i, n in enumerate(poset.nodes) if n.face.is_zero}
    assert sorted(zero_nodes) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    origin = zero_nodes[(0, 0)]
    for pt, idx in zero_nodes.items():
        if idx != origin:
            assert (origin, idx) in poset.relation


def test_orbit_poset_bound0_one_node_per_stratum(quadrant, a1):
    assert len(orbit_poset(quadrant, 0).nodes) == 4
    assert len(orbit_poset(a1, 0).nodes) == 4


def test_orbit_poset_a1_bound2_covers_are_hilbert_steps(a1):
    poset = orbit_poset(a1, 2)
    stratum0 = [n for n in poset.nodes if n.face.is_zero]
    assert len(stratum0) == 7
    steps = {(1, 0), (1, 1), (1, 2)}
    for i, j in poset.covers:
        a, b = poset.nodes[i], poset.nodes[j]
        if a.face.is_zero and b.face.is_zero:
            diff = tuple(x - y for x, y in zip(b.point, a.point))
            assert diff in steps


def test_orbit_poset_deterministic(quadrant):
    p1 = orbit_poset(quadrant, 2)
    p2 = orbit_poset(quadrant, 2)
    assert [n.point for n in p1.nodes] == [n.point for n in p2.nodes]
    assert p1.covers == p2.covers


def test_orbit_poset_over_fan():
    fan = Fan([Cone([(1, 0), (0, 1)]), Cone([(0, 1), (-1, 0)])])
    poset = orbit_poset(fan, 1)
    zero_points = {n.point for n in poset.nodes if n.face.is_zero}
    assert (-1, 1) in zero_points and (1, 1) in zero_points
    # no maximal cone contains both (1,0)- and (-1,0)-interior orbits jointly
    by_point = {n.point: k for k, n in enumerate(poset.nodes) if n.face.is_zero}
    assert (by_point[(1, 0)], by_point[(-1, 0)]) not in poset.relation


# -- deformation witnesses ----------------------------------------------------------


def test_witness_matches_deformation_formula(quadrant):
    # family for v=(1,1) -> v'=(2,1) is (t^2 + L t, t + L t)
    zero = quadrant.zero_face()
    wit = dominance_witness(
        orbit_label(quadrant, zero, (1, 1)), orbit_label(quadrant, zero, (2, 1))
    )
    assert wit.verified
    fam = dict(wit.family)
    P = wit.precision
    assert fam[(1, 0)] == TruncatedSeries({(2, 0): 1, (1, 1): 1}, P)
    assert fam[(0, 1)] == TruncatedSeries({(1, 0): 1, (1, 1): 1}, P)
    assert P == 5


def test_witness_reflexive_pair(quadrant):
    zero = quadrant.zero_face()
    label = orbit_label(quadrant, zero, (2, 3))
    wit = dominance_witness(label, label)
    assert wit.verified
    for _, series in wit.family:
        assert series.t_order_generic() == series.t_order_at_zero()


def test_witness_cross_stratum_vanishing(quadrant):
    # target on the stratum of ray (1,0): second character vanishes at 0
    zero = quadrant.zero_face()
    face = quadrant.smallest_face_containing([nvec(1, 0)])
    wit = dominance_witness(
        orbit_label(quadrant, zero, (1, 1)), orbit_label(quadrant, face, (1,))
    )
    assert wit.verified
    fam = dict(wit.family)
    assert fam[(0, 1)] == TruncatedSeries({(1, 0): 1, (1, 1): 1}, wit.precision)
    assert fam[(1, 0)] == TruncatedSeries({(1, 1): 1}, wit.precision)
    assert fam[(1, 0)].vanishes_at_zero()


def test_witness_requires_domination(quadrant):
    zero = quadrant.zero_face()
    with pytest.raises(ValueError):
        dominance_witness(
            orbit_label(quadrant, zero, (1, 1)), orbit_label(quadrant, zero, (0, 1))
        )


def test_witness_rejects_nonsmooth_chart(a1):
    zero = a1.zero_face()
    with pytest.raises(ValueError):
        dominance_witness(
            orbit_label(a1, zero, (1, 1)), orbit_label(a1, zero, (2, 1))
        )


def test_witness_rejects_too_small_precision(quadrant):
    zero = quadrant.zero_face()
    with pytest.raises(ValueError):
        dominance_witness(
            orbit_label(quadrant, zero, (1, 1)),
            orbit_label(quadrant, zero, (2, 1)),
            t_precision=4,
        )


def test_witness_lower_dimensional_smooth_chart():
    # smooth 1-dim cone in Z^2: torus-factor characters map to units
    ray = Cone([(1, 0)], 2)
    zero = ray.zero_face()
    wit = dominance_witness(
        orbit_label(ray, zero, (1, 0)), orbit_label(ray, zero, (3, 0))
    )
    assert wit.verified
    chars = {char for char, _ in wit.family}
    assert len(chars) == 3  # cone character plus a unit pair
    fam = dict(wit.family)
    unit_char = next(c for c in chars if fam[c].t_order_generic() == 0 and c[0] >= 0)
    inv_char = tuple(-x for x in unit_char)
    product = fam[unit_char] * fam[inv_char]
    assert product == TruncatedSeries.monomial(0, t_precision=wit.precision)
    # no series grows with the precision
    wit = dominance_witness(
        orbit_label(ray, zero, (1, 0)), orbit_label(ray, zero, (3, 0)), t_precision=10**5
    )
    assert wit.verified and wit.precision == 10**5
    assert all(len(series.terms) <= 2 for _, series in wit.family)


def test_witness_fuzz_over_strata_of_smooth_charts():
    rng = random.Random(13)
    seen = set()
    for _ in range(40):
        dim = rng.randint(2, 4)
        # any nonempty subset of a lattice basis spans a smooth chart
        basis = [r.coords for r in random_smooth_cone(rng, dim).rays]
        chart = Cone(rng.sample(basis, rng.randint(1, dim)), dim)
        faces = chart.faces()
        gamma = rng.choice(faces)
        tau = rng.choice([f for f in faces if is_face_of(f, gamma)])
        combo = lambda: sum((rng.randint(0, 3) * r for r in chart.rays), nvec(*(0,) * dim))
        w, s = combo(), combo()
        q_tau = quotient_by_face(chart, tau).lattice
        q_gamma = quotient_by_face(chart, gamma).lattice
        o1 = orbit_label(chart, tau, q_tau.project(w).coords)
        o2 = orbit_label(chart, gamma, q_gamma.project(w + s).coords)
        assert dominates(o1, o2)
        wit = dominance_witness(o1, o2)
        assert wit.verified, (chart, o1, o2)
        fam = dict(wit.family)
        for char in fam:
            assert all(pairing(r, mvec(*char)) == 0 for r in tau.rays)
            inverse = tuple(-x for x in char)
            if inverse in fam:
                product = fam[char] * fam[inverse]
                assert product == TruncatedSeries.monomial(0, t_precision=wit.precision)
        seen.add((len(chart.rays) < dim, not tau.is_zero))
    # full and lower-dimensional charts, zero and nonzero source strata
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_witness_agreement_fuzz():
    rng = random.Random(17)
    for _ in range(30):
        dim = rng.choice([2, 3])
        cone = random_smooth_cone(rng, dim)
        image = cone
        pts = []
        while len(pts) < 2:
            v = tuple(rng.randint(0, 4) for _ in range(dim))
            combo = nvec(*(0,) * dim)
            for r in cone.rays:
                combo = combo + rng.randint(0, 2) * r
            if cone.contains(combo):
                pts.append(combo)
        base = pts[0]
        step = pts[1]
        o1 = orbit_label(cone, cone.zero_face(), base.coords)
        o2 = orbit_label(cone, cone.zero_face(), (base + step).coords)
        assert dominates(o1, o2)
        wit = dominance_witness(o1, o2)
        assert wit.verified


def test_classify_hom_three_dim_two_dim_stratum():
    # cone over a square; the finiteness face is the facet spanned by two rays
    c = Cone([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
    gens = hilbert_basis_dual(c)
    # characters vanishing on the facet spanned by (1,0,0),(1,0,1) stay finite
    facet = c.smallest_face_containing([nvec(1, 0, 0), nvec(1, 0, 1)])
    target = orbit_label(c, facet, (2,))
    hom = hom_from_label(target)
    label = classify_hom(c, hom)
    assert label.face.key == facet.key
    assert label.point == (2,)


def test_witness_over_fan_selects_smooth_chart():
    # the chart search must land on the smooth cone of the fan
    smooth = Cone([(0, 1), (1, 0)])
    singular = Cone([(1, 0), (1, -2)])
    fan = Fan([smooth, singular])
    zero = smooth.zero_face()
    o1 = orbit_label(fan, zero, (1, 1))
    o2 = orbit_label(fan, zero, (2, 1))
    wit = dominance_witness(o1, o2)
    assert wit.verified
    assert wit.chart.key == smooth.key


def test_witness_over_fan_unsupported_when_only_singular_chart_fits():
    smooth = Cone([(0, 1), (1, 0)])
    singular = Cone([(1, 0), (1, -2)])
    fan = Fan([smooth, singular])
    zero = smooth.zero_face()
    o1 = orbit_label(fan, zero, (1, -1))
    o2 = orbit_label(fan, zero, (2, -1))
    assert dominates(o1, o2)
    with pytest.raises(ValueError):
        dominance_witness(o1, o2)


def test_dominates_over_fan_uses_any_common_chart():
    smooth = Cone([(0, 1), (1, 0)])
    singular = Cone([(1, 0), (1, -2)])
    fan = Fan([smooth, singular])
    zero = smooth.zero_face()
    # comparable inside the singular chart only
    o1 = orbit_label(fan, zero, (1, -1))
    o2 = orbit_label(fan, zero, (2, -2))
    assert dominates(o1, o2)
    # not comparable in any chart: difference leaves both cones
    o3 = orbit_label(fan, zero, (0, 1))
    assert not dominates(o1, o3)


def test_orbit_poset_complete_fan():
    # complete fan with three maximal cones covering the plane
    c1 = Cone([(1, 0), (0, 1)])
    c2 = Cone([(0, 1), (-1, -1)])
    c3 = Cone([(-1, -1), (1, 0)])
    fan = Fan([c1, c2, c3])
    assert len(fan.strata()) == 7  # origin, three rays, three maximal cones
    poset = orbit_poset(fan, 1)
    stratum0 = [n for n in poset.nodes if n.face.is_zero]
    # the fan is complete: every box point labels an orbit over the open stratum
    assert len(stratum0) == 9
    ray_nodes = [n for n in poset.nodes if len(n.face.key) == 1]
    full_nodes = [n for n in poset.nodes if len(n.face.key) == 2]
    assert len(ray_nodes) == 9  # each ray quotient meets the box in 3 points
    assert len(full_nodes) == 3
    # antisymmetry of the global relation
    for i, j in poset.relation:
        assert (j, i) not in poset.relation
    # the origin dominates every open-stratum orbit sharing a chart
    by_point = {n.point: k for k, n in enumerate(poset.nodes) if n.face.is_zero}
    origin = by_point[(0, 0)]
    for pt, idx in by_point.items():
        if pt != (0, 0):
            assert (origin, idx) in poset.relation
    # orbits in opposite charts with no common cone are incomparable
    assert (by_point[(1, 1)], by_point[(-1, 0)]) not in poset.relation


def test_orbit_poset_equal_for_equal_fans():
    fan_a = Fan([Cone([(1, 0), (0, 1)]), Cone([(0, 1), (-1, 0)])])
    fan_b = Fan([Cone([(0, 1), (-1, 0)]), Cone([(1, 0), (0, 1)])])
    pa = orbit_poset(fan_a, 1)
    pb = orbit_poset(fan_b, 1)
    assert [(n.face.key, n.point) for n in pa.nodes] == [
        (n.face.key, n.point) for n in pb.nodes
    ]
    assert pa.covers == pb.covers


def test_orbit_poset_budget_counts_box_points_per_stratum_and_chart(a1, monkeypatch):
    import toricarcs.arcs as arcs

    # A_1: one chart; (2b+1)^2 for the open stratum, 2b+1 per ray, 1 for the full face
    monkeypatch.setattr(arcs, "MAX_POSET_BOX_POINTS", 64)
    assert len(orbit_poset(a1, 3).nodes) == 21
    with pytest.raises(ValueError, match="100 box points, more than the budget of 64"):
        orbit_poset(a1, 4)
    # upper half plane: the open stratum and the shared ray lie in both charts
    fan = Fan([Cone([(1, 0), (0, 1)]), Cone([(0, 1), (-1, 0)])])
    monkeypatch.setattr(arcs, "MAX_POSET_BOX_POINTS", 2 * 9 + 4 * 3 + 2)
    assert orbit_poset(fan, 1).nodes
    monkeypatch.setattr(arcs, "MAX_POSET_BOX_POINTS", 2 * 9 + 4 * 3 + 1)
    with pytest.raises(ValueError, match="32 box points"):
        orbit_poset(fan, 1)


def test_orbit_poset_weighs_its_strata_before_any_quotient(monkeypatch):
    import toricarcs.arcs as arcs

    quotients = counting(monkeypatch, arcs, "_stratum_quotient")
    charts = counting(monkeypatch, arcs, "_charts_over")
    orthant = Cone([tuple(int(i == j) for j in range(10)) for i in range(10)])
    message = "orbit poset at bound 0 would scan at least 1024 box points, more than the budget of 512"
    with pytest.raises(ValueError, match=message):
        orbit_poset(orthant, 0)
    assert quotients == [] and charts == []


def test_orbit_poset_default_budget_refuses_a_large_bound_at_once(a1):
    with pytest.raises(ValueError, match="budget of 512"):
        orbit_poset(a1, 11)


@pytest.mark.parametrize("bound", [1.5, "2", None, 2.0, True, False])
def test_orbit_poset_refuses_a_bound_that_is_not_an_int_before_the_face_walk(bound, monkeypatch):
    import toricarcs.arcs as arcs

    walked = counting(monkeypatch, cones, "_face_keys")
    quotients = counting(monkeypatch, arcs, "_stratum_quotient")
    chart = Cone([(1, 0, 0), (0, 1, 0), (1, 1, 2)])
    with pytest.raises(TypeError, match=f"bound must be an int, got {bound!r}"):
        orbit_poset(chart, bound)
    assert walked == [] and quotients == []


@pytest.mark.parametrize("n", [4, 6, 8])
def test_orbit_poset_of_an_orthant_at_bound_0_is_its_face_lattice(n):
    # At bound 0 each stratum's box is its origin, which lies in the chart's
    # image, so there is one node per face: 2^n subsets of the n rays.  The
    # node of a face tau has order INF on e_i* for e_i in tau and 0 on the
    # other e_i*, so 0 <= a <= b pointwise iff tau is inside gamma: the
    # relation is strict face inclusion, 3^n ordered pairs tau <= gamma (each
    # ray in neither, in gamma only, or in both) less the 2^n equal ones.  A
    # cover adds one ray to tau, n - |tau| ways, n 2^(n-1) in all.
    orthant = Cone([tuple(int(i == j) for j in range(n)) for i in range(n)])
    poset = orbit_poset(orthant, 0)
    assert len(poset.nodes) == 2**n
    assert len(poset.relation) == 3**n - 2**n
    assert len(poset.covers) == n * 2 ** (n - 1)
    faces = [set(node.face.indices) for node in poset.nodes]
    assert poset.relation == {(i, j) for i, a in enumerate(faces) for j, b in enumerate(faces) if a < b}
    assert all(len(faces[j] - faces[i]) == 1 for i, j in poset.covers)


@pytest.mark.parametrize("d,b", [(2, 3), (3, 2), (4, 1), (2, 5), (5, 1), (6, 1), (4, 2)])
def test_orbit_poset_of_an_orthant_has_its_closed_form_counts(d, b, monkeypatch):
    # A node's hom on e_i* is v_i or INF, so each coordinate runs over the chain
    # 0 < 1 < ... < b < INF of b + 2 values, and dominance is the product order:
    # (b+2)^d nodes, ((b+2)(b+3)/2)^d ordered pairs x <= y less the equal ones, and
    # a cover raises one coordinate by one step, d (b+1) (b+2)^(d-1) ways.  The
    # boxes of the faces with k rays hold (2b+1)^(d-k) points each, (2b+2)^d in all,
    # which is the budget set here.  The nodes of such a face are the (b+1)^(d-k)
    # points of [0, b]^(d-k), each finite on d - k dual keys of the one chart, so the
    # relation makes sum_k C(d, k) (b+1)^(d-k) (d-k) prefix lookups, as many as covers.
    import toricarcs.arcs as arcs

    monkeypatch.setattr(arcs, "MAX_POSET_BOX_POINTS", (2 * b + 2) ** d)
    lookups = counting(monkeypatch, arcs, "bisect_right")
    orthant = Cone([tuple(int(i == j) for j in range(d)) for i in range(d)])
    poset = orbit_poset(orthant, b)
    assert len(poset.nodes) == (b + 2) ** d
    assert len(poset.relation) == ((b + 2) * (b + 3) // 2) ** d - (b + 2) ** d
    assert len(poset.covers) == len(lookups) == d * (b + 1) * (b + 2) ** (d - 1)


# -- dominance and face tests against independent oracles ----------------------

CONIFOLD = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
HEXAGON = [(1, 0, 1), (1, 1, 1), (0, 1, 1), (-1, 0, 1), (-1, -1, 1), (0, -1, 1)]
SQUARE_OVER_EDGE = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]

# (ambient, bound): non-simplicial cones first, then simplicial ones
ORACLE_CONES = [
    pytest.param(Cone(CONIFOLD), 1, id="conifold"),
    pytest.param(Cone(HEXAGON), 1, id="hexagon"),
    pytest.param(Cone(SQUARE_OVER_EDGE), 1, id="square_over_edge"),
    pytest.param(Cone([(1, 0), (1, 2)]), 3, id="a1"),
    pytest.param(Cone([(1, 0, 0), (0, 1, 0), (1, 2, 7)]), 1, id="simplicial_3d"),
]
ORACLE_FANS = [
    pytest.param(
        Fan([Cone(CONIFOLD), Cone([(1, 0, 1), (0, 1, 1), (1, 1, 0)])]), 1, id="conifold_fan"
    ),
    pytest.param(
        Fan([Cone([(1, 0), (0, 1)]), Cone([(0, 1), (-1, -1)]), Cone([(-1, -1), (1, 0)])]),
        1,
        id="p2_fan",
    ),
]


def _random_ambients(seed=14, count=10):
    """Seeded random cones in Z^2..Z^4 with 1 to dim + 1 generators, so
    lower-dimensional ones among them; see draws."""
    rng = random.Random(seed)
    out = []
    for _ in draws("_random_ambients"):
        if len(out) == count:
            return out
        dim = rng.choice([2, 3, 4])
        gens = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, dim + 1))]
        try:
            cone = Cone(gens, dim)
        except ValueError:
            continue
        if cone.rays:
            out.append(pytest.param(cone, 1, id=f"random_{len(out)}"))


LOWER_DIMENSIONAL = [
    pytest.param(Cone([(1, 0)], 2), 2, id="ray_in_z2"),
    pytest.param(Cone([(1, 0, 0), (1, 2, 0)]), 1, id="a1_in_z3"),
]
RANDOM_CONES = _random_ambients()
# the hom-order oracle reads the dual Hilbert basis, which only full-dimensional charts have
HOM_ORDER_AMBIENTS = ORACLE_CONES + ORACLE_FANS + [p for p in RANDOM_CONES if p.values[0].is_full_dimensional()]
IMAGE_CONE_AMBIENTS = ORACLE_CONES + ORACLE_FANS + LOWER_DIMENSIONAL + RANDOM_CONES


@pytest.mark.parametrize("ambient,bound", HOM_ORDER_AMBIENTS)
def test_dominates_matches_the_hom_order_oracle(ambient, bound):
    nodes = orbit_poset(ambient, bound).nodes
    pairs = [(a, b, dominates(a, b)) for a in nodes for b in nodes]
    assert any(holds for a, b, holds in pairs if a != b)
    assert [(a, b) for a, b, holds in pairs if holds != dominates_by_hom_order(a, b)] == []


def _oracle_faces():
    """Faces grouped by ambient rank: of the oracle cones, of the oracle fans'
    charts, and of two cones that cut across the conifold (its diagonal and
    half of it), whose rays are conifold rays without spanning a face."""
    cones = [p.values[0] for p in ORACLE_CONES]
    cones += [c for p in ORACLE_FANS for c in p.values[0].maximal_cones]
    cones += [Cone([(1, 0, 1), (-1, 0, 1)]), Cone([(1, 0, 1), (0, 1, 1), (-1, 0, 1)])]
    groups = {}
    for cone in cones:
        groups.setdefault(cone.dim_ambient, []).extend(cone.faces())
    return list(groups.values())


def test_is_face_of_matches_the_cone_rebuilding_oracle():
    for group in _oracle_faces():
        for sub, sup in itertools.product(group, repeat=2):
            assert is_face_of(sub, sup) == is_face_by_cone(sub, sup), (sub.key, sup.key)


def test_is_face_of_builds_no_cone(monkeypatch):
    groups = _oracle_faces()
    built = counting(monkeypatch, Cone, "__init__")
    for group in groups:
        for sub, sup in itertools.product(group, repeat=2):
            is_face_of(sub, sup)
    assert built == []


def test_image_cone_ambients_include_lower_dimensional_random_cones():
    random_cones = [p.values[0] for p in RANDOM_CONES]
    assert {c.dim_ambient for c in random_cones} == {2, 3, 4}
    assert sum(not c.is_full_dimensional() for c in random_cones) >= 4


@pytest.mark.parametrize("ambient,bound", IMAGE_CONE_AMBIENTS)
def test_orbits_match_the_image_cone_oracle(ambient, bound):
    nodes = orbit_poset(ambient, bound).nodes
    assert [(n.face.key, n.point) for n in nodes] == poset_nodes_by_image_cones(ambient, bound)
    pairs = [(a, b, dominates(a, b)) for a in nodes for b in nodes]
    assert [(a, b) for a, b, holds in pairs if holds != dominates_by_image_cones(a, b)] == []
    # a label is accepted iff its point lies in some chart's image cone
    strata = ambient.faces() if isinstance(ambient, Cone) else ambient.strata()
    accepted = []
    for face in strata:
        dim = ambient.dim_ambient - rank_fraction(face.key)
        for point in itertools.product(range(-2, 3), repeat=dim):
            try:
                orbit_label(ambient, face, point)
            except ValueError as err:
                assert str(err) == "point lies in no chart's image cone for this stratum"
            else:
                accepted.append((face.key, point))
    assert accepted == poset_nodes_by_image_cones(ambient, 2)


# IMAGE_CONE_AMBIENTS holds every ambient of HOM_ORDER_AMBIENTS
@pytest.mark.parametrize("ambient,bound", IMAGE_CONE_AMBIENTS)
def test_orbit_poset_matches_the_pairwise_oracle(ambient, bound):
    poset = orbit_poset(ambient, bound)
    nodes, relation, covers = orbit_poset_by_pairs(ambient, bound)
    assert poset.nodes == nodes
    assert poset.relation == relation
    assert poset.covers == covers


@pytest.mark.parametrize("ambient", [p.values[0] for p in ORACLE_CONES + ORACLE_FANS + LOWER_DIMENSIONAL])
def test_orbit_poset_reads_each_hom_once_per_chart_and_calls_no_pairwise_test(ambient, monkeypatch):
    import toricarcs.arcs as arcs
    from toricarcs.lattice import QuotientLattice

    dominance_tests = counting(monkeypatch, arcs, "dominates")
    face_tests = counting(monkeypatch, Cone, "_is_face")
    pushes = counting(monkeypatch, QuotientLattice, "push_dual")
    duals = counting(monkeypatch, Cone, "dual_generator_list")
    reads = counting(monkeypatch, arcs, "_chart_rows")
    poset = orbit_poset(ambient, 1)
    assert dominance_tests == face_tests == pushes == duals == [] and poset.relation
    charts = ambient.maximal_cones if isinstance(ambient, Fan) else (ambient,)
    strata = {}
    for node in poset.nodes:
        strata.setdefault(node.face, []).append(node.point)
    # the points of a stratum's nodes are read once per chart over it, in one call
    over = {face: sum(1 for c in charts if all(map(c.contains, face.rays))) for face in strata}
    wanted = sorted(tuple(points) for face, points in strata.items() for _ in range(over[face]))
    assert sorted(tuple(args[0]) for args in reads) == wanted


@pytest.mark.parametrize("ambient,bound", ORACLE_CONES + ORACLE_FANS + LOWER_DIMENSIONAL)
def test_orbit_poset_makes_one_prefix_lookup_per_node_chart_and_finite_key(ambient, bound, monkeypatch):
    import toricarcs.arcs as arcs

    lookups = counting(monkeypatch, arcs, "bisect_right")
    poset = orbit_poset(ambient, bound)
    finite = [arcs._stratum(ambient, node.face)[2] for node in poset.nodes]
    assert len(lookups) == sum(len(positions) for charts in finite for positions in charts.values())


def test_orbit_layer_builds_no_cone(monkeypatch):
    # a smooth chart no other test builds, so no image cone of it is cached anywhere
    chart = Cone([(1, 0, 0), (3, 1, 0), (2, 5, 1)])
    ray = chart.face_from_indices([0])
    # the sum of the rays, that sum plus the ray (1, 0, 0), and its image (6, 1) in N_ray
    points = [(6, 6, 1), (7, 6, 1)]
    built = counting(monkeypatch, Cone, "__init__")
    low, high = (orbit_label(chart, chart.zero_face(), p) for p in points)
    on_ray = orbit_label(chart, ray, (6, 1))
    assert dominates(low, high) and dominates(low, on_ray) and not dominates(on_ray, low)
    assert dominance_witness(low, high).verified
    assert len(orbit_poset(chart, 1).nodes) > 1
    assert built == []


def test_orbit_labels_and_dominance_build_no_face_lattice(monkeypatch):
    chart = Cone(CONIFOLD)
    walked = counting(monkeypatch, cones, "_face_keys")
    zero, full = chart.zero_face(), chart.full_face()
    edge = chart.face_from_indices([0, 1])
    o1, o2 = orbit_label(chart, zero, (0, 0, 0)), orbit_label(chart, edge, (1,))
    assert dominates(o1, o2) and not dominates(o2, o1)
    assert orbit_label(chart, full, ()).face == full
    assert walked == []
    # the 20-dim orthant has 2^20 faces; a label on it and a witness read none of them
    orthant = Cone([tuple(int(i == j) for j in range(20)) for i in range(20)])
    o1 = orbit_label(orthant, orthant.zero_face(), (1,) * 20)
    o2 = orbit_label(orthant, orthant.zero_face(), (2,) * 20)
    assert dominates(o1, o2) and dominance_witness(o1, o2).verified
    assert walked == []


def test_hom_from_label_and_a_face_quotient_build_no_ray_vector():
    # both read the chart's int keys: neither forces the lazy LatticeVectors of its rays
    chart = Cone([(1, 0, 0), (1, 3, 0), (2, 1, 4)])
    ray = chart.face_from_indices([0])
    label = orbit_label(chart, ray, (1, 1))
    assert hom_from_label(label, chart) == hom_from_label(label)
    assert quotient_by_face(chart, ray).image_cone.dim_ambient == 2
    assert chart._rays is None
    # a chart that misses the stratum's ray is refused by the same int test
    other = Cone([(0, 1, 0), (0, 0, 1), (1, 1, 1)])
    with pytest.raises(ValueError, match="does not contain the stratum"):
        hom_from_label(label, other)
    assert other._rays is None


def test_order_at_refuses_a_bad_character_on_the_zero_face(a1):
    label = orbit_label(a1, a1.zero_face(), (1, 1))
    assert label.order_at(mvec(2, -1)) == 1
    for bad in [nvec(2, -1), mvec(2, -1, 0)]:
        with pytest.raises(ValueError):
            label.order_at(bad)


def _refuse(gens, dim=None):
    raise ValueError("every draw fails")


def _no_rays(gens, dim=None):
    return cones.Cone([], dim)  # cones.Cone: the test patches this module's Cone


@pytest.mark.parametrize("fake", [_refuse, _no_rays], ids=["raises", "drops_every_ray"])
def test_random_samplers_raise_a_named_error_instead_of_hanging(fake, monkeypatch):
    for sampler in (random_full_cone, _random_ambients):
        monkeypatch.setitem(sampler.__globals__, "Cone", fake)
    with pytest.raises(RuntimeError, match=f"^random_full_cone: .* {MAX_DRAWS} draws"):
        random_full_cone(random.Random(0), 3)
    with pytest.raises(RuntimeError, match=f"^_random_ambients: .* {MAX_DRAWS} draws"):
        _random_ambients()


@pytest.mark.parametrize(
    "ambient", [ORACLE_FANS[0].values[0], LOWER_DIMENSIONAL[1].values[0]], ids=["conifold_fan", "a1_in_z3"]
)
def test_orbit_hot_paths_make_no_pairing_call_and_build_each_key_once(ambient, monkeypatch):
    import toricarcs

    modules = [toricarcs] + [getattr(toricarcs, m) for m in ("lattice", "cones", "arcs", "ideals")]
    pairings = [counting(monkeypatch, m, "pairing") for m in modules if hasattr(m, "pairing")]
    charts = ambient.maximal_cones if isinstance(ambient, Fan) else (ambient,)
    nodes = orbit_poset(ambient, 1).nodes
    assert [orbit_label(ambient, n.face, n.point) for n in nodes] == list(nodes)
    assert any(dominates(a, b) for a in nodes for b in nodes if a != b)
    assert sum(map(len, pairings)) == 0
    for chart in charts:
        assert chart.dual_generator_list() is chart.dual_generator_list()
    assert all(n.face.key is n.face.key for n in nodes)
    # the public order_at still reads the same hom, through its checks
    zero = nodes[0]
    assert [zero.order_at(u) for u in charts[0].dual_generator_list()] == list(map(zero._order, charts[0]._dual_keys))


def test_labels_build_each_stratum_record_once_and_dominates_makes_no_face_test(monkeypatch):
    # at most three nodes per stratum of the conifold: 24 labels on its 10 faces,
    # read off a twin of the chart, so the chart itself starts with no record
    per_face = {}
    for node in orbit_poset(Cone(CONIFOLD), 1).nodes:
        per_face.setdefault(node.face.indices, []).append(node.point)
    wanted = [(face, point) for face, points in per_face.items() for point in points[:3]]
    assert len(wanted) == 24 and len(per_face) == 10
    chart = Cone(CONIFOLD)
    containment = counting(monkeypatch, Cone, "_holds")
    face_tests = counting(monkeypatch, Cone, "_is_face")
    face_checks = counting(monkeypatch, Cone, "_face_at")
    labels = [orbit_label(chart, chart.face_from_indices(face), point) for face, point in wanted]
    keys = sorted({label.face.key for label in labels})
    # one record per face key: the chart is the ambient, so one face test, one _face_at check
    # and no containment walk
    assert sorted(key for _, key in face_tests) == sorted(points for _, points in face_checks) == keys
    assert containment == []
    assert sorted(chart._strata) == keys
    face_tests.clear()
    face_checks.clear()
    again = [orbit_label(chart, label.face, label.point) for label in labels]
    assert again == labels
    answers = [dominates(a, b) for a in labels for b in labels]
    assert any(answers) and not all(answers) and len(answers) == 576
    assert containment == [] and face_tests == [] and face_checks == []


def test_labels_and_dominance_after_a_poset_read_its_records(monkeypatch):
    # the poset keeps the record of each stratum it walks on the ambient
    chart = Cone(CONIFOLD)
    nodes = orbit_poset(chart, 1).nodes
    assert sorted(chart._strata) == sorted({n.face.key for n in nodes})
    containment = counting(monkeypatch, Cone, "_holds")
    face_tests = counting(monkeypatch, Cone, "_is_face")
    labels = [orbit_label(chart, n.face, n.point) for n in nodes]
    assert labels == list(nodes)
    answers = [dominates(a, b) for a in labels for b in labels]
    assert any(answers) and not all(answers)
    assert containment == [] and face_tests == []
    assert sorted(chart._strata) == sorted({n.face.key for n in nodes})


def test_labels_of_one_orbit_are_equal_whichever_chart_built_them():
    # the ray (1, 1) is a face of both charts; the label keeps the first chart's face
    fan = Fan([Cone([(1, 0), (1, 1)]), Cone([(1, 1), (0, 1)])])
    first, second = [orbit_label(fan, chart.face_from_indices([1]), (1,)) for chart in fan.maximal_cones]
    assert dominates(first, second) and dominates(second, first)
    assert first == second and hash(first) == hash(second)
    assert first.face.parent is second.face.parent is fan.maximal_cones[0]
    nodes = set(orbit_poset(fan, 1).nodes)
    assert first in nodes and second in nodes
    assert second.face in fan.strata()


def test_orbit_label_refuses_an_m_side_point():
    c = Cone([(1, 0), (1, 2)])
    with pytest.raises(ValueError, match="expected an N-side vector, got an M-side one"):
        orbit_label(c, c.zero_face(), mvec(1, 1))
    assert orbit_label(c, c.zero_face(), nvec(1, 1)) == orbit_label(c, c.zero_face(), (1, 1))


def test_a_label_on_a_non_face_raises_again_and_stores_no_record(monkeypatch):
    import toricarcs.arcs as arcs

    # two opposite rays of the conifold span no face
    chart = Cone(CONIFOLD)
    face = FaceRef(chart, (0, 3))
    assert not is_face_of(face, chart.full_face())
    face_checks = counting(monkeypatch, Cone, "_face_at")
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match="not a face of a chart") as raised:
            orbit_label(chart, face, (0,))
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert [points for _, points in face_checks] == [face.key] * 2 and face.key not in chart._strata
    # a ray no chart holds is no stratum of the ambient either; it used to be
    # refused point by point, as if the stratum were one
    outside = Cone([(0, 0, -1)]).full_face()
    with pytest.raises(ValueError, match="not a face of a chart"):
        orbit_label(chart, outside, (0, 0))
    assert outside.key not in chart._strata


def test_copies_of_an_ambient_are_equal_and_start_with_no_record():
    chart = Cone(CONIFOLD)
    fan = Fan([chart, Cone([(1, 0, 1), (0, 1, 1), (1, 1, 0)])])
    for ambient in (chart, fan):
        orbit_label(ambient, chart.zero_face(), (0, 0, 1))
        assert ambient._strata
        for twin in (copy.deepcopy(ambient), pickle.loads(pickle.dumps(ambient))):
            assert twin == ambient and hash(twin) == hash(ambient)
            assert twin._strata == {}


@pytest.mark.parametrize(
    "ambient",
    [
        Cone([(1, 0), (1, 3)]),
        Cone(CONIFOLD),
        Fan([Cone([(1, 0), (0, 1)]), Cone([(0, 1), (-1, 1)]), Cone([(-1, 1), (-1, -2)]), Cone([(-1, -2), (1, 0)])]),
    ],
    ids=["a2", "conifold", "fan_2d"],
)
def test_dominates_by_the_per_chart_rule_matches_the_poset(ambient):
    # dominates reads one pair by the per-chart rule that orbit_poset reads for all its nodes
    poset = orbit_poset(ambient, 1)
    nodes = poset.nodes
    assert len({n.face for n in nodes}) > 3
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            assert dominates(a, b) == ((i, j) in poset.relation or i == j), (a, b)


def test_orbit_label_refuses_a_non_integer_point_and_a_stratum_of_another_rank():
    # int() would truncate: (1.7, 2.2) used to be the point (1, 2)
    c = Cone([(1, 0), (1, 2)])
    with pytest.raises(TypeError):
        orbit_label(c, c.zero_face(), (1.7, 2.2))
    assert orbit_label(c, c.zero_face(), (1, 2)).point == (1, 2)
    # the hom reads zip int tuples, so the ranks are compared before any is read
    orthant = Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ValueError, match="different ranks"):
        orbit_label(c, orthant.zero_face(), (1, 1, 1))


def test_dominance_witness_eliminates_each_chart_once_in_integers(quadrant, a1, monkeypatch):
    # one row_hermite call per chart, over the chart's lifetime, both tests smoothness and
    # gives the dual basis, which the chart keeps; the charts are walked once per witness,
    # also to choose the error message
    import toricarcs.arcs as arcs

    calls = []

    def counted(matrix):
        calls.append(matrix)
        return row_hermite(matrix)

    binders = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "toricarcs"]
    binders = [m for m in binders if getattr(m, "row_hermite", None) is row_hermite]
    assert binders
    for module in binders:
        monkeypatch.setattr(module, "row_hermite", counted)
    walks = counting(monkeypatch, arcs, "_dominance_charts")
    zero = quadrant.zero_face()
    o1, o2 = orbit_label(quadrant, zero, (1, 1)), orbit_label(quadrant, zero, (2, 1))
    calls.clear()
    witness = dominance_witness(o1, o2)
    assert witness.verified and len(calls) == 1 and len(walks) == 1
    assert dominance_witness(o1, o2) == witness and is_smooth(quadrant) and len(calls) == 1
    coefficients = [c for _, s in witness.family for c in s.terms.values()]
    coefficients += [c for s in monomial_arc(o2).values() for c in s.terms.values()]
    assert coefficients and {type(c) for c in coefficients} == {int}
    # a1 is not smooth: one chart tried, one walk, and the message of a domination
    b1, b2 = orbit_label(a1, a1.zero_face(), (1, 1)), orbit_label(a1, a1.zero_face(), (2, 1))
    calls.clear()
    walks.clear()
    with pytest.raises(ValueError, match="no smooth chart realizes this domination"):
        dominance_witness(b1, b2)
    assert len(calls) == 1 and len(walks) == 1
    with pytest.raises(ValueError, match="no smooth chart realizes this domination"):
        dominance_witness(b1, b2)
    assert not is_smooth(a1) and len(calls) == 1
    walks.clear()
    with pytest.raises(ValueError, match="lattice criterion fails"):
        dominance_witness(o2, o1)
    assert len(walks) == 1
    # the walk stops at the first smooth chart: two charts show (1, 0) <= (2, 0), and only
    # the first is eliminated and keeps its basis
    fan = Fan([Cone([(1, 0), (0, 1)]), Cone([(1, 0), (0, -1)])])
    f1, f2 = orbit_label(fan, zero, (1, 0)), orbit_label(fan, zero, (2, 0))
    assert len(list(arcs._dominance_charts(f1, f2))) == 2
    calls.clear()
    assert dominance_witness(f1, f2).verified and len(calls) == 1
    assert [chart._basis is not None for chart in fan.maximal_cones] == [True, False]


def test_dominance_witness_reads_orders_on_int_rows(monkeypatch):
    # the dual basis rows are int tuples read by OrbitLabel._order: no LatticeVector is built
    # for them and order_at, which checks its argument, is not called
    from toricarcs.lattice import LatticeVector

    orthant = Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    ray = orthant.face_from_indices([0])
    pairs = [
        (orbit_label(orthant, orthant.zero_face(), (1, 2, 1)), orbit_label(orthant, orthant.zero_face(), (3, 2, 1))),
        (orbit_label(orthant, orthant.zero_face(), (1, 0, 1)), orbit_label(orthant, ray, (0, 2))),
    ]
    before = [dominance_witness(o1, o2) for o1, o2 in pairs]

    def refused(self, u):
        raise AssertionError("order_at called")

    monkeypatch.setattr(OrbitLabel, "order_at", refused)
    made = counting(monkeypatch, LatticeVector, "__post_init__")
    after = [dominance_witness(o1, o2) for o1, o2 in pairs]
    assert made == []
    for old, new in zip(before, after):
        assert new.verified and new.verified == old.verified
        assert new.family == old.family and new.entries == old.entries


def test_monomial_arc_refuses_a_non_integer_precision(a1):
    # 2.5 used to pass the level check and give series O(t^3.5)
    label = orbit_label(a1, a1.zero_face(), (1, 1))
    for precision in (2.5, 2.0, "2"):
        with pytest.raises(TypeError):
            monomial_arc(label, precision)
    assert {s.t_precision for s in monomial_arc(label, 2).values()} == {3}


def test_dominance_witness_refuses_a_non_integer_precision(quadrant):
    # 7.5 used to give a witness with precision=7.5, verified=True
    zero = quadrant.zero_face()
    o1, o2 = orbit_label(quadrant, zero, (1, 1)), orbit_label(quadrant, zero, (2, 1))
    for precision in (7.5, 7.0, "7"):
        with pytest.raises(TypeError):
            dominance_witness(o1, o2, precision)
    assert dominance_witness(o1, o2, 7).precision == 7
