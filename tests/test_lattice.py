import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import determinantal_divisors, extends_to_basis, rank_fraction, solve_square
from toricarcs.cones import Cone, is_smooth
from toricarcs.lattice import (
    INF,
    LatticeVector,
    mvec,
    nvec,
    pairing,
    primitive_tuple,
    quotient_lattice,
    rank_of,
    row_hermite,
    solve_linear,
)


def test_pairing_examples():
    assert pairing(nvec(1, 2), mvec(3, -1)) == 1
    assert pairing(nvec(0, 0), mvec(5, 7)) == 0
    assert pairing(nvec(1, 1), mvec(2, -1)) == 1


def test_pairing_symmetric_in_sides():
    assert pairing(mvec(3, -1), nvec(1, 2)) == 1


def test_pairing_rejects_same_side():
    with pytest.raises(ValueError):
        pairing(nvec(1, 0), nvec(0, 1))
    with pytest.raises(ValueError):
        pairing(mvec(1, 0), mvec(0, 1))


def test_pairing_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        pairing(nvec(1, 0, 0), mvec(1, 0))


big = st.integers(min_value=-(2**140), max_value=2**140)


@given(st.integers(min_value=-(2**130), max_value=2**130), st.lists(big, min_size=1, max_size=5), st.data())
@settings(max_examples=80)
def test_pairing_scaling_exact(k, coords, data):
    other = data.draw(st.lists(big, min_size=len(coords), max_size=len(coords)))
    v = LatticeVector(tuple(coords), "N")
    u = LatticeVector(tuple(other), "M")
    assert pairing(k * v, u) == k * pairing(v, u)


def test_primitive_part_examples():
    assert primitive_tuple((2, 4)) == (2, (1, 2))
    assert primitive_tuple((1, 0)) == (1, (1, 0))
    assert primitive_tuple((-3, 6, 9)) == (3, (-1, 2, 3))
    assert primitive_tuple((0, -4, 6)) == (2, (0, -2, 3))
    assert primitive_tuple([3, -1, 2]) == (1, (3, -1, 2))
    # a bool reads as the int it equals, and every entry comes back an int
    assert primitive_tuple([True, 2]) == (1, (1, 2))
    for coords in ([True, 2], [False, True], [3, -1, 2], (0, -4, 6)):
        g, prim = primitive_tuple(coords)
        assert type(g) is int and all(type(c) is int for c in prim), coords


def test_primitive_part_rejects_zero():
    for zero in ((0, 0), [0, 0, 0], [False], ()):
        with pytest.raises(ValueError):
            primitive_tuple(zero)


@given(st.lists(big, min_size=1, max_size=5))
@settings(max_examples=80)
def test_primitive_part_reconstructs(coords):
    if all(c == 0 for c in coords):
        return
    e, v0 = primitive_tuple(coords)
    assert e >= 1
    assert tuple(e * c for c in v0) == tuple(coords)
    assert math.gcd(*v0) if len(v0) > 1 else abs(v0[0]) == 1
    g = 0
    for c in v0:
        g = math.gcd(g, c)
    assert g == 1


def test_quotient_by_coordinate_axis():
    q = quotient_lattice(2, [nvec(1, 0)])
    assert q.quotient_dim == 1
    assert q.project(nvec(1, 0)).is_zero()
    assert q.project(nvec(3, 5)).coords == (5,)
    # projection . section = identity
    for w in [(0,), (1,), (-4,)]:
        assert q.project(q.lift(w)).coords == w


def test_quotient_empty_span_is_identity():
    q = quotient_lattice(2, [])
    assert q.quotient_dim == 2
    assert q.project(nvec(3, -1)).coords == (3, -1)


def test_quotient_full_span_is_zero():
    q = quotient_lattice(2, [nvec(1, 0), nvec(0, 1)])
    assert q.quotient_dim == 0
    assert q.project(nvec(9, 9)).coords == ()


def test_quotient_by_dependent_generators_matches_an_independent_basis():
    # (dependent generators, an independent basis of their span)
    cases = [
        ([(1, 0), (2, 0)], [(1, 0)]),
        ([(2, 0), (3, 0)], [(1, 0)]),
        ([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [(1, 0, 1), (0, 1, 1), (-1, 0, 1)]),
        ([(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, -1, 0)], [(1, 0, 0), (0, 1, 0)]),
        ([(1, 1, 0), (2, 2, 0), (0, 0, 0)], [(1, 1, 0)]),
    ]
    for dependent, independent in cases:
        dim = len(dependent[0])
        q = quotient_lattice(dim, [nvec(*g) for g in dependent])
        q_ind = quotient_lattice(dim, [nvec(*g) for g in independent])
        assert q.quotient_dim == q_ind.quotient_dim == dim - rank_fraction(independent)
        for coords in itertools.product(range(-3, 4), repeat=dim):
            v = nvec(*coords)
            assert q.project(v).is_zero() == q_ind.project(v).is_zero()
        for w in itertools.product(range(-2, 3), repeat=q.quotient_dim):
            assert q.project(q.lift(w)).coords == w


def test_quotient_kernel_is_saturation():
    # span of (2, 4) saturates to span of (1, 2)
    q = quotient_lattice(2, [nvec(2, 4)])
    assert q.project(nvec(1, 2)).is_zero()


def test_quotient_projection_surjective():
    for gens in [[nvec(1, 0)], [nvec(2, 4)], [nvec(1, 1, 1), nvec(0, 1, 2)]]:
        dim = gens[0].dim
        q = quotient_lattice(dim, gens)
        # onto Z^q iff the q x q minors of the projection are coprime
        if q.quotient_dim:
            assert determinantal_divisors(q.projection_matrix)[q.quotient_dim - 1] == 1


def test_quotient_dual_pairing_preserved():
    q = quotient_lattice(3, [nvec(1, 1, 0)])
    u = mvec(1, -1, 4)  # orthogonal to (1,1,0)
    ubar = q.push_dual(u)
    for v in [nvec(1, 0, 0), nvec(2, -3, 5)]:
        assert pairing(q.project(v), ubar) == pairing(v, u)
    with pytest.raises(ValueError):
        q.push_dual(mvec(1, 0, 0))


def test_push_dual_on_a_rank_0_quotient_takes_only_the_zero_character():
    q = quotient_lattice(2, [(1, 0), (1, 2)])
    assert q.quotient_dim == 0
    assert q.push_dual(mvec(0, 0)) == LatticeVector((), "M")
    for u in [mvec(1, 0), mvec(0, 1), mvec(-2, 1)]:
        with pytest.raises(ValueError, match="character does not vanish on the subspace"):
            q.push_dual(u)


def test_solve_linear():
    assert solve_linear([[1, 0], [0, 1]], [3, 4]) == (3, 4)
    assert solve_linear([[1, 0], [0, 1], [1, 1]], [3, 4, 7]) == (3, 4)
    assert solve_linear([[1, 0], [0, 1], [1, 1]], [3, 4, 8]) is None
    with pytest.raises(ValueError):
        solve_linear([[1, 1]], [2])


def test_rank_examples():
    assert rank_of([[1, 0], [0, 1]]) == 2
    assert rank_of([[1, 2], [2, 4]]) == 1


def test_infinity_arithmetic():
    assert INF + 3 == INF
    assert 3 + INF == INF
    assert INF + INF == INF
    assert 2 * INF == INF
    assert INF > 10**100
    assert not INF < 5
    assert min(INF, 7) == 7
    with pytest.raises(ValueError):
        0 * INF


@pytest.mark.parametrize("other", [1.5, Fraction(1, 2), "a", None])
def test_infinity_refuses_a_non_int_operand_in_every_order_and_scaling(other):
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        for left, right in ((INF, other), (other, INF)):
            with pytest.raises(TypeError):
                compare(left, right)
    for left, right in ((INF, other), (other, INF)):
        with pytest.raises(TypeError):
            left * right
    assert INF * 2 == INF
    with pytest.raises(ValueError, match="positive integer"):
        INF * -1


# ---------------------------------------------------------------------------
# the one elimination, against independent references
# ---------------------------------------------------------------------------


def _random_matrices(seed=20261018, count=300):
    """Seeded 1-6 x 1-7 matrices, entries -6..6, about 30% zeros, some zero rows and columns."""
    rng = random.Random(seed)
    out = [[]]
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        M = [[0 if rng.random() < 0.3 else rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.2:
            M[rng.randrange(m)] = [0] * n
        if rng.random() < 0.2:
            j = rng.randrange(n)
            for row in M:
                row[j] = 0
        out.append(M)
    return out


MATRICES = _random_matrices()


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def test_random_matrices_cover_the_edge_shapes():
    assert [] in MATRICES
    assert any(M and any(not any(row) for row in M) for M in MATRICES)
    assert any(M and any(not any(col) for col in zip(*M)) for M in MATRICES)


def test_row_hermite_invariants():
    for M in MATRICES:
        H, U, Uinv, rank = row_hermite(M)
        m = len(M)
        eye = [[int(i == j) for j in range(m)] for i in range(m)]
        assert _matmul(U, M) == [list(row) for row in H], M
        assert _matmul(U, Uinv) == eye and _matmul(Uinv, U) == eye, M
        leads = [next(j for j, x in enumerate(row) if x) for row in H[:rank]]
        assert leads == sorted(set(leads)), M
        assert all(H[i][j] > 0 for i, j in enumerate(leads)), M
        assert not any(any(row) for row in H[rank:]), M
        assert rank == rank_fraction(M), M


def test_row_hermite_pivots_are_pinned():
    # the smallest absolute pivot, lowest row first: every basis read off the transform depends on it
    assert row_hermite([[0, 3, -2], [4, -6, 1], [-2, 5, 0]]) == (
        ((2, -5, 0), (0, 1, 3), (0, 0, 11)),
        ((0, 0, -1), (-1, 1, 2), (-4, 3, 6)),
        ((0, 3, -1), (2, 4, -1), (-1, 0, 0)),
        3,
    )
    assert row_hermite([[2, 4], [-3, 1], [6, 12]]) == (
        ((1, 9), (0, 14), (0, 0)),
        ((2, 1, 0), (3, 2, 0), (-3, 0, 1)),
        ((2, -1, 0), (-3, 2, 0), (6, -3, 1)),
        2,
    )
    assert row_hermite([]) == ((), (), (), 0)


def test_rank_of_matches_fraction_elimination():
    for M in MATRICES:
        assert rank_of(M) == rank_fraction(M), M


def _solve_reference(M, b):
    """None if inconsistent, ValueError if not unique, else the solution."""
    if rank_fraction([list(row) + [x] for row, x in zip(M, b)]) > rank_fraction(M):
        return None
    if rank_fraction(M) < len(M[0]):
        return ValueError
    return tuple(solve_square(M, b))


def test_solve_linear_matches_fraction_reference():
    rng = random.Random(7)
    seen = set()
    for M in MATRICES:
        if not M:
            continue
        n = len(M[0])
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        for b in (
            [sum(a * c for a, c in zip(row, x)) for row in M],
            [rng.randint(-6, 6) for _ in M],
        ):
            want = _solve_reference(M, b)
            if want is ValueError:
                with pytest.raises(ValueError):
                    solve_linear(M, b)
            else:
                assert solve_linear(M, b) == want, (M, b)
            seen.add("unique" if isinstance(want, tuple) else want)
    assert seen == {None, ValueError, "unique"}
    assert solve_linear([], []) == ()


def test_is_smooth_matches_the_minor_criterion():
    seen = set()
    for M in MATRICES:
        if not M:
            continue
        try:
            cone = Cone(M, len(M[0]))
        except ValueError:  # not strongly convex
            continue
        want = extends_to_basis(cone.key)
        assert is_smooth(cone) == want, cone
        seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize(
    "build",
    [
        lambda: nvec(1.5, 2),
        lambda: mvec(1, 2.0),
        lambda: LatticeVector(("1", 2), "N"),
        lambda: quotient_lattice(2, [nvec(1, 0)]).lift((1.7,)),
    ],
    ids=["nvec", "mvec", "LatticeVector", "QuotientLattice.lift"],
)
def test_a_non_integer_coordinate_raises_type_error(build):
    # int() would truncate: nvec(1.5, 2) used to be (1, 2)
    with pytest.raises(TypeError):
        build()


def test_integer_coordinates_of_any_int_type_are_kept():
    assert nvec(True, 2).coords == (1, 2) and type(nvec(True, 2).coords[0]) is int
    assert quotient_lattice(2, [nvec(1, 0)]).lift((3,)) == nvec(0, 3)


def test_lift_refuses_an_m_side_point():
    q = quotient_lattice(2, [nvec(1, 1)])
    with pytest.raises(ValueError, match="expected an N-side vector, got an M-side one"):
        q.lift(mvec(3))
    assert q.lift(nvec(3)) == q.lift((3,))


def test_quotient_lattice_takes_plain_int_generators():
    # the generators pass through _coords, as lift's point does
    q = quotient_lattice(2, [(1, 0)])
    assert q == quotient_lattice(2, [nvec(1, 0)])
    # only the saturated subspace is kept, so equal subspaces give equal quotients
    assert q == quotient_lattice(2, [(2, 0)]) == quotient_lattice(2, [(-3, 0), (1, 0)])
    assert q != quotient_lattice(2, [(1, 1)])
    assert quotient_lattice(3, [(True, 1, 0), [0, 0, 2]]) == quotient_lattice(3, [nvec(1, 1, 0), nvec(0, 0, 2)])
    with pytest.raises(ValueError, match="expected an N-side vector, got an M-side one"):
        quotient_lattice(2, [mvec(1, 0)])
    with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
        quotient_lattice(2, [(1, 0, 0)])
    with pytest.raises(TypeError):
        quotient_lattice(2, [(1.0, 0)])
