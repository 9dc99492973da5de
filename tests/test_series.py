from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricarcs.series import TruncatedSeries

PREC = 7


def series_strategy():
    term = st.tuples(
        st.tuples(st.integers(0, PREC), st.integers(0, 3)),
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
    )
    return st.lists(term, max_size=6).map(
        lambda items: TruncatedSeries(dict(items), PREC)
    )


def test_rejects_negative_exponents():
    with pytest.raises(ValueError):
        TruncatedSeries({(-1, 0): 1}, 4)
    with pytest.raises(ValueError):
        TruncatedSeries({(0, -2): 1}, 4)


def test_truncation_drops_high_degrees():
    s = TruncatedSeries({(5, 0): 1, (2, 1): 3}, 4)
    assert s.terms == {(2, 1): Fraction(3)}


def test_orders():
    s = TruncatedSeries({(2, 0): 1, (1, 1): 1}, 6)
    assert s.t_order_generic() == 1
    assert s.t_order_at_zero() == 2
    lam_only = TruncatedSeries({(1, 1): 1}, 6)
    assert lam_only.t_order_at_zero() is None
    assert lam_only.vanishes_at_zero()
    assert TruncatedSeries.zero(6).t_order_generic() is None


def test_pow_matches_repeated_product():
    s = TruncatedSeries({(1, 0): 1, (0, 1): 2}, PREC)
    assert s**3 == s * s * s
    one = TruncatedSeries.monomial(0, 0, 1, t_precision=PREC)
    assert s**0 == one


def test_pow_refuses_a_non_int_exponent_and_a_negative_one():
    s = TruncatedSeries({(1, 0): 1}, PREC)
    for k in (1.5, 2.0, "2"):
        with pytest.raises(TypeError):
            s**k
    with pytest.raises(ValueError, match="nonnegative"):
        s**-1


def test_precision_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries.zero(3) + TruncatedSeries.zero(4)


@given(series_strategy(), series_strategy(), series_strategy())
@settings(max_examples=60)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == TruncatedSeries.zero(PREC)


@given(series_strategy(), series_strategy())
@settings(max_examples=60)
def test_order_of_product_adds_when_defined(a, b):
    # Q[L][[t]] is a domain, so generic orders add whenever the product
    # stays below the truncation cutoff
    oa, ob = a.t_order_generic(), b.t_order_generic()
    if oa is None or ob is None or oa + ob >= PREC:
        return
    assert (a * b).t_order_generic() == oa + ob


@pytest.mark.parametrize(
    "exponent, precision",
    [((1.5, 0), 3), ((1, 0.0), 3), (("1", 0), 3), ((0, 0), 2.5), ((0, 0), 3.0), ((0, 0), "3")],
    ids=["exponent0", "exponent1", "exponent2", "precision0", "precision1", "precision2"],
)
def test_a_non_integer_exponent_raises_type_error(exponent, precision):
    # the t-precision too: 2.5 used to give <0 + O(t^2.5)>
    with pytest.raises(TypeError):
        TruncatedSeries({exponent: 1}, precision)


@pytest.mark.parametrize("coeff", [0.1, "1/2"], ids=["float", "string"])
def test_a_float_or_string_coefficient_raises_type_error(coeff):
    # 0.1 used to be stored as 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        TruncatedSeries({(0, 0): coeff}, 2)


def test_coefficients_are_ints_or_the_fractions_given():
    s = TruncatedSeries({(0, 0): Fraction(1, 2), (1, 0): True, (1, 1): 3}, 2)
    assert s.terms == {(0, 0): Fraction(1, 2), (1, 0): 1, (1, 1): 3}
    assert [type(c) for c in s.terms.values()] == [Fraction, int, int]
    ints = TruncatedSeries({(1, 0): 1, (1, 1): -2}, 3)
    assert {type(c) for c in (ints + ints * ints - ints).terms.values()} == {int}
