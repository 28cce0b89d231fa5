from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from superfock.errors import UnsupportedExponent, VariableMismatch
from superfock.scalars import ExactScalar, ONE, SQRT2
from superfock.series import Series, substitute_root_phase

HALF = Fraction(1, 2)


def q(exponent, coeff=1, trunc=10):
    return Series.monomial("q", Fraction(exponent), coeff, Fraction(trunc))


def test_difference_of_squares():
    one = q(0)
    f = one + q(HALF)
    g = one + q(HALF, -1)
    assert f * g == one + q(1, -1)


def test_scale_by_sqrt2():
    f = Series.monomial("q", Fraction(-1, 16), 1, Fraction(2))
    assert (f * SQRT2).coefficient(Fraction(-1, 16)) == SQRT2


def test_truncated_triple_product():
    # (1+q)(1+q^2)(1+q^3) below q^4
    t = Fraction(4)
    def s(*exps):
        return Series("q", t, [(Fraction(e), ONE) for e in exps])
    prod = s(0, 1) * s(0, 2) * s(0, 3)
    assert prod == s(0, 1, 2) + Series.monomial("q", 3, 2, t)


def test_variable_mismatch():
    with pytest.raises(VariableMismatch):
        Series.monomial("q", 0, 1, 2) + Series.monomial("x", 0, 1, 2)


def test_coefficient_beyond_truncation_rejected():
    f = q(1, trunc=3)
    assert f.coefficient(2).is_zero()
    with pytest.raises(UnsupportedExponent):
        f.coefficient(3)


def test_min_truncation_rule():
    f = Series.monomial("q", 0, 1, Fraction(3))
    g = Series.monomial("q", 1, 1, Fraction(7))
    assert (f + g).truncation == Fraction(3)
    assert (f * g).truncation == Fraction(3)


def test_negative_valuation_shrinks_product_truncation():
    f = Series.monomial("q", -2, 1, Fraction(5))
    g = Series.monomial("q", 0, 1, Fraction(5))
    assert (f * g).truncation == Fraction(3)


exps = st.fractions(min_value=-3, max_value=6, max_denominator=2)
coeffs = st.builds(ExactScalar,
                   st.fractions(min_value=-9, max_value=9, max_denominator=4),
                   st.fractions(min_value=-9, max_value=9, max_denominator=4))
series_strat = st.builds(
    lambda terms: Series("x", Fraction(5), terms),
    st.lists(st.tuples(exps, coeffs), max_size=5))


@given(series_strat, series_strat, series_strat)
def test_ring_axioms(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(series_strat)
def test_root_phase_involution(f):
    assert substitute_root_phase(substitute_root_phase(f, 1), 1) == f


def test_root_phase_examples():
    x = lambda e, c=1: Series.monomial("x", Fraction(e), c, Fraction(10))
    assert substitute_root_phase(x(HALF), 1) == x(HALF, -1)
    assert substitute_root_phase(x(3), 1) == x(3)
    f = x(Fraction(-3, 2), 2) + x(1)
    assert substitute_root_phase(f, 1) == x(Fraction(-3, 2), -2) + x(1)
    assert substitute_root_phase(f, 2) == f


def test_root_phase_requires_k2_and_half_lattice():
    g = Series.monomial("x", Fraction(-3, 4), 1, 2)
    with pytest.raises(UnsupportedExponent):
        substitute_root_phase(g, 1)


@given(series_strat)
def test_json_roundtrip(f):
    assert Series.from_json(f.to_json()) == f


def test_substitute_square():
    f = q(0, 2, trunc=3) + q(1, 4, trunc=3)
    g = f.substitute_square()
    assert g.truncation == Fraction(6)
    assert g.coefficient(2) == ExactScalar(4)
