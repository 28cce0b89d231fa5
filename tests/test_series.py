from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from superfock.errors import UnsupportedExponent, VariableMismatch
from superfock.scalars import ExactScalar, ONE, SQRT2
from superfock.series import Series, substitute_root_phase

HALF = Fraction(1, 2)


def q(*terms, trunc=10):
    """The series sum of c * q**e over the (e, c) pairs of terms."""
    return Series("q", Fraction(trunc), [(Fraction(e), c) for e, c in terms])


def test_difference_of_squares():
    f = q((0, 1), (HALF, 1))
    g = q((0, 1), (HALF, -1))
    assert f * g == q((0, 1), (1, -1))


def test_scale_by_sqrt2():
    f = q((Fraction(-1, 16), 1), trunc=2)
    assert (f * q((0, SQRT2), trunc=2)).coefficient(Fraction(-1, 16)) == SQRT2


def test_truncated_triple_product():
    # (1+q)(1+q^2)(1+q^3) below q^4
    t = Fraction(4)
    def s(*exps):
        return Series("q", t, [(Fraction(e), ONE) for e in exps])
    prod = s(0, 1) * s(0, 2) * s(0, 3)
    assert prod == s(0, 1, 2, 3, 3)


def test_variable_mismatch():
    with pytest.raises(VariableMismatch):
        Series("q", 2, [(0, 1)]) * Series("x", 2, [(0, 1)])


def test_coefficient_beyond_truncation_rejected():
    f = q((1, 1), trunc=3)
    assert f.coefficient(2).is_zero()
    with pytest.raises(UnsupportedExponent):
        f.coefficient(3)


def test_min_truncation_rule():
    f = q((0, 1), trunc=3)
    g = q((1, 1), trunc=7)
    assert (f * g).truncation == Fraction(3)


def test_negative_valuation_shrinks_product_truncation():
    f = q((-2, 1), trunc=5)
    g = q((0, 1), trunc=5)
    assert (f * g).truncation == Fraction(3)


exps = st.fractions(min_value=-3, max_value=6, max_denominator=2)
coeffs = st.builds(ExactScalar,
                   st.fractions(min_value=-9, max_value=9, max_denominator=4),
                   st.fractions(min_value=-9, max_value=9, max_denominator=4))
series_strat = st.builds(
    lambda terms: Series("x", Fraction(5), terms),
    st.lists(st.tuples(exps, coeffs), max_size=5))


def _sum(f, g):
    """f + g: the constructor merges the terms of a repeated exponent."""
    return Series(f.variable, min(f.truncation, g.truncation),
                  [*f.terms.items(), *g.terms.items()])


@given(series_strat, series_strat, series_strat)
def test_ring_axioms(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * _sum(g, h) == _sum(f * g, f * h)


@given(series_strat)
def test_root_phase_involution(f):
    assert substitute_root_phase(substitute_root_phase(f, 1), 1) == f


def test_root_phase_examples():
    x = lambda *terms: Series("x", Fraction(10), [(Fraction(e), c) for e, c in terms])
    assert substitute_root_phase(x((HALF, 1)), 1) == x((HALF, -1))
    assert substitute_root_phase(x((3, 1)), 1) == x((3, 1))
    f = x((Fraction(-3, 2), 2), (1, 1))
    assert substitute_root_phase(f, 1) == x((Fraction(-3, 2), -2), (1, 1))
    assert substitute_root_phase(f, 2) == f


def test_root_phase_requires_k2_and_half_lattice():
    g = Series("x", 2, [(Fraction(-3, 4), 1)])
    with pytest.raises(UnsupportedExponent):
        substitute_root_phase(g, 1)


def test_substitute_square():
    f = q((0, 2), (1, 4), trunc=3)
    g = f.substitute_square()
    assert g.truncation == Fraction(6)
    assert g.coefficient(2) == ExactScalar(4)
