from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from superfock.errors import DivisionByZero
from superfock.scalars import ExactScalar, I, ONE, SQRT2, ZERO, pow_two

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
scalars = st.builds(ExactScalar, rationals, rationals, rationals, rationals)


def test_basic_values():
    assert (ONE + I) * (ONE - I) == ExactScalar(2)
    assert SQRT2 * SQRT2 == ExactScalar(2)
    assert (ExactScalar(2) * SQRT2).inv() == SQRT2 * ExactScalar(Fraction(1, 4))


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        ExactScalar(0).inv()


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_inverse(a):
    if not a.is_zero():
        assert a * a.inv() == ONE


@given(scalars, scalars)
def test_conjugations_are_ring_maps(a, b):
    assert (a * b).conj_i() == a.conj_i() * b.conj_i()
    assert (a + b).conj_i() == a.conj_i() + b.conj_i()
    assert (a * b).conj_sqrt2() == a.conj_sqrt2() * b.conj_sqrt2()
    assert (a + b).conj_sqrt2() == a.conj_sqrt2() + b.conj_sqrt2()
    assert a.conj_i().conj_i() == a
    assert a.conj_sqrt2().conj_sqrt2() == a


def test_pow_two():
    assert pow_two(Fraction(3)) == ExactScalar(8)
    assert pow_two(Fraction(-2)) == ExactScalar(Fraction(1, 4))
    assert pow_two(Fraction(-3, 2)) == SQRT2 * ExactScalar(Fraction(1, 4))
    assert pow_two(Fraction(1, 2)) == SQRT2
    assert pow_two(Fraction(-1, 2)) * pow_two(Fraction(-1, 2)) == ExactScalar(Fraction(1, 2))


@pytest.mark.parametrize("bad", [0.1, "1/3", None, 1j])
def test_constructor_rejects_inexact_input(bad):
    with pytest.raises(TypeError):
        ExactScalar(bad)
    with pytest.raises(TypeError):
        ExactScalar(1, 0, bad)
    with pytest.raises(TypeError):
        ExactScalar.coerce(bad)


mixed_numbers = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.builds(ExactScalar, st.fractions(min_value=-4, max_value=4, max_denominator=3)),
    st.builds(ExactScalar, st.integers(-2, 2), st.integers(-1, 1), st.integers(-1, 1)),
)


@given(mixed_numbers, mixed_numbers)
def test_equal_values_hash_equally(x, y):
    if x == y:
        assert hash(x) == hash(y)


@given(rationals)
def test_rational_scalar_equals_and_hashes_like_its_fraction(r):
    s = ExactScalar(r)
    assert s == r and r == s
    assert hash(s) == hash(r)
    assert len({s, r}) == 1


# -- an independent oracle: sympy's exact arithmetic in Q(i, sqrt2) --------

wide_rationals = st.one_of(
    rationals,
    st.builds(Fraction, st.integers(-2**100, 2**100), st.integers(1, 2**70)),
    st.builds(Fraction, st.integers(-2**80, 2**80), st.sampled_from([1, 2, 3, 4, 6, 12])),
)
wide_scalars = st.builds(ExactScalar, wide_rationals, wide_rationals,
                         wide_rationals, wide_rationals)
# mostly zero components, as in the engine: rationals and single units
sparse_scalars = st.builds(
    ExactScalar, *[st.one_of(st.just(0), wide_rationals) for _ in range(4)])
integral_scalars = st.builds(ExactScalar, *[st.integers(-2**70, 2**70)] * 4)
any_scalars = st.one_of(wide_scalars, sparse_scalars, integral_scalars)


def _sym(x: ExactScalar):
    r2 = sympy.sqrt(2)
    a, b, c, d = (sympy.Rational(p.numerator, p.denominator) for p in (x.a, x.b, x.c, x.d))
    return a + b * sympy.I + c * r2 + d * sympy.I * r2


def _same(x: ExactScalar, expr) -> bool:
    return sympy.expand(_sym(x) - expr) == 0


def _normal(x: ExactScalar) -> bool:
    a, b, c, d, q = x._v
    if not (a or b or c or d):
        return x._v == (0, 0, 0, 0, 1)
    return q > 0 and gcd(a, b, c, d, q) == 1


@settings(max_examples=50, deadline=None)
@given(any_scalars, any_scalars)
def test_arithmetic_matches_sympy(x, y):
    sx, sy = _sym(x), _sym(y)
    results = [(x + y, sx + sy), (x - y, sx - sy), (x * y, sx * sy),
               (-x, -sx), (x.conj_i(), sympy.conjugate(sx)),
               (x.conj_sqrt2(), sx.subs(sympy.sqrt(2), -sympy.sqrt(2))),
               (x - x, 0), (x * ZERO, 0)]
    if not y.is_zero():
        inv = y.inv()
        assert sympy.expand(_sym(inv) * sy) == 1
        assert _normal(inv)
    for got, want in results:
        assert _same(got, want)
        assert _normal(got)


def test_parts_and_text_at_the_boundary():
    x = ExactScalar(Fraction(1, 2), -1, 0, Fraction(2, 3))
    assert [type(p) for p in (x.a, x.b, x.c, x.d)] == [Fraction] * 4
    assert (x.a, x.b, x.c, x.d) == (Fraction(1, 2), -1, 0, Fraction(2, 3))
    assert type(ExactScalar(3).as_rational()) is Fraction
    assert repr(x) == "1/2 - i + 2/3*i*sqrt2"
    assert x.to_json() == {"a": "1/2", "b": "-1", "c": "0", "d": "2/3"}
    sevenths = [Fraction(k, 7) for k in (1, 2, 3, 4)]
    y = ExactScalar(*sevenths)
    assert [y.a, y.b, y.c, y.d] == sevenths


def test_traced_operators_are_own_attributes():
    # perfbench/tracer.py replaces these by name in the class dict
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        assert name in ExactScalar.__dict__
