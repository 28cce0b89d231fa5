from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from superfock.errors import DivisionByZero
from superfock.scalars import ExactScalar, I, ONE, SQRT2, ZERO, pow_two, square_roots, v_iadd

HALF = Fraction(1, 2)
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


@given(st.fractions(min_value=-50, max_value=50, max_denominator=30),
       st.sampled_from([1, 2, -1, -2]))
def test_square_roots_of_squares_and_twice_squares(s, k):
    x = ExactScalar(k * s * s)
    roots = square_roots(x)
    assert len(roots) == 2 and roots[1] == -roots[0]
    assert all(r * r == x for r in roots)


def _has_rational_root(r: Fraction) -> bool:
    """sympy's answer: is r, or r/2, up to sign the square of a rational?"""
    return any(sympy.sqrt(sympy.Rational(abs(r).numerator, k * abs(r).denominator)).is_rational
               for k in (1, 2))


@settings(max_examples=200)
@given(st.one_of(rationals, scalars,
                 st.builds(Fraction, st.integers(-2**40, 2**40), st.integers(1, 2**20))))
def test_square_roots_are_empty_exactly_off_the_rational_squares(x):
    x = ExactScalar.coerce(x)
    roots = square_roots(x)
    assert all(r * r == x for r in roots)
    assert bool(roots) == (x.is_rational() and _has_rational_root(x.as_rational()))


def test_square_roots_the_package_takes():
    # the Ramond zero mode at psi_delta 1 and 2, and the calibration's lines
    assert square_roots(ExactScalar(HALF)) == [SQRT2 * ExactScalar(HALF),
                                                -SQRT2 * ExactScalar(HALF)]
    assert square_roots(ONE) == [ONE, -ONE]
    assert square_roots(ExactScalar(-1)) == [I, -I]
    assert square_roots(ExactScalar(Fraction(3, 2))) == []
    assert square_roots(SQRT2) == [] and square_roots(ExactScalar(3, 0, 2)) == []


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


# -- the accumulate kernel `v_iadd` against plain ExactScalar arithmetic -----

INDICES = st.integers(0, 7)
# small parts, so that sums cancel often
parts = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)])
small_scalars = st.builds(ExactScalar, parts, parts, parts, parts)
wide_parts = st.one_of(
    st.just(0),
    st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 2**40)))
wide_values = st.builds(ExactScalar, wide_parts, wide_parts, wide_parts, wide_parts)
values = st.one_of(small_scalars, wide_values,
                   st.builds(ExactScalar, st.integers(-5, 5)))
coefficients = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-2**70, 2**70),
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
    st.builds(ExactScalar, st.fractions(min_value=-6, max_value=6, max_denominator=9)),
    st.sampled_from([ExactScalar(0), ExactScalar(1), ExactScalar(-1)]),
    small_scalars, wide_values)


def reference_iadd(acc, vec, coeff):
    coeff = ExactScalar.coerce(coeff)
    out = dict(acc)
    for i, c in vec.items():
        s = out.get(i, ExactScalar(0)) + c * coeff
        if s.is_zero():
            out.pop(i, None)
        else:
            out[i] = s
    return out


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(INDICES, values), st.dictionaries(INDICES, values),
       coefficients, st.sets(INDICES))
def test_kernel_matches_plain_arithmetic(acc, vec, coeff, cancel):
    acc = {i: c for i, c in acc.items() if c}
    c = ExactScalar.coerce(coeff)
    if c:
        # entries that cancel what acc holds, next to zero-valued ones
        for i in cancel & set(acc):
            vec[i] = -acc[i] * c.inv()
    want = reference_iadd(acc, vec, coeff)
    before = dict(vec)
    before_v = {i: s._v for i, s in vec.items()}
    got = v_iadd(acc, vec, coeff)
    assert got is acc
    assert got == want
    for s in got.values():
        assert type(s) is ExactScalar
        assert not s.is_zero()
        assert s._v == ExactScalar(s.a, s.b, s.c, s.d)._v and s._v[4] > 0
    assert vec == before and {i: s._v for i, s in vec.items()} == before_v


def test_kernel_shortcuts():
    x, y = ExactScalar(0, 1), ExactScalar(Fraction(1, 3))
    acc = {0: y}
    # an empty vec or a zero coefficient leaves acc as it is
    assert v_iadd(acc, {}, 5) is acc and acc == {0: y}
    assert v_iadd(acc, {1: x}, 0) is acc and acc == {0: y}
    assert v_iadd(acc, {1: x}, ExactScalar(0)) is acc and acc == {0: y}
    # coefficient 1 on an empty slot stores the (immutable) value itself
    v_iadd(acc, {1: x, 2: ExactScalar(0)})
    assert acc[1] is x and 2 not in acc
    # a sum that cancels drops the entry
    v_iadd(acc, {0: y, 1: x}, -1)
    assert acc == {}
