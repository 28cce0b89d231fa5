"""The sparse-vector kernel `scalars.v_iadd` against a reference built
from plain `ExactScalar` arithmetic."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from superfock.scalars import ExactScalar, v_iadd

INDICES = st.integers(0, 7)
# small parts, so that sums cancel often
parts = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)])
small_scalars = st.builds(ExactScalar, parts, parts, parts, parts)
wide_parts = st.one_of(
    st.just(0),
    st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 2**40)))
wide_scalars = st.builds(ExactScalar, wide_parts, wide_parts, wide_parts, wide_parts)
values = st.one_of(small_scalars, wide_scalars,
                   st.builds(ExactScalar, st.integers(-5, 5)))
coefficients = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-2**70, 2**70),
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
    st.builds(ExactScalar, st.fractions(min_value=-6, max_value=6, max_denominator=9)),
    st.sampled_from([ExactScalar(0), ExactScalar(1), ExactScalar(-1)]),
    small_scalars, wide_scalars)


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
