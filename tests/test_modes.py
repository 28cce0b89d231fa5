"""The component recursion defines a composite mode for every admissible
auxiliary index m; recomputing a column with a second m must give the same
vector, and the recursion gives up on a column only when no m is admissible."""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, reject, settings, strategies as st

from superfock.errors import TruncationOverflow
from superfock.modes import CompositeFamily, Family

PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much])


def _same_column_for_second_index(engine, data):
    states = engine.algebra.space.states
    fam = engine.family_of_state(
        states[data.draw(st.integers(0, len(states) - 1), label="state")])
    assume(isinstance(fam, CompositeFamily))
    col = data.draw(st.integers(0, engine.space.dim - 1), label="col")
    t = fam.mode_offset + data.draw(st.integers(-3, 3), label="t")
    m = fam.u_offset + data.draw(st.integers(-3, 3), label="m")
    col_w = engine.col_weight(col)
    try:
        assume(fam._feasible(m, t, col_w) and m != fam._choose_m(t, col_w))
        want = fam.apply_basis(t, col)
        got = fam.column(t, col, m)
    except TruncationOverflow:
        reject()
    assert got == want


@PROPERTY
@given(st.data())
def test_vosa_column_independent_of_auxiliary_index(V4, data):
    _same_column_for_second_index(V4, data)


@PROPERTY
@given(st.data())
def test_sigma_column_independent_of_auxiliary_index(sigma, data):
    _same_column_for_second_index(sigma, data)


class _Truncation:
    def __init__(self, bound):
        self.weight_bound = bound


def _quarters(lo, hi):
    return st.integers(lo, hi).map(lambda n: Fraction(n, 4))


@settings(max_examples=300, deadline=None)
@given(bound=_quarters(1, 40), wu=_quarters(0, 16), ww=_quarters(0, 16),
       ell=st.integers(-4, 4), u_offset=st.sampled_from([Fraction(0), Fraction(1, 2)]),
       t=_quarters(-40, 40), col_w=_quarters(0, 24))
def test_auxiliary_index_search_gives_up_only_when_none_is_feasible(
        bound, wu, ww, ell, u_offset, t, col_w):
    engine = _Truncation(bound)
    fam = CompositeFamily(engine, Family(engine, wu, 0), Family(engine, ww, 0), ell,
                          u_offset, lambda i: None)
    try:
        m = fam._choose_m(t, col_w)
    except TruncationOverflow:
        balanced = (t + wu - ww) / 2
        snapped = u_offset + round(balanced - u_offset)
        assert not any(fam._feasible(snapped + k, t, col_w) for k in range(-64, 65))
    else:
        assert (m - u_offset).denominator == 1 and fam._feasible(m, t, col_w)
