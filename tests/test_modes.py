"""The component recursion defines a composite mode for every admissible
auxiliary index m; recomputing a column with a second m must give the same
vector."""

from hypothesis import HealthCheck, assume, given, reject, settings, strategies as st

from superfock.errors import TruncationOverflow
from superfock.modes import CompositeFamily

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
