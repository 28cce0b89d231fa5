from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from superfock.errors import TruncationOverflow
from superfock.fock import (
    KINDS,
    FockState,
    TruncatedSpace,
    character,
    mode_apply,
)
from superfock.scalars import ExactScalar, ONE, pow_two

HALF = Fraction(1, 2)


# independent oracles -------------------------------------------------------

def partition_numbers(n):
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            p[total] += p[total - part]
    return p


def product_series(factors, order):
    """Multiply out dict-polynomials {exp: int} below `order`."""
    acc = {Fraction(0): 1}
    for fac in factors:
        nxt = {}
        for e1, c1 in acc.items():
            for e2, c2 in fac.items():
                e = e1 + e2
                if e < order:
                    nxt[e] = nxt.get(e, 0) + c1 * c2
        acc = nxt
    return {e: c for e, c in acc.items() if c}


def levels(space, keep=lambda state: True):
    """The level of each column whose FockState passes keep."""
    return [st.level for st in map(space.state, range(space.dim)) if keep(st)]


def boson_factor(n, order):
    # 1/(1 - q^n) expanded
    out, e = {}, Fraction(0)
    while e < order:
        out[e] = 1
        e += n
    return out


def test_boson_layers_match_partitions():
    # the fermion-free states of V are the boson's Fock space
    space = TruncatedSpace("vosa", 8)
    dims = Counter(levels(space, lambda st: not st.fermions))
    p = partition_numbers(7)
    for n in range(8):
        assert dims.get(Fraction(n), 0) == p[n]


def test_ns_fermion_small_layers():
    space = TruncatedSpace("ns-fermion", Fraction(5, 2))
    assert Counter(levels(space)) == {Fraction(0): 1, HALF: 1, Fraction(3, 2): 1,
                                        Fraction(2): 1}


def test_ramond_fermion_layers():
    # the boson-free states of the sigma space are the Ramond fermion's Fock space
    def no_boson(st):
        return not st.bosons

    space = TruncatedSpace("sigma", 2)
    assert Counter(levels(space, no_boson)) == {0: 2, 1: 2}
    dims = Counter(levels(TruncatedSpace("sigma", 4), no_boson))
    assert [dims[n] for n in range(4)] == [2, 2, 2, 4]


def test_vosa_layers():
    space = TruncatedSpace("vosa", 4)
    dims = [Counter(levels(space))[Fraction(k, 2)] for k in range(8)]
    assert dims == [1, 1, 1, 2, 3, 4, 5, 7]


def test_sigma_layers_are_doubled_overpartitions():
    space = TruncatedSpace("sigma", 5)
    # oracle: 2 * product over n of (1+q^n)/(1-q^n)
    factors = [boson_factor(Fraction(n), Fraction(5)) for n in range(1, 6)]
    factors += [{Fraction(0): 1, Fraction(n): 1} for n in range(1, 5)]
    series = product_series(factors, Fraction(5))
    dims = Counter(levels(space))
    for n in range(5):
        assert dims[n] == 2 * series[Fraction(n)]


@pytest.mark.parametrize("kind", KINDS)
def test_codes_are_every_monomial_below_the_truncation(kind):
    # brute-force membership oracle at levels 0, 1/2, ..., 6: boson
    # multisets times fermion sets in half units (odd parts in NS, even in
    # Ramond) times the ground ranks, filtered by level
    has_boson, sector = KINDS[kind]
    ranks = (0, 1) if sector == "r" else (0,)
    for top2 in range(13):
        space = TruncatedSpace(kind, Fraction(top2, 2))
        boson_parts = range((top2 - 1) // 2 if has_boson else 0, 0, -1)
        fermion_parts = [p for p in range(top2 - 1, 0, -1) if p % 2 == (sector == "ns")]
        bosons = [b for k in range(top2 // 2 + 1)
                  for b in combinations_with_replacement(boson_parts, k)]
        fermions = [f for k in range(len(fermion_parts) + 1)
                    for f in combinations(fermion_parts, k)]
        expected = {(b, f, g) for b in bosons for f in fermions for g in ranks
                    if 2 * sum(b) + sum(f) < top2}
        assert len(space.codes) == len(expected)
        assert set(space.codes) == expected
        assert space.level2 == tuple(2 * sum(b) + sum(f) for b, f, _ in space.codes)
        assert list(space.level2) == sorted(space.level2)


def test_enumeration_is_sorted_and_deterministic():
    space = TruncatedSpace("vosa", 4)
    keys = list(zip(space.level2, space.codes))
    assert keys == sorted(keys)
    assert space.codes == TruncatedSpace("vosa", 4).codes
    assert str(space.state(0)) == "|0>"


def test_basis_dump_format():
    space = TruncatedSpace("vosa", 4)
    dumped = space.basis_dump()
    assert "a(-2)a(-1)psi(-1/2)|0>" in dumped
    # the Ramond ground pair and the integer-moded fermion
    sigma = TruncatedSpace("sigma", 2)
    assert sigma.basis_dump() == ["|+>", "|->", "psi(-1)|+>", "psi(-1)|->",
                                  "a(-1)|+>", "a(-1)|->"]


def _holds_state(value) -> bool:
    if isinstance(value, FockState):
        return True
    if isinstance(value, dict):
        return _holds_state(tuple(value.items()))
    return isinstance(value, tuple) and any(_holds_state(v) for v in value)


def test_only_the_built_kinds_exist():
    assert sorted(KINDS) == ["ns-fermion", "sigma", "vosa"]
    for kind in ("boson", "ramond-fermion"):
        with pytest.raises(ValueError):
            TruncatedSpace(kind, 3)


def test_each_kind_states_its_sector_and_central_charge():
    # c is 1 for the boson and 1/2 for the fermion, in either sector
    got = {kind: (TruncatedSpace(kind, 1).fermion_sector, TruncatedSpace(kind, 1).central_charge)
           for kind in KINDS}
    assert got == {"vosa": ("ns", Fraction(3, 2)), "ns-fermion": ("ns", HALF),
                   "sigma": ("r", Fraction(3, 2))}


@pytest.mark.parametrize("kind", KINDS)
def test_state_column_conversions(kind):
    space = TruncatedSpace(kind, 3)
    assert space.dim
    for i in range(space.dim):
        state = space.state(i)
        assert space.column(state) == i
        assert state.level == Fraction(space.level2[i], 2)
        assert state.parity == space.parities[i]
    # a state the space does not hold: beyond the truncation, or a ground
    # label of the other fermion sector
    other_ground = "0" if space.fermion_sector == "r" else "+"
    for outside in (FockState(bosons=(3,)), FockState(ground=other_ground)):
        with pytest.raises(KeyError):
            space.column(outside)
    # the space holds its basis only as int codes
    assert not any(_holds_state(v) for v in vars(space).values())


# mode actions -------------------------------------------------------------

@pytest.fixture(scope="module")
def vspace():
    return TruncatedSpace("vosa", 4)


@pytest.fixture(scope="module")
def rspace():
    return TruncatedSpace("sigma", 4)


def test_boson_commutator(vspace):
    vac = FockState()
    up = mode_apply(vspace, "a", Fraction(-1), vac)
    assert up == [(FockState(bosons=(1,)), ONE)]
    down = mode_apply(vspace, "a", Fraction(1), up[0][0])
    assert down == [(vac, ONE)]
    assert mode_apply(vspace, "a", Fraction(1), vac) == []
    assert mode_apply(vspace, "a", Fraction(0), vac) == []


def test_boson_multiplicity(vspace):
    st2 = FockState(bosons=(1, 1))
    down = mode_apply(vspace, "a", Fraction(1), st2)
    assert down == [(FockState(bosons=(1,)), ExactScalar(2))]


def test_fermion_anticommutator(vspace):
    vac = FockState()
    up = mode_apply(vspace, "psi", -HALF, vac)
    assert up == [(FockState(fermions=(HALF,)), ONE)]
    down = mode_apply(vspace, "psi", HALF, up[0][0])
    assert down == [(vac, ONE)]


def test_pauli_exclusion(vspace):
    st = FockState(fermions=(HALF,))
    assert mode_apply(vspace, "psi", -HALF, st) == []


def test_fermion_ordering_signs(vspace):
    # inserting below the existing mode anticommutes past it: sign flips
    st = FockState(fermions=(Fraction(3, 2),))
    got = mode_apply(vspace, "psi", -HALF, st)
    assert got == [(FockState(fermions=(Fraction(3, 2), HALF)), ExactScalar(-1))]
    # inserting at the front passes nothing
    st2 = FockState(fermions=(HALF,))
    got2 = mode_apply(vspace, "psi", Fraction(-3, 2), st2)
    assert got2 == [(FockState(fermions=(Fraction(3, 2), HALF)), ONE)]
    # removing the inner mode crosses the outer one
    inner = mode_apply(vspace, "psi", HALF,
                       FockState(fermions=(Fraction(3, 2), HALF)))
    assert inner == [(FockState(fermions=(Fraction(3, 2),)), ExactScalar(-1))]


def test_zero_mode_exchanges_grounds(rspace):
    plus = FockState(ground="+")
    got = mode_apply(rspace, "psi", Fraction(0), plus)
    assert got == [(FockState(ground="-"), pow_two(Fraction(-1, 2)))]
    # applying twice acts as 1/2
    again = mode_apply(rspace, "psi", Fraction(0), got[0][0])
    assert again == [(plus, pow_two(Fraction(-1, 2)))]
    coeff = got[0][1] * again[0][1]
    assert coeff == ExactScalar(HALF)


def test_zero_mode_outside_the_field_is_refused(rspace):
    # sqrt(3/2) is not in Q(i, sqrt2)
    with pytest.raises(ValueError):
        mode_apply(rspace, "psi", Fraction(0), FockState(ground="+"), Fraction(3))


def test_zero_mode_is_parity_odd(rspace):
    st = FockState(ground="+")
    out_state = mode_apply(rspace, "psi", Fraction(0), st)[0][0]
    assert out_state.parity != st.parity


def test_truncation_overflow(vspace, rspace):
    top = FockState(bosons=(3,))
    with pytest.raises(TruncationOverflow):
        mode_apply(vspace, "a", Fraction(-1), top)
    # the sigma space is truncated by level too: level 4 lies beyond its 4 levels
    assert mode_apply(rspace, "a", Fraction(-1), FockState(bosons=(2,), ground="+"))
    with pytest.raises(TruncationOverflow):
        mode_apply(rspace, "a", Fraction(-2), FockState(bosons=(2,), ground="+"))


modes = st.one_of(
    st.tuples(st.just("a"), st.integers(-3, 3).map(Fraction)),
    st.tuples(st.just("psi"),
              st.integers(-3, 2).map(lambda n: Fraction(2 * n + 1, 2))),
)


@settings(max_examples=60)
@given(modes, st.integers(0, 23))
def test_mode_weight_bookkeeping(mode, state_idx):
    space = TruncatedSpace("vosa", 4)
    fam, index = mode
    state = space.state(state_idx % space.dim)
    before = state.level
    try:
        result = mode_apply(space, fam, index, state)
    except TruncationOverflow:
        return
    for out_state, coeff in result:
        assert out_state.level == before - index
        assert not coeff.is_zero()


# characters ------------------------------------------------------------------

def test_vosa_character_against_product_formula():
    space = TruncatedSpace("vosa", 4)
    series = character(space, Fraction(3, 2))
    offset = Fraction(-1, 16)
    expected_low = {0: 1, HALF: 1, 1: 1, Fraction(3, 2): 2, 2: 3}
    for e, c in expected_low.items():
        assert series.coefficient(offset + e) == ExactScalar(c)
    factors = [boson_factor(Fraction(n), Fraction(4)) for n in range(1, 5)]
    factors += [{Fraction(0): 1, Fraction(2 * n - 1, 2): 1} for n in range(1, 5)]
    oracle = product_series(factors, Fraction(4))
    for e, c in oracle.items():
        assert series.coefficient(offset + e) == ExactScalar(c)


def test_sigma_character_leading_coefficients():
    space = TruncatedSpace("sigma", 4)
    # graded by level: the space carries no ground weight
    series = character(space, Fraction(3, 2))
    assert series.min_exponent() == Fraction(-1, 16)
    assert series.truncation == Fraction(-1, 16) + 4
    # graded by level + 1/16, the Ramond ground weight: -c/24 cancels it
    # exactly, -1/24 - 1/48 + 1/16 = 0
    shifted = [Fraction(lv2, 2) + Fraction(1, 16) for lv2 in space.level2]
    series = character(space, Fraction(3, 2), shifted, Fraction(1, 16) + 4)
    assert series.min_exponent() == 0
    for n, c in enumerate((2, 4, 8, 16)):
        assert series.coefficient(Fraction(n)) == ExactScalar(c)


def test_empty_truncation_gives_zero_series():
    space = TruncatedSpace("vosa", 0)
    assert space.dim == 0
    assert character(space, Fraction(3, 2)).is_zero()
