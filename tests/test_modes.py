"""The component recursion defines a composite mode for every admissible
auxiliary index m; recomputing a column with a second m must give the same
vector, and the recursion gives up on a column only when no m is admissible.

Families take mode indices, offsets and weights as ints in half units
(t2 = 2t); a labelled mode X(n) = x_{n+wt-1} sits at `mode2(fam, n)`
= 2n + weight2 - 2 in the family of x, and `twice` rejects an index off
(1/2)Z.  A linear combination holds merged non-combination terms, skips a
term whose coefficient on the parity of t2 is 0, and rejects a term whose
index map breaks the weight relation."""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import HealthCheck, assume, example, given, reject, settings, strategies as st

from conftest import mode2
from superfock import cli
from superfock.errors import TruncationOverflow
from superfock.modes import (EMPTY, UNKNOWN, CompositeFamily, Family, LinearFamily,
                             VacuumFamily)
from superfock.scalars import ONE, ExactScalar, twice
from superfock.twisted import MirrorModule, SigmaModule
from superfock.vosa import _TensorMonoFamily, _TensorSlotFamily, kappa_automorphism_report

PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much])


def _same_column_for_second_index(engine, data):
    dim = engine.algebra.space.dim
    fam = engine._family_by_index(data.draw(st.integers(0, dim - 1), label="state"))
    assume(isinstance(fam, CompositeFamily))
    col = data.draw(st.integers(0, engine.space.dim - 1), label="col")
    t2 = fam.off2 + 2 * data.draw(st.integers(-3, 3), label="t")
    m2 = fam.u_off2 + 2 * data.draw(st.integers(-3, 3), label="m")
    col_w2 = engine.col_w2[col]
    try:
        assume(fam._feasible(m2, t2, col_w2) and m2 != fam._choose_m(t2, col_w2))
        want = fam.apply_basis(t2, col)
        got = fam.column(t2, col, m2)
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
    def __init__(self, bound2):
        self.bound2 = bound2


def _pair(engine, wu2, ww2, u_off2, ell=0):
    return CompositeFamily(engine, Family(engine, wu2, 0, u_off2), Family(engine, ww2, 0),
                           ell, lambda s: None)


def test_product_index_must_be_an_int():
    with pytest.raises(TypeError):
        _pair(_Truncation(8), 2, 2, 0, Fraction(-1))


@settings(max_examples=300, deadline=None)
@given(bound2=st.integers(1, 20), wu2=st.integers(0, 8), ww2=st.integers(0, 8),
       ell=st.integers(-4, 4), u_off2=st.sampled_from([0, 1]),
       t2=st.integers(-20, 20), col_w2=st.integers(0, 12))
def test_auxiliary_index_search_gives_up_only_when_none_is_feasible(
        bound2, wu2, ww2, ell, u_off2, t2, col_w2):
    fam = _pair(_Truncation(bound2), wu2, ww2, u_off2, ell)
    try:
        m2 = fam._choose_m(t2, col_w2)
    except TruncationOverflow:
        u_offset = Fraction(u_off2, 2)
        balanced = Fraction(t2 + wu2 - ww2, 4)
        snapped = twice(u_offset + round(balanced - u_offset))
        assert not any(fam._feasible(snapped + 2 * k, t2, col_w2) for k in range(-64, 65))
    else:
        assert (m2 - u_off2) % 2 == 0 and fam._feasible(m2, t2, col_w2)


@settings(max_examples=500, deadline=None)
@given(wu2=st.integers(0, 12), ww2=st.integers(0, 12), u_off2=st.sampled_from([0, 1]),
       t2=st.integers(-40, 40))
@example(wu2=0, ww2=0, u_off2=0, t2=2)   # balanced = 1/2: a tie, rounds to 0
def test_integer_snapping_rounds_like_fraction_round(wu2, ww2, u_off2, t2):
    # the lattice point nearest balanced = (t + wt_u - wt_w)/2, ties to even
    fam = _pair(_Truncation(1), wu2, ww2, u_off2)
    u_offset = Fraction(u_off2, 2)
    balanced = (Fraction(t2, 2) + Fraction(wu2, 2) - Fraction(ww2, 2)) / 2
    assert fam._snapped(t2) == twice(u_offset + round(balanced - u_offset))


def test_composite_lattices_come_from_the_factor_families(V5, sigma, mirror):
    """A composite's lattice is the sum of its factors' lattices: on V and
    the parity-twisted module every basis family's off2 is its parity times
    the fermion family's, and a mirror two-slot composite, whose w factor
    has no single lattice, has none.  u's lattice must be known."""
    for engine in (V5, sigma):
        psi_off2 = engine.family(V5.vec_of(V5.f_state)).off2
        for k in range(V5.space.dim):
            assert engine._family_by_index(k).off2 == (
                V5.space.parities[k] * psi_off2), (engine, k)
    tensor = mirror.tensor
    composites = []
    for k, (i, j) in enumerate(tensor.space.states):
        if V5.vac not in (i, j):
            fam = mirror._family_by_index(k)
            parts = [fam] + [f for f, *_ in getattr(fam, "terms", ())]
            composites += [f for f in parts
                           if isinstance(f, CompositeFamily) and f.engine is mirror]
    assert len(composites) > 20
    assert all(f.off2 is None and f.u_off2 == 0 for f in composites)
    with pytest.raises(ValueError):
        CompositeFamily(V5, Family(V5, 2, 0), Family(V5, 2, 0, 0), -1, lambda s: None)


def test_product_families_builds_each_family_once(V5):
    b = V5.vec_of(V5.b_state)
    products = V5.product_families(b, V5.vacuum_vec)
    assert products(-1) is products(-1) is V5.family(b)   # b_{-1}|0> = b
    assert products(0) is None                             # b_0|0> = 0
    assert products(-2) is products(-2) and products(-2) is not products(-1)


@pytest.mark.parametrize("index", [Fraction(1), Fraction(1, 2), 1.0, "1"])
def test_family_rejects_an_index_that_is_not_an_int(V4, sigma, mirror, index):
    # a mirror family has no lattice to test the index against; the vacuum
    # and generator families are checked like every other family
    fams = [V4.family(V4.tau_vec), mirror.family(mirror.tensor.omega_vec)]
    for engine in (V4, sigma):
        V = engine.algebra
        fams += [engine.family(V.vec_of(s)) for s in (V.vac_state, V.b_state, V.f_state)]
    for fam in fams:
        with pytest.raises(TypeError):
            fam.apply_basis(index, 0)
        with pytest.raises(TypeError):
            fam.apply(index, {0: ONE})


def _stored(row, col):
    """Whether a monomial family's row holds col: a slot not stored lies
    past the row's end or reads UNKNOWN."""
    return col < len(row[0]) and row[0][col] != UNKNOWN


def test_memo_hits_keep_the_apply_basis_contract(V4):
    # apply_basis looks in the memo before it tests lattice, weight and
    # overflow: filled rows must still refuse a Fraction index (Fraction(2)
    # hashes like 2), overflow on every call and return EMPTY off the lattice
    # and below weight 0, storing none of those columns
    fam = V4.family(V4.vec_of(V4.b_state))
    b = V4.space.column(V4.b_state)
    top = V4.col_w2.index(max(V4.col_w2))
    assert fam.apply_basis(-2, V4.vac) == {b: ONE}         # a(-1)
    assert fam.apply_basis(2, b) == {V4.vac: ONE}          # a(1)
    # a(n) is a monomial family: its memo is the compact `_rows`, whose
    # rows end at the level of their highest stored column
    assert fam.monomial and fam._cols == {}
    for t2, col in ((-2, V4.vac), (2, b)):
        assert _stored(fam._rows[t2], col)
        with pytest.raises(TypeError):
            fam.apply_basis(Fraction(t2), col)
    for _ in range(3):
        with pytest.raises(TruncationOverflow):
            fam.apply_basis(-2, top)
        assert fam.apply_basis(2, V4.vac) is EMPTY
        assert fam.apply_basis(-1, V4.vac) is EMPTY and fam.apply_basis(1, b) is EMPTY
    assert not _stored(fam._rows[-2], top) and not _stored(fam._rows[2], V4.vac)
    # the overflowing column grew no row: row -2 stops short of top's level
    assert len(fam._rows[-2][0]) <= bisect_left(V4.col_w2, V4.col_w2[top])
    assert -1 not in fam._rows and 1 not in fam._rows and fam._cols == {}


# rows that grow by level ------------------------------------------------------------

def test_columns_are_sorted_by_level(V4, tensor, sigma, mirror):
    """The memo rows and `Engine.columns` rely on each engine's columns
    being sorted by level: `col_w2` never decreases."""
    for engine in (V4, tensor, sigma, mirror):
        w2 = engine.col_w2
        assert len(set(w2)) > 1 and all(a <= b for a, b in zip(w2, w2[1:]))
        for top2 in range(-1, max(w2) + 2):
            assert engine.columns(Fraction(top2, 2)) == [
                col for col, w in enumerate(w2) if w <= top2]


def _reachable_families(engines):
    """The families the engines keep per basis index, with the terms of
    their combinations and the factors of their composites."""
    todo = [f for engine in engines for f in engine._fams.values()]
    seen = {}
    while todo:
        fam = todo.pop()
        if id(fam) in seen:
            continue
        seen[id(fam)] = fam
        if isinstance(fam, LinearFamily):
            todo += [f for f, *_ in fam.terms]
        elif isinstance(fam, CompositeFamily):
            todo += [fam.u_fam, fam.w_fam]
    return list(seen.values())


def test_rows_end_at_the_level_of_their_highest_stored_column():
    """After the twisted parts at window 1 on the level-9 stack, every memo
    row ends where the level of its highest stored column ends, and holds
    at least one stored column."""
    builders = [cli._tensor, cli._sigma, cli._calibrated, cli._build_stack]
    for builder in builders:
        builder.cache_clear()
    try:
        args = cli.build_parser().parse_args(
            ["verify", "twisted", "--window", "1", "--levels", "9"])
        for part in cli.SUITES["twisted"].values():
            assert all(check["pass"] for check in part(args))
        mirror = cli._build_stack(9)
        engines = (mirror.tensor.V, mirror.tensor, mirror.sigma, mirror)
        rows = {"list": 0, "monomial": 0}
        for fam in _reachable_families(engines):
            w2 = fam.engine.col_w2
            ends = [(len(row), [c for c, v in enumerate(row) if v is not None], "list")
                    for row in fam._cols.values()]
            for targets, ids in (fam._rows or {}).values():
                assert len(ids) == len(targets)
                ends.append((len(targets), [c for c, t in enumerate(targets)
                                            if t != UNKNOWN], "monomial"))
            for length, stored, kind in ends:
                assert stored and length == bisect_right(w2, w2[stored[-1]])
                rows[kind] += 1
        assert rows["list"] > 100 and rows["monomial"] > 20, rows
    finally:
        for builder in builders:
            builder.cache_clear()


# families that keep no memo --------------------------------------------------------

UNMEMOIZED = {VacuumFamily, _TensorSlotFamily, _TensorMonoFamily}


def _copying_families(V5, tensor):
    """The vacuum families of V and of its tensor square, and every slot and
    product family of the tensor square, after the N=2 calibration and
    kappa's compatibility report have read them."""
    assert kappa_automorphism_report(tensor).passed
    fams = [f for engine in (V5, tensor) for f in engine._fams.values() if not f.memo]
    assert {type(f) for f in fams} == UNMEMOIZED
    return fams


def test_the_families_that_copy_columns_keep_none(V5, tensor, n2):
    """Only the vacuum, slot and product families skip the memo, and after
    the calibration and kappa's report have read them each still holds no
    column; every call returns a fresh column, so mutating one leaves the
    next call unchanged."""
    fams = _copying_families(V5, tensor)
    assert all(f.memo == (type(f) not in UNMEMOIZED)
               for engine in (V5, tensor) for f in engine._fams.values())
    assert all(f._cols == {} for f in fams)
    fresh = 0
    for fam in fams:
        for col in fam.engine.columns(1):
            for t2 in range(-4, 5):
                try:
                    first = fam.apply_basis(t2, col)
                except TruncationOverflow:
                    continue
                if not first:
                    continue
                second = fam.apply_basis(t2, col)
                assert second == first and second is not first
                first[col + 1] = first.pop(next(iter(first)))
                assert fam.apply_basis(t2, col) == second
                fresh += 1
    assert fresh > 300
    assert all(f._cols == {} for f in fams)


def test_a_slot_column_is_vs_column_moved_onto_pairs(V5, tensor):
    """(s (x) 1)_t (a (x) b) = s_t a (x) b and (1 (x) s)_t (a (x) b)
    = (-1)**(|s||a|) a (x) s_t b, from V's memoized column of s."""
    rows, states, parities = tensor.space.rows, tensor.space.states, V5.space.parities
    moved = 0
    for s in V5.columns(2):
        if s == V5.vac:
            continue
        vfam = V5._family_by_index(s)
        slot1 = tensor._family_by_index(rows[s][V5.vac])
        slot2 = tensor._family_by_index(rows[V5.vac][s])
        assert type(slot1) is type(slot2) is _TensorSlotFamily
        for col in tensor.columns(2):
            a, b = states[col]
            sign = ExactScalar((-1) ** (parities[s] * parities[a]))
            for t2 in range(-6, 5, 2):
                try:
                    got1, got2 = slot1.apply_basis(t2, col), slot2.apply_basis(t2, col)
                except TruncationOverflow:
                    continue
                want1 = {rows[i][b]: c for i, c in vfam.apply_basis(t2, a).items()}
                want2 = {rows[a][j]: sign * c for j, c in vfam.apply_basis(t2, b).items()}
                assert got1 == want1 and got2 == want2, (s, t2, col)
                moved += bool(want2) and sign == -ONE
    assert moved > 20
    assert slot1._cols == slot2._cols == {}


def test_unmemoized_families_keep_the_apply_basis_contract(V5, tensor, n2):
    """As `test_memo_hits_keep_the_apply_basis_contract` pins for a
    memoized family: on every call a vacuum, slot or product family refuses
    a Fraction index, overflows above the truncation and returns EMPTY off
    its lattice and below weight 0, and it stores nothing."""
    b_pair = tensor.space.rows[V5.space.column(V5.b_state)][V5.vac]
    f = V5.space.column(V5.f_state)
    for fam in _copying_families(V5, tensor):
        engine = fam.engine
        vac = engine.algebra.vac
        top = engine.col_w2.index(max(engine.col_w2))
        # an integer mode whose output on the top column reaches the bound
        over2 = engine.col_w2[top] + fam.weight2 - engine.bound2 - 2
        over2 -= over2 % 2
        for _ in range(3):
            with pytest.raises(TypeError):
                fam.apply_basis(Fraction(-2), vac)
            with pytest.raises(TruncationOverflow):
                fam.apply_basis(over2, top)
            assert fam.apply_basis(-1, vac) is EMPTY and fam.apply_basis(1, top) is EMPTY
            assert fam.apply_basis(fam.weight2, vac) is EMPTY      # weight -1
        assert fam._cols == {}
    # the slot-1 family of b and the product family of f (x) f
    slot = tensor._family_by_index(b_pair)
    mono = tensor._family_by_index(tensor.space.rows[f][f])
    assert type(slot) is _TensorSlotFamily and type(mono) is _TensorMonoFamily
    assert slot.apply_basis(-2, tensor.vac) == {b_pair: ONE}
    assert mono.apply_basis(-2, tensor.vac) == {tensor.space.rows[f][f]: ONE}


@pytest.mark.parametrize("index", [Fraction(1, 4), Fraction(-3, 8), Fraction(1, 3)])
def test_an_index_off_the_half_integers_is_refused(mirror, index):
    with pytest.raises(ValueError):
        twice(index)
    with pytest.raises(ValueError):
        mode2(mirror.L(), index)


def test_labelled_indices_map_to_family_indices(V4):
    # G(r) = tau_{r+1/2}: G(-3/2)|0> = tau_{-1}|0> = tau, G(-1/2)|0> = tau_0|0> = 0
    G = V4.family(V4.tau_vec)
    assert mode2(G, Fraction(-3, 2)) == -2 and mode2(G, Fraction(-1, 2)) == 0
    assert G.apply(mode2(G, Fraction(-3, 2)), V4.vacuum_vec) == V4.tau_vec
    assert G.apply_basis(mode2(G, Fraction(-1, 2)), V4.vac) == {}
    assert twice(3) == 6 and twice(Fraction(-5, 2)) == -5 and twice("1/2") == 1


@pytest.mark.parametrize("levels", [4, 9])
def test_int_levels_match_fraction_weights(V5, tensor, n2, levels):
    """Each engine's col_w2 and bound2 are its columns' Fraction weights and
    its truncation measured from the lowest column, in half units, and
    columns(level) keeps the columns at most `level` above the lowest one.
    The mirror-twisted module halves the parity-twisted grading: its level
    is (sigma weight - 1/16)/2."""
    sigma = SigmaModule(V5, levels=levels)
    mirror = MirrorModule(sigma, tensor, n2)
    off = Fraction(1, 16)
    vw = [V5.space.state(i).level for i in range(V5.space.dim)]
    sw = [off + sigma.space.state(i).level for i in range(sigma.space.dim)]
    cases = [
        (V5, vw, 0, 5),
        (tensor, [vw[i] + vw[j] for i, j in tensor.space.states], 0, 5),
        (sigma, sw, off, off + levels),
        (mirror, [(w - off) / 2 for w in sw], 0, Fraction(levels, 2)),
    ]
    for engine, weights, low, bound in cases:
        assert min(weights) == low
        assert all(type(w2) is int for w2 in engine.col_w2)
        assert engine.col_w2 == tuple(2 * (w - low) for w in weights)
        assert type(engine.bound2) is int and engine.bound2 == ceil(2 * (bound - low))
        # quarter steps: a level off the half-integers rounds down
        for k in range(4 * levels + 4):
            level = Fraction(k, 4)
            assert engine.columns(level) == [
                i for i, w in enumerate(weights) if w - low <= level]


# flat linear combinations ---------------------------------------------------------

class _BrokenFamily:
    """A stand-in family whose every mode raises."""

    def __init__(self, weight2, parity):
        self.weight2, self.parity = weight2, parity

    def apply_basis(self, t2, col):
        raise KeyError(col)


def test_combinations_hold_merged_non_combination_terms(mirror):
    """No term of any combination is a combination, and each (family, mul,
    add) occurs once: the towers, every mirror basis family and the
    families their composites are built from."""
    fams = list(mirror.n2_families().values())
    for k in range(len(mirror.tensor.space.states)):
        fam = mirror._family_by_index(k)
        fams.append(fam)
        if isinstance(fam, LinearFamily):
            fams += [f for f, *_ in fam.terms if isinstance(f, CompositeFamily)]
        elif isinstance(fam, CompositeFamily):
            fams.append(fam.u_fam)
    linear = [f for f in fams if isinstance(f, LinearFamily)]
    assert len(linear) > 20
    for fam in linear:
        assert not any(isinstance(f, LinearFamily) for f, *_ in fam.terms)
        maps = [(id(f), mul, add) for f, mul, add, *_ in fam.terms]
        assert len(set(maps)) == len(maps)
    # slot 1 + slot 2 of a state: the two slots share their index maps and
    # differ by the sign on odd t2, so the sum doubles on even t2 and
    # vanishes on odd t2, one term per map
    s1, s2 = (mirror.family(mirror.tensor.slot(mirror.V.tau_vec, s)) for s in (1, 2))
    both = LinearFamily.combine(mirror, [(ONE, s1), (ONE, s2)])
    assert [(f, m, a, ce + ce, ExactScalar(0)) for f, m, a, ce, _ in s1.terms] == list(
        both.terms)


def test_inner_lattice_restriction_evaluates_nothing_off_it(V4):
    # an inner combination on the integer lattice of a family whose every
    # mode raises: the outer sum never evaluates it at odd t2
    good = V4.family(V4.tau_vec)
    broken = _BrokenFamily(good.weight2, good.parity)
    inner = LinearFamily(V4, good.weight2, good.parity, [(broken, 1, 0, 1, 1)], off2=0)
    outer = LinearFamily.combine(V4, [(ONE, inner), (ONE, good)])
    assert [(ce, co) for f, *_, ce, co in outer.terms if f is broken] == [(ONE, 0)]
    for col in V4.columns(2):
        for t2 in (-1, 1, 3):
            assert outer.apply_basis(t2, col) == good.apply_basis(t2, col)
    with pytest.raises(KeyError):
        outer.apply_basis(0, V4.vac)


def test_cancelling_terms_give_the_empty_column(V4):
    f = V4.family(V4.omega_vec)
    zero = LinearFamily.combine(V4, [(ONE, f), (-ONE, f)])
    assert zero.terms == ()
    # every mode the overflow rule lets through, on every column
    for col in range(V4.space.dim):
        for t2 in range(V4.col_w2[col] + 3 - V4.bound2, 9):
            assert zero.apply_basis(t2, col) is EMPTY


def test_term_must_carry_the_weight_relation(V4):
    # a weight-3/2 tau family at mul * t2 + add is a weight-w family's term
    # only when 3 - add - 2 == mul * (w2 - 2)
    tau = V4.family(V4.tau_vec)
    assert LinearFamily(V4, 3, 1, [(tau, 1, 0, 1, 1)]).terms
    assert LinearFamily(V4, 2, 1, [(tau, 2, 1, 1, 1)]).terms
    for w2, mul, add, parity in ((4, 1, 0, 1), (3, 2, 0, 1), (3, 1, 1, 1), (3, 1, 0, 0)):
        with pytest.raises(ValueError):
            LinearFamily(V4, w2, parity, [(tau, mul, add, 1, 1)])
