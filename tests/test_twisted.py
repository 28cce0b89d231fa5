from fractions import Fraction
from functools import cache

import pytest

from conftest import mode2, perturb_delta
from superfock.checks import borcherds_check, bracket_table_check
from superfock.delta import apply_delta
from superfock.errors import InvalidAlgebra, TruncationOverflow
from superfock.fock import FockState
from superfock.modes import NONE, UNKNOWN, CompositeFamily, Family, VacuumFamily
from superfock.scalars import ExactScalar, ONE, SQRT2, twice, v_iadd, v_scale
from superfock.superalgebra import (
    N1_NS,
    N1_RAMOND,
    N2_MIRROR_TWISTED,
    N2_NS,
    VIRASORO,
    corrupted_virasoro_quintic,
)
from superfock.twisted import (
    MirrorModule,
    SigmaModule,
    corollary2_check,
    mirror_equivariance_report,
    mirror_subalgebra_reports,
    mirror_table_report,
    mirror_twisted_jacobi_report,
    sigma_ramond_report,
    sigma_twisted_jacobi_report,
    sigma_virasoro_report,
)
from superfock.vosa import TensorVosa, Vosa, _TensorMonoFamily, _TensorSlotFamily, calibrate_n2

HALF = Fraction(1, 2)


# parity-twisted sector -------------------------------------------------------

def test_ground_weight_emerges(sigma):
    # computed from the twisted recursion, never inserted
    assert sigma.ground_eigenvalue() == Fraction(1, 16)


def test_sigma_l0_spectrum_is_offset_levels(sigma):
    eig = sigma.l0_eigenvalues()
    for i, lam in enumerate(eig):
        assert lam == sigma.space.state(i).level + Fraction(1, 16)


def test_sigma_virasoro(sigma):
    rep = sigma_virasoro_report(sigma, 2, Fraction(2))
    assert rep.passed and rep.complete


def test_sigma_ramond_table(sigma):
    rep = sigma_ramond_report(sigma, 2, Fraction(2))
    assert rep.passed and rep.complete


def test_sigma_virasoro_is_the_standalone_table(sigma):
    cols = sigma.columns(2)
    alone = bracket_table_check("sigma-virasoro", VIRASORO, sigma.V.central_charge,
                                {"L": sigma.L()}, 2, cols)
    assert sigma_virasoro_report(sigma, 2, Fraction(2)).to_json() == alone.to_json()


def test_restrict_refuses_a_view_of_another_algebra(sigma, mirror_deep):
    # same generators, different cocycle: [L(2), L(-2)] disagrees
    with pytest.raises(InvalidAlgebra):
        sigma_ramond_report(sigma, 2, Fraction(2)).restrict(
            "quintic", corrupted_virasoro_quintic(), {"L": "L"})
    # G2 is integer-moded, the Neveu-Schwarz G is not
    with pytest.raises(InvalidAlgebra):
        mirror_table_report(mirror_deep, 2, Fraction(2)).restrict(
            "g2-ns", N1_NS, {"L": "L", "G2": "G"})


def _assert_product_formula(series, terms):
    """series matches 2 prod_n (1+q^n)/(1-q^n) through q^(terms-1)."""
    want = [2] + [0] * (terms - 1)
    for n in range(1, terms):
        times = want[:]                      # times (1 + q^n)
        for e in range(n, terms):
            times[e] += want[e - n]
        for e in range(n, terms):            # times 1/(1 - q^n) = sum_k q^(nk)
            times[e] += times[e - n]
        want = times
    assert series.truncation >= terms
    assert [series.coefficient(Fraction(e)) for e in range(terms)] == [
        ExactScalar(c) for c in want]


def test_sigma_character_matches_product_formula(sigma):
    """dim_q of the parity-twisted module is 2 prod_n (1+q^n)/(1-q^n)."""
    _assert_product_formula(sigma.graded_dimension(), 6)


def test_sigma_g0_squared(sigma):
    # [G(0), G(0)] = 2 L(0) - c/12 vanishes on the ground states
    G = sigma.family(sigma.V.tau_vec)
    g0 = mode2(G, 0)
    ground = [i for i in range(sigma.space.dim) if sigma.space.level2[i] == 0]
    for col in ground:
        sq = G.apply(g0, G.apply_basis(g0, col))
        assert v_scale(sq, 2) == {}


def test_sigma_vacuum_axiom(sigma):
    fam = sigma.family(sigma.V.vacuum_vec)
    for col in (0, 1, min(5, sigma.space.dim - 1)):
        assert fam.apply_basis(-2, col) == {col: ONE}  # half units: t = -1
        assert fam.apply_basis(0, col) == {}


def test_sigma_fermion_modes_are_integer_labelled(sigma):
    # f is parity odd: its twisted tower lives on Z + 1/2, so psi labels are Z
    fam = sigma.family(sigma.V.vec_of(sigma.V.f_state))
    assert fam.apply_basis(0, 0) == {}
    got = fam.apply_basis(-1, 0)  # half units: t = -1/2
    assert got  # psi(0) on a ground state
    (idx, coeff), = got.items()
    assert coeff * coeff == ExactScalar(HALF)


@pytest.mark.parametrize("psi_delta", [1, 2])
def test_the_space_alone_fixes_the_fermion_sector(psi_delta):
    """The fermion's family reads its lattice off the space's fermion
    sector: Z + 1/2 in half units (off2 1, so psi labels are Z) exactly on
    the Ramond space.  There psi(0) maps w+ and w- onto each other with
    +-sqrt(psi_delta/2), the sign that of the fermions it passes; on V's
    Neveu-Schwarz space it is off the lattice."""
    V = Vosa(4, psi_delta=psi_delta)
    sigma = SigmaModule(V, levels=4)
    root = {1: SQRT2 * ExactScalar(HALF), 2: ONE}[psi_delta]
    assert root * root == ExactScalar(Fraction(psi_delta, 2))
    for engine, sector in ((V, "ns"), (sigma, "r")):
        assert engine.space.fermion_sector == sector
        fam = engine.family(V.vec_of(V.f_state))
        assert fam.off2 == (sector == "r")
        for col, (bos, fer, rank) in enumerate(engine.space.codes):
            got = fam.apply_basis(-1, col)  # half units: t = -1/2, psi(0)
            if sector == "ns":
                assert got == {}
                continue
            assert got == {engine.space.code_index[(bos, fer, 1 - rank)]:
                           -root if len(fer) % 2 else root}
    assert {sigma.space.ground_labels[rank] for _, _, rank in sigma.space.codes} == {"+", "-"}


def test_a_zero_mode_outside_the_field_is_refused():
    # sqrt(3/2) is not in Q(i, sqrt2): only the Ramond space needs it
    V = Vosa(2, psi_delta=3)
    assert V.family(V.vec_of(V.f_state)).off2 == 0
    with pytest.raises(ValueError):
        SigmaModule(V, levels=2).family(V.vec_of(V.f_state))


def test_sigma_twisted_jacobi(sigma):
    rep = sigma_twisted_jacobi_report(sigma, 2, Fraction(1))
    assert rep.passed
    assert rep.filtered < rep.checked


def test_truncation_axiom(sigma):
    # v_n w = 0 for n large: high modes annihilate any fixed column
    fam = sigma.family(sigma.V.omega_vec)
    for t in range(3, 8):
        assert fam.apply_basis(2 * t, 0) == {}


# mirror-twisted sector ------------------------------------------------------

def test_same_underlying_space(mirror, sigma):
    assert mirror.space is sigma.space
    assert mirror.space.basis_dump() == sigma.space.basis_dump()


def test_mirror_ground_weight(mirror):
    assert mirror.ground_eigenvalue() == Fraction(1, 8)


def test_mirror_l0_is_half_sigma_l0_plus_c16(mirror, sigma):
    # L_twisted(0) = (1/2) L_sigma(0) + c/16 with c = 3/2
    lk = mirror.l0_eigenvalues()
    ls = sigma.l0_eigenvalues()
    for a, b in zip(lk, ls):
        assert a == b / 2 + Fraction(3, 32)


def test_leading_exponent_cancellation(mirror):
    # -2c/24 + 1/8 = 0 with 2c = 3
    series = mirror.graded_dimension()
    assert series.min_exponent() == 0


def test_mode_lattices(mirror):
    rep = mirror.mode_lattice_report(2, Fraction(1))
    assert rep.passed


def test_mirror_table_full_window(mirror_deep):
    rep = mirror_table_report(mirror_deep, 2, Fraction(2))
    assert rep.passed and rep.complete


def test_mirror_subalgebras(mirror_deep):
    for rep in mirror_subalgebra_reports(mirror_deep, 2, Fraction(2)):
        assert rep.passed and rep.complete, rep.name


def test_mirror_subalgebras_are_the_standalone_tables(mirror_deep):
    cols = mirror_deep.columns(1)
    central = 2 * mirror_deep.V.central_charge
    h = mirror_deep.n2_families()
    alone = [
        bracket_table_check("mirror-virasoro", VIRASORO, central, {"L": h["L"]}, 2, cols),
        bracket_table_check("mirror-g1-ns", N1_NS, central, {"L": h["L"], "G": h["G1"]},
                            2, cols),
        bracket_table_check("mirror-g2-ramond", N1_RAMOND, central,
                            {"L": h["L"], "G": h["G2"]}, 2, cols),
    ]
    views = mirror_subalgebra_reports(mirror_deep, 2, Fraction(2))
    assert [v.to_json() for v in views] == [a.to_json() for a in alone]


def test_specific_mirror_brackets(mirror):
    """[G1(1/2), G2(0)] = -(i/2) J(1/2) and [L(1), J(-1/2)] = (1/2) J(1/2)."""
    h = mirror.n2_families()
    L, J, G1, G2 = h["L"], h["J"], h["G1"], h["G2"]
    cols = [i for i in range(mirror.space.dim)
            if mirror.sigma.space.level2[i] <= 4]
    for col in cols:
        lhs = G1.apply(mode2(G1, HALF), G2.apply_basis(mode2(G2, 0), col))
        v_iadd(lhs, G2.apply(mode2(G2, 0), G1.apply_basis(mode2(G1, HALF), col)), 1)
        want = v_scale(J.apply_basis(mode2(J, HALF), col),
                       ExactScalar(0, -HALF))
        assert lhs == want
    for col in cols:
        lhs = L.apply(mode2(L, 1), J.apply_basis(mode2(J, -HALF), col))
        v_iadd(lhs, J.apply(mode2(J, -HALF), L.apply_basis(mode2(L, 1), col)), -1)
        want = v_scale(J.apply_basis(mode2(J, HALF), col), ExactScalar(HALF))
        assert lhs == want


def test_g2_ramond_central_value(mirror):
    # [G2(1), G2(-1)] = 2 L(0) + (1/3)(1 - 1/4) * 3 = 2 L(0) + 3/4 on grounds
    G2 = mirror.n2_families()["G2"]
    up, down = mode2(G2, 1), mode2(G2, -1)
    ground = [i for i in range(mirror.space.dim) if mirror.space.level2[i] == 0]
    for col in ground:
        anti = G2.apply(up, G2.apply_basis(down, col))
        v_iadd(anti, G2.apply(down, G2.apply_basis(up, col)), 1)
        want = {col: ExactScalar(2 * Fraction(1, 8) + Fraction(3, 4))}
        assert anti == want


def test_mirror_twisted_jacobi(mirror):
    rep = mirror_twisted_jacobi_report(mirror, 2, Fraction(1))
    assert rep.passed


def test_mirror_grading_lattice(mirror):
    # the twisted grading sits in (1/2)N (inside (1/4)N) above its minimum
    eig = mirror.l0_eigenvalues()
    for lam in eig:
        step = lam - Fraction(1, 8)
        assert step >= 0 and (2 * step).denominator == 1


def test_mirror_equivariance(mirror):
    rep = mirror_equivariance_report(mirror, Fraction(3, 2), 1, Fraction(1))
    assert rep.passed


class _BrokenFamily:
    weight2 = 2  # a family's weight fixes its label shift; any int will do

    def apply_basis(self, t, col):
        raise KeyError(col)


def test_reports_do_not_filter_faults(mirror, monkeypatch):
    # only truncation overflows count as filtered; any other error propagates
    monkeypatch.setattr(mirror, "family", lambda vec: _BrokenFamily())
    with pytest.raises(KeyError):
        mirror.mode_lattice_report(1, Fraction(1))
    with pytest.raises(KeyError):
        mirror_equivariance_report(mirror, Fraction(1), 1, Fraction(1))


def test_functor_rebuild_is_identical(sigma, tensor, n2, mirror):
    """Determinism of the construction: rebuilding yields the same mode table."""
    again = MirrorModule(sigma, tensor, n2)
    assert again.space is mirror.space
    compared = 0
    fresh = again.n2_families()
    for name, f1 in mirror.n2_families().items():
        f2 = fresh[name]
        for idx in (Fraction(0), Fraction(1), -HALF):
            for col in range(0, mirror.space.dim, 17):
                try:
                    a = f1.apply_basis(mode2(f1, idx), col)
                    b = f2.apply_basis(mode2(f2, idx), col)
                except TruncationOverflow:
                    continue
                assert a == b
                compared += 1
    assert compared


def test_mirror_grading_shift(mirror):
    # modes shift the computed twisted L(0) eigenvalue by exactly -n
    lam = mirror.l0_eigenvalues()
    h = mirror.n2_families()
    compared = 0
    for name, idx in (("G1", -HALF), ("J", HALF), ("G2", -1), ("L", 1)):
        for col in range(0, mirror.space.dim, 13):
            try:
                out = h[name].apply_basis(mode2(h[name], idx), col)
            except TruncationOverflow:
                continue
            for k in out:
                assert lam[k] == lam[col] - idx
                compared += 1
    assert compared


def _closed_form_tallies(mirror):
    """(compared, filtered, mismatched) per tower for the 2-cycle formulas

        L(n) = L_sigma(2n)/2 + (c/16) delta_{n,0},   G1(r) = G_sigma(2r)/sqrt2,

    c = 3/2, over n in -3..3, r in +-1/2, +-3/2, +-5/2 and the columns up to
    level 2; an overflow on either side is filtered."""
    sigma = mirror.sigma
    h = mirror.n2_families()
    L_sigma, G_sigma = sigma.L(), sigma.family(sigma.V.tau_vec)
    c16 = sigma.V.central_charge / 16
    pairs = {
        "L": [(h["L"], n, L_sigma, ExactScalar(HALF), c16 if n == 0 else 0)
              for n in range(-3, 4)],
        "G1": [(h["G1"], HALF * r2, G_sigma, SQRT2.inv(), 0)
               for r2 in (-5, -3, -1, 1, 3, 5)],
    }
    tallies = {}
    for name, terms in pairs.items():
        compared = filtered = mismatched = 0
        for col in mirror.columns(2):
            for fam, n, sfam, scale, shift in terms:
                try:
                    got = fam.apply_basis(mode2(fam, n), col)
                    want = v_scale(sfam.apply_basis(mode2(sfam, 2 * n), col), scale)
                except TruncationOverflow:
                    filtered += 1
                    continue
                if shift:
                    v_iadd(want, {col: ExactScalar(shift)})
                compared += 1
                mismatched += got != want
        tallies[name] = (compared, filtered, mismatched)
    return tallies


def test_towers_match_the_doubled_index_formulas(mirror):
    assert _closed_form_tallies(mirror) == {"L": (268, 138, 0), "G1": (248, 100, 0)}


def test_doubled_index_formula_sees_a_perturbed_twist(sigma, tensor, n2, monkeypatch):
    perturb_delta(monkeypatch, 1)
    compared, _, mismatched = _closed_form_tallies(MirrorModule(sigma, tensor, n2))["L"]
    assert compared and mismatched


# the character identity ---------------------------------------------------------

def test_corollary2(mirror):
    result = corollary2_check(mirror)
    assert result.matches
    assert result.sigma_ground == Fraction(1, 16)
    assert result.mirror_ground == Fraction(1, 8)
    for n, c in enumerate((2, 4, 8, 16, 28, 48)):
        assert result.sigma_series.coefficient(Fraction(n)) == ExactScalar(c)
    for k, c in zip(range(6), (2, 4, 8, 16, 28, 48)):
        assert result.mirror_series.coefficient(Fraction(k, 2)) == ExactScalar(c)


def test_corollary2_at_fourteen_levels_matches_product_formula(V5, tensor, n2):
    # the stack and range of `corollary2 --trunc 7`: q^0 to q^13
    mirror = MirrorModule(SigmaModule(V5, levels=14), tensor, n2)
    result = corollary2_check(mirror, Fraction(14))
    assert result.matches
    _assert_product_formula(result.sigma_series, 14)


def test_corollary2_coefficientwise_equality(mirror):
    result = corollary2_check(mirror)
    subst = result.mirror_series.substitute_square()
    bound = min(result.sigma_series.truncation, subst.truncation)
    assert subst.truncate(bound) == result.sigma_series.truncate(bound)


def test_corollary2_empty_range_does_not_match(mirror):
    result = corollary2_check(mirror, Fraction(0))
    assert result.sigma_series.is_zero() and result.substituted.is_zero()
    assert not result.matches


# shared values -----------------------------------------------------------------

def _stack(n2=None):
    """Vosa(4) and the level-4 twisted stack over Vosa(5), each engine with
    the families of its bracket table (the tensor square is calibrated when
    no n2 is given)."""
    V4, V = Vosa(4), Vosa(5)
    tensor = TensorVosa(V, 5)
    if n2 is None:
        n2 = calibrate_n2(tensor)
    sigma = SigmaModule(V, levels=4)
    mirror = MirrorModule(sigma, tensor, n2)
    c = V.central_charge
    tables = [
        (V4, N1_NS, c, {"L": V4.L(), "G": V4.family(V4.tau_vec)}),
        (tensor, N2_NS, 2 * c, {"L": tensor.L(), "J": tensor.family(n2.jvec),
                                "G1": tensor.family(n2.tau1),
                                "G2": tensor.family(n2.tau2)}),
        (sigma, N1_RAMOND, c, {"L": sigma.L(), "G": sigma.family(V.tau_vec)}),
        (mirror, N2_MIRROR_TWISTED, 2 * c, mirror.n2_families()),
    ]
    return n2, V4, V, tensor, sigma, mirror, tables


def test_label_shifts_follow_the_paper(n2):
    """Each table family's derived shift weight2 - 2 is the paper's
    labelling: L(n) = omega_{n+1}, G(r) = tau_{r+1/2}, J(n) = j_n."""
    *_, tables = _stack(n2)
    want = {"L": 2, "G": 1, "G1": 1, "G2": 1, "J": 0}
    for _, _, _, families in tables:
        assert {f: fam.weight2 - 2 for f, fam in families.items()} == {
            f: want[f] for f in families}


def test_one_family_per_basis_index():
    """Each engine keeps one family per basis index of its algebra, with the
    weight and parity of the algebra's state; a combination of basis
    vectors is rebuilt on each call."""
    _, V4, V, tensor, sigma, mirror, _ = _stack()
    for engine in (V4, V, tensor, sigma, mirror):
        space = engine.algebra.space
        for k in range(len(space.parities)):
            fam = engine._family_by_index(k)
            assert engine.family({k: ONE}) is fam
            assert fam.weight2 == engine.algebra.col_w2[k]
            assert fam.parity == space.parities[k]
        assert len(engine._fams) == len(space.parities)
        omega = engine.algebra.omega_vec
        assert engine.family(omega) is not engine.family(omega)


def _memo_columns(fam):
    """(t2, col, vec) for every column a family holds in its memo: its
    `_cols`, or a monomial family's compact rows, read back as columns."""
    for t2, row in fam._cols.items():
        for col, vec in enumerate(row):
            if vec is not None:
                yield t2, col, vec
    for t2, (targets, ids) in (fam._rows or {}).items():
        for col, target in enumerate(targets):
            if target != UNKNOWN:
                yield t2, col, {} if target == NONE else {target: fam.coeffs[ids[col]]}


def _recording(compute, read):
    """compute, noting each (family, t2, col) it is called with in read."""
    def recorded(fam, t2, col):
        read[fam, t2, col] = None
        return compute(fam, t2, col)
    return recorded


def test_memoized_columns_are_zero_free_and_unmutated(monkeypatch):
    """Vectors share their (immutable) scalars, and callers of a family
    never mutate the columns it memoizes: after a bracket table has run on
    every engine, each memoized column is zero-free and equals the column
    a freshly built engine computes.  The classes that keep no memo
    (`VacuumFamily`, `_TensorSlotFamily`, `_TensorMonoFamily`) copy memoized
    columns, so each of their columns that the N=2 calibration and the
    tables read is recomputed on the old engines and compared the same
    way."""
    read = {}
    for cls in (VacuumFamily, _TensorSlotFamily, _TensorMonoFamily):
        assert not cls.memo
        monkeypatch.setattr(cls, "_compute", _recording(cls._compute, read))
    n2, V4, V, tensor, sigma, mirror, tables = _stack()
    for engine, pres, central, families in tables:
        report = bracket_table_check("shared", pres, central, families, 1,
                                     engine.columns(1))
        assert sum(p.checked for p in report.pairs) and report.violations == 0
    monkeypatch.undo()
    _, V4b, Vb, tensor_b, sigma_b, mirror_b, tables_b = _stack(n2)
    pairs = []
    for old, new in ((V4, V4b), (V, Vb), (tensor, tensor_b), (sigma, sigma_b),
                     (mirror, mirror_b)):
        pairs += [(f, new._family_by_index(k)) for k, f in old._fams.items()]
    fresh = dict(pairs)
    for (*_, families), (*_, fresh_tables) in zip(tables, tables_b):
        pairs += [(families[k], fresh_tables[k]) for k in families]
    columns = [(old, new, t2, col, vec) for old, new in pairs
               for t2, col, vec in _memo_columns(old)]
    assert all(not old._cols for old in fresh if not old.memo)
    assert any(old.monomial and old._rows for old in fresh)
    columns += [(old, fresh[old], t2, col, old.apply_basis(t2, col))
                for old, t2, col in read]
    compared = 0
    for old, new, t2, col, vec in columns:
        assert all(type(c) is ExactScalar and c for c in vec.values())
        assert vec == new.apply_basis(t2, col), (old, t2, col)
        compared += 1
    assert compared > 5000


# flat towers against the nested sums they replace ----------------------------

class _NestedSum(Family):
    """A combination evaluated part by part, each part through its own
    apply_basis with its lattice test, overflow rule and memo."""

    def __init__(self, engine, parts, off2):
        first = parts[0][1]
        super().__init__(engine, first.weight2, first.parity, off2)
        self.parts = parts

    def _compute(self, t2, col):
        acc = {}
        for c, fam in self.parts:
            v_iadd(acc, fam.apply_basis(t2, col), c)
        return acc


class _NestedSlot(Family):
    """A slot family evaluated term by term: the mode at t collects the
    parity-twisted modes of the weight-halving expansion of V's basis
    vector i at 2t + 1 - wt - d, each term a nested sum, and slot 2 differs
    by the sign (-1)**(2t)."""

    def __init__(self, mirror, i, slot):
        V, sigma = mirror.V, mirror.sigma
        super().__init__(mirror, V.col_w2[i], V.space.parities[i], None)
        self.slot = slot
        h, L = V.space.state(i).level, V.L()
        self.terms = [(twice(-2 * exp - h), _nested_vec(sigma, vec, sigma._family_by_index))
                      for exp, vec in apply_delta(h, {i: ONE},
                                                  lambda j, v: L.apply(2 * j + 2, v))]

    def _compute(self, t2, col):
        sign = -1 if self.slot == 2 and t2 % 2 else 1
        acc = {}
        for d2, fam in self.terms:
            v_iadd(acc, fam.apply_basis(2 * t2 + 2 - self.weight2 - d2, col), sign)
        return acc


def _nested_vec(engine, vec, basis):
    """The family of vec, a combination of the families basis(k) built as
    one nested sum."""
    items = sorted(vec.items())
    if len(items) == 1 and items[0][1] == ONE:
        return basis(items[0][0])
    parts = [(c, basis(k)) for k, c in items]
    offs = {f.off2 for _, f in parts}
    return _NestedSum(engine, parts, offs.pop() if len(offs) == 1 else None)


def _nested_mirror(mirror):
    """Tensor basis index -> its mirror family built from nested sums and
    nested slot families throughout; only the parity-twisted families are
    shared with the flat construction.  Its product states are taken in V
    and carried to slot 2, so they check the flat construction's products
    in V (x) V independently."""
    V, tensor = mirror.V, mirror.tensor

    def slot2(vec):
        return _nested_vec(mirror, tensor.slot(vec, 2), basis) if vec else None

    @cache
    def basis(k):
        i, j = tensor.space.states[k]
        if k == tensor.vac:
            return mirror._family_by_index(k)
        if j == V.vac:
            return _NestedSlot(mirror, i, 1)
        if i == V.vac:
            return _NestedSlot(mirror, j, 2)
        u_vec, v_vec = {i: ONE}, {j: ONE}
        u_fam = _NestedSum(mirror, [(ONE, _nested_vec(mirror, tensor.slot(u_vec, s), basis))
                                    for s in (1, 2)], 0)
        u_in_V = V.family(u_vec)
        comp = CompositeFamily(mirror, u_fam, slot2(v_vec), -1,
                               cache(lambda s: slot2(u_in_V.apply(2 * s, v_vec))))
        minus = slot2(u_in_V.apply(-2, v_vec))
        return comp if minus is None else _NestedSum(mirror, [(ONE, comp), (-ONE, minus)],
                                                     None)

    return basis


def test_flat_towers_match_the_nested_sums(n2):
    """Each mirror N=2 tower and each slot family, flat, gives the column
    of the nested construction at every mode of window 2 on every column up
    to level 2, and overflows at exactly the same (t2, col)."""
    *_, mirror, _ = _stack(n2)
    V, tensor = mirror.V, mirror.tensor
    basis = _nested_mirror(mirror)
    flat = mirror.n2_families()
    nested = {name: _nested_vec(mirror, vec, basis)
              for name, vec in (("L", tensor.omega_vec), ("G1", n2.tau1),
                                ("G2", n2.tau2), ("J", n2.jvec))}
    for i in range(V.space.dim):
        for slot in (1, 2):
            if i != V.vac:
                vec = tensor.slot({i: ONE}, slot)
                flat[i, slot] = mirror.family(vec)
                nested[i, slot] = _nested_vec(mirror, vec, basis)
    seen = {"nonzero": 0, "zero": 0, "overflow": 0}
    for key, fam in flat.items():
        for t2 in range(-4, 5):
            for col in mirror.columns(2):
                got = []
                for f in (fam, nested[key]):
                    try:
                        got.append(f.apply_basis(t2, col))
                    except TruncationOverflow:
                        got.append("overflow")
                assert got[0] == got[1], (key, t2, col)
                seen["overflow" if got[0] == "overflow" else
                     "nonzero" if got[0] else "zero"] += 1
    assert all(seen.values()), seen
