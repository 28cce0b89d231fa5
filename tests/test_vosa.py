import gc
from array import array
from collections import Counter
from fractions import Fraction

import pytest

from conftest import mode2
from superfock.checks import borcherds_check
from superfock.errors import NonHomogeneous, TruncationOverflow
from superfock.fock import FockState, mode_apply
from superfock.modes import EMPTY, UNKNOWN
from superfock.scalars import ExactScalar, ONE, v_iadd, v_scale
from superfock.twisted import MirrorModule, SigmaModule, corollary2_check
from superfock.vosa import (
    TensorVosa,
    Vosa,
    creation_report,
    grading_report,
    kappa_automorphism_report,
    n1_table_report,
    translation_report,
)

HALF = Fraction(1, 2)


def _generator_sweep(engine):
    """Compare both generator families with `fock.mode_apply` on every
    column, twice, so that the columns rebuilt from the compact memo are
    compared as well as the computed ones: equal wherever the output weight
    is below the bound (down to a few steps below 0), an overflow on the
    first indices that reach the bound, {} off the mode lattice.

    Returns (compared, nonzero, ground flips) counts of the first reading.
    """
    V, space = engine.algebra, engine.space
    psi_delta = V.psi_delta
    compared = nonzero = flips = 0
    # Y(a(-1)|0>, x) has mode t = a(t); Y(psi(-1/2)|0>, x) has t = psi(t + 1/2)
    for state, field, shift2 in ((V.b_state, "a", 0), (V.f_state, "psi", 1)):
        fam = engine.family(V.vec_of(state))
        assert fam.monomial and fam._cols == {}
        for col in range(space.dim):
            top = engine.col_w2[col] + fam.weight2 - 2     # t2 with output weight 0
            for t2 in range(top - engine.bound2 - 4, top + 5):
                if (t2 - fam.off2) % 2:
                    assert fam.apply_basis(t2, col) == fam.apply_basis(t2, col) == {}
                    continue
                if top - t2 >= engine.bound2:
                    for _ in range(2):
                        with pytest.raises(TruncationOverflow):
                            fam.apply_basis(t2, col)
                    continue
                index = Fraction(t2 + shift2, 2)
                want = {space.column(s): c for s, c in
                        mode_apply(space, field, index, space.state(col), psi_delta)}
                got = fam.apply_basis(t2, col)
                assert got == want, (field, index, space.state(col))
                assert fam.apply_basis(t2, col) == want, (field, index, space.state(col))
                compared += 1
                nonzero += bool(got)
                flips += bool(got) and index == 0
    return compared, nonzero, flips


def test_generator_modes_are_free_field_actions(V4, V5):
    for engine in (V4, Vosa(4, psi_delta=2)):
        compared, nonzero, flips = _generator_sweep(engine)
        assert nonzero and compared > nonzero and not flips
    # the Ramond sector adds the fermion zero mode, which flips the ground
    compared, nonzero, flips = _generator_sweep(SigmaModule(V5, levels=4))
    assert nonzero and compared > nonzero and flips


def test_generator_rows_hold_no_dict(V5, tensor, n2):
    """After the character identity on a level-8 stack, each generator
    family's memo is arrays only: no row refers to a dict."""
    mirror = MirrorModule(SigmaModule(V5, levels=8), tensor, n2)
    assert corollary2_check(mirror).matches
    rows = [row for engine in (V5, mirror.sigma) for fam in engine._fams.values()
            if fam.monomial for row in fam._rows.values()]
    assert len(rows) > 20
    for row in rows:
        assert sorted(type(part).__name__ for part in gc.get_referents(row)) == [
            "array", "bytearray"]
        assert not any(isinstance(ref, dict) for part in row for ref in gc.get_referents(part))


def test_a_coefficient_id_beyond_a_byte_is_refused_on_store(V4, monkeypatch):
    """A monomial family's coefficient ids are bytes: storing id 256 raises
    and leaves the slot unknown, so the next call computes it again."""
    fam = V4.family(V4.vec_of(V4.b_state))
    col = V4.space.column(FockState(bosons=(2,)))
    calls = []

    def stub(t2, c):
        calls.append((t2, c))
        return V4.vac, 256

    monkeypatch.setattr(fam, "_compute", stub)
    monkeypatch.setattr(fam, "_rows", {})
    for _ in range(2):
        with pytest.raises(ValueError):
            fam.apply_basis(4, col)
    assert calls == [(4, col)] * 2 and fam._rows[4][0][col] == UNKNOWN


def test_creation_axiom(V4):
    rep = creation_report(V4)
    assert rep.passed and rep.checked >= V4.space.dim


def test_l0_grading(V4):
    assert grading_report(V4).passed


def test_l0_eigenvalue_on_tau(V4):
    L = V4.L()
    got = L.apply(mode2(L, 0), V4.tau_vec)
    assert got == v_scale(V4.tau_vec, ExactScalar(Fraction(3, 2)))


def test_translation_axiom(V4):
    assert translation_report(V4).passed


def test_creation_mode_of_tau(V4):
    fam = V4.family(V4.tau_vec)
    assert fam.apply(-2, V4.vacuum_vec) == V4.tau_vec  # half units: t = -1


def test_jacobi_generator_pairs(V4):
    gens = {"b": V4.vec_of(V4.b_state), "f": V4.vec_of(V4.f_state)}
    for nu, u in gens.items():
        for nv, v in gens.items():
            rep = borcherds_check(V4, u, v, 2, Fraction(2), f"{nu}{nv}")
            assert rep.passed, (nu, nv, rep.violations[:2])


def test_jacobi_omega_with_low_weight_spanning_set(V4):
    # conformal vector against every state of weight <= 3/2
    for i in range(V4.space.dim):
        if V4.space.state(i).level > Fraction(3, 2):
            continue
        rep = borcherds_check(V4, V4.omega_vec, {i: ONE}, 1, Fraction(1), f"om-{i}")
        assert rep.passed, i


def test_n1_table(V4):
    rep = n1_table_report(V4, 2, Fraction(2))
    assert rep.passed and rep.complete


def test_n1_g_bracket_values(V4):
    G = V4.family(V4.tau_vec)
    vac = V4.vac
    # {G(1/2), G(-1/2)} = 2 L(0) on low layers
    for col in range(V4.space.dim):
        if V4.space.state(col).level > 2:
            continue
        lhs = G.apply(mode2(G, HALF), G.apply_basis(mode2(G, -HALF), col))
        second = G.apply(mode2(G, -HALF), G.apply_basis(mode2(G, HALF), col))
        for k, c in second.items():
            lhs[k] = lhs.get(k, ExactScalar(0)) + c
            if lhs[k].is_zero():
                del lhs[k]
        w = V4.space.state(col).level
        want = {col: ExactScalar(2 * w)} if w else {}
        assert lhs == want
    # {G(3/2), G(-3/2)} - 2L(0) = id on the vacuum line (central (2/3)*(3/2))
    anti = G.apply(mode2(G, Fraction(3, 2)), G.apply_basis(mode2(G, Fraction(-3, 2)), vac))
    assert anti == {vac: ONE}


def test_corrupted_fermion_normalization_fails_conformal_structure():
    bad = Vosa(4, psi_delta=2)
    assert not grading_report(bad).passed
    assert not n1_table_report(bad, 1, Fraction(1)).passed
    # the rescaled Clifford relation alone is still a vertex superalgebra,
    # so the pure component identity for the fermion pair stays exact
    f = bad.vec_of(bad.f_state)
    assert borcherds_check(bad, f, f, 1, Fraction(1), "ff").passed


# tensor square ---------------------------------------------------------------

def test_slot_embeddings(tensor):
    V = tensor.V
    tau1 = tensor.slot(V.tau_vec, 1)
    tau2 = tensor.slot(V.tau_vec, 2)
    assert tensor.kappa(tau1) == tau2
    assert tensor.kappa(tau2) == tau1


def _product_sum(tensor, left, right, t2, col):
    """sum_p (-1)**(|right||a|) left_p a (x) right_{t-1-p} b for col = a (x) b,
    over the integer p with left output weight inside [0, out_w]."""
    V, rows = tensor.V, tensor.space.rows
    a, b = tensor.space.states[col]
    out_w2 = tensor.col_w2[col] + left.weight2 + right.weight2 - t2 - 2
    sign = ExactScalar(-1 if right.parity and V.space.parities[a] else 1)
    top2 = V.col_w2[a] + left.weight2 - 2        # 2p with left output weight 0
    acc = {}
    for p2 in range(top2 - out_w2, top2 + 1):
        if p2 % 2:
            continue
        rvec = right.apply_basis(t2 - 2 - p2, b)
        for ia, ca in left.apply_basis(p2, a).items():
            for jb, cb in rvec.items():
                k = rows[ia][jb]
                acc[k] = acc.get(k, ExactScalar(0)) + sign * ca * cb
    return {k: c for k, c in acc.items() if c}


def test_slot_families_equal_the_product_sum(V4):
    # a slot family (one factor is V's vacuum, whose only nonzero mode is
    # 1_{-1}) carries V's column to the pairs, and a two-slot family s (x) t
    # sums the Koszul products itself: each must equal the whole sum
    tensor = TensorVosa(V4, 4)
    rows, states = tensor.space.rows, tensor.space.states
    low = [s for s in V4.columns(2) if s != V4.vac]
    family, vac = V4._family_by_index, V4._family_by_index(V4.vac)
    # (pair, its slot or None for two slots, left factor, right factor)
    cases = ([(rows[s][V4.vac], 1, family(s), vac) for s in low]
             + [(rows[V4.vac][s], 2, vac, family(s)) for s in low]
             + [(k, None, family(s), family(t)) for k, (s, t) in enumerate(states)
                if s in low and t in low])
    seen = Counter()
    for k, slot, left, right in cases:
        fam = tensor._family_by_index(k)
        assert getattr(fam, "slot", None) == slot
        for col in range(tensor.space.dim):
            top = tensor.col_w2[col] + fam.weight2 - 2   # t2 of output level 0
            # from negative output weight down to the first overflows
            for t2 in range(top + 2, top - tensor.bound2 - 2, -1):
                if t2 % 2:
                    assert fam.apply_basis(t2, col) is EMPTY
                elif top - t2 >= tensor.bound2:
                    with pytest.raises(TruncationOverflow):
                        fam.apply_basis(t2, col)
                    seen[slot, "overflows"] += 1
                else:
                    got = fam.apply_basis(t2, col)
                    assert got == _product_sum(tensor, left, right, t2, col), (k, t2, col)
                    seen[slot, "compared"] += 1
                    if got:
                        seen[slot, "nonzero"] += 1
                        a = states[col][0]
                        seen[slot, "odd-odd"] += right.parity * V4.space.parities[a]
    for slot in (1, 2, None):
        assert seen[slot, "compared"] > seen[slot, "nonzero"] > 0 and seen[slot, "overflows"]
    assert seen[2, "odd-odd"] and seen[None, "odd-odd"]


def test_kappa_involution_and_fixed_points(tensor):
    import random

    rng = random.Random(7)
    for _ in range(20):
        k = rng.randrange(tensor.space.dim)
        vec = {k: ONE}
        assert tensor.kappa(tensor.kappa(vec)) == vec
    assert tensor.kappa(tensor.vacuum_vec) == tensor.vacuum_vec
    assert tensor.kappa(tensor.omega_vec) == tensor.omega_vec


def test_kappa_sign_on_odd_odd_pairs(tensor):
    V = tensor.V
    f = V.vec_of(V.f_state)
    ff = tensor.pair_vec(f, f)
    assert tensor.kappa(ff) == v_scale(ff, ExactScalar(-1))


def test_sigma_parity_map(tensor):
    V = tensor.V
    f1 = tensor.slot(V.vec_of(V.f_state), 1)
    assert tensor.parity_map(f1) == v_scale(f1, ExactScalar(-1))
    assert tensor.parity_map(tensor.omega_vec) == tensor.omega_vec


def test_tensor_vacuum_and_grading(tensor):
    L = tensor.L()
    for col in range(0, tensor.space.dim, 11):
        got = L.apply_basis(mode2(L, 0), col)
        w = Fraction(tensor.col_w2[col], 2)
        want = {col: ExactScalar(w)} if w else {}
        assert got == want


def test_tensor_ground_eigenvalue():
    # the ground columns are the level-0 ones: the pair (vacuum, vacuum)
    assert TensorVosa(Vosa(3), 3).ground_eigenvalue() == 0


def test_tensor_jacobi_mixed_slot_pair(tensor):
    V = tensor.V
    u = tensor.slot(V.vec_of(V.f_state), 1)
    v = tensor.slot(V.vec_of(V.f_state), 2)
    rep = borcherds_check(tensor, u, v, 1, Fraction(1), "f1-f2")
    assert rep.passed


def test_kappa_vertex_compatibility(tensor):
    rep = kappa_automorphism_report(tensor)
    assert rep.passed


def test_mode_parity_grading(V4):
    # modes of an odd state exchange the two parity subspaces
    fam = V4.family(V4.tau_vec)
    compared = 0
    for col in range(V4.space.dim):
        try:
            out = fam.apply_basis(0, col)
        except TruncationOverflow:
            continue
        p = V4.space.parities[col]
        for k in out:
            assert V4.space.parities[k] == (p + 1) % 2
            compared += 1
    assert compared


def test_twist_exponent_requires_eigenvectors(tensor, mirror):
    # the mirror-twisted module's twist is the signed transposition kappa;
    # the tensor square itself is untwisted, so every exponent there is 0
    V = tensor.V
    f1 = tensor.slot(V.vec_of(V.f_state), 1)
    with pytest.raises(NonHomogeneous):
        mirror.twist_exponent(f1)
    assert tensor.twist_exponent(f1) == 0
    f2 = tensor.slot(V.vec_of(V.f_state), 2)
    plus = dict(f1)
    for k, c in f2.items():
        plus[k] = plus.get(k, ExactScalar(0)) + c
    assert mirror.twist_exponent(plus) == 0
    assert mirror.twist_exponent(v_iadd(dict(f1), f2, -1)) == 1
