"""Acceptance suite: one test per criterion, every comparison exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import json
import time
from fractions import Fraction

import pytest

from conftest import mode2
from superfock.cli import main
from superfock.checks import borcherds_check
from superfock.delta import delta_coefficients, verify_delta_equation
from superfock.scalars import ExactScalar, ONE, v_iadd, v_scale
from superfock.superalgebra import (
    Element,
    PRESENTATIONS,
    corrupted_virasoro_quintic,
    gen,
    mirror_automorphism,
    mirror_map_on_generator,
    verify_algebra,
    verify_automorphism,
)
from superfock.twisted import (
    corollary2_check,
    mirror_subalgebra_reports,
    mirror_table_report,
    sigma_ramond_report,
    sigma_virasoro_report,
)
from superfock.vosa import Vosa, n1_table_report

HALF = Fraction(1, 2)


def _report(number: int, passed: bool, message: str):
    print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {message}")
    assert passed, message


def test_criterion_1_delta_coefficients(capsys):
    start = time.monotonic()
    closed_ok = True
    for k in range(1, 13):
        code = main(["delta", "--k", str(k), "--terms", "2", "--json"])
        payload = json.loads(capsys.readouterr().out)
        closed_ok &= code == 0
        closed_ok &= payload["a"] == [str(Fraction(1 - k, 2)),
                                      str(Fraction(k * k - 1, 12))]
    residual_ok = all(verify_delta_equation(k, 10, 10).is_zero()
                      for k in range(1, 7))
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(1, closed_ok and residual_ok and elapsed < 1.0,
                f"delta coefficients closed forms K=1..12 and zero residuals "
                f"K=1..6 through x^10 ({elapsed:.2f} s)")


def test_criterion_2_algebra_presentations():
    start = time.monotonic()
    all_pass = all(verify_algebra(p, 4).passed for p in PRESENTATIONS.values())
    control_fails = not verify_algebra(corrupted_virasoro_quintic(), 4).passed
    elapsed = time.monotonic() - start
    _report(2, all_pass and control_fails and elapsed < 10.0,
            f"six presentations pass super-skew + super-Jacobi at window 4, "
            f"corrupted control fails ({elapsed:.2f} s)")


def test_criterion_3_mirror_map():
    auto_ok = verify_automorphism(PRESENTATIONS["n2-ns"],
                                  mirror_map_on_generator, 4).passed
    invol_ok = all(
        mirror_automorphism(mirror_automorphism(Element.of(g))) == Element.of(g)
        for g in PRESENTATIONS["n2-ns"].basis(4))
    _report(3, auto_ok and invol_ok,
            "mirror map is an automorphism of the N=2 algebra at window 4 "
            "and an involution on the windowed basis")


def test_criterion_4_free_field_n1():
    start = time.monotonic()
    V = Vosa(4)
    gens = {"b": V.vec_of(V.b_state), "f": V.vec_of(V.f_state)}
    jacobi_ok = all(
        borcherds_check(V, u, v, 3, Fraction(2), f"{nu}{nv}").passed
        for nu, u in gens.items() for nv, v in gens.items())
    table = n1_table_report(V, 2, Fraction(2))
    G = V.family(V.tau_vec)
    anti = G.apply(mode2(G, Fraction(3, 2)), G.apply_basis(mode2(G, Fraction(-3, 2)), V.vac))
    vacuum_line_ok = anti == {V.vac: ONE}
    elapsed = time.monotonic() - start
    _report(4, jacobi_ok and table.passed and vacuum_line_ok and elapsed < 60.0,
            f"free-field N=1: Jacobi components (window 3) and n1-ns table "
            f"with c=3/2, [G(3/2),G(-3/2)]=2L(0)+id on the vacuum "
            f"({elapsed:.2f} s)")


def test_criterion_5_n2_calibration(tensor, n2):
    signs_ok = (tensor.kappa(n2.tau1) == n2.tau1
                and tensor.kappa(n2.tau2) == v_scale(n2.tau2, ExactScalar(-1))
                and tensor.kappa(n2.jvec) == v_scale(n2.jvec, ExactScalar(-1)))
    _report(5, n2.table.passed and n2.table.complete and signs_ok,
            "calibrated N=2 generators satisfy the n2-ns table with c=3 and "
            "the mirror-map signs (tau1 fixed, tau2 and J negated)")


def test_criterion_6_sigma_sector(sigma):
    vir = sigma_virasoro_report(sigma, 2, Fraction(2))
    ram = sigma_ramond_report(sigma, 2, Fraction(2))
    ground = sigma.ground_eigenvalue()
    _report(6, vir.passed and ram.passed and ground == Fraction(1, 16),
            f"parity-twisted sector: Virasoro c=3/2 and N=1 Ramond table pass "
            f"at window 2; ground weight {ground} emerges from the recursion")


def test_criterion_7_mirror_twisted_sector(mirror_deep):
    start = time.monotonic()
    same_space = (mirror_deep.space is mirror_deep.sigma.space
                  and mirror_deep.space.basis_dump()
                  == mirror_deep.sigma.space.basis_dump())
    table = mirror_table_report(mirror_deep, 2, Fraction(2))
    subs = mirror_subalgebra_reports(mirror_deep, 2, Fraction(2))
    lattices = mirror_deep.mode_lattice_report(2, Fraction(1))
    elapsed = time.monotonic() - start
    ok = (same_space and table.passed and table.complete
          and all(r.passed and r.complete for r in subs)
          and lattices.passed and elapsed < 300.0)
    _report(7, ok,
            f"mirror-twisted sector on the same space as the parity-twisted "
            f"one: full hybrid table, N=1-NS and N=1-Ramond sub-tables with "
            f"c=3, index lattices as presented ({elapsed:.2f} s)")


def test_criterion_8_character_identity(mirror):
    result = corollary2_check(mirror)
    sigma_ok = all(
        result.sigma_series.coefficient(Fraction(n)) == ExactScalar(c)
        for n, c in enumerate((2, 4, 8, 16, 28)))
    leading_ok = result.mirror_series.min_exponent() == Fraction(0)
    _report(8, sigma_ok and leading_ok and result.matches
            and result.mirror_ground == Fraction(1, 8),
            "graded dimensions: 2+4q+8q^2+16q^3+28q^4, leading twisted "
            "exponent 0, ground weight 1/8, and dim_q sigma = dim_{q^2} mirror")


def test_criterion_9_determinism(capsys):
    argv = ["all", "--json", "--seed", "0", "--window", "2",
            "--max-weight", "2"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    with capsys.disabled():
        _report(9, code1 == 0 and code2 == 0 and out1.encode() == out2.encode(),
                "two runs of the full suite emit byte-identical JSON")
