from fractions import Fraction

from superfock.scalars import ExactScalar, ONE, v_scale
from superfock.superalgebra import N2_NS
from superfock.vosa import calibrate_n2

HALF = Fraction(1, 2)


def test_calibration_table_passes(n2):
    assert n2.table.passed and n2.table.complete
    assert n2.table.presentation is N2_NS and n2.table.to_json()["presentation"] == "n2-ns"
    assert n2.table.central_value == ExactScalar(3)


def test_tensor_central_charge_is_twice_the_factors(tensor):
    assert tensor.central_charge == 2 * tensor.V.central_charge == 3


def test_scalar_constraints(n2):
    # c1 is pinned up to sign by the vacuum line of {G1(3/2), G1(-3/2)}
    assert n2.c1 * n2.c1 == ONE
    # [J(1), J(-1)] = id forces cJ**2 = -1
    assert n2.cJ * n2.cJ == ExactScalar(-1)
    assert not n2.c2.is_zero()


def test_mirror_signs(tensor, n2):
    assert tensor.kappa(n2.tau1) == n2.tau1
    assert tensor.kappa(n2.tau2) == v_scale(n2.tau2, ExactScalar(-1))
    assert tensor.kappa(n2.jvec) == v_scale(n2.jvec, ExactScalar(-1))


def test_j_current_bracket(tensor, n2):
    # [J(m), J(n)] = (1/3) m delta 3 = m delta on the vacuum line
    fam = tensor.family(n2.jvec)
    vac = tensor.vac
    down = fam.apply_basis(-2, vac)  # family modes in half units: J(-1)
    comm = fam.apply(2, down)
    up = fam.apply_basis(2, vac)
    if up:
        minus = fam.apply(-2, up)
        for k, c in minus.items():
            comm[k] = comm.get(k, ExactScalar(0)) - c
    assert comm == {vac: ONE}


def test_calibration_determinism(tensor, n2):
    fresh = calibrate_n2(tensor, window=2)
    assert (fresh.c1, fresh.c2, fresh.cJ) == (n2.c1, n2.c2, n2.cJ)
    assert fresh.tau1 == n2.tau1 and fresh.tau2 == n2.tau2 and fresh.jvec == n2.jvec
