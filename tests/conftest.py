from fractions import Fraction

import pytest

import superfock.delta as delta
from superfock.scalars import twice
from superfock.twisted import MirrorModule, SigmaModule
from superfock.vosa import TensorVosa, Vosa, calibrate_n2


def mode2(fam, n) -> int:
    """The index of the labelled mode X(n) = x_{n+wt-1} in the half units
    of x's family: L(n) = omega_{n+1}, G(r) = tau_{r+1/2}, J(n) = j_n."""
    return twice(n) + fam.weight2 - 2


def perturb_delta(monkeypatch, index):
    """Add 1/100 to the order-two twist coefficient a_(index+1) wherever
    `apply_delta` reads it."""
    exact = delta.delta_coefficients

    def perturbed(k, terms):
        coeffs = exact(k, terms)
        if k == 2 and terms > index:
            coeffs = coeffs[:index] + (coeffs[index] + Fraction(1, 100),) + coeffs[index + 1:]
        return coeffs

    monkeypatch.setattr(delta, "delta_coefficients", perturbed)


@pytest.fixture(scope="session")
def V4():
    return Vosa(4)


@pytest.fixture(scope="session")
def V5():
    return Vosa(5)


@pytest.fixture(scope="session")
def tensor(V5):
    return TensorVosa(V5, 5)


@pytest.fixture(scope="session")
def n2(tensor):
    return calibrate_n2(tensor)


@pytest.fixture(scope="session")
def sigma(V5):
    return SigmaModule(V5, levels=6)


@pytest.fixture(scope="session")
def mirror(sigma, tensor, n2):
    return MirrorModule(sigma, tensor, n2)


@pytest.fixture(scope="session")
def sigma_deep(V5):
    # deep enough for the complete window-2 mirror bracket table
    return SigmaModule(V5, levels=9)


@pytest.fixture(scope="session")
def mirror_deep(sigma_deep, tensor, n2):
    return MirrorModule(sigma_deep, tensor, n2)
