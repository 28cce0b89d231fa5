from fractions import Fraction

import pytest

from conftest import mode2
from superfock.delta import (
    apply_delta,
    delta_coefficients,
    residual_for_coefficients,
    verify_delta_equation,
)
from superfock.errors import InsufficientTerms, UnboundedExpansion
from superfock.scalars import ExactScalar, SQRT2, v_scale


def test_identity_flow_for_k1():
    assert delta_coefficients(1, 5) == (0, 0, 0, 0, 0)
    assert verify_delta_equation(1, 1, 5).is_zero()


def test_closed_forms():
    assert delta_coefficients(2, 2) == (Fraction(-1, 2), Fraction(1, 4))
    assert delta_coefficients(3, 2) == (Fraction(-1), Fraction(2, 3))
    for k in range(1, 13):
        a = delta_coefficients(k, 2)
        assert a[0] == Fraction(1 - k, 2)
        assert a[1] == Fraction(k * k - 1, 12)


def test_third_coefficient_frozen():
    # value fixed by the x**4 coefficient of the flow equation; the sympy
    # cross-check below recomputes it with independent arithmetic
    assert delta_coefficients(2, 3)[2] == Fraction(-3, 16)


def test_sympy_oracle_recomputes_coefficients():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    J = 4
    for k in (2, 3):
        unknowns = sympy.symbols(f"a1:{J + 1}")
        # apply exp(-D) to x symbolically, truncating at x**(J+1)
        order = J + 2
        term = sympy.Poly(x, x)
        acc = term
        for n in range(1, order + 1):
            # D(term) with D = sum a_j x**(j+1) d/dx
            dterm = sympy.Poly(0, x)
            for j in range(1, J + 1):
                dterm = dterm + sympy.Poly(
                    unknowns[j - 1] * x ** (j + 1) * term.diff(x).as_expr(), x)
            coeffs = {m: c for m, c in dterm.terms()}
            trimmed = sum(c * x ** m[0] for m, c in coeffs.items() if m[0] <= order)
            term = sympy.Poly(-sympy.Rational(1, n) * trimmed, x)
            acc = acc + term
        target = sympy.expand((1 + x) ** k / k - sympy.Rational(1, k))
        eqs = [sympy.Eq(acc.as_expr().coeff(x, d), target.coeff(x, d))
               for d in range(2, J + 2)]
        sol = sympy.solve(eqs, unknowns, dict=True)
        assert len(sol) == 1
        ours = delta_coefficients(k, J)
        for j in range(J):
            assert sympy.nsimplify(sol[0][unknowns[j]]) == sympy.Rational(
                ours[j].numerator, ours[j].denominator)


def test_residuals_vanish():
    for k in range(1, 7):
        assert verify_delta_equation(k, 10, 10).is_zero()


def test_insufficient_terms():
    with pytest.raises(InsufficientTerms):
        verify_delta_equation(2, 3, 10)


def test_perturbed_coefficient_leaves_residual():
    coeffs = list(delta_coefficients(2, 3))
    coeffs[1] = Fraction(1, 3)
    residual = residual_for_coefficients(2, coeffs, 4)
    assert not residual.coefficient(3).is_zero()


# ---------------------------------------------------------------------------
# applying the operator to graded states
# ---------------------------------------------------------------------------

def _expand(weight, vec, lower):
    return apply_delta(Fraction(weight), vec, lower)


def test_non_lowering_operator_is_an_error():
    # an identity "L(j)" never empties a layer; the expansion must not stop
    # silently at some cap
    with pytest.raises(UnboundedExpansion):
        _expand(2, {0: ExactScalar(1)}, lambda j, v: v)


def test_vacuum_is_fixed(V4):
    L = V4.L()
    out = _expand(0, V4.vacuum_vec, lambda j, v: L.apply(mode2(L, j), v))
    assert out == [(Fraction(0), V4.vacuum_vec)]


def test_conformal_vector_expansion(V4):
    L = V4.L()
    out = _expand(2, V4.omega_vec, lambda j, v: L.apply(mode2(L, j), v))
    terms = dict(out)
    assert set(terms) == {Fraction(-1), Fraction(-2)}
    quarter_omega = v_scale(V4.omega_vec, ExactScalar(Fraction(1, 4)))
    assert terms[Fraction(-1)] == quarter_omega
    # c/32 with c = 3/2
    assert terms[Fraction(-2)] == {V4.vac: ExactScalar(Fraction(3, 64))}


def test_superconformal_vector_expansion(V4):
    L = V4.L()
    out = _expand(Fraction(3, 2), V4.tau_vec, lambda j, v: L.apply(mode2(L, j), v))
    assert len(out) == 1
    exp, vec = out[0]
    assert exp == Fraction(-3, 4)
    assert vec == v_scale(V4.tau_vec, SQRT2 * ExactScalar(Fraction(1, 4)))


def test_single_lowering_step(V4):
    # a(-2)|0> has one nonvanishing lowering: L(1) a(-2)|0> = 2 a(-1)|0>
    from superfock.fock import FockState

    L = V4.L()
    state = V4.vec_of(FockState(bosons=(2,)))
    out = _expand(2, state, lambda j, v: L.apply(mode2(L, j), v))
    assert sorted(e for e, _ in out) == [Fraction(-3, 2), Fraction(-1)]
    terms = dict(out)
    assert terms[Fraction(-1)] == v_scale(state, ExactScalar(Fraction(1, 4)))
    # a_1 * 2**-wt * (2 b) = (-1/2)(1/4)(2) = -1/4
    b_vec = V4.vec_of(V4.b_state)
    assert terms[Fraction(-3, 2)] == v_scale(b_vec, ExactScalar(Fraction(-1, 4)))
    # exponent/weight bookkeeping: each term has e = -(wt + d)/2 with the
    # output weight lowered by exactly d
    for e, vec in out:
        d = -2 * e - 2
        assert {V4.space.state(i).level for i in vec} == {2 - d}
