"""The weight-twisting operator for order-k cyclic permutations.

The rational coefficients a_1, a_2, ... are defined by requiring that the
flow exp(-sum_j a_j x**(j+1) d/dx) send x to (1+x)**k/k - 1/k.  They are
solved order by order: once a_1 .. a_{j-1} are fixed, a_j enters the
x**(j+1) coefficient linearly with unit coefficient.

Applying the twist to a weight-homogeneous state v of weight h (k = 2):

    Delta(x) v = 2**(-h) * x**(-h/2) * exp(sum_j a_j x**(-j/2) L(j)) v,

a finite sum because the positive Virasoro modes lower weight and weights
are bounded below.  The coefficients are solved for any k, but the twist is
applied for k = 2 only: 2**(-h) for half-integer h needs sqrt(2), and the
scalar field stops there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable, Dict, List, Tuple

from .errors import InsufficientTerms, UnboundedExpansion
from .scalars import ExactScalar, Vec, pow_two, v_iadd, v_scale
from .series import Series

Poly = Dict[int, Fraction]  # exponent -> coefficient, exact


def _poly_trim(p: Poly, order: int) -> Poly:
    return {e: c for e, c in p.items() if c and e <= order}


def _flow_derivation(coeffs: List[Fraction], p: Poly, order: int) -> Poly:
    """Apply D = sum_j a_j x**(j+1) d/dx to p, truncated at x**order."""
    out: Poly = {}
    for e, c in p.items():
        if not c:
            continue
        for j, a in enumerate(coeffs, start=1):
            if not a:
                continue
            ee = e + j
            if ee > order:
                continue
            out[ee] = out.get(ee, Fraction(0)) + a * e * c
    return out


def _exp_flow_on_x(coeffs: List[Fraction], order: int) -> Poly:
    """exp(-D) . x through x**order, D as above with the given a_j."""
    acc: Poly = {1: Fraction(1)}
    term: Poly = {1: Fraction(1)}
    # D raises the degree by at least one, so D**n x starts at x**(n+1) and
    # the rounds n >= order contribute nothing below the truncation
    for n in range(1, order):
        term = _flow_derivation(coeffs, term, order)
        term = {e: -c / n for e, c in term.items() if c}
        for e, c in term.items():
            acc[e] = acc.get(e, Fraction(0)) + c
    return _poly_trim(acc, order)


def _target(k: int, order: int) -> Poly:
    """(1+x)**k / k - 1/k through x**order."""
    out: Poly = {}
    binom = 1
    for m in range(1, min(k, order) + 1):
        binom = binom * (k - m + 1) // m
        out[m] = Fraction(binom, k)
    return out


@cache
def delta_coefficients(k: int, terms: int) -> Tuple[Fraction, ...]:
    """The first `terms` coefficients a_1 .. a_terms for order k."""
    if k < 1 or terms < 1:
        raise ValueError("k and terms must be positive")
    target = _target(k, terms + 1)
    coeffs: List[Fraction] = []
    for j in range(1, terms + 1):
        partial = _exp_flow_on_x(coeffs + [Fraction(0)], j + 1)
        have = partial.get(j + 1, Fraction(0))
        want = target.get(j + 1, Fraction(0))
        # with a_j = 0 the x**(j+1) coefficient misses exactly -a_j
        coeffs.append(have - want)
    return tuple(coeffs)


def residual_for_coefficients(k: int, coeffs: List[Fraction], order: int) -> Series:
    """Flow equation residual for an arbitrary candidate coefficient list."""
    flowed = _exp_flow_on_x(list(coeffs), order)
    target = _target(k, order)
    residual: Poly = dict(flowed)
    for e, c in target.items():
        residual[e] = residual.get(e, Fraction(0)) - c
    return Series("x", Fraction(order) + 1,
                  [(Fraction(e), ExactScalar(c)) for e, c in residual.items() if c])


def verify_delta_equation(k: int, terms: int, order: int) -> Series:
    """Residual of the defining flow equation, truncated at x**order.

    Returns the zero series exactly when the first `terms` coefficients
    reproduce (1+x)**k/k - 1/k through the requested order.  The coefficient
    a_j first matters at x**(j+1), so `terms` must reach order-1 unless the
    missing tail vanishes identically (as it does for k = 1).
    """
    if terms < order - 1:
        full = delta_coefficients(k, order - 1)
        if any(full[terms:]):
            raise InsufficientTerms(
                f"need {order - 1} coefficients to verify through x**{order}, "
                f"got {terms}")
    return residual_for_coefficients(k, list(delta_coefficients(k, terms)), order)


def apply_delta(weight: Fraction, vec: Vec,
                lower: Callable[[int, Vec], Vec]) -> List[Tuple[Fraction, Vec]]:
    """Apply the order-two twist operator to a weight-homogeneous vector.

    `lower(j, v)` must implement the positive Virasoro mode L(j), which lowers
    the weight by j.  Returns [(x-exponent, vector)] sorted by exponent.
    Raises UnboundedExpansion if a lowered vector survives below weight 0.
    """
    weight = Fraction(weight)
    coeffs = delta_coefficients(2, max(1, int(weight) + 1))

    base = v_scale(vec, pow_two(-weight))
    # layers[d] collects the total-lowering-d part of exp(sum a_j x**(-j/2) L(j))
    layers: Dict[int, Vec] = {0: base}
    current: Dict[int, Vec] = {0: base}
    n = 0
    while current:
        n += 1
        nxt: Dict[int, Vec] = {}
        for d, v in current.items():
            for j, a in enumerate(coeffs, start=1):
                if a and (w := lower(j, v)):
                    v_iadd(nxt.setdefault(d + j, {}), w, a)
        # dividing by n each round accumulates the 1/n! of the exponential
        current = {d: v_scale(v, Fraction(1, n)) for d, v in nxt.items() if v}
        if current and max(current) > weight:
            raise UnboundedExpansion(
                f"L(j) left a nonzero vector below weight 0 after {n} rounds")
        for d, v in current.items():
            v_iadd(layers.setdefault(d, {}), v)
    return [(-(weight + d) / 2, layers[d]) for d in sorted(layers) if layers[d]]
