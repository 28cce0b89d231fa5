"""Truncated formal series in one variable with rational exponents.

A series is a finite map exponent -> coefficient together with an explicit
truncation bound: coefficients at exponents >= the bound are unknown, not
zero.  Arithmetic on two series keeps the smaller bound, so high-order
coefficients are never silently wrong.  Exponents are exact rationals;
operator expansions stay on the (1/4)Z lattice, characters may carry
offsets like -c/24.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Tuple, Union

from .errors import UnsupportedExponent, VariableMismatch
from .scalars import ExactScalar

ExpLike = Union[int, Fraction]


class Series:
    __slots__ = ("variable", "truncation", "terms")

    def __init__(self, variable: str, truncation: ExpLike,
                 terms: Mapping[ExpLike, ExactScalar] | Iterable[Tuple[ExpLike, ExactScalar]] = ()):
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "truncation", Fraction(truncation))
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Fraction, ExactScalar] = {}
        for e, c in items:
            e = Fraction(e)
            if e >= self.truncation:
                continue
            c = ExactScalar.coerce(c)
            if e in clean:
                c = clean[e] + c
            if c.is_zero():
                clean.pop(e, None)
            else:
                clean[e] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- access -----------------------------------------------------------

    def coefficient(self, exponent: ExpLike) -> ExactScalar:
        e = Fraction(exponent)
        if e >= self.truncation:
            raise UnsupportedExponent(
                f"coefficient at {e} >= truncation {self.truncation} is not determined")
        return self.terms.get(e, ExactScalar(0))

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Fraction, ExactScalar]]:
        return sorted(self.terms.items())

    def min_exponent(self) -> Fraction | None:
        return min(self.terms) if self.terms else None

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "Series") -> "Series":
        if self.variable != other.variable:
            raise VariableMismatch(f"{self.variable!r} vs {other.variable!r}")
        # The product is determined below min(T_f + val(g), T_g + val(f)):
        # an unknown coefficient of one factor can reach down by the other
        # factor's lowest exponent.  For exponents bounded below by zero this
        # is the plain minimum of the two truncations.
        mf = min(min(self.terms), Fraction(0)) if self.terms else Fraction(0)
        mg = min(min(other.terms), Fraction(0)) if other.terms else Fraction(0)
        t = min(self.truncation + mg, other.truncation + mf)
        acc: dict[Fraction, ExactScalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if e >= t:
                    continue
                c = c1 * c2
                if e in acc:
                    c = acc[e] + c
                if c.is_zero():
                    acc.pop(e, None)
                else:
                    acc[e] = c
        return Series(self.variable, t, acc)

    def truncate(self, bound: ExpLike) -> "Series":
        b = Fraction(bound)
        if b > self.truncation:
            raise UnsupportedExponent(
                f"cannot extend truncation {self.truncation} to {b}")
        return Series(self.variable, b, self.terms)

    def substitute_square(self) -> "Series":
        """The series with variable q replaced by q**2; exponents double."""
        return Series(self.variable, 2 * self.truncation,
                      {2 * e: c for e, c in self.terms.items()})

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.variable == other.variable
                and self.truncation == other.truncation
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            bits = []
            for e, c in self.sorted_terms():
                if e == 0:
                    bits.append(f"({c})")
                elif e == 1:
                    bits.append(f"({c})*{self.variable}")
                else:
                    bits.append(f"({c})*{self.variable}^({e})")
            body = " + ".join(bits)
        return f"{body} + O({self.variable}^({self.truncation}))"

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "variable": self.variable,
            "truncation": str(self.truncation),
            "terms": [
                {"exp": str(e), "coeff": c.to_json()}
                for e, c in self.sorted_terms()
            ],
        }


def substitute_root_phase(f: Series, j: int) -> Series:
    """Apply the limit x**(1/2) -> eta**j x**(1/2) with eta = -1.

    A term c*x**e picks up (-1)**(2e*j), so integer exponents are fixed and
    half-integer ones flip sign when j is odd.  Exponents off the (1/2)Z
    lattice have no well-defined image under eta = -1 alone and are
    rejected.
    """
    out: dict[Fraction, ExactScalar] = {}
    for e, c in f.terms.items():
        two_e = 2 * e
        if two_e.denominator != 1:
            raise UnsupportedExponent(
                f"exponent {e} is off the (1/2)Z lattice; phase is undefined for eta=-1")
        if (j * two_e.numerator) % 2:
            c = -c
        out[e] = c
    return Series(f.variable, f.truncation, out)
