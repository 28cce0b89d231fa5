"""Exact scalars in the number field Q(i, sqrt(2)), and sparse exact vectors.

Every quantity in the engine lives in this field.  The imaginary unit is
forced by the N=2 structure constants, sqrt(2) by the fermionic zero mode
and by the factor 2**(-wt) acting on half-integer weights in the order-two
twisting operator.  Every square root the package takes, the Ramond zero
mode's and the N=2 calibration's normalizations, comes from `square_roots`.
The half unit that the engines and the presentations count indices and
weights in, t2 = 2t for t in (1/2)Z, comes from `twice`.

This is the one module that knows how an `ExactScalar` is stored, so the
accumulate kernel `v_iadd`, which does its field arithmetic on the stored
ints, lives here too.  A `Vec` maps basis indices to `ExactScalar`
coefficients.  Every Vec in the package keeps one contract:

* it stores no zero entry, so an empty dict is the zero vector and a
  residual is zero exactly when it is empty;
* its values are immutable scalars, so one scalar object may sit in many
  vectors at once (`v_iadd` stores its input values as they are where it
  can);
* a vector returned by a memoized family column (`Family.apply_basis`) or
  shared as a constant is never mutated by its caller: only a dict the
  caller built itself, such as the result of `Family.apply`, is updated in
  place.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Dict, List, Union

from .errors import DivisionByZero

RationalLike = Union[int, Fraction]


def twice(x) -> int:
    """2x as an int, for x in (1/2)Z: the half unit in which the engines
    hold every mode index, lattice offset and weight (t2 = 2t).

    Raises ValueError for x off (1/2)Z.
    """
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if x.denominator > 2:
        raise ValueError(f"{x} is not in (1/2)Z")
    return x.numerator * (2 // x.denominator)


def _reduced(a: int, b: int, c: int, d: int, q: int) -> tuple:
    """(a, b, c, d, q) divided by gcd(a, b, c, d, q); q must be positive."""
    g = gcd(a, b, c, d, q)
    if g == 1:
        return (a, b, c, d, q)
    return (a // g, b // g, c // g, d // g, q // g)


def _part(k: int, doc: str) -> property:
    return property(lambda self: Fraction(self._v[k], self._v[4]), doc=doc)


class ExactScalar:
    """a + b*i + c*sqrt2 + d*i*sqrt2 with arbitrary-precision rational parts.

    The value is stored as five ints ``(a, b, c, d, q)`` meaning
    ``(a + b*i + c*sqrt2 + d*i*sqrt2) / q`` with ``q > 0`` and
    ``gcd(a, b, c, d, q) == 1``, so zero is ``(0, 0, 0, 0, 1)`` and two
    scalars are equal exactly when their tuples are.  The parts ``.a`` to
    ``.d`` are read back as ``Fraction``.
    """

    __slots__ = ("_v",)

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0,
                 c: RationalLike = 0, d: RationalLike = 0):
        if type(a) is int and type(b) is int and type(c) is int and type(d) is int:
            _set_v(self, (a, b, c, d, 1))
            return
        parts = (a, b, c, d)
        for x in parts:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"cannot coerce {type(x).__name__} to ExactScalar")
        # parts in lowest terms over the lcm of their denominators leave
        # nothing to cancel
        q = lcm(*(x.denominator for x in parts))
        _set_v(self, tuple(x.numerator * (q // x.denominator) for x in parts) + (q,))

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    a = _part(0, "rational part")
    b = _part(1, "coefficient of i")
    c = _part(2, "coefficient of sqrt2")
    d = _part(3, "coefficient of i*sqrt2")

    # -- constructors -------------------------------------------------

    @classmethod
    def coerce(cls, x) -> "ExactScalar":
        return x if isinstance(x, ExactScalar) else cls(x)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        a, b, c, d, _ = self._v
        return not (a or b or c or d)

    def is_rational(self) -> bool:
        _, b, c, d, _ = self._v
        return not (b or c or d)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.a

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if type(other) is not ExactScalar:
            other = ExactScalar.coerce(other)
        a1, b1, c1, d1, q1 = self._v
        a2, b2, c2, d2, q2 = other._v
        out = _new(ExactScalar)
        _set_v(out, _reduced(a1 * q2 + a2 * q1, b1 * q2 + b2 * q1,
                             c1 * q2 + c2 * q1, d1 * q2 + d2 * q1, q1 * q2))
        return out

    __radd__ = __add__

    def __neg__(self):
        a, b, c, d, q = self._v
        out = _new(ExactScalar)
        _set_v(out, (-a, -b, -c, -d, q))
        return out

    def __sub__(self, other):
        return self + (-ExactScalar.coerce(other))

    def __mul__(self, other):
        if type(other) is not ExactScalar:
            other = ExactScalar.coerce(other)
        a1, b1, c1, d1, q1 = self._v
        a2, b2, c2, d2, q2 = other._v
        out = _new(ExactScalar)
        _set_v(out, _reduced(
            a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            q1 * q2))
        return out

    __rmul__ = __mul__

    def inv(self) -> "ExactScalar":
        """Multiplicative inverse; exact via the two field conjugations."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero in Q(i, sqrt2)")
        # With self = n/q, y = n * conj_i(n) lies in Z[sqrt2]: y = p + r*sqrt2,
        # and norm = y * conj_sqrt2(y) is a positive int.
        a, b, c, d, q = self._v
        p = a * a + b * b + 2 * (c * c + d * d)
        r = 2 * (a * c + b * d)
        norm = p * p - 2 * r * r
        # inv = conj_i(self) * q**2 * (p - r*sqrt2) / norm
        factor = _new(ExactScalar)
        _set_v(factor, _reduced(q * q * p, 0, -q * q * r, 0, norm))
        return self.conj_i() * factor

    # -- field automorphisms --------------------------------------------

    def conj_i(self) -> "ExactScalar":
        """Galois conjugation i -> -i."""
        a, b, c, d, q = self._v
        out = _new(ExactScalar)
        _set_v(out, (a, -b, c, -d, q))
        return out

    def conj_sqrt2(self) -> "ExactScalar":
        """Galois conjugation sqrt2 -> -sqrt2."""
        a, b, c, d, q = self._v
        out = _new(ExactScalar)
        _set_v(out, (a, b, -c, -d, q))
        return out

    # -- comparisons and hashing -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, ExactScalar):
            return self._v == other._v
        if isinstance(other, (int, Fraction)):
            a, b, c, d, q = self._v
            return (not (b or c or d) and a == other.numerator
                    and q == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a rational value hashes like the int or Fraction it equals
        a, b, c, d, q = self._v
        if b or c or d:
            return hash(self._v)
        return hash(a) if q == 1 else hash(Fraction(a, q))

    # -- rendering -------------------------------------------------------

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for coeff, unit in ((self.a, ""), (self.b, "i"), (self.c, "sqrt2"), (self.d, "i*sqrt2")):
            if not coeff:
                continue
            if unit == "":
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(unit)
            elif coeff == -1:
                parts.append(f"-{unit}")
            else:
                parts.append(f"{coeff}*{unit}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "a": str(self.a),
            "b": str(self.b),
            "c": str(self.c),
            "d": str(self.d),
        }


_new = object.__new__
_set_v = ExactScalar._v.__set__

ZERO = ExactScalar(0)
ONE = ExactScalar(1)
I = ExactScalar(0, 1)
SQRT2 = ExactScalar(0, 0, 1)


def pow_two(e: Fraction) -> ExactScalar:
    """2**e for e in (1/2)Z, as an element of Q(sqrt2)."""
    e = Fraction(e)
    if e.denominator == 1:
        return ExactScalar(Fraction(2) ** e.numerator)
    if e.denominator == 2:
        return SQRT2 * ExactScalar(Fraction(2) ** int(e - Fraction(1, 2)))
    raise ValueError(f"2**{e} is outside Q(i, sqrt2)")


def square_roots(x: ExactScalar) -> List[ExactScalar]:
    """[r, -r] with r * r == x when x is s**2 or 2 * s**2 up to sign, for a
    rational s (r is s, sqrt2*s, i*s or i*sqrt2*s); [] for any other x."""
    a, b, c, d, q = x._v
    if b or c or d:
        return []
    unit = I if a < 0 else ONE
    for factor, base in ((unit, Fraction(abs(a), q)), (unit * SQRT2, Fraction(abs(a), 2 * q))):
        # a rational in lowest terms is a square exactly when both its ints are
        num, den = isqrt(base.numerator), isqrt(base.denominator)
        if num * num == base.numerator and den * den == base.denominator:
            root = factor * ExactScalar(Fraction(num, den))
            return [root, -root]
    return []


# -- sparse exact vectors ---------------------------------------------------

Vec = Dict[int, ExactScalar]


def v_scale(vec: Vec, coeff) -> Vec:
    """coeff * vec as a new Vec."""
    return v_iadd({}, vec, coeff)


def v_iadd(acc: Vec, vec: Vec, coeff=1) -> Vec:
    """acc += coeff * vec, dropping zero entries; mutates and returns acc.

    The field arithmetic is done here on the scalars' (a, b, c, d, q) ints:
    the product and the sum over one denominator, then at most one gcd
    reduction and one new scalar per stored entry.  `vec` is left as it is;
    with coefficient 1 an entry landing on an empty slot stores `vec`'s own
    (immutable) value.
    """
    if not vec:
        return acc
    if type(coeff) is int:
        if not coeff:
            return acc
        unit = coeff == 1
        ca, cq, irrational = coeff, 1, False
    else:
        if type(coeff) is not ExactScalar:
            coeff = ExactScalar.coerce(coeff)
        ca, cb, cc, cd, cq = coeff._v
        irrational = cb or cc or cd
        if not (ca or irrational):
            return acc
        unit = not irrational and ca == 1 and cq == 1
    for i, v in vec.items():
        a, b, c, d, q = v._v
        s = acc.get(i)
        if unit:
            if s is None:
                if a or b or c or d:
                    acc[i] = v
                continue
        elif irrational:
            if b or c or d:
                a, b, c, d = (a * ca - b * cb + 2 * (c * cc - d * cd),
                              a * cb + b * ca + 2 * (c * cd + d * cc),
                              a * cc + c * ca - b * cd - d * cb,
                              a * cd + d * ca + b * cc + c * cb)
            else:
                a, b, c, d = a * ca, a * cb, a * cc, a * cd
            q *= cq
        else:
            a, b, c, d, q = a * ca, b * ca, c * ca, d * ca, q * cq
        if s is not None:
            sa, sb, sc, sd, sq = s._v
            if sq == q:
                a, b, c, d = sa + a, sb + b, sc + c, sd + d
            else:
                a, b, c, d, q = (sa * q + a * sq, sb * q + b * sq,
                                 sc * q + c * sq, sd * q + d * sq, sq * q)
            if not (a or b or c or d):
                del acc[i]
                continue
        elif not (a or b or c or d):
            continue
        if q != 1:
            g = gcd(a, b, c, d, q)
            if g != 1:
                a, b, c, d, q = a // g, b // g, c // g, d // g, q // g
        out = _new(ExactScalar)
        _set_v(out, (a, b, c, d, q))
        acc[i] = out
    return acc
