"""Sparse exact vectors over an indexed basis.

A `Vec` maps basis indices to `ExactScalar` coefficients.  Every Vec in
the package keeps one contract:

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

from math import gcd
from typing import Dict

from .scalars import ExactScalar, _new, _set_v

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
