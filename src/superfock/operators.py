"""Sparse exact vectors over an indexed basis."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, Union

from .scalars import ExactScalar

Vec = Dict[int, ExactScalar]


@lru_cache(maxsize=4096)
def binomial(m: Union[int, Fraction], i: int) -> Fraction:
    """Generalized binomial coefficient C(m, i) for rational m, integer i >= 0.

    Cached: the recursion asks for the same few hundred (m, i) pairs
    thousands of times per run.
    """
    if i < 0:
        return Fraction(0)
    num = Fraction(1)
    for z in range(i):
        num *= (Fraction(m) - z)
    return num / factorial(i)


def v_scale(vec: Vec, coeff) -> Vec:
    coeff = ExactScalar.coerce(coeff)
    if coeff.is_zero():
        return {}
    return {i: c * coeff for i, c in vec.items()}


def v_iadd(acc: Vec, vec: Vec, coeff=1) -> Vec:
    """acc += coeff * vec, dropping zero entries; mutates and returns acc."""
    coeff = ExactScalar.coerce(coeff)
    if coeff.is_zero():
        return acc
    for i, c in vec.items():
        s = acc.get(i)
        s = c * coeff if s is None else s + c * coeff
        if s.is_zero():
            acc.pop(i, None)
        else:
            acc[i] = s
    return acc
