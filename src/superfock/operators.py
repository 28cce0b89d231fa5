"""Sparse exact vectors over an indexed basis."""

from __future__ import annotations

from typing import Dict

from .scalars import ExactScalar

Vec = Dict[int, ExactScalar]


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
