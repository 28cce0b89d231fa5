"""Truncated weight-graded Fock spaces: free boson, free fermion in both
sectors, and their tensor products.

Basis states are creation-mode monomials on a vacuum.  The Ramond fermion
has a two-dimensional ground space spanned by an even vector w+ and an odd
vector w-: the zero mode is parity odd, squares to 1/2, and therefore must
exchange two ground states of opposite parity.  The Ramond ground weight
offset 1/16 is carried here as configured data; the twisted-construction
computation of the twisted conformal weight reproduces it independently and
the tests cross-check the two.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple

from .errors import NonDiagonal, TruncationOverflow
from .scalars import ExactScalar, pow_two
from .series import Series

HALF = Fraction(1, 2)

KINDS = ("boson", "ns-fermion", "ramond-fermion", "vosa", "sigma")
_HAS_BOSON = {"boson", "vosa", "sigma"}
_FERMION_SECTOR = {"ns-fermion": "ns", "vosa": "ns", "ramond-fermion": "r", "sigma": "r"}
_GROUND_RANK = {"0": 0, "+": 0, "-": 1}


@dataclass(frozen=True)
class FockSpaceSpec:
    kind: str
    truncation: Fraction
    ramond_offset: Fraction = Fraction(1, 16)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        object.__setattr__(self, "truncation", Fraction(self.truncation))
        object.__setattr__(self, "ramond_offset", Fraction(self.ramond_offset))

    @property
    def fermion_sector(self) -> Optional[str]:
        return _FERMION_SECTOR.get(self.kind)

    @property
    def has_boson(self) -> bool:
        return self.kind in _HAS_BOSON

    @property
    def ground_offset(self) -> Fraction:
        return self.ramond_offset if self.fermion_sector == "r" else Fraction(0)


@dataclass(frozen=True)
class FockState:
    bosons: Tuple[int, ...] = ()        # creation magnitudes, weakly decreasing
    fermions: Tuple[Fraction, ...] = () # creation magnitudes, strictly decreasing
    ground: str = "0"                   # "0", or "+"/"-" for the Ramond pair

    @property
    def level(self) -> Fraction:
        return Fraction(sum(self.bosons)) + sum(self.fermions, Fraction(0))

    @property
    def parity(self) -> int:
        return (len(self.fermions) + (self.ground == "-")) % 2

    def sort_key(self):
        return (self.level, self.bosons, self.fermions, _GROUND_RANK[self.ground])

    def __str__(self):
        bits = [f"a({-n})" for n in self.bosons]
        bits += [f"psi({-r})" for r in self.fermions]
        return "".join(bits) + f"|{self.ground}>"


def _partitions_upto(limit: int) -> dict[int, list[Tuple[int, ...]]]:
    """Weakly decreasing integer partitions of every n <= limit."""

    def gen(n: int, max_part: int) -> Iterable[Tuple[int, ...]]:
        if n == 0:
            yield ()
            return
        for part in range(min(n, max_part), 0, -1):
            for rest in gen(n - part, part):
                yield (part,) + rest

    return {n: list(gen(n, n if n else 1)) for n in range(max(limit, 0) + 1)}


def _distinct_parts(sector: str, bound: Fraction) -> list[Tuple[Fraction, ...]]:
    """Strictly decreasing fermionic creation monomials of level < bound."""
    first = HALF if sector == "ns" else Fraction(1)
    parts: list[Fraction] = []
    v = first
    while v < bound:
        parts.append(v)
        v += 1
    out: list[Tuple[Fraction, ...]] = []

    def rec(idx: int, total: Fraction, chosen: Tuple[Fraction, ...]):
        out.append(chosen)
        for i in range(idx, len(parts)):
            p = parts[i]
            if total + p >= bound:
                continue
            rec(i + 1, total + p, chosen + (p,))

    rec(0, Fraction(0), ())
    # normalize to strictly decreasing storage
    return [tuple(sorted(mono, reverse=True)) for mono in out]


def enumerate_basis(spec: FockSpaceSpec) -> List[FockState]:
    level_bound = spec.truncation - spec.ground_offset
    if level_bound <= 0:
        return []
    grounds = ("+", "-") if spec.fermion_sector == "r" else ("0",)

    boson_monos: list[Tuple[int, ...]] = [()]
    if spec.has_boson:
        # largest integer strictly below level_bound
        top = int(level_bound) - (1 if level_bound.denominator == 1 else 0)
        table = _partitions_upto(top)
        boson_monos = [m for n in sorted(table) for m in table[n]]

    fermion_monos: list[Tuple[Fraction, ...]] = [()]
    if spec.fermion_sector is not None:
        fermion_monos = _distinct_parts(spec.fermion_sector, level_bound)

    states = []
    for b in boson_monos:
        lb = Fraction(sum(b))
        if lb >= level_bound:
            continue
        for f in fermion_monos:
            lf = sum(f, Fraction(0))
            if lb + lf >= level_bound:
                continue
            for g in grounds:
                states.append(FockState(b, f, g))
    states.sort(key=FockState.sort_key)
    return states


class TruncatedSpace:
    """Frozen ordered basis of a Fock model below a weight truncation."""

    def __init__(self, spec: FockSpaceSpec):
        self.spec = spec
        self.states: Tuple[FockState, ...] = tuple(enumerate_basis(spec))
        self.index = {s: i for i, s in enumerate(self.states)}
        self.weights: Tuple[Fraction, ...] = tuple(
            s.level + spec.ground_offset for s in self.states)
        self.parities: Tuple[int, ...] = tuple(s.parity for s in self.states)
        self.layers: dict[Fraction, list[int]] = {}
        for i, w in enumerate(self.weights):
            self.layers.setdefault(w, []).append(i)
        self.bound = spec.truncation
        self.min_weight = min(self.weights) if self.weights else Fraction(0)

    @property
    def dim(self) -> int:
        return len(self.states)

    def layer_dims(self) -> dict[Fraction, int]:
        return {w: len(ix) for w, ix in sorted(self.layers.items())}

    def basis_dump(self) -> list[str]:
        return [str(s) for s in self.states]


def _sqrt_half_delta(psi_delta: Fraction) -> ExactScalar:
    # sqrt(psi_delta / 2) for the zero-mode ground action
    if psi_delta == 1:
        return pow_two(Fraction(-1, 2))
    if psi_delta == 2:
        return ExactScalar(1)
    raise ValueError(f"unsupported fermion normalization {psi_delta}")


def mode_apply(space: TruncatedSpace, family: str, index: Fraction,
               state: FockState, psi_delta: Fraction = Fraction(1)
               ) -> List[Tuple[FockState, ExactScalar]]:
    """Act with a single boson mode a(index) or fermion mode psi(index).

    Raises TruncationOverflow when a nonzero result would land at or above
    the space truncation.
    """
    index = Fraction(index)
    out: List[Tuple[FockState, ExactScalar]] = []
    if family == "a":
        if not space.spec.has_boson or index.denominator != 1:
            raise ValueError(f"a({index}) does not act on kind {space.spec.kind!r}")
        n = int(index)
        if n == 0:
            return []
        if n < 0:
            mag = -n
            bos = tuple(sorted(state.bosons + (mag,), reverse=True))
            out.append((replace(state, bosons=bos), ExactScalar(1)))
        else:
            mult = state.bosons.count(n)
            if not mult:
                return []
            bos = list(state.bosons)
            bos.remove(n)
            out.append((replace(state, bosons=tuple(bos)), ExactScalar(n * mult)))
    elif family == "psi":
        sector = space.spec.fermion_sector
        if sector is None:
            raise ValueError(f"psi({index}) does not act on kind {space.spec.kind!r}")
        expected_den = 2 if sector == "ns" else 1
        if index.denominator != expected_den:
            raise ValueError(f"psi({index}) is off the {sector}-sector mode lattice")
        if index == 0:
            sign = -1 if len(state.fermions) % 2 else 1
            flipped = "+" if state.ground == "-" else "-"
            out.append((replace(state, ground=flipped),
                        _sqrt_half_delta(psi_delta) * sign))
        elif index < 0:
            mag = -index
            if mag in state.fermions:
                return []
            pos = sum(1 for r in state.fermions if r > mag)
            fer = tuple(sorted(state.fermions + (mag,), reverse=True))
            out.append((replace(state, fermions=fer),
                        ExactScalar(-1 if pos % 2 else 1)))
        else:
            if index not in state.fermions:
                return []
            pos = state.fermions.index(index)
            fer = tuple(r for r in state.fermions if r != index)
            out.append((replace(state, fermions=fer),
                        ExactScalar(psi_delta * (-1 if pos % 2 else 1))))
    else:
        raise ValueError(f"unknown mode family {family!r}")

    result = []
    for st, coeff in out:
        w = st.level + space.spec.ground_offset
        if w >= space.bound:
            raise TruncationOverflow(
                f"{family}({index}) on {state} lands at weight {w} >= {space.bound}")
        result.append((st, coeff))
    return result


def character(space: TruncatedSpace, central_charge: Fraction,
              eigenvalues: Optional[list[Fraction]] = None,
              bound: Optional[Fraction] = None) -> Series:
    """Graded dimension tr q**(-c/24 + L(0)) as an exact q-series.

    By default the conformal weights are the stored basis weights; passing
    `eigenvalues` (one rational per basis state) traces a different diagonal
    grading operator instead.  `bound` is the eigenvalue truncation; the
    series truncation is -c/24 + bound.
    """
    c = Fraction(central_charge)
    if eigenvalues is None:
        eigenvalues = list(space.weights)
        if bound is None:
            bound = space.bound
    else:
        if len(eigenvalues) != space.dim:
            raise NonDiagonal("eigenvalue list does not match the basis")
        if bound is None:
            raise ValueError("an explicit truncation is required with custom eigenvalues")
    terms: dict[Fraction, ExactScalar] = {}
    for lam in eigenvalues:
        e = -c / 24 + lam
        terms[e] = terms.get(e, ExactScalar(0)) + ExactScalar(1)
    return Series("q", -c / 24 + Fraction(bound), terms)
