"""Level-truncated Fock spaces: the NS free fermion, and the free boson
tensored with the free fermion in either sector.

Basis states are creation-mode monomials on a vacuum, held by a space as
int codes; a `FockState` is their readable form, built on demand for text
and for the reference action `mode_apply`.  Every space is truncated by
level above its ground states, so no ground weight enters here: the
parity-twisted module computes its own.  A space's kind alone fixes its
boson, its fermion sector (the fermion's lattice) and its central charge.
The Ramond fermion has a two-dimensional ground space spanned by an even
vector w+ and an odd vector w-: the zero mode is parity odd, squares to
psi_delta/2, and therefore must exchange two ground states of opposite parity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil
from typing import List, Optional, Tuple

from .errors import NonDiagonal, TruncationOverflow
from .scalars import ExactScalar, square_roots
from .series import Series

# kind -> (has a boson, fermion sector)
KINDS = {"vosa": (True, "ns"), "ns-fermion": (False, "ns"), "sigma": (True, "r")}


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

    def __str__(self):
        bits = [f"a({-n})" for n in self.bosons]
        bits += [f"psi({-r})" for r in self.fermions]
        return "".join(bits) + f"|{self.ground}>"


def _monomials(first2: int, top2: int, repeat: bool) -> list[Tuple[int, Tuple[int, ...]]]:
    """(level2, parts) for every decreasing monomial of creation parts
    first2, first2 + 2, ... in half units whose level2, the sum of its
    parts, is below top2, sorted.  Each part appears at most once unless
    repeat is set."""
    out: list[Tuple[int, Tuple[int, ...]]] = []

    def rec(part: int, total: int, chosen: Tuple[int, ...]):
        out.append((total, chosen))
        while total + part < top2:
            rec(part if repeat else part + 2, total + part, (part,) + chosen)
            part += 2

    rec(first2, 0, ())
    out.sort()
    return out


def _basis_codes(has_boson: bool, sector: str,
                 top2: int) -> list[Tuple[int, Tuple[int, ...], Tuple[int, ...], int]]:
    """(level2, bosons, fermions2, ground rank) of each basis state below
    level top2 / 2, in basis order: twice the level, the boson magnitudes,
    the fermion magnitudes in half units (2r) and the rank of the ground
    label (w- is 1)."""
    ranks = (0, 1) if sector == "r" else (0,)
    boson_monos: list[Tuple[int, Tuple[int, ...]]] = [(0, ())]
    if has_boson:
        # parts in half units, halved to the boson magnitudes
        boson_monos = [(lb2, tuple(p // 2 for p in m)) for lb2, m in _monomials(2, top2, True)]
    fermion_monos = _monomials(1 if sector == "ns" else 2, top2, False)

    out = []
    for lb2, b in boson_monos:
        for lf2, f in fermion_monos:
            if lb2 + lf2 >= top2:
                break
            for g in ranks:
                out.append((lb2 + lf2, b, f, g))
    out.sort()
    return out


class TruncatedSpace:
    """Frozen ordered basis of the Fock model `kind` (a key of `KINDS`)
    below `levels` levels above its ground states.

    Each basis state is held once, as ints in `codes`: (bosons, fermions2,
    ground rank), with the fermion magnitudes in half units (2r), both
    tuples in decreasing order, and the ground rank 1 for w- and 0
    otherwise.  `code_index` maps a code to its column, and
    `fermion_parities` holds the parity of each code's fermion count, the
    key that splits the L(0) diagonals (`modes.l0_spectra`).  `level2`
    holds twice each state's level above the ground states and `bound2`
    the truncation in the same units: a level2 at or above it lies beyond
    the space.  `central_charge` is the free fields' c, 1 for the boson and
    1/2 for the fermion.  `ground_labels` names the ground states by rank.
    `state(col)` and `column(state)` convert between a column and its
    `FockState`, for text and for the reference `mode_apply`.
    """

    def __init__(self, kind: str, levels):
        if kind not in KINDS:
            raise ValueError(f"unknown space kind {kind!r}")
        self.kind = kind
        self.has_boson, self.fermion_sector = KINDS[kind]
        self.levels = Fraction(levels)
        # a level2 (an int) is below 2 * levels exactly when it is below bound2
        self.bound2 = ceil(2 * self.levels)
        self.central_charge = Fraction(2 * self.has_boson + 1, 2)
        entries = _basis_codes(self.has_boson, self.fermion_sector, self.bound2)
        self.ground_labels = ("+", "-") if self.fermion_sector == "r" else ("0",)
        self.level2: Tuple[int, ...] = tuple(e[0] for e in entries)
        self.parities: Tuple[int, ...] = tuple((len(f) + g) % 2 for _, _, f, g in entries)
        self.codes: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...], int], ...] = tuple(
            (b, f, g) for _, b, f, g in entries)
        self.fermion_parities: Tuple[int, ...] = tuple(len(f) % 2 for _, _, f, _ in entries)
        self.code_index = {c: i for i, c in enumerate(self.codes)}

    @property
    def dim(self) -> int:
        return len(self.codes)

    def state(self, col: int) -> FockState:
        """The FockState of column col, built on each call."""
        bos, fer2, rank = self.codes[col]
        return FockState(bos, tuple(Fraction(x, 2) for x in fer2), self.ground_labels[rank])

    def column(self, state: FockState) -> int:
        """The column of state; KeyError if the space does not hold it."""
        labels = self.ground_labels
        rank = labels.index(state.ground) if state.ground in labels else -1
        return self.code_index[(state.bosons, tuple(2 * r for r in state.fermions), rank)]

    def basis_dump(self) -> list[str]:
        return [str(self.state(i)) for i in range(self.dim)]


def mode_apply(space: TruncatedSpace, family: str, index: Fraction,
               state: FockState, psi_delta: Fraction = Fraction(1)
               ) -> List[Tuple[FockState, ExactScalar]]:
    """Act with a single boson mode a(index) or fermion mode psi(index).

    Raises TruncationOverflow when a nonzero result would land at a level
    at or above the space's `levels`.
    """
    index = Fraction(index)
    out: List[Tuple[FockState, ExactScalar]] = []
    if family == "a":
        if not space.has_boson or index.denominator != 1:
            raise ValueError(f"a({index}) does not act on kind {space.kind!r}")
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
        sector = space.fermion_sector
        expected_den = 2 if sector == "ns" else 1
        if index.denominator != expected_den:
            raise ValueError(f"psi({index}) is off the {sector}-sector mode lattice")
        if index == 0:
            roots = square_roots(ExactScalar(Fraction(psi_delta) / 2))
            if not roots:
                raise ValueError(f"unsupported fermion normalization {psi_delta}: "
                                 "sqrt(psi_delta / 2) is outside Q(i, sqrt2)")
            flipped = "+" if state.ground == "-" else "-"
            # the sign of the root is that of the fermions psi(0) passes
            out.append((replace(state, ground=flipped), roots[len(state.fermions) % 2]))
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

    for st, _ in out:
        if st.level >= space.levels:
            raise TruncationOverflow(
                f"{family}({index}) on {state} lands at level {st.level} >= {space.levels}")
    return out


def character(space: TruncatedSpace, central_charge: Fraction,
              eigenvalues: Optional[list[Fraction]] = None,
              bound: Optional[Fraction] = None) -> Series:
    """Graded dimension tr q**(-c/24 + L(0)) as an exact q-series.

    By default the conformal weights are the basis levels, truncated at the
    space's `levels`; a twisted module passes its computed L(0) spectrum as
    `eigenvalues` (one rational per basis state) with its eigenvalue
    truncation `bound`.  The series truncation is -c/24 + bound.
    """
    c = Fraction(central_charge)
    if eigenvalues is None:
        eigenvalues, bound = [Fraction(lv2, 2) for lv2 in space.level2], space.levels
    elif len(eigenvalues) != space.dim:
        raise NonDiagonal("eigenvalue list does not match the basis")
    terms = {-c / 24 + lam: ExactScalar(n) for lam, n in Counter(eigenvalues).items()}
    return Series("q", -c / 24 + Fraction(bound), terms)
