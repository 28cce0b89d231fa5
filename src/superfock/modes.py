"""Mode families: lazy, memoized actions of vertex-operator modes.

A Family represents the whole tower of modes of one state acting on one
module.  Generator modes act directly on Fock monomials; modes of composite
states are computed from the component form of the (twisted) Jacobi
identity,

    sum_i (-1)**i C(l,i) [u_{m+l-i} v_{n+i} - (-1)**l (-1)**|u||v| v_{n+l-i} u_{m+i}]
        = sum_i C(m,i) (u_{l+i} v)_{m+n-i},

read as a definition of (u_l v)_{m+n} once the right side is rearranged.
The identity holds for every m on u's mode lattice; m is chosen per column
so that no intermediate leaves the truncated space (m = 0 kills every
correction term since C(0,i) = 0 for i >= 1, so it is preferred when the
lattice allows it).  The same code serves the untwisted algebra and the
order-two twisted modules; only lattices and weight units differ.

Engines derive from `Engine`, which holds the interface every family and
verifier relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import NonDiagonal, NonHomogeneous, TruncationOverflow
from .operators import Vec, binomial, v_iadd, v_scale
from .scalars import ExactScalar, ONE


class Family:
    """Base: all mode operators of a fixed state on a fixed module."""

    def __init__(self, engine, weight, parity: int,
                 mode_offset: Optional[Fraction] = None):
        self.engine = engine
        self.weight = Fraction(weight)
        self.parity = parity % 2
        # mode_offset: the lattice Z + offset carrying all nonzero modes,
        # or None when both half-integer lattices can occur.
        self.mode_offset = mode_offset
        self._cols: dict = {}

    def apply_basis(self, t: Fraction, col: int) -> Vec:
        t = Fraction(t)
        if self.mode_offset is not None and (t - self.mode_offset).denominator != 1:
            return {}
        key = (t, col)
        hit = self._cols.get(key)
        if hit is not None:
            return hit
        eng = self.engine
        out_w = eng.col_weight(col) + self.weight - t - 1
        if out_w < eng.min_col_weight:
            res: Vec = {}
        elif out_w >= eng.weight_bound:
            raise TruncationOverflow(
                f"mode {t} of weight-{self.weight} state: output weight {out_w} "
                f">= bound {eng.weight_bound}")
        else:
            res = self._compute(t, col)
        self._cols[key] = res
        return res

    def apply(self, t: Fraction, vec: Vec) -> Vec:
        acc: Vec = {}
        for col, coeff in vec.items():
            v_iadd(acc, self.apply_basis(t, col), coeff)
        return acc

    def _compute(self, t: Fraction, col: int) -> Vec:
        raise NotImplementedError


class VacuumFamily(Family):
    """Y(1, x) = identity: the only nonzero mode is t = -1."""

    def __init__(self, engine):
        super().__init__(engine, 0, 0, Fraction(0))

    def _compute(self, t, col):
        if t == -1:
            return {col: ExactScalar(1)}
        return {}


class GeneratorFamily(Family):
    """Modes given directly by a callable (t, col) -> list[(index, scalar)]."""

    def __init__(self, engine, weight, parity, mode_offset, action: Callable):
        super().__init__(engine, weight, parity, mode_offset)
        self._action = action

    def _compute(self, t, col):
        out: Vec = {}
        for idx, coeff in self._action(t, col):
            v_iadd(out, {idx: ExactScalar.coerce(coeff)}, 1)
        return out


class LinearFamily(Family):
    """Linear combination of same-weight families."""

    def __init__(self, engine, parts: Sequence[Tuple[ExactScalar, Family]],
                 mode_offset: Optional[Fraction] = None):
        parts = [(ExactScalar.coerce(c), f) for c, f in parts if not ExactScalar.coerce(c).is_zero()]
        if not parts:
            raise ValueError("empty linear family")
        w = parts[0][1].weight
        p = parts[0][1].parity
        for _, f in parts:
            if f.weight != w or f.parity != p:
                raise ValueError("linear family parts must share weight and parity")
        super().__init__(engine, w, p, mode_offset)
        self.parts = parts

    def _compute(self, t, col):
        acc: Vec = {}
        for c, f in self.parts:
            v_iadd(acc, f.apply_basis(t, col), c)
        return acc


class CompositeFamily(Family):
    """Modes of u_l w defined through the component identity above.

    `corrections(i)` must return the Family of the state u_{l+i} w (or None
    when that state vanishes); it is consulted only when C(m, i) != 0.
    """

    def __init__(self, engine, u_fam: Family, w_fam: Family, ell: Fraction,
                 u_offset: Fraction,
                 corrections: Callable[[int], Optional[Family]],
                 mode_offset: Optional[Fraction] = None):
        ell = Fraction(ell)
        if ell.denominator != 1:
            raise ValueError("the product index l must be an integer")
        super().__init__(engine, u_fam.weight + w_fam.weight - ell - 1,
                         u_fam.parity + w_fam.parity, mode_offset)
        self.u_fam = u_fam
        self.w_fam = w_fam
        self.ell = int(ell)
        self.u_offset = Fraction(u_offset) % 1
        self.corrections = corrections

    def _feasible(self, m: Fraction, t: Fraction, col_w: Fraction) -> bool:
        bound = self.engine.weight_bound
        int1 = col_w + self.w_fam.weight - (t - m) - 1
        int2 = col_w + self.u_fam.weight - m - 1
        return int1 < bound and int2 < bound

    def _choose_m(self, t: Fraction, col_w: Fraction) -> Fraction:
        prefs: List[Fraction] = []
        if self.u_offset == 0:
            prefs.append(Fraction(0))
        else:
            prefs.extend([Fraction(-1, 2), Fraction(1, 2)])
        balanced = (t + self.u_fam.weight - self.w_fam.weight) / 2
        snapped = self.u_offset + Fraction(round(balanced - self.u_offset))
        # the feasible m form an open interval centred on `balanced`, so if
        # its nearest lattice point is infeasible, every lattice point is
        prefs.append(snapped)
        for m in prefs:
            if self._feasible(m, t, col_w):
                return m
        raise TruncationOverflow(
            f"no admissible auxiliary index for mode {t} at column weight {col_w}")

    def _compute(self, t, col):
        col_w = self.engine.col_weight(col)
        return self.column(t, col, self._choose_m(t, col_w))

    def column(self, t: Fraction, col: int, m: Fraction) -> Vec:
        """The column (u_l w)_t col computed with auxiliary index m; every
        admissible m on u's lattice gives the same vector."""
        ell = self.ell
        acc = jacobi_left(self.u_fam, self.w_fam, ell, m, t - m, col,
                          self.engine.col_weight(col))
        # -sum_{i>=1} C(m,i) (u_{l+i} w)_{t-i}
        i = 1
        while self.u_fam.weight + self.w_fam.weight - (ell + i) - 1 >= 0:
            cb = binomial(m, i)
            if cb:
                fam = self.corrections(i)
                if fam is not None:
                    res = fam.apply_basis(t - i, col)
                    if res:
                        v_iadd(acc, res, ExactScalar(-cb))
            i += 1
        return acc


def jacobi_left(u_fam: Family, w_fam: Family, ell: int, m: Fraction,
                n: Fraction, col: int, col_w: Fraction) -> Vec:
    """The left side of the component identity on one basis column:

        sum_i (-1)**i C(l,i) [u_{m+l-i} w_{n+i} - (-1)**l (-1)**|u||w| w_{n+l-i} u_{m+i}] col

    Each sum stops once the inner mode annihilates every state of the column
    weight col_w.
    """
    min_w = u_fam.engine.min_col_weight
    acc: Vec = {}
    i = 0
    while col_w + w_fam.weight - (n + i) - 1 >= min_w:
        mid = w_fam.apply_basis(n + i, col)
        if mid:
            res = u_fam.apply(m + ell - i, mid)
            if res:
                v_iadd(acc, res, ExactScalar((-1) ** i * binomial(ell, i)))
        i += 1
    sgn = -((-1) ** (ell % 2)) * ((-1) ** (u_fam.parity * w_fam.parity))
    i = 0
    while col_w + u_fam.weight - (m + i) - 1 >= min_w:
        mid = u_fam.apply_basis(m + i, col)
        if mid:
            res = w_fam.apply(n + ell - i, mid)
            if res:
                v_iadd(acc, res, ExactScalar(sgn * (-1) ** i * binomial(ell, i)))
        i += 1
    return acc


@dataclass
class ModeHandle:
    """A labeled tower such as L(n) = omega_{n+1}: family plus index shift."""

    family: Family
    shift: Fraction

    def apply_basis(self, index, col) -> Vec:
        return self.family.apply_basis(Fraction(index) + self.shift, col)

    def apply(self, index, vec: Vec) -> Vec:
        return self.family.apply(Fraction(index) + self.shift, vec)


class Engine:
    """What the families and the verifiers need from a mode engine.

    A subclass sets `space` (the module's ordered basis: `states`, `weights`,
    `bound`, `min_weight`, `dim`), `algebra` (the vertex algebra whose states
    label the families: the engine itself for an algebra acting on itself)
    and implements `_family_by_index`.  Twisted engines set `order = 2` and a
    `twist`, the order-two automorphism whose eigenvalues fix mode lattices.
    """

    order = 1

    def col_weight(self, i: int) -> Fraction:
        return self.space.weights[i]

    @property
    def weight_bound(self) -> Fraction:
        return self.space.bound

    @property
    def min_col_weight(self) -> Fraction:
        return self.space.min_weight

    def columns(self, max_col_weight) -> List[int]:
        """The basis columns of weight at most max_col_weight."""
        return [i for i in range(self.space.dim) if self.col_weight(i) <= max_col_weight]

    def weight_of(self, vec: Vec) -> Fraction:
        ws = {self.col_weight(i) for i in vec}
        if len(ws) != 1:
            raise NonHomogeneous(f"vector spans weights {sorted(ws)}")
        return ws.pop()

    def twist(self, vec: Vec) -> Vec:
        return vec

    def twist_exponent(self, vec: Vec) -> int:
        """j with twist(vec) = (-1)**j vec."""
        image = self.twist(vec)
        if image == vec:
            return 0
        if image == v_scale(vec, ExactScalar(-1)):
            return 1
        raise NonHomogeneous("vector is not an eigenvector of the twist")

    # families -------------------------------------------------------------

    def _family_by_index(self, i: int) -> Family:
        raise NotImplementedError

    def family(self, vec: Vec) -> Family:
        """The modes of an algebra vector, given in the algebra's basis."""
        items = sorted(vec.items())
        if len(items) == 1 and items[0][1] == ONE:
            return self._family_by_index(items[0][0])
        parts = [(c, self._family_by_index(i)) for i, c in items]
        offs = {f.mode_offset for _, f in parts}
        return LinearFamily(self, parts, offs.pop() if len(offs) == 1 else None)

    def product(self, u_vec: Vec, m: Fraction, v_vec: Vec) -> Vec:
        """The algebra product state u_m v."""
        if not u_vec or not v_vec:
            return {}
        return self.algebra.family(u_vec).apply(Fraction(m), v_vec)

    # the grading ------------------------------------------------------------

    def L_handle(self) -> ModeHandle:
        return ModeHandle(self.family(self.algebra.omega_vec), Fraction(1))

    def l0_eigenvalues(self) -> List[Fraction]:
        """The diagonal of L(0); raises NonDiagonal if it mixes basis states."""
        lh = self.L_handle()
        out = []
        for col in range(self.space.dim):
            vec = lh.apply_basis(0, col)
            if set(vec) - {col}:
                raise NonDiagonal(f"operator mixes basis state {col}")
            coeff = vec.get(col, ExactScalar(0))
            if not coeff.is_rational():
                raise NonDiagonal(f"non-rational diagonal entry at {col}")
            out.append(coeff.as_rational())
        return out

    def ground_eigenvalue(self) -> Fraction:
        """The L(0) eigenvalue on the Fock ground states, computed from the
        constructed modes (this is where a twisted ground weight emerges)."""
        lh = self.L_handle()
        ground_cols = [i for i, s in enumerate(self.space.states)
                       if not s.bosons and not s.fermions]
        values = set()
        for col in ground_cols:
            got = lh.apply_basis(0, col)
            if set(got) - {col}:
                raise NonHomogeneous("L(0) mixes ground states")
            values.add(got.get(col, ExactScalar(0)).as_rational())
        if len(values) != 1:
            raise NonHomogeneous(f"ground eigenvalues disagree: {values}")
        return values.pop()
