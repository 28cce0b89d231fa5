"""Mode families: lazy, memoized actions of vertex-operator modes.

A Family represents the whole tower of modes of one state acting on one
module, and every family memoizes its columns the same way (`Family`),
except the classes whose columns copy memoized ones (`Family.memo`) and
the generator modes, whose columns are each one basis column times one
of a few scalars and are kept as index arrays (`Family.monomial`).  A
memo row grows by level: it ends where the level of its highest stored
column ends, as every engine's columns are sorted by level.
Generator modes act directly on Fock monomials; modes of composite states
are computed from the component form of the (twisted) Jacobi identity,

    sum_i (-1)**i C(l,i) [u_{m+l-i} v_{n+i} - (-1)**l (-1)**|u||v| v_{n+l-i} u_{m+i}]
        = sum_i C(m,i) (u_{l+i} v)_{m+n-i},

read as a definition of (u_l v)_{m+n} once the right side is rearranged.
The identity holds for every m on u's mode lattice; m is chosen per column
so that no intermediate leaves the truncated space (m = 0 kills every
correction term since C(0,i) = 0 for i >= 1, so it is preferred when the
lattice allows it).  The same code serves the untwisted algebra and the
order-two twisted modules; only lattices and weight units differ.  The
right side is made of the product states u_s v, s = l + i, and
`Engine.product_families(u, v)` is the one lookup for their families,
keyed by s and built once per s; the composite families and the Jacobi
verifier in `checks` both read it.  A composite family's mode lattice and
that of u are read off its factor families, never passed in.

Every mode index, lattice offset and weight inside the recursion is an int
in half units (t2 = 2t, see `twice`), and a column's weight is its level
above the engine's lowest column (`Engine.col_w2`), so the index arithmetic
is int arithmetic.  A labelled mode X(n) of a state x of weight wt is
x_{n+wt-1}, so its family index is 2n + weight2 - 2: L(n) = omega_{n+1},
G(r) = tau_{r+1/2}, J(n) = j_n.

A linear combination of families (`LinearFamily`) is kept flat: each term
is a non-combination family with an int index map t2 -> mul * t2 + add and
one coefficient per parity of t2, and a combination built from
combinations takes over their terms with the maps composed, so a tower's
column is one accumulation over memoized columns and the tower's memo is
its only copy.  The mirror-twisted slot families are such combinations of
parity-twisted families at the doubled index.

Engines derive from `Engine`, which holds the interface every family and
verifier relies on.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate
from math import factorial, floor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import NonDiagonal, NonHomogeneous, TruncationOverflow
from .scalars import ZERO, ExactScalar, ONE, Vec, v_iadd, v_scale


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


def binomial2(m2: int, i: int) -> Fraction:
    """C(m, i) for m = m2/2 in (1/2)Z and an integer i >= 0."""
    num = 1
    for z in range(i):
        num *= m2 - 2 * z
    return Fraction(num, 2 ** i * factorial(i))


@cache
def binomial2_scalar(m2: int, i: int, sign: int) -> ExactScalar:
    """sign * C(m2/2, i) as one shared (immutable) ExactScalar.

    Cached: the recursion asks for the same few hundred values thousands of
    times per run.
    """
    return ExactScalar(sign * binomial2(m2, i))


# The one empty result every family returns; callers never mutate a result.
EMPTY: Vec = {}

# the target of a monomial family's slot not filled yet, and of a zero column
UNKNOWN, NONE = -2, -1
# one unknown target, repeated to grow a monomial family's row
_UNKNOWNS = array("i", [UNKNOWN])


def _not_half_units(t2) -> TypeError:
    return TypeError(f"mode index {t2!r} is not an int in half units (2t)")


class Family:
    """Base: all mode operators of a fixed state on a fixed module.

    The weight, the lattice offset and every mode index are ints in half
    units: `weight2` is twice the state's weight and `apply_basis(t2, col)`
    applies the mode t = t2/2.  A subclass supplies `_compute(t2, col)`;
    when the class sets `memo` (the default), `apply_basis` memoizes its
    columns in one list per mode index t2, indexed by column and filled on
    first use.  A row starts empty and grows by level: a stored column
    extends it to the last column of its level (`Engine.col_w2` never
    decreases), and a column past its end is a miss.  After refusing a t2
    that is not an int, `apply_basis` looks in the memo first; the lattice,
    weight and overflow tests run only on a miss, so an off-lattice or
    negative-weight column (EMPTY) and an overflowing one
    (TruncationOverflow) are never stored, grow no row and give the same
    answer on every call.  A class whose columns are cheap copies of
    memoized ones sets `memo = False`: `VacuumFamily` and the tensor
    square's `_TensorSlotFamily` and `_TensorMonoFamily` (and the L of
    `l0_spectra`, on itself).  Its `apply_basis` runs the same tests on
    every call, stores nothing and returns a fresh column (or EMPTY).

    A class whose every column is one basis column times one of a few
    scalars, or zero, sets `monomial` (the free-field generators of
    `vosa`).  It keeps those scalars in the tuple `coeffs`, and its
    `_compute` returns (target column, index into `coeffs`) or None.  Its
    memo is compact and kept apart from `_cols`, in `_rows`, which is None
    for every other family: per mode index, an `array('i')` of target
    columns (UNKNOWN until filled, NONE for zero) and a `bytearray` of
    coefficient ids, grown by level as the lists are, so an id above 255
    is refused when it is stored.  A hit builds the fresh column
    {target: coeff}; the contract above is the same.
    """

    memo = True
    monomial = False

    def __init__(self, engine, weight2: int, parity: int,
                 off2: Optional[int] = None):
        self.engine = engine
        self.weight2 = weight2
        self.parity = parity % 2
        # off2: the lattice Z + off2/2 carrying all nonzero modes (off2 is 0
        # or 1), or None when both half-integer lattices can occur.
        self.off2 = off2
        self._cols: Dict[int, List[Optional[Vec]]] = {}
        # the compact memo of a monomial family, None for the others: an
        # instance attribute, which apply_basis reads faster than a class one
        self._rows: Optional[Dict[int, Tuple[array, bytearray]]] = (
            {} if self.monomial else None)

    def apply_basis(self, t2: int, col: int) -> Vec:
        # the type test comes first: Fraction(2) hashes like 2 and would
        # find row 2 of the memo
        if not isinstance(t2, int):
            raise _not_half_units(t2)
        row = self._cols.get(t2)
        if row is not None:
            # a row ends at the level of its highest stored column: a column
            # past its end is a miss (caught as an IndexError: the try costs a
            # hit nothing, where a length test costs it a call, and such
            # misses are rare, as rows grow a whole level at a time)
            try:
                res = row[col]
            except IndexError:
                res = None
            if res is not None:
                return res
        elif self._rows is not None:
            # only a family without a `_cols` row at t2 pays for this test
            row = self._rows.get(t2)
            if row is not None:
                try:
                    target = row[0][col]
                except IndexError:
                    target = UNKNOWN
                if target >= 0:
                    return {target: self.coeffs[row[1][col]]}
                if target == NONE:
                    return EMPTY
        # a miss: a slot is filled only once the tests below have passed for
        # its (t2, col), and they read nothing else, so a hit skips them; an
        # off-lattice, negative-weight or overflowing column is never stored
        # and grows no row
        if self.off2 is not None and (t2 - self.off2) % 2:
            return EMPTY
        eng = self.engine
        col_w2 = eng.col_w2[col]
        out_w2 = col_w2 + self.weight2 - t2 - 2
        if out_w2 < 0:
            return EMPTY
        if out_w2 >= eng.bound2:
            raise TruncationOverflow(
                f"mode {Fraction(t2, 2)} of weight-{Fraction(self.weight2, 2)} state: "
                f"output level {Fraction(out_w2, 2)} >= bound {Fraction(eng.bound2, 2)} "
                f"(levels above the lowest column)")
        if not self.memo:
            return self._compute(t2, col) or EMPTY
        # the row is made and extended after the column is computed, so a
        # column whose computation raises grows nothing; a row is extended in
        # place, never replaced, so the one found above is still the family's,
        # and one not found may have been made by a recursive call since
        if self._rows is not None:
            hit = self._compute(t2, col)
            if row is None:
                row = self._rows.setdefault(t2, (array("i"), bytearray()))
            targets, ids = row
            if col >= len(targets):
                # the columns are sorted by level: the row ends with col's level
                grow = bisect_right(eng.col_w2, col_w2) - len(targets)
                targets.extend(_UNKNOWNS * grow)
                ids.extend(bytes(grow))
            if hit is None:
                targets[col] = NONE
                return EMPTY
            target, cid = hit
            # the id first: one that outgrows its byte leaves the slot unknown
            ids[col] = cid
            targets[col] = target
            return {target: self.coeffs[cid]}
        res = self._compute(t2, col) or EMPTY
        if row is None:
            row = self._cols.setdefault(t2, [])
        if col >= len(row):
            row.extend([None] * (bisect_right(eng.col_w2, col_w2) - len(row)))
        row[col] = res
        return res

    def apply(self, t2: int, vec: Vec) -> Vec:
        if not isinstance(t2, int):
            raise _not_half_units(t2)
        acc: Vec = {}
        for col, coeff in vec.items():
            res = self.apply_basis(t2, col)
            if res:
                v_iadd(acc, res, coeff)
        return acc

    def _compute(self, t2: int, col: int) -> Vec:
        raise NotImplementedError


class VacuumFamily(Family):
    """Y(1, x) = identity: the only nonzero mode is t = -1, whose column
    {col: ONE} is built on each call."""

    memo = False

    def __init__(self, engine):
        super().__init__(engine, 0, 0, 0)

    def _compute(self, t2, col):
        return {col: ONE} if t2 == -2 else EMPTY


class LinearFamily(Family):
    """A linear combination of mode families, kept flat.

    Each term (family, mul, add, c_even, c_odd) contributes
    c * family.apply_basis(mul * t2 + add, col), with c = c_even for even t2
    and c_odd for odd t2; a term's index map must carry this family's
    weight to its own: family.weight2 - add - 2 == mul * (weight2 - 2).  A
    term whose family is itself a LinearFamily is expanded into that
    family's terms when the combination is built (index maps composed,
    coefficients multiplied, the inner lattice turned into a 0 coefficient
    on the parity it excludes), and terms with one (family, mul, add) are
    merged, so a column is one accumulation over non-combination families
    and this family's memo is its only copy.
    """

    def __init__(self, engine, weight2: int, parity: int,
                 terms: Sequence[Tuple[Family, int, int, object, object]],
                 off2: Optional[int] = None):
        super().__init__(engine, weight2, parity, off2)
        merged: Dict[Tuple[Family, int, int], List[ExactScalar]] = {}
        for fam, mul, add, c_even, c_odd in terms:
            if fam.weight2 - add - 2 != mul * (weight2 - 2) or fam.parity != self.parity:
                raise ValueError(
                    f"term index map {mul} t + {Fraction(add, 2)} does not carry a "
                    f"weight-{Fraction(weight2, 2)} family of parity {self.parity} to "
                    f"its weight-{Fraction(fam.weight2, 2)} family of parity {fam.parity}")
            coeffs = (ExactScalar.coerce(c_even), ExactScalar.coerce(c_odd))
            for key, ce, co in _expanded(fam, mul, add, coeffs):
                acc = merged.get(key)
                if acc is None:
                    merged[key] = [ce, co]
                else:
                    acc[0] += ce
                    acc[1] += co
        self.terms = tuple((*key, ce, co) for key, (ce, co) in merged.items() if ce or co)
        # per parity of t2: (family, mul, add, coefficient) for the nonzero ones
        self._by_parity = tuple(
            tuple((f, m, a, c[p]) for f, m, a, *c in self.terms if c[p]) for p in (0, 1))

    @classmethod
    def combine(cls, engine, parts: Sequence[Tuple[object, Family]],
                off2: Optional[int] = None) -> "LinearFamily":
        """sum c * f over families f of one weight and parity, all at the
        same mode index."""
        if not parts:
            raise ValueError("empty linear family")
        first = parts[0][1]
        return cls(engine, first.weight2, first.parity,
                   [(f, 1, 0, c, c) for c, f in parts], off2)

    def _compute(self, t2, col):
        acc: Vec = {}
        for fam, mul, add, c in self._by_parity[t2 & 1]:
            res = fam.apply_basis(mul * t2 + add, col)
            if res:
                v_iadd(acc, res, c)
        return acc


def _expanded(fam: Family, mul: int, add: int, coeffs: Tuple[ExactScalar, ExactScalar]):
    """((family, mul, add), c_even, c_odd) for the non-combination terms of
    coeffs * fam(mul * t2 + add)."""
    if not isinstance(fam, LinearFamily):
        yield (fam, mul, add), coeffs[0], coeffs[1]
        return
    # the inner index s = mul * t2 + add has the parity (mul * p + add) % 2
    # on the t2 of parity p
    inner = [(mul * p + add) % 2 for p in (0, 1)]
    live = [fam.off2 is None or (s - fam.off2) % 2 == 0 for s in inner]
    for f, m, a, *c in fam.terms:
        yield ((f, m * mul, m * add + a),
               *(coeffs[p] * c[inner[p]] if live[p] else ZERO for p in (0, 1)))


class CompositeFamily(Family):
    """Modes of u_l w defined through the component identity above.

    `products(s)` must return the Family of the state u_s w (or None when
    that state vanishes), as `Engine.product_families` does; it is consulted
    for s = l + i only when C(m, i) != 0, on every such column.  Both mode
    lattices come from the factor families: u's modes live on
    Z + u_fam.off2/2, which must be known, and u_l w's on
    Z + (u_fam.off2 + w_fam.off2)/2, unknown (None) when w's is.
    """

    def __init__(self, engine, u_fam: Family, w_fam: Family, ell,
                 products: Callable[[int], Optional[Family]]):
        if not isinstance(ell, int):
            raise TypeError(f"the product index l = {ell!r} is not an int")
        if u_fam.off2 is None:
            raise ValueError("the mode lattice of u in u_l w is unknown")
        super().__init__(engine, u_fam.weight2 + w_fam.weight2 - 2 * ell - 2,
                         u_fam.parity + w_fam.parity,
                         None if w_fam.off2 is None else (u_fam.off2 + w_fam.off2) % 2)
        self.u_fam = u_fam
        self.w_fam = w_fam
        self.ell = ell
        self.u_off2 = u_fam.off2
        self.products = products

    def _feasible(self, m2: int, t2: int, col_w2: int) -> bool:
        bound2 = self.engine.bound2
        return (col_w2 + self.w_fam.weight2 - (t2 - m2) - 2 < bound2
                and col_w2 + self.u_fam.weight2 - m2 - 2 < bound2)

    def _snapped(self, t2: int) -> int:
        """The point of u's lattice nearest balanced = (t + wt_u - wt_w)/2,
        ties to even like round(): u_offset + round(balanced - u_offset)."""
        q, r = divmod(t2 + self.u_fam.weight2 - self.w_fam.weight2 - 2 * self.u_off2, 4)
        return self.u_off2 + 2 * (q + (r > 2 or (r == 2 and q % 2)))

    def _choose_m(self, t2: int, col_w2: int) -> int:
        prefs = [0] if self.u_off2 == 0 else [-1, 1]
        # the feasible m form an open interval centred on `balanced`, so if
        # its nearest lattice point is infeasible, every lattice point is
        prefs.append(self._snapped(t2))
        for m2 in prefs:
            if self._feasible(m2, t2, col_w2):
                return m2
        raise TruncationOverflow(
            f"no admissible auxiliary index for mode {Fraction(t2, 2)} at column level "
            f"{Fraction(col_w2, 2)} above the lowest column")

    def _compute(self, t2, col):
        return self.column(t2, col, self._choose_m(t2, self.engine.col_w2[col]))

    def column(self, t2: int, col: int, m2: int) -> Vec:
        """The column (u_l w)_t col computed with auxiliary index m = m2/2;
        every admissible m on u's lattice gives the same vector."""
        acc = jacobi_left(self.u_fam, self.w_fam, self.ell, m2, t2 - m2, col,
                          self.engine.col_w2[col])
        # the i = 0 term of the right side is the column being defined
        return jacobi_right(acc, self.u_fam, self.w_fam, self.ell, m2, t2, col,
                            1, self.products)


def jacobi_left(u_fam: Family, w_fam: Family, ell: int, m2: int,
                n2: int, col: int, col_w2: int) -> Vec:
    """The left side of the component identity on one basis column, with
    m = m2/2, n = n2/2 and col_w2 = engine.col_w2[col]:

        sum_i (-1)**i C(l,i) [u_{m+l-i} w_{n+i} - (-1)**l (-1)**|u||w| w_{n+l-i} u_{m+i}] col
    """
    acc: Vec = {}
    _ordered_products(acc, u_fam, m2, w_fam, n2, ell, col, col_w2, 1)
    sgn = -((-1) ** (ell % 2)) * ((-1) ** (u_fam.parity * w_fam.parity))
    _ordered_products(acc, w_fam, n2, u_fam, m2, ell, col, col_w2, sgn)
    return acc


def _ordered_products(acc: Vec, outer: Family, outer2: int, inner: Family,
                      inner2: int, ell: int, col: int, col_w2: int, sign: int) -> None:
    """Add sign * sum_i (-1)**i C(l,i) outer_{a+l-i} inner_{b+i} col to acc,
    with a = outer2/2 and b = inner2/2.  The sum stops once the inner mode
    annihilates every state of the column's weight.
    """
    for i in range((col_w2 + inner.weight2 - inner2 - 2) // 2 + 1):
        mid = inner.apply_basis(inner2 + 2 * i, col)
        if mid:
            res = outer.apply(outer2 + 2 * (ell - i), mid)
            if res:
                v_iadd(acc, res, binomial2_scalar(2 * ell, i, sign * (-1) ** i))


def jacobi_right(acc: Vec, u_fam: Family, w_fam: Family, ell: int, m2: int,
                 t2: int, col: int, first: int,
                 products: Callable[[int], Optional[Family]]) -> Vec:
    """Subtract sum_{i >= first} C(m, i) (u_{l+i} w)_{t-i} col, the right
    side of the component identity with m = m2/2 and t = m + n = t2/2, from
    acc.  `products(s)` is the family of u_s w, or None when that state
    vanishes; it is consulted for s = l + i only when C(m, i) != 0.  u_{l+i} w
    has weight wt_u + wt_w - l - i - 1, so the sum stops once that drops
    below 0.
    """
    for i in range(first, (u_fam.weight2 + w_fam.weight2) // 2 - ell):
        coeff = binomial2_scalar(m2, i, -1)
        if coeff:
            fam = products(ell + i)
            if fam is not None:
                res = fam.apply_basis(t2 - 2 * i, col)
                if res:
                    v_iadd(acc, res, coeff)
    return acc


class Engine:
    """What the families and the verifiers need from a mode engine.

    A subclass sets `space` (the module's ordered basis: `parities`,
    `fermion_parities`, the parity of each column's fermion count, `dim`,
    and the ints `level2`, each column's level above the lowest one in half
    units, and `bound2`, the truncation in those units),
    `algebra` (the vertex algebra whose states label the families, with
    its vacuum index `vac`: the engine itself for an algebra acting on
    itself) and implements `_build_family(i)`, which builds the family of
    the algebra's basis vector i once for `_family_by_index`; that builds
    the vacuum's family itself, so `_build_family` never sees `vac`.  An
    engine whose grading is not its space's (the mirror-twisted module)
    sets `col_w2` and `bound2` itself.
    A twisted module overrides `twist`, the order-two automorphism whose
    eigenvalues fix mode lattices; the default is the identity, under which
    every exponent is 0.  `table(key, build)` keeps one report per key, so
    the reports that read one bracket table compute it once; `l0_spectra`
    keeps the engine's L(0) diagonal there too.
    """

    @cached_property
    def col_w2(self) -> Tuple[int, ...]:
        """Each column's level above the lowest column, in half units."""
        return self.space.level2

    @cached_property
    def bound2(self) -> int:
        """The truncation in the units of col_w2: an output level at or
        above it overflows."""
        return self.space.bound2

    def columns(self, max_level) -> List[int]:
        """The basis columns at most max_level above the lowest column
        (`col_w2` never decreases)."""
        return list(range(bisect_right(self.col_w2, floor(2 * max_level))))

    @property
    def vacuum_vec(self) -> Vec:
        return {self.algebra.vac: ONE}

    def parity_map(self, vec: Vec) -> Vec:
        """The parity automorphism of the space: -1 on its odd states."""
        return {k: (-c if self.space.parities[k] else c) for k, c in vec.items()}

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

    @cached_property
    def _fams(self) -> Dict[int, Family]:
        """The family of each algebra basis index built so far."""
        return {}

    def _build_family(self, i: int) -> Family:
        raise NotImplementedError

    @cached_property
    def _tables(self) -> dict:
        """The reports `table` has built, by key."""
        return {}

    def table(self, key, build: Callable[[], object]):
        """build(), computed once per key on this engine and then shared."""
        if key not in self._tables:
            self._tables[key] = build()
        return self._tables[key]

    def _family_by_index(self, i: int) -> Family:
        """The family of the algebra's basis vector i, built on first use."""
        fam = self._fams.get(i)
        if fam is None:
            fam = self._fams[i] = (VacuumFamily(self) if i == self.algebra.vac
                                   else self._build_family(i))
        return fam

    def family(self, vec: Vec) -> Family:
        """The modes of an algebra vector, given in the algebra's basis."""
        items = sorted(vec.items())
        if len(items) == 1 and items[0][1] == ONE:
            return self._family_by_index(items[0][0])
        # rebuilt on each call: kept, every transient combination and its
        # column memo would live as long as the engine (peak memory +5-6%)
        parts = [(c, self._family_by_index(i)) for i, c in items]
        offs = {f.off2 for _, f in parts}
        return LinearFamily.combine(self, parts, offs.pop() if len(offs) == 1 else None)

    def product_families(self, u_vec: Vec, v_vec: Vec) -> Callable[[int], Optional[Family]]:
        """s -> the family of the product state u_s v (None when it
        vanishes), built once per s: the one memo of product-state
        families, read by the composite families and the Jacobi verifier.
        u's family is built once per call, so a combination u keeps one
        column memo for every s."""
        u_fam = self.algebra.family(u_vec) if u_vec and v_vec else None

        @cache
        def family(s: int) -> Optional[Family]:
            vec = u_fam.apply(2 * s, v_vec) if u_fam is not None else {}
            return self.family(vec) if vec else None

        return family

    # the grading ------------------------------------------------------------

    def L(self) -> Family:
        """The modes of the conformal vector, L(n) = omega_{n+1} at index
        2n + 2, built on each call like every combination."""
        return self.family(self.algebra.omega_vec)

    def _l0_entry(self, L: Family, col: int) -> Fraction:
        """L(0)'s diagonal entry at col; NonDiagonal if L(0) mixes col or it is irrational."""
        vec = L.apply_basis(2, col)
        if set(vec) - {col}:
            raise NonDiagonal(f"operator mixes basis state {col}")
        coeff = vec.get(col, ZERO)
        if not coeff.is_rational():
            raise NonDiagonal(f"non-rational diagonal entry at {col}")
        return coeff.as_rational()

    def l0_eigenvalues(self) -> List[Fraction]:
        """The diagonal of L(0); raises NonDiagonal if it mixes basis states."""
        return l0_spectra([self])[0]

    def ground_eigenvalue(self) -> Fraction:
        """The L(0) eigenvalue on the ground states (the level-0 columns), computed
        from the constructed modes (this is where a twisted ground weight emerges)."""
        L = self.L()
        values = {self._l0_entry(L, col) for col in self.columns(0)}
        if len(values) != 1:
            raise NonHomogeneous(f"ground eigenvalues disagree: {values}")
        return values.pop()


# the key under which `Engine.table` keeps an engine's L(0) diagonal
_SPECTRUM = "l0-spectrum"


def l0_spectra(engines: Sequence[Engine]) -> List[List[Fraction]]:
    """The L(0) diagonal of each engine, as `Engine.l0_eigenvalues` gives
    it, kept per engine by `Engine.table` (callers never mutate one).

    The diagonals not kept yet are one `fork.split` over all the engines'
    columns in serial order (the mirror-twisted diagonal reads the
    parity-twisted one's columns), with the columns of odd fermion count
    (`fermion_parities`) in the child: an entry reads memoized columns of
    its own fermion parity, so the processes compute almost no column
    twice.  Each process builds an engine's L once and keeps none of its
    columns, as each is read once."""
    todo = [e for e in engines if _SPECTRUM not in e._tables]
    if todo:
        # imported here: the presentation layer loads modes but never forks
        from . import fork

        starts = list(accumulate((len(e.col_w2) for e in todo), initial=0))
        Ls: Dict[int, Family] = {}

        def entry(i: int) -> Tuple[int, int]:
            k = bisect_right(starts, i) - 1
            if k not in Ls:
                Ls[k] = todo[k].L()
                Ls[k].memo = False
            value = todo[k]._l0_entry(Ls[k], i - starts[k])
            return value.numerator, value.denominator

        entries = fork.split([key for e in todo for key in e.space.fermion_parities], entry)
        for k, engine in enumerate(todo):
            engine._tables[_SPECTRUM] = [Fraction(*pair)
                                         for pair in entries[starts[k]:starts[k + 1]]]
    return [e._tables[_SPECTRUM] for e in engines]
