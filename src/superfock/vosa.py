"""Vertex operator superalgebra structure on the boson-fermion Fock space
V = B (x) F_NS, and on the tensor square V (x) V.

Generator modes are the free-field actions; every composite state's modes
come out of the shared component-identity recursion in `modes`, so one
tested rule replaces hand-derived normal-ordered formulas.  The tensor
square carries the Koszul-sign vertex operators, the signed transposition
automorphism and slot embeddings; the N=2 generators on V (x) V are
calibrated by solving for their scalars, never transcribed.

A pair's column in the tensor square is `PairSpace.rows[i][j]`.  The modes
of s (x) t sum over the Koszul product, one term per mode of s; when one
factor is V's vacuum only the term of its mode 1_{-1} = identity survives,
so the slot families of s (x) 1 and 1 (x) s carry V's columns of s to the
pairs (with the sign (-1)**(|s||a|) in slot 2) and compute nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Dict, List, Tuple

from .checks import CheckReport, TableReport, bracket_table_check, tally
from .errors import NoCalibration, TruncationOverflow
from .fock import FockState, TruncatedSpace
from .modes import CompositeFamily, Engine, Family
from .scalars import ExactScalar, ONE, Vec, square_roots, v_iadd, v_scale
from .superalgebra import N1_NS, N2_NS

HALF = Fraction(1, 2)


def _insertion_point(parts: Tuple[int, ...], mag: int) -> int:
    """How many entries of the decreasing tuple `parts` exceed mag."""
    i = 0
    for p in parts:
        if p <= mag:
            break
        i += 1
    return i


class _BosonModes(Family):
    """Y(a(-1)|0>, x): mode t is a(t), acting on the space's int-coded
    states (`TruncatedSpace.codes`).  A column is one state times one of
    `coeffs`, so the family keeps the compact memo of a `monomial` one."""

    monomial = True

    def __init__(self, engine: "FreeFieldEngine"):
        super().__init__(engine, 2, 0, 0)
        self._codes = engine.space.codes
        self._index = engine.space.code_index
        # a(n) removes one of `mult` equal parts n with coefficient n * mult,
        # at most the boson level of a column, which stays below bound2 / 2;
        # a(-n) adds a part with coefficient 1, the id 1
        self.coeffs = tuple(ExactScalar(k) for k in range(engine.bound2 // 2 + 1))

    def _compute(self, t2, col):
        n = t2 // 2
        if n == 0:
            return None
        bos, fer, ground = self._codes[col]
        if n < 0:
            i = _insertion_point(bos, -n)
            return self._index[(bos[:i] + (-n,) + bos[i:], fer, ground)], 1
        mult = bos.count(n)
        if not mult:
            return None
        i = bos.index(n)
        return self._index[(bos[:i] + bos[i + 1:], fer, ground)], n * mult


class _FermionModes(Family):
    """Y(psi(-1/2)|0>, x): mode t is psi(t + 1/2), acting on int-coded
    states.  The space's fermion sector fixes the lattice: t in Z in the
    Neveu-Schwarz sector, t in Z + 1/2 in the Ramond sector, where the zero
    mode psi(0) flips the ground state with coefficient +-sqrt(psi_delta/2).
    A column is one state times one of `coeffs`, so the family keeps the
    compact memo of a `monomial` one."""

    monomial = True

    def __init__(self, engine: "FreeFieldEngine"):
        ramond = engine.space.fermion_sector == "r"
        super().__init__(engine, 1, 1, int(ramond))
        self._codes = engine.space.codes
        self._index = engine.space.code_index
        delta = engine.algebra.psi_delta
        # ids 2k + p: k = 0 creates, 1 kills and 2 flips the Ramond ground
        # state; p is the parity of the fermions the mode passes (for the
        # flip, of all of them)
        coeffs = [ONE, -ONE, ExactScalar(delta), ExactScalar(-delta)]
        if ramond:
            flips = square_roots(ExactScalar(delta / 2))
            if not flips:
                raise ValueError(f"unsupported fermion normalization {delta}: "
                                 "sqrt(psi_delta / 2) is outside Q(i, sqrt2)")
            coeffs += flips
        self.coeffs = tuple(coeffs)

    def _compute(self, t2, col):
        r2 = t2 + 1
        bos, fer, ground = self._codes[col]
        if r2 < 0:
            if -r2 in fer:
                return None
            i = _insertion_point(fer, -r2)
            return self._index[(bos, fer[:i] + (-r2,) + fer[i:], ground)], i % 2
        if r2 == 0:
            return self._index[(bos, fer, 1 - ground)], 4 + len(fer) % 2
        if r2 not in fer:
            return None
        i = fer.index(r2)
        return self._index[(bos, fer[:i] + fer[i + 1:], ground)], 2 + i % 2


class FreeFieldEngine(Engine):
    """Modes of the states of V on a boson-fermion Fock module.

    The generators a(-1)|0> and psi(-1/2)|0> act as the free fields of the
    module's space, on its int-coded states; every other state's modes come
    out of the component recursion, peeling off the leading creation mode.
    The space's `fermion_sector` alone fixes the fermion's mode lattice (Z
    on V's Neveu-Schwarz space, Z + 1/2 on the parity-twisted module's
    Ramond space), and a composite state's lattice follows from its
    factors'.
    """

    def _build_family(self, k: int) -> Family:
        V = self.algebra
        bos, fer, ground = V.space.codes[k]
        # peel the leading creation mode: state k (not the vacuum) is u_l rest, u = b or f
        if bos:
            u_state, ell, rest = V.b_state, -bos[0], (bos[1:], fer, ground)
        else:
            u_state, ell, rest = V.f_state, -(fer[0] + 1) // 2, (bos, fer[1:], ground)
        rest = V.space.code_index[rest]
        if ell == -1 and rest == V.vac:  # the generator u = u_{-1} vac
            return _BosonModes(self) if bos else _FermionModes(self)
        u_vec = V.vec_of(u_state)
        return CompositeFamily(self, self.family(u_vec), self._family_by_index(rest), ell,
                               self.product_families(u_vec, {rest: ONE}))


class Vosa(FreeFieldEngine):
    """The N=1 free-field model: one boson and one fermion, truncated by weight."""

    def __init__(self, max_weight, psi_delta: Fraction = Fraction(1)):
        self.space = TruncatedSpace("vosa", max_weight)
        self.algebra = self
        self.psi_delta = Fraction(psi_delta)
        self.vac_state = FockState()
        self.b_state = FockState(bosons=(1,))
        self.f_state = FockState(fermions=(HALF,))
        self.vac = self.space.column(self.vac_state)
        self.central_charge = self.space.central_charge

    # states -----------------------------------------------------------

    def vec_of(self, state: FockState) -> Vec:
        return {self.space.column(state): ONE}

    @property
    def generators(self) -> Dict[str, Vec]:
        """The free generators b = a(-1)|0> and f = psi(-1/2)|0>."""
        return {"b": self.vec_of(self.b_state), "f": self.vec_of(self.f_state)}

    @property
    def omega_vec(self) -> Vec:
        half = ExactScalar(HALF)
        return {
            self.space.column(FockState(bosons=(1, 1))): half,
            self.space.column(FockState(fermions=(Fraction(3, 2), HALF))): half,
        }

    @property
    def tau_vec(self) -> Vec:
        return {self.space.column(FockState(bosons=(1,), fermions=(HALF,))): ONE}


# ---------------------------------------------------------------------------
# Axiom suites for any untwisted engine
# ---------------------------------------------------------------------------

def creation_report(V: Vosa) -> CheckReport:
    """v_{-1} vacuum = v and v_n vacuum = 0 for 0 <= n <= 3, for every basis state."""
    rep = CheckReport("creation-axiom")
    for i in range(V.space.dim):
        fam = V._family_by_index(i)
        for n in range(-1, 4):
            tally(rep, lambda: (fam.apply(2 * n, V.vacuum_vec),
                                {i: ONE} if n == -1 else {}),
                  lambda: {"state": str(V.space.state(i)), "mode": str(n)})
    return rep


def grading_report(V: Vosa) -> CheckReport:
    """L(0) built from the conformal vector acts as the weight on every state."""
    rep = CheckReport("l0-grading")
    L = V.L()
    for i, lv2 in enumerate(V.space.level2):
        w = Fraction(lv2, 2)  # V is untwisted: its ground weight is 0
        want = {i: ExactScalar(w)} if w else {}
        tally(rep, lambda: (L.apply_basis(2, i), want),
              lambda: {"state": str(V.space.state(i))})
    return rep


def translation_report(V: Vosa) -> CheckReport:
    """(L(-1)v)_n = -n v_{n-1} for |n| <= 2, on the states and columns of
    weight at most 5/2, as exact operators."""
    rep = CheckReport("translation-axiom")
    L = V.L()
    window = 2
    cols = V.columns(Fraction(5, 2))
    for i in cols:
        try:
            dv = L.apply(0, {i: ONE})  # L(-1)
        except TruncationOverflow:
            # L(-1)v lies beyond the truncation: none of v's checks can run
            rep.filtered += (2 * window + 1) * len(cols)
            continue
        dfam = V.family(dv) if dv else None
        vfam = V._family_by_index(i)
        for n in range(-window, window + 1):
            for col in cols:
                tally(rep, lambda: (dfam.apply_basis(2 * n, col) if dfam else {},
                                    v_scale(vfam.apply_basis(2 * n - 2, col),
                                            ExactScalar(-n))),
                      lambda: {"state": str(V.space.state(i)), "mode": str(n), "col": col})
    return rep


def n1_table_report(V: Vosa, window: int, max_col_level: Fraction) -> TableReport:
    """The tau-modes satisfy the N=1 Neveu-Schwarz table with V's central
    charge on the columns up to max_col_level."""
    families = {"L": V.L(), "G": V.family(V.tau_vec)}
    return bracket_table_check("n1-free-field", N1_NS, V.central_charge,
                               families, window, V.columns(max_col_level))


# ---------------------------------------------------------------------------
# The tensor square
# ---------------------------------------------------------------------------

class PairSpace:
    """Ordered basis of V (x) V below a combined-weight truncation.

    `states[k]` is the pair (i, j) of V basis indices of column k, and
    `rows[i][j]` is k again (a KeyError for a pair at or above the
    truncation), so finding a pair's column takes two subscripts and builds
    no tuple.
    `level2` holds twice each pair's combined weight and `bound2` twice the
    truncation, rounded up: an int level2 is below 2 * bound exactly when it
    is below bound2.
    """

    def __init__(self, V: Vosa, bound: Fraction):
        w2, self.bound2 = V.col_w2, ceil(2 * bound)
        pairs = sorted((wi + wj, i, j) for i, wi in enumerate(w2)
                       for j, wj in enumerate(w2) if wi + wj < self.bound2)
        self.states: Tuple[Tuple[int, int], ...] = tuple((i, j) for _, i, j in pairs)
        self.rows: List[Dict[int, int]] = [{} for _ in w2]
        for k, (i, j) in enumerate(self.states):
            self.rows[i][j] = k
        self.level2: Tuple[int, ...] = tuple(k for k, _, _ in pairs)
        self.parities = tuple((V.space.parities[i] + V.space.parities[j]) % 2
                              for i, j in self.states)
        # V's space is NS, with one even ground state, so a state's parity
        # is its fermion count's and a pair's the sum of its two factors'
        self.fermion_parities = self.parities


class _TensorMonoFamily(Family):
    """Modes of s (x) t, for s and t both other than V's vacuum, through the
    Koszul-signed factorization of Y:

        (s (x) t)_n (a (x) b) = sum_p (-1)**(|t||a|) s_p a (x) t_{n-1-p} b.

    Each term is a product of two of V's memoized columns, so no column is
    stored here (`memo = False`).
    """

    memo = False

    def __init__(self, engine: "TensorVosa", i: int, j: int):
        self.fam_i = engine.V._family_by_index(i)
        self.fam_j = engine.V._family_by_index(j)
        super().__init__(engine, self.fam_i.weight2 + self.fam_j.weight2,
                         self.fam_i.parity + self.fam_j.parity, 0)

    def _compute(self, t2, col):
        eng: TensorVosa = self.engine
        V = eng.V
        a, b = eng.space.states[col]
        out_w2 = eng.col_w2[col] + self.weight2 - t2 - 2
        # twice the left output weight wa + wt_i - p - 1 of the mode p = 0
        top2 = V.col_w2[a] + self.fam_i.weight2 - 2
        sign = -1 if (self.fam_j.parity * V.space.parities[a]) % 2 else 1
        rows = eng.space.rows
        acc: Vec = {}
        # integer p with left output weight inside [0, out_w]
        for p in range(-((out_w2 - top2) // 2), top2 // 2 + 1):
            lvec = self.fam_i.apply_basis(2 * p, a)
            if not lvec:
                continue
            rvec = self.fam_j.apply_basis(t2 - 2 - 2 * p, b)
            if not rvec:
                continue
            # distinct (ia, jb) are distinct basis pairs, and a product of
            # nonzero scalars is nonzero: one term per pair, no zeros
            v_iadd(acc, {rows[ia][jb]: ca * cb
                         for ia, ca in lvec.items() for jb, cb in rvec.items()}, sign)
        return acc


class _TensorSlotFamily(Family):
    """Modes of s (x) 1 (slot 1) or 1 (x) s (slot 2), for s a V basis state
    other than the vacuum.

    The vacuum's only nonzero mode is 1_{-1} = identity, so one term of the
    Koszul product sum survives (Frenkel-Huang-Lepowsky):

        (s (x) 1)_n (a (x) b) = s_n a (x) b,
        (1 (x) s)_n (a (x) b) = (-1)**(|s||a|) a (x) s_n b,

    and a column is V's memoized column of s carried to the pairs, rebuilt
    on each call (`memo = False`).
    """

    memo = False

    def __init__(self, engine: "TensorVosa", k: int, slot: int):
        self.fam = engine.V._family_by_index(k)
        self.slot = slot
        super().__init__(engine, self.fam.weight2, self.fam.parity, 0)

    def _compute(self, t2, col):
        eng: TensorVosa = self.engine
        a, b = eng.space.states[col]
        rows = eng.space.rows
        if self.slot == 1:
            return {rows[ia][b]: c for ia, c in self.fam.apply_basis(t2, a).items()}
        row, vec = rows[a], self.fam.apply_basis(t2, b)
        if self.fam.parity and eng.V.space.parities[a]:
            return {row[jb]: -c for jb, c in vec.items()}
        return {row[jb]: c for jb, c in vec.items()}


class TensorVosa(Engine):
    """V (x) V with Koszul-sign tensor vertex operators; its central charge
    is twice V's."""

    def __init__(self, V: Vosa, bound):
        self.V = V
        bound = Fraction(bound)
        if bound > V.space.levels:
            raise ValueError("tensor truncation cannot exceed the factor truncation")
        self.space = PairSpace(V, bound)
        self.algebra = self
        self.central_charge = 2 * V.central_charge
        self.vac = self.space.rows[V.vac][V.vac]

    # states ------------------------------------------------------------

    def pair_vec(self, left: Vec, right: Vec) -> Vec:
        """The decomposable vector (sum left_i s_i) (x) (sum right_j t_j)."""
        rows = self.space.rows
        return {rows[i][j]: ci * cj
                for i, ci in left.items() if ci for j, cj in right.items() if cj}

    def slot(self, v_vec: Vec, slot: int) -> Vec:
        if slot == 1:
            return self.pair_vec(v_vec, self.V.vacuum_vec)
        if slot == 2:
            return self.pair_vec(self.V.vacuum_vec, v_vec)
        raise ValueError("slot must be 1 or 2")

    @property
    def omega_vec(self) -> Vec:
        om = self.V.omega_vec
        return v_iadd(self.slot(om, 1), self.slot(om, 2))

    def kappa(self, vec: Vec) -> Vec:
        """Signed transposition: u (x) v -> (-1)**(|u||v|) v (x) u."""
        parities, states, rows = self.V.space.parities, self.space.states, self.space.rows
        out: Vec = {}
        # the transposition is a bijection of basis pairs: no two terms meet
        for k, c in vec.items():
            if c:
                i, j = states[k]
                out[rows[j][i]] = -c if parities[i] * parities[j] else c
        return out

    # families -------------------------------------------------------------

    def _build_family(self, k: int) -> Family:
        i, j = self.space.states[k]
        if j == self.V.vac:
            return _TensorSlotFamily(self, i, 1)
        if i == self.V.vac:
            return _TensorSlotFamily(self, j, 2)
        return _TensorMonoFamily(self, i, j)


def kappa_automorphism_report(tensor: TensorVosa) -> CheckReport:
    """kappa Y(v,x) kappa = Y(kappa v, x) for |t| <= 2, on the states and
    columns of weight at most 2."""
    rep = CheckReport("kappa-vertex-compatibility")
    window = 2
    cols = tensor.columns(2)
    for k in tensor.columns(2):
        v = {k: ONE}
        fam = tensor.family(v)
        kfam = tensor.family(tensor.kappa(v))
        for t in range(-window, window + 1):
            for col in cols:
                tally(rep, lambda: (tensor.kappa(fam.apply(2 * t, tensor.kappa({col: ONE}))),
                                    kfam.apply_basis(2 * t, col)),
                      lambda: {"state": k, "mode": t, "col": col})
    return rep


# ---------------------------------------------------------------------------
# N=2 calibration on the tensor square
# ---------------------------------------------------------------------------

@dataclass
class N2Data:
    c1: ExactScalar
    c2: ExactScalar
    cJ: ExactScalar
    tau1: Vec
    tau2: Vec
    jvec: Vec
    table: TableReport
    solutions_tried: int

    def to_json(self):
        return {
            "c1": self.c1.to_json(),
            "c2": self.c2.to_json(),
            "cJ": self.cJ.to_json(),
            "table": self.table.to_json(),
            "solutions_tried": self.solutions_tried,
        }


def _raw_n2_vectors(tensor: TensorVosa) -> Tuple[Vec, Vec, Vec]:
    V = tensor.V
    tau1 = v_iadd(tensor.slot(V.tau_vec, 1), tensor.slot(V.tau_vec, 2))
    gens = V.generators
    b, f = gens["b"], gens["f"]
    tau2 = v_iadd(tensor.pair_vec(b, f), tensor.pair_vec(f, b), -1)
    jraw = tensor.pair_vec(f, f)
    return tau1, tau2, jraw


def _vacuum_line(fam: Family, up2: int, vac: int, sign: int) -> ExactScalar:
    """The vacuum coefficient of (x_{up} x_{-1} + sign x_{-1} x_{up}) vac,
    for fam the modes of x and up = up2/2: the anticommutator (sign 1) or
    commutator (sign -1) whose vacuum line fixes x's normalization."""
    acc = fam.apply(up2, fam.apply_basis(-2, vac))
    other = fam.apply_basis(up2, vac)
    if other:
        v_iadd(acc, fam.apply(-2, other), sign)
    return acc.get(vac, ExactScalar(0))


def calibrate_n2(tensor: TensorVosa, window: int = 2) -> N2Data:
    """Solve for the scalars making (tau1, tau2, J) generate the N=2 algebra
    with the tensor square's central charge on its truncation.

    The ansatz is the minimal signed-transposition-equivariant family of
    weight-3/2 vectors; the normalizations are pinned by the vacuum lines of
    [G1(3/2), G1(-3/2)] and [J(1), J(-1)], the relative scalar c2 by
    [J, G1] = -i G2, and every candidate is accepted only after the full
    windowed bracket table passes on the columns up to level 2.  NoCalibration
    names the vacuum line, the incomplete table or the violations at fault.
    """
    V = tensor.V
    tau1_raw, tau2_raw, j_raw = _raw_n2_vectors(tensor)
    vac = tensor.vac

    # family modes are in half units: G(r) is tau's mode r + 1/2, t2 = 2r + 1
    f1 = tensor.family(tau1_raw)
    # {G1(3/2), G1(-3/2)} on the vacuum = c1**2 * lam1, target 2; G(3/2) is
    # tau's mode 2, G(-3/2) its mode -1
    lam1 = _vacuum_line(f1, 4, vac, 1)
    c1_roots = square_roots(ExactScalar(2) * lam1.inv()) if lam1 else []

    # [J(1), J(-1)] on the vacuum = cJ**2 * lamj, target 1
    fj = tensor.family(j_raw)
    lamj = _vacuum_line(fj, 2, vac, -1)
    cj_roots = square_roots(lamj.inv()) if lamj else []
    for bracket, line, roots in (("{G1(3/2), G1(-3/2)}", lam1, c1_roots),
                                 ("[J(1), J(-1)]", lamj, cj_roots)):
        if not roots:
            raise NoCalibration(
                f"the vacuum line of {bracket} is {line}, which no scalar in Q(i, sqrt2) "
                "normalizes; the constructed modes are at fault, not the ansatz")

    f2 = tensor.family(tau2_raw)
    tried = unrefuted = 0
    for c1 in c1_roots:
        for cJ in cj_roots:
            tried += 1
            # [J(-1), G1(-1/2)] vac = -i G2(-3/2) vac fixes c2 linearly.
            g1m = f1.apply_basis(0, vac)                  # G1(-1/2)
            lhs = fj.apply(-2, g1m)
            jm = fj.apply_basis(-2, vac)
            if jm:
                v_iadd(lhs, f1.apply(0, jm), -1)
            lhs = v_scale(lhs, cJ * c1)
            target = f2.apply_basis(-2, vac)              # G2(-3/2) raw
            if not target:
                continue
            coord = sorted(target)[0]
            if coord not in lhs:
                continue
            c2 = lhs[coord] * (ExactScalar(0, -1) * target[coord]).inv()
            if v_scale(target, ExactScalar(0, -1) * c2) != lhs:
                continue
            tau1 = v_scale(tau1_raw, c1)
            tau2 = v_scale(tau2_raw, c2)
            jvec = v_scale(j_raw, cJ)
            families = {"L": tensor.L(), "J": tensor.family(jvec),
                        "G1": tensor.family(tau1), "G2": tensor.family(tau2)}
            table = bracket_table_check("n2-calibrated", N2_NS, tensor.central_charge,
                                        families, window, tensor.columns(2))
            if table.passed:
                return N2Data(c1, c2, cJ, tau1, tau2, jvec, table, tried)
            unrefuted += table.violations == 0
    if unrefuted:
        raise NoCalibration(
            f"{unrefuted} of {tried} candidates read 0 violations at window {window}, but "
            f"truncation {Fraction(tensor.space.bound2, 2)} leaves pairs of the N=2 table "
            "with no column, so none completes it")
    raise NoCalibration(
        f"no scalar assignment satisfies the N=2 table ({tried} candidates tried); "
        "the ansatz family must be widened")
