"""Order-two twisted modules: the parity-twisted sector of V and the
mirror-twisted sector of V (x) V built on the same underlying space.

The parity-twisted module lives on B (x) F_R.  Generator modes are the
integer-moded free-field actions (the fermion zero mode exchanges the two
ground states with coefficient 1/sqrt2); composite modes come from the same
component-identity recursion as the untwisted engine, now on half-integer
lattices, so the Ramond ground weight 1/16 is an output of the recursion,
never an input.

The mirror-twisted module is assembled through the weight-halving twist:
modes of a slot-1 vector are the twisted-sector modes of its twisted image,
evaluated at a halved variable; slot 2 follows by the root-phase flip.  A
slot-1 family is one flat `LinearFamily` over parity-twisted families at
the doubled index, and the slot-2 family of the same vector is slot 1's
with its odd-t2 coefficients negated.  A
two-slot vector s (x) t is reached through s (x) t = (s^1 + s^2)_{-1} (1 (x) t)
minus the single-slot state 1 (x) (s_{-1} t), whose compositions the
recursion resolves; both products are taken in V (x) V.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from .checks import CheckReport, TableReport, bracket_table_check, jacobi_pair_reports, tally
from .delta import apply_delta
from .fock import TruncatedSpace, character
from .modes import (
    CompositeFamily,
    Engine,
    Family,
    LinearFamily,
    l0_spectra,
)
from .scalars import ExactScalar, ONE, Vec, twice, v_iadd, v_scale
from .series import Series
from .superalgebra import N1_RAMOND, N2_MIRROR_TWISTED, N1_NS, VIRASORO
from .vosa import FreeFieldEngine, N2Data, TensorVosa, Vosa


def _computed_character(module: Engine, central_charge: Fraction) -> Series:
    """tr q**(-c/24 + L(0)) over a twisted module's computed L(0) spectrum,
    truncated at its levels above its lowest eigenvalue, so the ground
    weight that sizes the series is computed, never configured."""
    eig = module.l0_eigenvalues()
    bound = Fraction(module.bound2, 2) + min(eig)
    return character(module.space, central_charge, eigenvalues=eig, bound=bound)


class SigmaModule(FreeFieldEngine):
    """The parity-twisted V-module on B (x) F_R, truncated by level: its
    space's Ramond fermion sector alone puts psi on the integers."""

    def __init__(self, V: Vosa, levels: int):
        self.V = self.algebra = V
        self.space = TruncatedSpace("sigma", levels)

    def twist(self, vec: Vec) -> Vec:
        """The parity map of V."""
        return self.V.parity_map(vec)

    def graded_dimension(self) -> Series:
        """tr q**(-c/24 + L(0)) with the computed twisted L(0) spectrum."""
        return _computed_character(self, self.V.central_charge)


# ---------------------------------------------------------------------------
# Mirror-twisted module
# ---------------------------------------------------------------------------

class MirrorModule(Engine):
    """The mirror-twisted (V (x) V)-module carried by the same space as the
    parity-twisted module, its grading halved: a column's level is half its
    level in the parity-twisted module."""

    def __init__(self, sigma: SigmaModule, tensor: TensorVosa, n2: N2Data):
        if tensor.V is not sigma.V:
            raise ValueError("tensor square and twisted sector must share V")
        self.sigma = sigma
        self.tensor = self.algebra = tensor
        self.V = sigma.V
        self.n2 = n2
        self.space = sigma.space  # the construction reuses the space on the nose
        # every parity-twisted level is an integer, so its half-unit int is even
        self.col_w2 = tuple(w2 // 2 for w2 in sigma.col_w2)
        self.bound2 = sigma.bound2 // 2

    def twist(self, vec: Vec) -> Vec:
        return self.tensor.kappa(vec)

    # families -----------------------------------------------------------

    def _slot_family(self, i: int, slot: int) -> LinearFamily:
        """The twisted modes of the slot vector v^1 or v^2, v V's basis
        vector i: v^1's mode at t collects the parity-twisted modes of the
        weight-halving expansion's terms at 2t + 1 - wt - d, and v^2's
        differs by the root-phase sign (-1)**(2t), so it is v^1's family
        with its odd-t2 coefficients negated."""
        V = self.V
        w2 = V.col_w2[i]
        if slot == 2:
            slot1 = self._family_by_index(self.tensor.space.rows[i][V.vac])
            return LinearFamily(self, w2, slot1.parity, [(slot1, 1, 0, ONE, -ONE)])
        h = Fraction(w2, 2)  # V is untwisted: its ground weight is 0
        L = V.L()  # L(j) is omega's mode at index 2j + 2
        terms = apply_delta(h, {i: ONE}, lambda j, v: L.apply(2 * j + 2, v))
        return LinearFamily(self, w2, V.space.parities[i],
                            [(self.sigma.family(vec), 2, 2 - w2 - twice(-2 * exp - h),
                              ONE, ONE) for exp, vec in terms])

    def _build_family(self, k: int) -> Family:
        V, tensor = self.V, self.tensor
        i, j = tensor.space.states[k]
        if j == V.vac:
            return self._slot_family(i, 1)
        if i == V.vac:
            return self._slot_family(j, 2)
        # s (x) t = (s^1 + s^2)_{-1} (1 (x) t) - 1 (x) (s_{-1} t), where
        # 1 (x) (s_{-1} t) = (1 (x) s)_{-1} (1 (x) t); both are products in V (x) V
        s1, s2 = tensor.slot({i: ONE}, 1), tensor.slot({i: ONE}, 2)
        t = tensor.slot({j: ONE}, 2)
        u_fam = LinearFamily.combine(self, [(ONE, self.family(s1)), (ONE, self.family(s2))], 0)
        comp = CompositeFamily(self, u_fam, self.family(t), -1,
                               self.product_families(v_iadd(dict(s1), s2), t))
        minus_fam = self.product_families(s2, t)(-1)
        if minus_fam is None:
            return comp
        return LinearFamily.combine(self, [(ONE, comp), (-ONE, minus_fam)])

    # constructed towers ---------------------------------------------------------

    def n2_families(self) -> Dict[str, Family]:
        """The four towers of the mirror-twisted N=2 table, each the family
        of the state realizing it."""
        n2 = self.n2
        return {"L": self.L(), "G1": self.family(n2.tau1),
                "G2": self.family(n2.tau2), "J": self.family(n2.jvec)}

    def graded_dimension(self) -> Series:
        """tr q**(-c/24 + L(0)) with c the central charge of V (x) V."""
        return _computed_character(self, self.tensor.central_charge)

    def mode_lattice_report(self, window: int, max_col_level: Fraction) -> CheckReport:
        """Eigenvalue bookkeeping: fixed vectors carry integer modes only,
        negated vectors half-integer modes only, on the columns up to
        max_col_level above the ground states."""
        rep = CheckReport("mirror-mode-lattices")
        cols = self.columns(max_col_level)
        for name, fam in self.n2_families().items():
            # X(n) = x_{n+wt-1} with n on the presentation's lattice, so x's
            # modes live on Z + j/2 and the ones off it must vanish: t2 = 2t
            # runs over the odd integers for j = 0, the even ones for j = 1
            j = (twice(N2_MIRROR_TWISTED.lattices[name]) + fam.weight2 - 2) % 2
            for t2 in range(1 - j - 2 * window, 2 * window + 1, 2):
                for col in cols:
                    tally(rep, lambda: (fam.apply_basis(t2, col), {}),
                          lambda: {"tower": name, "mode": str(Fraction(t2, 2)), "col": col})
        return rep


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def sigma_virasoro_report(sigma: SigmaModule, window: int,
                          max_col_level: Fraction) -> TableReport:
    """The L pairs of the N=1 Ramond table."""
    return sigma_ramond_report(sigma, window, max_col_level).restrict(
        "sigma-virasoro", VIRASORO, {"L": "L"})


def sigma_ramond_report(sigma: SigmaModule, window: int,
                        max_col_level: Fraction) -> TableReport:
    """The N=1 Ramond table on the columns up to max_col_level above the
    ground states, computed once per (window, max_col_level)."""
    return sigma.table((window, Fraction(max_col_level)), lambda: bracket_table_check(
        "sigma-n1-ramond", N1_RAMOND, sigma.V.central_charge,
        {"L": sigma.L(), "G": sigma.family(sigma.V.tau_vec)}, window,
        sigma.columns(max_col_level)))


def sigma_twisted_jacobi_report(sigma: SigmaModule, window: int,
                                max_col_level: Fraction) -> CheckReport:
    rep = CheckReport("sigma-twisted-jacobi")
    for sub in jacobi_pair_reports(sigma, sigma.V.generators, window, max_col_level,
                                   "sigma-jacobi-"):
        rep.merge(sub)
    return rep


def mirror_table_report(mirror: MirrorModule, window: int,
                        max_col_level: Fraction) -> TableReport:
    """The mirror-twisted N=2 table on the columns up to max_col_level
    levels above the ground states, computed once per (window, max_col_level)."""
    return mirror.table((window, Fraction(max_col_level)), lambda: bracket_table_check(
        "mirror-twisted-n2", N2_MIRROR_TWISTED, mirror.tensor.central_charge,
        mirror.n2_families(), window, mirror.columns(Fraction(max_col_level, 2))))


def mirror_subalgebra_reports(mirror: MirrorModule, window: int,
                              max_col_level: Fraction) -> List[TableReport]:
    """The Virasoro, G1 Neveu-Schwarz and G2 Ramond sub-tables of the N=2 table."""
    table = mirror_table_report(mirror, window, max_col_level)
    return [table.restrict("mirror-virasoro", VIRASORO, {"L": "L"}),
            table.restrict("mirror-g1-ns", N1_NS, {"L": "L", "G1": "G"}),
            table.restrict("mirror-g2-ramond", N1_RAMOND, {"L": "L", "G2": "G"})]


def mirror_twisted_jacobi_report(mirror: MirrorModule, window: int,
                                 max_col_level: Fraction) -> CheckReport:
    """Twisted Jacobi identity for eigen pairs of free generators of V (x) V."""
    rep = CheckReport("mirror-twisted-jacobi")
    tensor = mirror.tensor
    eigens = {}
    for name, vec in mirror.V.generators.items():
        one = tensor.slot(vec, 1)
        two = tensor.slot(vec, 2)
        eigens[f"{name}+"] = v_iadd(dict(one), two)
        eigens[f"{name}-"] = v_iadd(dict(one), two, -1)
    for sub in jacobi_pair_reports(mirror, eigens, window, max_col_level / 2,
                                   "mirror-jacobi-"):
        rep.merge(sub)
    return rep


def mirror_equivariance_report(mirror: MirrorModule, max_state_weight: Fraction,
                               window: int, max_col_level: Fraction) -> CheckReport:
    """Y_g(kappa v, x) equals the root-phase flip of Y_g(v, x): mode-wise,
    (kappa v)_t = (-1)**(2t) v_t."""
    rep = CheckReport("mirror-equivariance")
    tensor = mirror.tensor
    cols = mirror.columns(Fraction(max_col_level, 2))
    for k in tensor.columns(max_state_weight):
        vec = {k: ONE}
        fam = mirror.family(vec)
        kfam = mirror.family(tensor.kappa(vec))
        for t2 in range(-2 * window, 2 * window + 1):
            sign = ExactScalar(-1 if t2 % 2 else 1)
            for col in cols:
                tally(rep, lambda: (kfam.apply_basis(t2, col),
                                    v_scale(fam.apply_basis(t2, col), sign)),
                      lambda: {"state": k, "mode": str(Fraction(t2, 2)), "col": col})
    return rep


# ---------------------------------------------------------------------------
# The character identity
# ---------------------------------------------------------------------------

@dataclass
class Corollary2Result:
    sigma_series: Series
    mirror_series: Series
    substituted: Series
    sigma_ground: Fraction
    mirror_ground: Fraction

    @property
    def matches(self) -> bool:
        """Equal coefficients on a compared range holding at least one term."""
        return bool(self.sigma_series.terms) and self.sigma_series == self.substituted

    def to_json(self):
        return {
            "sigma_graded_dimension": self.sigma_series.to_json(),
            "mirror_graded_dimension": self.mirror_series.to_json(),
            "mirror_in_q_squared": self.substituted.to_json(),
            "match": self.matches,
            "sigma_ground": str(self.sigma_ground),
            "mirror_ground": str(self.mirror_ground),
        }


def corollary2_check(mirror: MirrorModule,
                     truncation: Optional[Fraction] = None) -> Corollary2Result:
    """dim_q of the parity-twisted module equals dim_{q**2} of the
    mirror-twisted one, coefficient by coefficient below the truncation.
    Both L(0) spectra are computed together, split by column over two
    processes (`l0_spectra`); the graded dimensions read them."""
    l0_spectra([mirror.sigma, mirror])
    sigma_series = mirror.sigma.graded_dimension()
    mirror_series = mirror.graded_dimension()
    substituted = mirror_series.substitute_square()
    bound = min(sigma_series.truncation, substituted.truncation)
    if truncation is not None:
        bound = min(bound, Fraction(truncation))
    left = sigma_series.truncate(bound)
    right = substituted.truncate(bound)
    return Corollary2Result(
        sigma_series=left,
        mirror_series=mirror_series,
        substituted=right,
        sigma_ground=mirror.sigma.ground_eigenvalue(),
        mirror_ground=mirror.ground_eigenvalue(),
    )
