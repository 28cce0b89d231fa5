"""Generic verifiers: component Jacobi/Borcherds identities and bracket tables.

Both verifiers work against any `modes.Engine` (untwisted algebra, tensor
square, sigma-twisted module, mirror-twisted module).  Checks
whose intermediate states would leave the truncated space are counted as
filtered, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from .errors import InvalidAlgebra, TruncationOverflow
from .modes import Family, jacobi_left, jacobi_right
from .scalars import ZERO, ExactScalar, Vec, twice, v_iadd, v_scale
from .superalgebra import PARITY, Generator, Presentation


@dataclass
class CheckViolation:
    context: dict
    residual_norm: int

    def to_json(self):
        return {"context": self.context, "residual_entries": self.residual_norm}


@dataclass
class CheckReport:
    name: str
    checked: int = 0
    filtered: int = 0
    violations: List[CheckViolation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations and self.checked > 0

    def merge(self, other: "CheckReport"):
        self.checked += other.checked
        self.filtered += other.filtered
        self.violations.extend(other.violations)

    def to_json(self):
        return {
            "name": self.name,
            "checked": self.checked,
            "filtered": self.filtered,
            "violations": [v.to_json() for v in self.violations],
            "pass": self.passed,
        }


def tally(report: CheckReport, compare: Callable[[], Tuple[Vec, Vec]],
          context: Callable[[], dict]) -> None:
    """Run one exact comparison lhs == rhs into the report.

    `compare()` returns (lhs, rhs).  A truncation overflow while computing
    them counts the check as filtered; a mismatch records a violation with
    `context()` and the number of nonzero entries of lhs - rhs.  Any other
    error propagates.
    """
    try:
        lhs, rhs = compare()
    except TruncationOverflow:
        report.filtered += 1
        return
    report.checked += 1
    if lhs != rhs:
        report.violations.append(
            CheckViolation(context(), len(v_iadd(dict(lhs), rhs, -1))))


def borcherds_check(engine, u_vec: Vec, v_vec: Vec, window: int,
                    max_col_level, name: str) -> CheckReport:
    """Verify the component (twisted) Jacobi identity for one pair of states.

    For order-two engines the right side's delta-function kernel reduces,
    after residue extraction, to the lattice constraint on m together with
    the C(m, i) coefficients; u must be an eigenvector of the twisting map.
    An untwisted engine's twist is the identity, so its exponents are 0.
    The columns are those up to max_col_level above the lowest one.
    """
    report = CheckReport(name)
    fu = engine.family(u_vec)
    fv = engine.family(v_vec)
    # u's modes live on Z + j/2 when twist(u) = (-1)**j u
    off_u2 = engine.twist_exponent(u_vec)
    off_v2 = engine.twist_exponent(v_vec)
    cols = engine.columns(max_col_level)

    products = engine.product_families(u_vec, v_vec)

    def residual(ell, m2, n2, col):
        acc = jacobi_left(fu, fv, ell, m2, n2, col, engine.col_w2[col])
        return jacobi_right(acc, fu, fv, ell, m2, m2 + n2, col, 0, products), {}

    for ell in range(-window, window + 1):
        for m2 in range(off_u2 - 2 * window, 2 * window + 1, 2):
            for n2 in range(off_v2 - 2 * window, 2 * window + 1, 2):
                for col in cols:
                    tally(report, lambda: residual(ell, m2, n2, col),
                          lambda: {"l": str(ell), "m": str(Fraction(m2, 2)),
                                   "n": str(Fraction(n2, 2)), "column": col})
    return report


def jacobi_pair_reports(engine, vectors: Dict[str, Vec], window: int,
                        max_col_level, prefix: str) -> List[CheckReport]:
    """`borcherds_check` on every ordered pair of the named vectors, the
    report of (u, v) named prefix + u's name + v's name."""
    return [borcherds_check(engine, u, v, window, max_col_level, f"{prefix}{nu}{nv}")
            for nu, u in vectors.items() for nv, v in vectors.items()]


@dataclass
class PairResult:
    a: Generator
    b: Generator
    checked: int = 0
    filtered: int = 0
    violations: int = 0

    def to_json(self):
        return {"a": repr(self.a), "b": repr(self.b), "checked": self.checked,
                "filtered": self.filtered, "violations": self.violations}


@dataclass
class TableReport:
    name: str
    presentation: Presentation = field(repr=False)
    window: int
    central_value: ExactScalar
    pairs: List[PairResult] = field(default_factory=list)

    @property
    def checked(self) -> int:
        return sum(p.checked for p in self.pairs)

    @property
    def filtered(self) -> int:
        return sum(p.filtered for p in self.pairs)

    @property
    def violations(self) -> int:
        return sum(p.violations for p in self.pairs)

    @property
    def complete(self) -> bool:
        """Every windowed pair received at least one exact check."""
        return all(p.checked > 0 for p in self.pairs)

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.complete

    def restrict(self, name: str, presentation: Presentation,
                 families: Dict[str, str]) -> "TableReport":
        """The sub-table of the pairs whose families both lie in `families`,
        relabelled through it (e.g. {"L": "L", "G1": "G"}), as the table of
        `presentation` with the same window, central value and columns.

        Raises InvalidAlgebra unless the relabelled generators are exactly
        presentation.basis(window) without C, in order, and every kept
        pair's bracket in `presentation` is the relabelled bracket of this
        table's presentation: a view must check the same identities.
        """
        def relabel(family: str) -> str:
            if family == "C":
                return family
            if family not in families:
                raise InvalidAlgebra(f"{name}: {family} lies outside the view {families}")
            return families[family]

        kept = [p for p in self.pairs
                if p.a.family in families and p.b.family in families]
        symbols = [Generator(relabel(p.a.family), p.a.index) for p in kept if p.a == p.b]
        if symbols != [g for g in presentation.basis(self.window) if g.family != "C"]:
            raise InvalidAlgebra(f"{name}: the view of {self.presentation.name} does not "
                                 f"span {presentation.name} at window {self.window}")
        view = TableReport(name, presentation, self.window, self.central_value)
        for p in kept:
            a = Generator(relabel(p.a.family), p.a.index)
            b = Generator(relabel(p.b.family), p.b.index)
            m2, n2 = twice(p.a.index), twice(p.b.index)
            full = self.presentation.bracket2(p.a.family, m2, p.b.family, n2)
            if (presentation.bracket2(a.family, m2, b.family, n2)
                    != {(relabel(f), t2): c for (f, t2), c in full.items()}):
                raise InvalidAlgebra(
                    f"{name}: [{a}, {b}] differs from {self.presentation.name}")
            view.pairs.append(PairResult(a, b, p.checked, p.filtered, p.violations))
        return view

    def to_json(self):
        return {
            "name": self.name,
            "presentation": self.presentation.name,
            "window": self.window,
            "central": self.central_value.to_json(),
            "checked": self.checked,
            "filtered": self.filtered,
            "violations": self.violations,
            "complete": self.complete,
            "pass": self.passed,
            "pairs": [p.to_json() for p in self.pairs],
        }


def bracket_table_check(name: str,
                        presentation: Presentation,
                        central_value,
                        families: Dict[str, Family],
                        window: int,
                        columns: List[int]) -> TableReport:
    """Compare constructed super-brackets of module operators against the
    structure constants of a presentation, with the central element sent to
    a scalar.

    `families` holds the family of the state x realizing each presentation
    family X in the table (`{"L": Family, "G": Family}`).  The labelled mode
    X(n) is x_{n+wt-1}, so X's index n2 = 2n sits at n2 + weight2 - 2 in
    the family's half units.
    """
    central_value = ExactScalar.coerce(central_value)
    report = TableReport(name, presentation, window, central_value)
    shift2 = {f: fam.weight2 - 2 for f, fam in families.items()}
    symbols = [(g, presentation.index2(g)) for g in presentation.basis(window)
               if g.family != "C" and g.family in families]
    for ai in range(len(symbols)):
        for bi in range(ai, len(symbols)):
            (a, a2), (b, b2) = symbols[ai], symbols[bi]
            pa, pb = PARITY[a.family], PARITY[b.family]
            sign = (-1) ** (pa * pb)
            expected = presentation.bracket2(a.family, a2, b.family, b2)
            pr = PairResult(a, b)
            if a == b and not pa:
                # [A, A] = AA - AA vanishes identically for even A; the table
                # must agree, and no arithmetic is needed.
                if expected:
                    pr.violations += 1
                pr.checked += len(columns)
                report.pairs.append(pr)
                continue
            fa, ta = families[a.family], a2 + shift2[a.family]
            fb, tb = families[b.family], b2 + shift2[b.family]
            # the central term is -c * central_value on the column itself
            central = ZERO
            terms = []
            for (f, t2), coeff in expected.items():
                if f == "C":
                    central = central - coeff * central_value
                else:
                    terms.append((families[f], t2 + shift2[f], -coeff))
            for col in columns:
                try:
                    # fa.apply returns a fresh dict, so it can take the sum
                    residual = fa.apply(ta, fb.apply_basis(tb, col))
                    if a == b:
                        # odd A: [A, A] = 2 A A, both products one vector
                        residual = v_scale(residual, 2)
                    else:
                        v_iadd(residual, fb.apply(tb, fa.apply_basis(ta, col)), -sign)
                    for fam, t2, coeff in terms:
                        v_iadd(residual, fam.apply_basis(t2, col), coeff)
                except TruncationOverflow:
                    pr.filtered += 1
                    continue
                if central:
                    s = residual.pop(col, ZERO) + central
                    if s:
                        residual[col] = s
                pr.checked += 1
                if residual:
                    pr.violations += 1
            report.pairs.append(pr)
    return report
