"""Structure-constant presentations of the superconformal Lie superalgebras.

Six presentations are built in: the Virasoro algebra, the N=1 algebras in
both sectors, the N=2 algebras in both sectors, and the mirror-twisted N=2
algebra (half-integer J and G1 indices, integer G2 indices).  The central
element is a basis symbol C, never a number, so one presentation serves
every central charge; representation modules substitute a scalar later.

The super-bracket is one total function: for two odd generators it is the
anticommutator-type bracket, callers never pick commutator vs anticommutator.

Every presentation rule is written once, in half units.  A `PairRule` takes
the two indices doubled, as ints (m2 = 2m, n2 = 2n), and returns
``[(family, t2, ExactScalar)]``: the output generators' families, their
doubled indices and shared, cached coefficients built from ints.  A
user-supplied central term keeps its ``Fraction -> Fraction`` signature and
is called only when m2 + n2 == 0.  The sweeps intern every generator they
meet by ``(family, t2)`` and check its family and lattice once, when it is
interned; each bracket is then a direct call of the rule.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable

from .errors import InvalidAlgebra, InvalidIndexLattice
from .scalars import ExactScalar, Vec, twice, v_iadd

HALF = Fraction(1, 2)

PARITY = {"L": 0, "J": 0, "C": 0, "G": 1, "G1": 1, "G2": 1}
_RANK = {"L": 0, "J": 1, "G": 2, "G1": 3, "G2": 4, "C": 5}


@dataclass(frozen=True)
class Generator:
    family: str
    index: Fraction

    @property
    def parity(self) -> int:
        return PARITY[self.family]

    def key(self):
        return (_RANK[self.family], self.index)

    def __repr__(self):
        if self.family == "C":
            return "C"
        return f"{self.family}[{self.index}]"

    def to_json(self):
        return {"family": self.family, "index": str(self.index)}


def gen(family: str, index=0) -> Generator:
    return Generator(family, Fraction(index))


class Element:
    """Finitely supported linear combination of generators."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data: dict[Generator, ExactScalar] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for g, c in items:
            c = ExactScalar.coerce(c)
            if g in data:
                c = data[g] + c
            if c.is_zero():
                data.pop(g, None)
            else:
                data[g] = c
        self.terms = data

    @classmethod
    def of(cls, g: Generator, coeff=1) -> "Element":
        return cls([(g, coeff)])

    def scale(self, s) -> "Element":
        s = ExactScalar.coerce(s)
        if s.is_zero():
            return Element()
        return Element({g: c * s for g, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda gc: gc[0].key())

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{g}" for g, c in self.sorted_terms())

    def to_json(self):
        return [{"generator": g.to_json(), "coeff": c.to_json()}
                for g, c in self.sorted_terms()]


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------

# A pair rule takes the two indices in half units and returns
# [(family, t2, ExactScalar)]; rules are stored for pairs in canonical family
# order (L, J, G, G1, G2, C) and the reversed order is derived through
# super-skew-symmetry.

PairRule = Callable[[int, int], list]


@cache
def _rational(num: int, den: int) -> ExactScalar:
    """num/den as one shared (immutable) ExactScalar."""
    return ExactScalar(Fraction(num, den))


@cache
def _imaginary(num: int, den: int) -> ExactScalar:
    """i * num/den as one shared (immutable) ExactScalar."""
    return ExactScalar(0, Fraction(num, den))


def _virasoro_cocycle(m: Fraction) -> Fraction:
    return Fraction(m ** 3 - m, 12)


def _rule_LL(central: Callable[[Fraction], Fraction]) -> PairRule:
    # [L_m, L_n] = (m - n) L_{m+n} + central(m) delta_{m+n,0} C
    def rule(m2, n2):
        out = [("L", m2 + n2, _rational(m2 - n2, 2))]
        if m2 + n2 == 0:
            out.append(("C", 0, ExactScalar(central(Fraction(m2, 2)))))
        return out
    return rule


def _rule_LG(gfam: str) -> PairRule:
    # [L_m, G_r] = (m/2 - r) G_{m+r}
    def rule(m2, r2):
        return [(gfam, m2 + r2, _rational(m2 - 2 * r2, 4))]
    return rule


def _rule_GG(r2, s2):
    # [G_r, G_s] = 2 L_{r+s} + (r^2 - 1/4)/3 delta_{r+s,0} C
    out = [("L", r2 + s2, _rational(2, 1))]
    if r2 + s2 == 0:
        out.append(("C", 0, _rational(r2 * r2 - 1, 12)))
    return out


def _rule_LJ(m2, n2):
    # [L_m, J_n] = -n J_{m+n}
    return [("J", m2 + n2, _rational(-n2, 2))]


def _rule_JJ(m2, n2):
    # [J_m, J_n] = (m/3) delta_{m+n,0} C
    if m2 + n2 == 0:
        return [("C", 0, _rational(m2, 6))]
    return []


def _rule_JG1(m2, r2):
    # [J_m, G1_r] = -i G2_{m+r}
    return [("G2", m2 + r2, _imaginary(-1, 1))]


def _rule_JG2(m2, r2):
    # [J_m, G2_r] = i G1_{m+r}
    return [("G1", m2 + r2, _imaginary(1, 1))]


def _rule_G1G2(r2, s2):
    # [G1_r, G2_s] = i (s - r) J_{r+s}; equivalently -i (r - s) J_{r+s}.
    return [("J", r2 + s2, _imaginary(s2 - r2, 2))]


@dataclass(frozen=True)
class Presentation:
    name: str
    lattices: dict  # family -> index offset mod 1 (Fraction 0 or 1/2)
    rules: dict     # (famA, famB) in canonical order -> PairRule

    def __post_init__(self):
        # bracket2 reads a rule under the canonical key only: any other key
        # would be silently ignored, so it is refused here
        for key in self.rules:
            fa, fb = key
            if fa not in self.lattices or fb not in self.lattices:
                raise InvalidAlgebra(f"{self.name}: rule key {key} names a family "
                                     f"outside {tuple(self.lattices)}")
            if _RANK[fa] > _RANK[fb]:
                raise InvalidAlgebra(f"{self.name}: rule key {key} breaks the "
                                     f"canonical order; key it as {(fb, fa)}")

    def valid_index(self, g: Generator) -> bool:
        if g.family == "C":
            return g.index == 0
        off = self.lattices.get(g.family)
        if off is None:
            return False
        return (g.index - off).denominator == 1

    def check_generator(self, g: Generator):
        if g.family != "C" and g.family not in self.lattices:
            raise InvalidAlgebra(f"{g} is not a generator of {self.name}")
        if not self.valid_index(g):
            raise InvalidIndexLattice(f"{g} violates the index lattice of {self.name}")

    def index2(self, g: Generator) -> int:
        """g's index in half units (2 * index), after check_generator(g)."""
        self.check_generator(g)
        return twice(g.index)

    def bracket2(self, fa: str, m2: int, fb: str, n2: int) -> dict:
        """[fa[m2/2], fb[n2/2]] as {(family, t2): ExactScalar} without zero
        entries, straight from the rule in half units.  The indices are not
        validated: callers check each generator once.
        """
        out: dict = {}
        if fa == "C" or fb == "C":
            return out
        if _RANK[fa] <= _RANK[fb]:
            rule = self.rules.get((fa, fb))
            flip = False
        else:
            # reversed order through super-skew-symmetry:
            # [a,b] = -(-1)^{|a||b|} [b,a]
            rule = self.rules.get((fb, fa))
            m2, n2 = n2, m2
            flip = not (PARITY[fa] and PARITY[fb])
        if rule is not None:
            for f, t2, c in rule(m2, n2):
                if flip:
                    c = -c
                key = (f, t2)
                if key in out:
                    c = out.pop(key) + c
                if c:
                    out[key] = c
        return out

    def basis(self, window: int) -> list[Generator]:
        """All generators with |index| <= window, plus the central element."""
        out = []
        for fam in sorted(self.lattices, key=_RANK.get):
            off2 = twice(self.lattices[fam]) % 2
            out.extend(Generator(fam, Fraction(t2, 2))
                       for t2 in range(off2 - 2 * window, 2 * window + 1, 2))
        out.append(gen("C"))
        return out


# One rule table per algebra, shared by its sectors: they differ in lattices only.
_N1_RULES = {
    ("L", "L"): _rule_LL(_virasoro_cocycle),
    ("L", "G"): _rule_LG("G"),
    ("G", "G"): _rule_GG,
}

_N2_RULES = {
    ("L", "L"): _rule_LL(_virasoro_cocycle),
    ("L", "J"): _rule_LJ,
    ("L", "G1"): _rule_LG("G1"),
    ("L", "G2"): _rule_LG("G2"),
    ("J", "J"): _rule_JJ,
    ("J", "G1"): _rule_JG1,
    ("J", "G2"): _rule_JG2,
    ("G1", "G1"): _rule_GG,
    ("G2", "G2"): _rule_GG,
    ("G1", "G2"): _rule_G1G2,
}


def virasoro_presentation(central: Callable[[Fraction], Fraction] = _virasoro_cocycle,
                          name: str = "virasoro") -> Presentation:
    return Presentation(name, {"L": Fraction(0)}, {("L", "L"): _rule_LL(central)})


VIRASORO = virasoro_presentation()

N1_NS = Presentation("n1-ns", {"L": Fraction(0), "G": HALF}, _N1_RULES)

N1_RAMOND = Presentation("n1-ramond", {"L": Fraction(0), "G": Fraction(0)}, _N1_RULES)

N2_NS = Presentation(
    "n2-ns",
    {"L": Fraction(0), "J": Fraction(0), "G1": HALF, "G2": HALF},
    _N2_RULES,
)

N2_RAMOND = Presentation(
    "n2-ramond",
    {"L": Fraction(0), "J": Fraction(0), "G1": Fraction(0), "G2": Fraction(0)},
    _N2_RULES,
)

# Hybrid sector: G1 pairs follow the Neveu-Schwarz pattern, G2 pairs the
# Ramond one; only the index lattices differ, the formulas coincide.
N2_MIRROR_TWISTED = Presentation(
    "n2-mirror-twisted",
    {"L": Fraction(0), "J": HALF, "G1": HALF, "G2": Fraction(0)},
    _N2_RULES,
)

PRESENTATIONS = {p.name: p for p in
                 (VIRASORO, N1_NS, N1_RAMOND, N2_NS, N2_RAMOND, N2_MIRROR_TWISTED)}


def corrupted_virasoro_quintic() -> Presentation:
    """Negative control: a quintic central term is not a 2-cocycle."""
    return virasoro_presentation(lambda m: Fraction(m ** 5 - m, 12),
                                 name="virasoro-corrupted-quintic")


def rescaled_virasoro(denominator: int) -> Presentation:
    """(m**3 - m)/denominator: still a 2-cocycle, hence still a Lie algebra."""
    return virasoro_presentation(lambda m: Fraction(m ** 3 - m, denominator),
                                 name=f"virasoro-rescaled-{denominator}")


# ---------------------------------------------------------------------------
# The mirror map
# ---------------------------------------------------------------------------

def mirror_automorphism(e: Element) -> Element:
    """The mirror map on the N=2 Neveu-Schwarz algebra.

    G1 and L are fixed, G2 and J flip sign, C is fixed.
    """
    out = []
    for g, c in e.terms.items():
        N2_NS.check_generator(g)
        if g.family in ("G2", "J"):
            c = -c
        out.append((g, c))
    return Element(out)


def mirror_map_on_generator(g: Generator) -> Element:
    return mirror_automorphism(Element.of(g))


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------

@dataclass
class Violation:
    kind: str
    generators: tuple
    residual: Element

    def to_json(self):
        return {
            "kind": self.kind,
            "triple": [g.to_json() for g in self.generators],
            "residual": self.residual.to_json(),
        }


@dataclass
class AlgebraReport:
    algebra: str
    window: int
    pairs_checked: int = 0
    triples_checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations and self.pairs_checked + self.triples_checked > 0

    def to_json(self):
        return {
            "algebra": self.algebra,
            "window": self.window,
            "pairs_checked": self.pairs_checked,
            "triples_checked": self.triples_checked,
            "violations": [v.to_json() for v in self.violations],
            "pass": self.passed,
        }


class _Row(dict):
    """The brackets [x, y] of one interned generator x, keyed by y and
    evaluated on the first lookup of each y.

    The row reaches its table through a weak proxy: a strong reference
    would close a cycle (table -> rows -> row -> table) that keeps every
    finished sweep's table alive until the cyclic collector runs.
    """

    __slots__ = ("table", "x")

    def __init__(self, table: "_BracketTable", x: int):
        super().__init__()
        self.table = weakref.proxy(table)
        self.x = x

    def __missing__(self, y: int) -> Vec:
        hit = self[y] = self.table.evaluate(self.x, y)
        return hit


class _BracketTable:
    """One sweep's brackets on small ints.

    Every generator the sweep meets is interned to an int id keyed on
    ``(family, t2)``, the windowed basis first, then each generator a
    bracket produces (such as L[8] at window 4); its family and lattice are
    checked then, once, and its `Generator` is built only for reports.
    ``rows[x][y]`` is the bracket of ids x and y as ``{id: ExactScalar}``,
    evaluated by the presentation's half-unit rule once per ordered pair on
    first lookup: ``[y, x]`` is never derived from ``[x, y]``, so the skew
    check compares two independent evaluations.
    """

    def __init__(self, alg: Presentation, basis: list):
        self.alg = alg
        self.gens: list = []
        self.keys: list = []
        self.ids: dict = {}
        self.rows: list = []
        for g in basis:
            self.intern(g.family, alg.index2(g))

    def intern(self, family: str, t2: int) -> int:
        key = (family, t2)
        i = self.ids.get(key)
        if i is None:
            g = Generator(family, Fraction(t2, 2))
            self.alg.check_generator(g)
            i = self.ids[key] = len(self.gens)
            self.gens.append(g)
            self.keys.append(key)
            self.rows.append(_Row(self, i))
        return i

    def vec(self, e: Element) -> Vec:
        return {self.intern(g.family, self.alg.index2(g)): c for g, c in e.terms.items()}

    def evaluate(self, x: int, y: int) -> Vec:
        (fx, mx), (fy, my) = self.keys[x], self.keys[y]
        intern = self.intern
        return {intern(f, t2): c for (f, t2), c in self.alg.bracket2(fx, mx, fy, my).items()}

    def element(self, vec: Vec) -> Element:
        gens = self.gens
        return Element({gens[i]: c for i, c in vec.items()})


def verify_algebra(alg: Presentation, window: int) -> AlgebraReport:
    """Check super-skew-symmetry on all windowed pairs and the super-Jacobi
    identity on all windowed (sorted) triples.

    With skew-symmetry established, the graded Jacobi identity on sorted
    triples implies it for every ordering, so only sorted triples are swept.
    """
    report = AlgebraReport(alg.name, window)
    basis = alg.basis(window)
    br = _BracketTable(alg, basis)
    rows = br.rows
    ids = range(len(basis))
    parity = [g.parity for g in basis]

    for a, b in itertools.product(ids, repeat=2):
        residual = dict(rows[a][b])
        v_iadd(residual, rows[b][a], -1 if parity[a] and parity[b] else 1)
        report.pairs_checked += 1
        if residual:
            report.violations.append(
                Violation("skew", (basis[a], basis[b]), br.element(residual)))

    def nested(acc: Vec, x: int, inner: Vec, sign: int):
        # acc += sign * [x, inner]
        row = rows[x]
        for g, c in inner.items():
            v_iadd(acc, row[g], c if sign == 1 else -c)

    for a, b, c in itertools.combinations_with_replacement(ids, 3):
        pa, pb, pc = parity[a], parity[b], parity[c]
        residual: Vec = {}
        nested(residual, a, rows[b][c], -1 if pa * pc else 1)
        nested(residual, b, rows[c][a], -1 if pb * pa else 1)
        nested(residual, c, rows[a][b], -1 if pc * pb else 1)
        report.triples_checked += 1
        if residual:
            report.violations.append(
                Violation("jacobi", (basis[a], basis[b], basis[c]), br.element(residual)))
    return report


def verify_automorphism(alg: Presentation,
                        image: Callable[[Generator], Element],
                        window: int) -> AlgebraReport:
    """Check image([a,b]) = [image(a), image(b)] on all windowed pairs.

    The map is applied to every generator a bracket produces, not only to
    the windowed basis, and evaluated once per generator.
    """
    report = AlgebraReport(alg.name, window)
    basis = alg.basis(window)
    br = _BracketTable(alg, basis)
    images: dict = {}

    def im(x: int) -> Vec:
        hit = images.get(x)
        if hit is None:
            hit = images[x] = br.vec(image(br.gens[x]))
        return hit

    rows = br.rows
    for a, b in itertools.product(range(len(basis)), repeat=2):
        residual: Vec = {}
        for g, c in rows[a][b].items():
            v_iadd(residual, im(g), c)
        ia, ib = im(a), im(b)
        for ga, ca in ia.items():
            row = rows[ga]
            for gb, cb in ib.items():
                v_iadd(residual, row[gb], -(ca * cb))
        report.pairs_checked += 1
        if residual:
            report.violations.append(
                Violation("automorphism", (basis[a], basis[b]), br.element(residual)))
    return report
