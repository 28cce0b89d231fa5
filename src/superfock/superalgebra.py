"""Structure-constant presentations of the superconformal Lie superalgebras.

Six presentations are built in: the Virasoro algebra, the N=1 algebras in
both sectors, the N=2 algebras in both sectors, and the mirror-twisted N=2
algebra (half-integer J and G1 indices, integer G2 indices).  The central
element is a basis symbol C, never a number, so one presentation serves
every central charge; representation modules substitute a scalar later.

The super-bracket is one total function: for two odd generators it is the
anticommutator-type bracket, callers never pick commutator vs anticommutator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import InvalidAlgebra, InvalidIndexLattice
from .operators import Vec, v_iadd
from .scalars import ExactScalar, format_rational

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
        return {"family": self.family, "index": format_rational(self.index)}


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

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for g, c in other.terms.items():
            out[g] = out.get(g, ExactScalar(0)) + c
        return Element(out)

    def __neg__(self) -> "Element":
        return Element({g: -c for g, c in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, s) -> "Element":
        s = ExactScalar.coerce(s)
        if s.is_zero():
            return Element()
        return Element({g: c * s for g, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda gc: gc[0].key())

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.sorted_terms()))

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

# A pair rule takes the two indices and returns [(family, index, scalar)];
# rules are stored for pairs in canonical family order (L, J, G, G1, G2, C)
# and the reversed order is derived through super-skew-symmetry.

PairRule = Callable[[Fraction, Fraction], list]


def _virasoro_cocycle(m: Fraction) -> Fraction:
    return Fraction(m ** 3 - m, 12)


def _rule_LL(central: Callable[[Fraction], Fraction]) -> PairRule:
    def rule(m, n):
        out = [("L", m + n, ExactScalar(m - n))]
        if m + n == 0:
            out.append(("C", Fraction(0), ExactScalar(central(m))))
        return out
    return rule


def _rule_LG(gfam: str) -> PairRule:
    def rule(m, r):
        return [(gfam, m + r, ExactScalar(m / 2 - r))]
    return rule


def _rule_GG() -> PairRule:
    def rule(r, s):
        out = [("L", r + s, ExactScalar(2))]
        if r + s == 0:
            out.append(("C", Fraction(0), ExactScalar(Fraction(1, 3) * (r * r - Fraction(1, 4)))))
        return out
    return rule


def _rule_LJ() -> PairRule:
    def rule(m, n):
        return [("J", m + n, ExactScalar(-n))]
    return rule


def _rule_JJ() -> PairRule:
    def rule(m, n):
        if m + n == 0:
            return [("C", Fraction(0), ExactScalar(Fraction(m, 3)))]
        return []
    return rule


def _rule_JG1() -> PairRule:
    def rule(m, r):
        return [("G2", m + r, ExactScalar(0, -1))]
    return rule


def _rule_JG2() -> PairRule:
    def rule(m, r):
        return [("G1", m + r, ExactScalar(0, 1))]
    return rule


def _rule_G1G2() -> PairRule:
    # [G1_r, G2_s] = i (s - r) J_{r+s}; equivalently -i (r - s) J_{r+s}.
    def rule(r, s):
        return [("J", r + s, ExactScalar(0, s - r))]
    return rule


@dataclass(frozen=True)
class Presentation:
    name: str
    lattices: dict  # family -> index offset mod 1 (Fraction 0 or 1/2)
    rules: dict     # (famA, famB) in canonical order -> PairRule

    def families(self):
        return tuple(self.lattices)

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

    def basis(self, window: int) -> list[Generator]:
        """All generators with |index| <= window, plus the central element."""
        out = []
        for fam in sorted(self.lattices, key=_RANK.get):
            off = self.lattices[fam]
            idx = -window + ((off - (-window)) % 1)
            while idx <= window:
                out.append(Generator(fam, Fraction(idx)))
                idx += 1
        out.append(gen("C"))
        return out


def _n1_rules(central):
    return {
        ("L", "L"): _rule_LL(central),
        ("L", "G"): _rule_LG("G"),
        ("G", "G"): _rule_GG(),
    }


def _n2_rules(central):
    return {
        ("L", "L"): _rule_LL(central),
        ("L", "J"): _rule_LJ(),
        ("L", "G1"): _rule_LG("G1"),
        ("L", "G2"): _rule_LG("G2"),
        ("J", "J"): _rule_JJ(),
        ("J", "G1"): _rule_JG1(),
        ("J", "G2"): _rule_JG2(),
        ("G1", "G1"): _rule_GG(),
        ("G2", "G2"): _rule_GG(),
        ("G1", "G2"): _rule_G1G2(),
    }


def virasoro_presentation(central: Callable[[Fraction], Fraction] = _virasoro_cocycle,
                          name: str = "virasoro") -> Presentation:
    return Presentation(name, {"L": Fraction(0)}, {("L", "L"): _rule_LL(central)})


VIRASORO = virasoro_presentation()

N1_NS = Presentation("n1-ns", {"L": Fraction(0), "G": HALF}, _n1_rules(_virasoro_cocycle))

N1_RAMOND = Presentation("n1-ramond", {"L": Fraction(0), "G": Fraction(0)},
                         _n1_rules(_virasoro_cocycle))

N2_NS = Presentation(
    "n2-ns",
    {"L": Fraction(0), "J": Fraction(0), "G1": HALF, "G2": HALF},
    _n2_rules(_virasoro_cocycle),
)

N2_RAMOND = Presentation(
    "n2-ramond",
    {"L": Fraction(0), "J": Fraction(0), "G1": Fraction(0), "G2": Fraction(0)},
    _n2_rules(_virasoro_cocycle),
)

# Hybrid sector: G1 pairs follow the Neveu-Schwarz pattern, G2 pairs the
# Ramond one; only the index lattices differ, the formulas coincide.
N2_MIRROR_TWISTED = Presentation(
    "n2-mirror-twisted",
    {"L": Fraction(0), "J": HALF, "G1": HALF, "G2": Fraction(0)},
    _n2_rules(_virasoro_cocycle),
)

PRESENTATIONS = {p.name: p for p in
                 (VIRASORO, N1_NS, N1_RAMOND, N2_NS, N2_RAMOND, N2_MIRROR_TWISTED)}


def corrupted_virasoro_quintic() -> Presentation:
    """Negative control: a quintic central term is not a 2-cocycle."""
    return virasoro_presentation(lambda m: Fraction(m ** 5 - m, 12),
                                 name="virasoro-corrupted-quintic")


def rescaled_virasoro(denominator: int = 11) -> Presentation:
    """(m**3 - m)/denominator: still a 2-cocycle, hence still a Lie algebra."""
    return virasoro_presentation(lambda m: Fraction(m ** 3 - m, denominator),
                                 name=f"virasoro-rescaled-{denominator}")


# ---------------------------------------------------------------------------
# The super-bracket
# ---------------------------------------------------------------------------

def pair_bracket(alg: Presentation, a: Generator, b: Generator) -> Element:
    alg.check_generator(a)
    alg.check_generator(b)
    if a.family == "C" or b.family == "C":
        return Element()
    if _RANK[a.family] <= _RANK[b.family]:
        rule = alg.rules.get((a.family, b.family))
        flip = False
    else:
        # reversed order through super-skew-symmetry:
        # [a,b] = -(-1)^{|a||b|} [b,a]
        rule = alg.rules.get((b.family, a.family))
        a, b = b, a
        flip = not (a.parity and b.parity)
    if rule is None:
        return Element()
    return Element([(Generator(f, i), -c if flip else c) for f, i, c in rule(a.index, b.index)])


def bracket(alg: Presentation, a: Element, b: Element) -> Element:
    out = Element()
    for ga, ca in a.sorted_terms():
        for gb, cb in b.sorted_terms():
            out = out + pair_bracket(alg, ga, gb).scale(ca * cb)
    return out


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


class _BracketTable:
    """One sweep's brackets on small ints.

    Every generator the sweep meets is interned to an int id, the windowed
    basis first, then each generator a bracket produces (such as L[8] at
    window 4).  Calling the table on two ids gives their ``pair_bracket`` as
    ``{id: ExactScalar}``, evaluated once per ordered pair on first use:
    ``[y, x]`` is never derived from ``[x, y]``, so the skew check compares
    two independent evaluations.
    """

    def __init__(self, alg: Presentation, basis: list):
        self.alg = alg
        self.gens: list = []
        self.ids: dict = {}
        self.rows: list = []
        for g in basis:
            self.intern(g)

    def intern(self, g: Generator) -> int:
        i = self.ids.get(g)
        if i is None:
            i = self.ids[g] = len(self.gens)
            self.gens.append(g)
            self.rows.append({})
        return i

    def vec(self, e: Element) -> Vec:
        return {self.intern(g): c for g, c in e.terms.items()}

    def __call__(self, x: int, y: int) -> Vec:
        row = self.rows[x]
        hit = row.get(y)
        if hit is None:
            gens = self.gens
            hit = row[y] = self.vec(pair_bracket(self.alg, gens[x], gens[y]))
        return hit

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
    ids = range(len(basis))
    parity = [g.parity for g in basis]

    for a, b in itertools.product(ids, repeat=2):
        residual = dict(br(a, b))
        v_iadd(residual, br(b, a), -1 if parity[a] and parity[b] else 1)
        report.pairs_checked += 1
        if residual:
            report.violations.append(
                Violation("skew", (basis[a], basis[b]), br.element(residual)))

    def nested(acc: Vec, x: int, inner: Vec, sign: int):
        # acc += sign * [x, inner]
        for g, c in inner.items():
            v_iadd(acc, br(x, g), c if sign == 1 else -c)

    for a, b, c in itertools.combinations_with_replacement(ids, 3):
        pa, pb, pc = parity[a], parity[b], parity[c]
        residual: Vec = {}
        nested(residual, a, br(b, c), -1 if pa * pc else 1)
        nested(residual, b, br(c, a), -1 if pb * pa else 1)
        nested(residual, c, br(a, b), -1 if pc * pb else 1)
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

    for a, b in itertools.product(range(len(basis)), repeat=2):
        residual: Vec = {}
        for g, c in br(a, b).items():
            v_iadd(residual, im(g), c)
        ia, ib = im(a), im(b)
        for ga, ca in ia.items():
            for gb, cb in ib.items():
                v_iadd(residual, br(ga, gb), -(ca * cb))
        report.pairs_checked += 1
        if residual:
            report.violations.append(
                Violation("automorphism", (basis[a], basis[b]), br.element(residual)))
    return report
