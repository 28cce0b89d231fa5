import dataclasses
import gc
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from superfock.errors import InvalidAlgebra, InvalidIndexLattice
from superfock.scalars import ExactScalar
from superfock.superalgebra import (
    AlgebraReport,
    Element,
    Generator,
    N1_NS,
    N1_RAMOND,
    N2_MIRROR_TWISTED,
    N2_NS,
    N2_RAMOND,
    PRESENTATIONS,
    VIRASORO,
    Presentation,
    Violation,
    corrupted_virasoro_quintic,
    gen,
    mirror_automorphism,
    mirror_map_on_generator,
    rescaled_virasoro,
    verify_algebra,
    verify_automorphism,
)

HALF = Fraction(1, 2)


# the Fraction-level bracket, the reference the sweeps are compared with -----------

def pair_bracket(alg, a, b) -> Element:
    """[a, b] of two generators: each is validated against the presentation
    and its index converted to half units, the presentation's rule is called
    once and its terms come back as an Element."""
    terms = alg.bracket2(a.family, alg.index2(a), b.family, alg.index2(b))
    return Element([(Generator(f, Fraction(t2, 2)), c) for (f, t2), c in terms.items()])


def _sum(*elements) -> Element:
    """The sum of Elements: Element merges repeated generators and drops
    zero coefficients."""
    return Element([term for e in elements for term in e.terms.items()])


def bracket(alg, a, b) -> Element:
    """[a, b] of two Elements, bilinear over `pair_bracket`."""
    return _sum(*(pair_bracket(alg, ga, gb).scale(ca * cb)
                  for ga, ca in a.terms.items() for gb, cb in b.terms.items()))


def test_virasoro_central_term():
    got = pair_bracket(VIRASORO, gen("L", 2), gen("L", -2))
    want = Element([(gen("L", 0), 4), (gen("C"), Fraction(1, 2))])
    assert got == want


def test_n1_gg_bracket():
    got = pair_bracket(N1_NS, gen("G", Fraction(3, 2)), gen("G", Fraction(-3, 2)))
    want = Element([(gen("L", 0), 2), (gen("C"), Fraction(2, 3))])
    assert got == want


def test_n2_j_g1_bracket():
    got = pair_bracket(N2_NS, gen("J", 1), gen("G1", HALF))
    want = Element([(gen("G2", Fraction(3, 2)), ExactScalar(0, -1))])
    assert got == want


def test_mirror_twisted_g1_g2_bracket():
    got = pair_bracket(N2_MIRROR_TWISTED, gen("G1", HALF), gen("G2", 0))
    want = Element([(gen("J", HALF), ExactScalar(0, Fraction(-1, 2)))])
    assert got == want


def test_lattice_validation():
    with pytest.raises(InvalidIndexLattice):
        pair_bracket(N2_NS, gen("G1", 1), gen("G1", HALF))
    with pytest.raises(InvalidIndexLattice):
        pair_bracket(N2_MIRROR_TWISTED, gen("J", 1), gen("J", HALF))
    with pytest.raises(InvalidAlgebra):
        pair_bracket(VIRASORO, gen("G", HALF), gen("L", 0))


# the paper's structure constants, written out here on their own --------------------

def _paper_bracket(a, b) -> Element:
    """[a, b] from the paper's structure constants, with C standing for the
    central charge; every ordered family pair is written out separately,
    the reversed ones included, in plain Fractions."""
    fa, m = a.family, a.index
    fb, n = b.family, b.index
    central = m + n == 0
    odd = ("G", "G1", "G2")
    terms = []
    if "C" in (fa, fb):
        pass
    elif fa == fb == "L":
        terms = [(gen("L", m + n), m - n)]
        if central:
            terms.append((gen("C"), (m ** 3 - m) / 12))
    elif fa == "L" and fb in odd:
        terms = [(gen(fb, m + n), m / 2 - n)]
    elif fa in odd and fb == "L":
        terms = [(gen(fa, m + n), m - n / 2)]
    elif (fa, fb) == ("L", "J"):
        terms = [(gen("J", m + n), -n)]
    elif (fa, fb) == ("J", "L"):
        terms = [(gen("J", m + n), m)]
    elif fa == fb == "J":
        if central:
            terms = [(gen("C"), m / 3)]
    elif fa == fb:
        terms = [(gen("L", m + n), 2)]
        if central:
            terms.append((gen("C"), (m * m - Fraction(1, 4)) / 3))
    elif (fa, fb) == ("J", "G1"):
        terms = [(gen("G2", m + n), ExactScalar(0, -1))]
    elif (fa, fb) == ("G1", "J"):
        terms = [(gen("G2", m + n), ExactScalar(0, 1))]
    elif (fa, fb) == ("J", "G2"):
        terms = [(gen("G1", m + n), ExactScalar(0, 1))]
    elif (fa, fb) == ("G2", "J"):
        terms = [(gen("G1", m + n), ExactScalar(0, -1))]
    elif (fa, fb) == ("G1", "G2"):
        terms = [(gen("J", m + n), ExactScalar(0, n - m))]
    elif (fa, fb) == ("G2", "G1"):
        terms = [(gen("J", m + n), ExactScalar(0, m - n))]
    else:
        raise AssertionError(f"no structure constant for [{a}, {b}]")
    return Element(terms)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
@settings(max_examples=40, deadline=None)
@given(m=st.integers(-6, 6), n=st.integers(-6, 6), opposite=st.booleans())
@example(m=1, n=0, opposite=True)
def test_pair_bracket_matches_paper_constants(name, m, n, opposite):
    # every ordered family pair, at indices drawn from each lattice; with
    # `opposite` the second index is minus the first where the lattices
    # allow it, so the central terms come into play
    alg = PRESENTATIONS[name]
    families = tuple(alg.lattices) + ("C",)
    offset = {**alg.lattices, "C": None}
    for fa, fb in itertools.product(families, repeat=2):
        a = gen(fa) if fa == "C" else gen(fa, m + offset[fa])
        if fb == "C":
            b = gen(fb)
        elif opposite and offset[fa] == offset[fb]:
            b = gen(fb, -a.index)
        else:
            b = gen(fb, n + offset[fb])
        assert pair_bracket(alg, a, b) == _paper_bracket(a, b), (name, a, b)


def test_bracket_outputs_respect_lattices():
    for name, alg in PRESENTATIONS.items():
        for a in alg.basis(2):
            for b in alg.basis(2):
                for g, _ in pair_bracket(alg, a, b).sorted_terms():
                    assert alg.valid_index(g), (name, a, b, g)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_all_presentations_verify(name):
    report = verify_algebra(PRESENTATIONS[name], 3)
    assert report.passed, report.violations[:3]


def test_vacuous_window_passes():
    assert verify_algebra(VIRASORO, 0).passed


def test_quintic_cocycle_fails_jacobi():
    report = verify_algebra(corrupted_virasoro_quintic(), 3)
    assert not report.passed
    kinds = {v.kind for v in report.violations}
    assert kinds == {"jacobi"}
    # skew still holds: the corrupted term is an odd function of the index
    assert all(v.kind != "skew" for v in report.violations)


def test_rescaled_cocycle_is_still_a_lie_algebra():
    # (m**3 - m)/11 spans the same cocycle line: rescaling the central
    # element is an isomorphism, so no identity can fail.
    assert verify_algebra(rescaled_virasoro(11), 4).passed


def test_mirror_map_values():
    assert mirror_map_on_generator(gen("G2", HALF)) == Element.of(gen("G2", HALF), -1)
    assert mirror_map_on_generator(gen("G1", HALF)) == Element.of(gen("G1", HALF))
    assert mirror_map_on_generator(gen("J", 3)) == Element.of(gen("J", 3), -1)
    assert mirror_map_on_generator(gen("L", -2)) == Element.of(gen("L", -2))
    assert mirror_map_on_generator(gen("C")) == Element.of(gen("C"))


def test_mirror_map_is_involution():
    x = Element([(gen("G2", Fraction(3, 2)), 2), (gen("J", 1), ExactScalar(0, 1)),
                 (gen("L", 0), 1)])
    assert mirror_automorphism(mirror_automorphism(x)) == x


def test_mirror_map_intertwines_bracket():
    a = Element.of(gen("J", 1))
    b = Element.of(gen("G1", HALF))
    lhs = mirror_automorphism(bracket(N2_NS, a, b))
    rhs = bracket(N2_NS, mirror_automorphism(a), mirror_automorphism(b))
    assert lhs == rhs == Element([(gen("G2", Fraction(3, 2)), ExactScalar(0, 1))])


def test_mirror_map_rejects_foreign_symbols():
    with pytest.raises(InvalidAlgebra):
        mirror_automorphism(Element.of(gen("G", HALF)))


def test_verify_automorphism():
    assert verify_automorphism(N2_NS, mirror_map_on_generator, 3).passed
    assert verify_automorphism(N2_NS, lambda g: Element.of(g), 3).passed

    def g1_flip(g):
        e = Element.of(g)
        return e.scale(-1) if g.family == "G1" else e

    report = verify_automorphism(N2_NS, g1_flip, 2)
    assert not report.passed


def test_sweeps_leave_no_reference_cycle():
    # a finished sweep's bracket table is freed by reference counting; a
    # cycle would hold every table until the cyclic collector runs
    gc.collect()
    gc.disable()
    try:
        verify_algebra(N2_NS, 2)
        verify_automorphism(N2_NS, mirror_map_on_generator, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_ramond_lattices_differ_from_ns():
    # the structural half-integer/integer asymmetry of the hybrid algebra
    assert N2_NS.lattices["J"] == 0 and N2_MIRROR_TWISTED.lattices["J"] == HALF
    assert N2_NS.lattices["G2"] == HALF and N2_MIRROR_TWISTED.lattices["G2"] == 0
    assert N1_RAMOND.lattices["G"] == 0 and N1_NS.lattices["G"] == HALF
    assert N2_RAMOND.lattices["G1"] == 0


def test_report_json_shape():
    rep = verify_algebra(VIRASORO, 1)
    js = rep.to_json()
    assert js["algebra"] == "virasoro" and js["pass"] is True
    assert js["violations"] == []


def test_empty_report_does_not_pass():
    # a report that checked nothing must not count as a pass
    assert not AlgebraReport("virasoro", 0).passed
    assert verify_algebra(VIRASORO, 0).passed


# fault injection into the sweeps ------------------------------------------------

def test_symmetric_rule_fails_skew():
    # [L_m, L_n] = (m + n) L_{m+n} is symmetric; only an independent
    # evaluation of each ordered pair can see that it is not skew
    def symmetric(m2, n2):
        return [("L", m2 + n2, ExactScalar(Fraction(m2 + n2, 2)))]

    alg = Presentation("virasoro-symmetric", {"L": Fraction(0)}, {("L", "L"): symmetric})
    report = verify_algebra(alg, 2)
    # [L_1, L_2] + [L_2, L_1] = 6 L_3
    assert Violation("skew", (gen("L", 1), gen("L", 2)),
                     Element.of(gen("L", 3), 6)) in report.violations


def test_perturbed_structure_constant_fails_jacobi():
    def doubled_jg1(m2, r2):
        return [("G2", m2 + r2, ExactScalar(0, -2))]

    alg = dataclasses.replace(N2_NS, name="n2-ns-perturbed",
                              rules={**N2_NS.rules, ("J", "G1"): doubled_jg1})
    report = verify_algebra(alg, 1)
    # the reversed pair (G1, J) still follows from the rule, so skew holds
    assert report.violations and {v.kind for v in report.violations} == {"jacobi"}


def test_off_lattice_rule_output_fails_at_intern():
    # an L-G rule that lands G on the wrong lattice: G[m + r + 1/2]
    def off_lattice_lg(m2, r2):
        return [("G", m2 + r2 + 1, ExactScalar(Fraction(m2 - 2 * r2, 4)))]

    alg = dataclasses.replace(N1_NS, name="n1-ns-off-lattice",
                              rules={**N1_NS.rules, ("L", "G"): off_lattice_lg})
    with pytest.raises(InvalidIndexLattice):
        verify_algebra(alg, 1)


def test_foreign_family_rule_output_fails_at_intern():
    # an L-G rule of the N=1 algebra that names G2, which it does not have
    def foreign_lg(m2, r2):
        return [("G2", m2 + r2, ExactScalar(Fraction(m2 - 2 * r2, 4)))]

    alg = dataclasses.replace(N1_NS, name="n1-ns-foreign",
                              rules={**N1_NS.rules, ("L", "G"): foreign_lg})
    with pytest.raises(InvalidAlgebra):
        verify_algebra(alg, 1)


def test_misordered_rule_key_fails_at_construction():
    rules = dict(N1_NS.rules)
    rules[("G", "L")] = rules.pop(("L", "G"))
    with pytest.raises(InvalidAlgebra, match=r"\('G', 'L'\)"):
        dataclasses.replace(N1_NS, name="n1-ns-misordered", rules=rules)


def test_foreign_rule_key_fails_at_construction():
    with pytest.raises(InvalidAlgebra, match=r"\('L', 'G2'\)"):
        dataclasses.replace(N1_NS, name="n1-ns-foreign-key",
                            rules={**N1_NS.rules, ("L", "G2"): N1_NS.rules[("L", "G")]})


def test_map_wrong_only_outside_the_window_fails():
    window = 2

    def doubled_outside(g):
        e = Element.of(g)
        return e.scale(2) if abs(g.index) > window else e

    assert all(doubled_outside(g) == Element.of(g) for g in VIRASORO.basis(window))
    report = verify_automorphism(VIRASORO, doubled_outside, window)
    # image([L_2, L_1]) = 2 L_3 but [image(L_2), image(L_1)] = L_3
    assert Violation("automorphism", (gen("L", 2), gen("L", 1)),
                     Element.of(gen("L", 3))) in report.violations


# the sweeps against plain Element arithmetic ----------------------------------------

def _reference_verify_algebra(alg, window):
    """verify_algebra with every bracket taken through Element arithmetic."""
    report = AlgebraReport(alg.name, window)
    basis = alg.basis(window)
    for a, b in itertools.product(basis, repeat=2):
        sign = -1 if a.parity and b.parity else 1
        residual = _sum(pair_bracket(alg, a, b), pair_bracket(alg, b, a).scale(sign))
        report.pairs_checked += 1
        if residual.terms:
            report.violations.append(Violation("skew", (a, b), residual))
    for a, b, c in itertools.combinations_with_replacement(basis, 3):
        residual = _sum(*(
            bracket(alg, Element.of(x), pair_bracket(alg, y, z)).scale(
                -1 if x.parity and z.parity else 1)
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b))))
        report.triples_checked += 1
        if residual.terms:
            report.violations.append(Violation("jacobi", (a, b, c), residual))
    return report


def _reference_verify_automorphism(alg, image, window):
    report = AlgebraReport(alg.name, window)
    for a, b in itertools.product(alg.basis(window), repeat=2):
        residual = _sum(*(image(g).scale(c) for g, c in pair_bracket(alg, a, b).terms.items()),
                        bracket(alg, image(a), image(b)).scale(-1))
        report.pairs_checked += 1
        if residual.terms:
            report.violations.append(Violation("automorphism", (a, b), residual))
    return report


def _g1_flip(g):
    e = Element.of(g)
    return e.scale(-1) if g.family == "G1" else e


ORACLE_CASES = [(name, alg, None) for name, alg in sorted(PRESENTATIONS.items())] + [
    ("quintic", corrupted_virasoro_quintic(), None),
    ("rescaled-11", rescaled_virasoro(11), None),
    ("mirror-map", N2_NS, mirror_map_on_generator),
    ("g1-flip", N2_NS, _g1_flip),
]


@pytest.mark.parametrize("window", range(4))
@pytest.mark.parametrize("name, alg, image", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_sweep_matches_element_reference(name, alg, image, window):
    if image is None:
        got, want = verify_algebra(alg, window), _reference_verify_algebra(alg, window)
    else:
        got = verify_automorphism(alg, image, window)
        want = _reference_verify_automorphism(alg, image, window)
    assert got.to_json() == want.to_json()
    # the negative controls compare their violation lists, not two empty ones
    if (name, window) in (("quintic", 3), ("g1-flip", 1), ("g1-flip", 3)):
        assert want.violations
