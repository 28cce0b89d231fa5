"""The benchmark's workloads: what each one imports, builds and verifies.

Every workload is split the way its cost is reported:

* ``modules``: what the run imports (part of set-up);
* ``build(seed)``: the engines the run needs (the rest of set-up);
* ``verify(state, seed)``: the work up to the verdict, returning
  ``Output`` records.

An ``Output`` is one verdict the benchmark checks: whether it passed, whether
it was meant to pass (negative controls are meant to fail), its checked and
filtered counts and the report's JSON, which the harness digests and compares
with ``expected.json``.

Sizes are chosen so that one repetition takes 6-10 s on a 2-vCPU machine
and a run of ``BENCHMARK.json``'s ``run_seconds`` holds one to three
repetitions of every workload but ``verify-all``, the CLI at its defaults,
which takes one repetition of 15-35 s.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction

# twisted-tables: the ``verify twisted`` suite at window 1 on a level-9 space
TWISTED_WINDOW = 1
TWISTED_LEVELS = 9
TWISTED_MAX_LEVEL = Fraction(2)
# character-deep: ``corollary2 --trunc 5`` (sigma and mirror spaces at 10 levels)
CHARACTER_TRUNC = 5
# presentations: the algebra suite of ``all`` at window 4
ALGEBRA_WINDOW = 4


@dataclass
class Output:
    name: str
    passed: bool
    expect_pass: bool
    checked: int
    filtered: int
    payload: object


def report_output(name, report, expect_pass=True) -> Output:
    """An Output from any of the package's report objects."""
    checked = getattr(report, "checked", None)
    if checked is None:  # AlgebraReport
        checked = report.pairs_checked + report.triples_checked
    return Output(name, bool(report.passed), expect_pass, checked,
                  getattr(report, "filtered", 0), report.to_json())


def value_output(name, passed, payload, expect_pass=True) -> Output:
    return Output(name, bool(passed), expect_pass, 0, 0, payload)


def oracle_sigma_character(terms: int) -> list[int]:
    """2 * prod_{n>=1} (1+q^n)/(1-q^n) through q^(terms-1), in plain ints."""
    coeffs = [2] + [0] * (terms - 1)
    for n in range(1, terms):
        for e in range(terms - 1, n - 1, -1):  # times (1 + q^n)
            coeffs[e] += coeffs[e - n]
        for e in range(n, terms):  # divided by (1 - q^n)
            coeffs[e] += coeffs[e - n]
    return coeffs


# ---------------------------------------------------------------------------
# engine stack shared by twisted-tables and character-deep
# ---------------------------------------------------------------------------

STACK_MODULES = ("superfock.vosa", "superfock.twisted")


def build_stack(levels: int):
    from superfock.twisted import MirrorModule, SigmaModule
    from superfock.vosa import TensorVosa, Vosa, calibrate_n2

    V = Vosa(5)
    tensor = TensorVosa(V, 5)
    n2 = calibrate_n2(tensor)
    sigma = SigmaModule(V, levels=levels)
    mirror = MirrorModule(sigma, tensor, n2)
    return {"n2": n2, "sigma": sigma, "mirror": mirror}


# ---------------------------------------------------------------------------
# twisted-tables
# ---------------------------------------------------------------------------

def verify_twisted_tables(state, seed):
    from superfock import twisted as tw

    sigma, mirror = state["sigma"], state["mirror"]
    w, top = TWISTED_WINDOW, TWISTED_MAX_LEVEL
    out = [report_output("n2-calibration-table", state["n2"].table)]
    ground = sigma.ground_eigenvalue()
    out.append(value_output("sigma-ground-weight-1/16", ground == Fraction(1, 16),
                            str(ground)))
    out.append(report_output("sigma-virasoro", tw.sigma_virasoro_report(sigma, w, top)))
    out.append(report_output("sigma-n1-ramond", tw.sigma_ramond_report(sigma, w, top)))
    out.append(report_output("sigma-twisted-jacobi",
                             tw.sigma_twisted_jacobi_report(sigma, w, Fraction(1))))
    same = (mirror.space is sigma.space
            and mirror.space.basis_dump() == sigma.space.basis_dump())
    out.append(value_output("mirror-same-underlying-space", same, same))
    kground = mirror.ground_eigenvalue()
    out.append(value_output("mirror-ground-weight-1/8", kground == Fraction(1, 8),
                            str(kground)))
    out.append(report_output("mirror-mode-lattices",
                             mirror.mode_lattice_report(w, Fraction(1))))
    out.append(report_output("mirror-twisted-n2", tw.mirror_table_report(mirror, w, top)))
    for sub in tw.mirror_subalgebra_reports(mirror, w, top):
        out.append(report_output(sub.name, sub))
    out.append(report_output("mirror-twisted-jacobi",
                             tw.mirror_twisted_jacobi_report(mirror, 1, Fraction(1))))
    out.append(report_output("mirror-equivariance",
                             tw.mirror_equivariance_report(mirror, Fraction(2), w, top)))
    return out


# ---------------------------------------------------------------------------
# character-deep
# ---------------------------------------------------------------------------

def verify_character_deep(state, seed):
    from superfock.scalars import ExactScalar
    from superfock.twisted import corollary2_check

    result = corollary2_check(state["mirror"], Fraction(CHARACTER_TRUNC) * 2)
    terms = 2 * CHARACTER_TRUNC
    oracle = oracle_sigma_character(terms)
    got = [result.sigma_series.coefficient(n) for n in range(terms)]
    return [
        value_output("corollary2-identity", result.matches, result.to_json()),
        value_output("sigma-character-vs-product-formula",
                     got == [ExactScalar(c) for c in oracle]
                     and result.sigma_series.truncation >= terms,
                     [repr(c) for c in got]),
    ]


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

def build_presentations(seed):
    from superfock.superalgebra import (
        PRESENTATIONS, corrupted_virasoro_quintic, rescaled_virasoro)

    return {"presentations": dict(PRESENTATIONS),
            "quintic": corrupted_virasoro_quintic(),
            "rescaled": rescaled_virasoro(11)}


def _flip_g1(g):
    from superfock.superalgebra import Element

    e = Element.of(g)
    return e.scale(-1) if g.family == "G1" else e


def verify_presentations(state, seed):
    from superfock import delta
    from superfock.superalgebra import (
        mirror_map_on_generator, verify_algebra, verify_automorphism)

    w = ALGEBRA_WINDOW
    pres = state["presentations"]
    out = [report_output(f"algebra-{name}", verify_algebra(pres[name], w))
           for name in sorted(pres)]
    # a quintic cocycle first violates Jacobi on index-3 triples
    out.append(report_output("negative-control-quintic-cocycle",
                             verify_algebra(state["quintic"], max(w, 3)), False))
    out.append(report_output("rescaled-cocycle", verify_algebra(state["rescaled"], w)))
    out.append(report_output("mirror-map-automorphism",
                             verify_automorphism(pres["n2-ns"], mirror_map_on_generator, w)))
    out.append(report_output("negative-control-g1-flip",
                             verify_automorphism(pres["n2-ns"], _flip_g1, min(w, 2)),
                             False))
    closed = [delta.delta_coefficients(k, 2) for k in range(1, 13)]
    out.append(value_output(
        "delta-closed-forms-k-1..12",
        closed == [(Fraction(1 - k, 2), Fraction(k * k - 1, 12)) for k in range(1, 13)],
        [[str(c) for c in cs] for cs in closed]))
    residuals = [delta.verify_delta_equation(k, 10, 10) for k in range(1, 7)]
    out.append(value_output("delta-flow-residuals-k-1..6",
                            all(r.is_zero() for r in residuals),
                            [r.to_json() for r in residuals]))
    perturbed = list(delta.delta_coefficients(2, 3))
    perturbed[1] = Fraction(1, 3)
    residual = delta.residual_for_coefficients(2, perturbed, 4)
    out.append(value_output("delta-negative-control-perturbed-a2",
                            not residual.is_zero(), residual.to_json()))
    return out


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def verify_all(state, seed):
    from superfock import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["all", "--json", "--seed", str(seed)])
    payload = json.loads(buf.getvalue())
    out = []
    for suite in payload["suites"]:
        checks = suite["checks"]
        out.append(Output(f"suite-{suite['name']}", suite["pass"], True,
                          sum(c.get("checked", 0) for c in checks),
                          sum(c.get("filtered", 0) for c in checks), suite))
    # config is left out: it echoes the seed and may lose its threads key
    out.append(value_output("all-pass-exit-0", payload["pass"] and code == 0,
                            {"pass": payload["pass"], "exit": code}))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    modules: tuple
    build: object
    verify: object


WORKLOADS = {w.name: w for w in (
    Workload("twisted-tables", STACK_MODULES,
             lambda seed: build_stack(TWISTED_LEVELS), verify_twisted_tables),
    Workload("character-deep", STACK_MODULES,
             lambda seed: build_stack(2 * CHARACTER_TRUNC), verify_character_deep),
    Workload("presentations", ("superfock.superalgebra", "superfock.delta"),
             build_presentations, verify_presentations),
    # the CLI builds its engines inside its suites, so set-up is the import
    Workload("verify-all", ("superfock.cli",), lambda seed: None, verify_all),
)}
