"""Command-line front end: verification suites, characters, coefficients.

Every subcommand emits either human-readable lines or a versioned JSON
report; identical configurations produce byte-identical output.  Exit codes:
0 all checks passed, 1 at least one check failed (or anything skipped
without --allow-skip), 2 configuration errors, 3 a run cut short, with
nothing on stdout and one `error:` line on stderr (memory ran out, in
either process of a fork, or the forked child died without a reply),
141 stdout closed before the output was written (as in
`superfock all --json | head -c 10`), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import random
import sys
from fractions import Fraction
from functools import lru_cache

from . import delta as delta_mod
from . import fork
from .checks import borcherds_check, jacobi_pair_reports
from .errors import ChildLost, SuperfockError
from .fock import TruncatedSpace, character
from .scalars import ExactScalar, v_scale
from .series import Series, substitute_root_phase
from .superalgebra import (
    Element,
    PRESENTATIONS,
    corrupted_virasoro_quintic,
    mirror_map_on_generator,
    rescaled_virasoro,
    verify_algebra,
    verify_automorphism,
)
from .twisted import (
    MirrorModule,
    SigmaModule,
    corollary2_check,
    mirror_equivariance_report,
    mirror_subalgebra_reports,
    mirror_table_report,
    mirror_twisted_jacobi_report,
    sigma_ramond_report,
    sigma_twisted_jacobi_report,
    sigma_virasoro_report,
)
from .vosa import (
    TensorVosa,
    Vosa,
    calibrate_n2,
    creation_report,
    grading_report,
    kappa_automorphism_report,
    n1_table_report,
    translation_report,
)

SCHEMA = 1
# the exit code when stdout is closed before the output is written, as
# shells report a process killed by SIGPIPE (128 + 13)
BROKEN_PIPE = 141
# the exit code of a run cut short, neither a verdict nor a bad option
CUT_SHORT = 3
# address space that main() maps, untouched, while a command runs and
# unmaps when memory runs out (under `ulimit -v`), making room to report it
RESERVE = 1 << 20


def _require(ok: bool, message: str) -> None:
    """Reject a configuration: main() reports it with exit code 2."""
    if not ok:
        raise SuperfockError(message)


def _fraction(text: str, option: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SuperfockError(f"{option} must be a rational number, got {text!r}") from None


def _max_level(text: str) -> Fraction:
    """The twisted suite's --max-weight: the largest column level, >= 0."""
    level = _fraction(text, "--max-weight")
    _require(level >= 0, "--max-weight (the largest column level) must be >= 0")
    return level


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _check(name: str, passed: bool, **fields) -> dict:
    """One named pass/fail observation inside a suite, as its JSON record:
    the name, the verdict, then the fields in the order given."""
    return {"name": name, "pass": bool(passed), **fields}


def _reported(name: str, report, *fields: str) -> dict:
    """The check `name` of a report: its verdict and the named report
    attributes, in the order given."""
    return _check(name, report.passed, **{f: getattr(report, f) for f in fields})


def _suite_payload(name: str, checks: list[dict], skipped: bool = False):
    return {"name": name, "skipped": skipped, "checks": [] if skipped else checks,
            "pass": (not skipped) and all(c["pass"] for c in checks)}


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------

def cmd_delta(args) -> int:
    _require(args.k >= 1 and args.terms >= 1, "--k and --terms must be positive")
    _require(args.verify_order >= 0, "--verify-order must be >= 0")
    coeffs = delta_mod.delta_coefficients(args.k, args.terms)
    payload = {
        "schema": SCHEMA,
        "command": "delta",
        "k": args.k,
        "a": [str(c) for c in coeffs],
        "residual": None,
    }
    ok = True
    lines = [f"a_1..a_{args.terms} for k={args.k}: " + ", ".join(str(c) for c in coeffs)]
    if args.verify_order:
        residual = delta_mod.verify_delta_equation(
            args.k, max(args.terms, args.verify_order - 1), args.verify_order)
        payload["residual"] = residual.to_json()
        ok = residual.is_zero()
        lines.append(f"flow-equation residual through x^{args.verify_order}: "
                     + ("0" if ok else repr(residual)))
    _emit(args, payload, lines)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify algebra / vosa / twisted
# ---------------------------------------------------------------------------

def cmd_verify_algebra(args) -> int:
    name = args.name
    if name in PRESENTATIONS:
        pres = PRESENTATIONS[name]
    elif name == "virasoro-corrupted-quintic":
        pres = corrupted_virasoro_quintic()
    elif name.startswith("virasoro-rescaled-"):
        try:
            denominator = int(name[len("virasoro-rescaled-"):])
        except ValueError:
            denominator = 0
        # int() also reads "03", "+11" and "1_1": only the name that the
        # rescaling itself writes names it
        pres = rescaled_virasoro(denominator) if denominator else None
        _require(pres is not None and pres.name == name,
                 f"{name!r}: the rescaling must be a nonzero integer, written as "
                 f"in virasoro-rescaled-11 or virasoro-rescaled--11")
    else:
        raise SuperfockError(f"unknown algebra {name!r}; choices: "
                             + ", ".join(sorted(PRESENTATIONS)))
    report = verify_algebra(pres, args.window)
    payload = {"schema": SCHEMA, "command": "verify-algebra", **report.to_json()}
    status = "PASS" if report.passed else "FAIL"
    _emit(args, payload, [
        f"{status} {pres.name} window={args.window} "
        f"pairs={report.pairs_checked} triples={report.triples_checked} "
        f"violations={len(report.violations)}"
    ])
    return 0 if report.passed else 1


def _vosa_suite(max_weight: Fraction, window: int) -> list[dict]:
    V = Vosa(max_weight)
    col_max = max_weight - 2
    checks = [
        _reported("creation-axiom", creation_report(V), "checked"),
        _reported("l0-grading", grading_report(V), "checked"),
        _reported("translation-axiom", translation_report(V), "checked", "filtered"),
        *(_reported(rep.name, rep, "checked", "filtered")
          for rep in jacobi_pair_reports(V, V.generators, window, col_max, "jacobi-")),
        _reported("jacobi-omega-tau",
                  borcherds_check(V, V.omega_vec, V.tau_vec, window, col_max,
                                  "jacobi-omega-tau"), "checked", "filtered"),
        # bracket tables use the index window 2: structure constants have degree
        # at most 3 in the indices, and weight-4 truncation checks it completely
        _reported("n1-table-c-3/2", n1_table_report(V, min(window, 2), col_max),
                  "checked", "filtered"),
    ]
    bad = Vosa(min(max_weight, 4), psi_delta=2)
    bad_grading = grading_report(bad)
    bad_table = n1_table_report(bad, 1, Fraction(1))
    # a control passes on observed violations: a faulty model that checks
    # nothing must not read as caught
    checks.append(_check("negative-control-psi-normalization",
                         len(bad_grading.violations) > 0 and bad_table.violations > 0))
    return checks


def _single_suite(args, name: str, title: str, config: dict, checks: list[dict]) -> int:
    """Emit the one suite of `verify <name>` and return its exit code."""
    payload = {"schema": SCHEMA, "command": f"verify-{name}", "config": config,
               **_suite_payload(name, checks)}
    lines = [title]
    for c in checks:
        extra = " ".join(f"{k}={v}" for k, v in c.items() if k not in ("name", "pass"))
        lines.append(f"  {'PASS' if c['pass'] else 'FAIL'} {c['name']}"
                     + (f" ({extra})" if extra else ""))
    _emit(args, payload, lines)
    return 0 if payload["pass"] else 1


def cmd_verify_vosa(args) -> int:
    max_weight = _fraction(args.max_weight, "--max-weight")
    _require(max_weight > 2, "--max-weight must exceed 2, the weight of the "
             "conformal vector")
    return _single_suite(args, "vosa", "vosa verification:",
                         {"max_weight": str(max_weight), "window": args.window},
                         _vosa_suite(max_weight, args.window))


# Each engine that commands and suites share is built here alone, once per
# process: everything is deterministic and immutable after construction, so
# reuse changes no output.  `all` forks before it builds any of them, so each
# of its processes builds its own.
@lru_cache(maxsize=None)
def _tensor() -> TensorVosa:
    """The tensor square, at truncation 5, of V, the free-field model at
    truncation 5."""
    return TensorVosa(Vosa(5), 5)


@lru_cache(maxsize=None)
def _sigma(levels: int) -> SigmaModule:
    """The parity-twisted module of V with `levels` levels."""
    return SigmaModule(_tensor().V, levels=levels)


@lru_cache(maxsize=None)
def _calibrated(window: int):
    """The N=2 calibration of the tensor square at a bracket window.  The
    suites calibrate at the default window 2, passed explicitly so that
    every call shares one cache key."""
    return calibrate_n2(_tensor(), window=window)


@lru_cache(maxsize=None)
def _build_stack(levels: int) -> MirrorModule:
    """The mirror-twisted module of the shared calibration on the
    parity-twisted module of `levels` levels (its `sigma`)."""
    return MirrorModule(_sigma(levels), _tensor(), _calibrated(2))


def _levels(args) -> int:
    """The level truncation of the twisted space: --levels, or 4*window+1
    when that is 0 (`all` has no --levels)."""
    return args.levels or 4 * args.window + 1


def _mirror_signs(n2) -> bool:
    """The mirror map fixes tau1 and negates tau2 and J."""
    kappa = _tensor().kappa
    return (kappa(n2.tau1) == n2.tau1
            and kappa(n2.tau2) == v_scale(n2.tau2, -1)
            and kappa(n2.jvec) == v_scale(n2.jvec, -1))


def _sigma_suite(args) -> list[dict]:
    """The parity-twisted checks: sigma's Ramond ground, its N=1 Ramond
    table and its twisted Jacobi identity.  They read no N=2 calibration."""
    window, max_level = args.window, _max_level(args.max_weight)
    sigma = _sigma(_levels(args))
    ground = sigma.ground_eigenvalue()
    return [
        _check("sigma-ground-weight-1/16", ground == Fraction(1, 16), value=str(ground)),
        _reported("sigma-virasoro-c-3/2", sigma_virasoro_report(sigma, window, max_level),
                  "checked", "filtered"),
        _reported("sigma-n1-ramond-table", sigma_ramond_report(sigma, window, max_level),
                  "checked", "filtered"),
        _reported("sigma-twisted-jacobi",
                  sigma_twisted_jacobi_report(sigma, window, Fraction(1)),
                  "checked", "filtered"),
    ]


def _mirror_suite(args) -> list[dict]:
    """The mirror-twisted checks, on the shared stack."""
    window, max_level = args.window, _max_level(args.max_weight)
    mirror = _build_stack(_levels(args))
    kground = mirror.ground_eigenvalue()
    return [
        _check("mirror-same-underlying-space", mirror.space is mirror.sigma.space),
        _check("mirror-ground-weight-1/8", kground == Fraction(1, 8), value=str(kground)),
        _reported("mirror-mode-lattices", mirror.mode_lattice_report(window, Fraction(1)),
                  "checked"),
        _reported("mirror-twisted-n2-table", mirror_table_report(mirror, window, max_level),
                  "checked", "filtered", "complete"),
        *(_reported(sub.name, sub, "checked", "filtered")
          for sub in mirror_subalgebra_reports(mirror, window, max_level)),
        _reported("mirror-twisted-jacobi",
                  mirror_twisted_jacobi_report(mirror, 1, Fraction(1)),
                  "checked", "filtered"),
        _reported("mirror-equivariance",
                  mirror_equivariance_report(mirror, Fraction(2), window, max_level),
                  "checked", "filtered"),
    ]


def cmd_verify_twisted(args) -> int:
    _require(args.levels >= 0, "--levels must be >= 0")
    # a bad --max-weight is refused here, before any part builds
    max_level = _max_level(args.max_weight)
    return _single_suite(args, "twisted", "twisted-sector verification:",
                         {"window": args.window, "max_weight": str(max_level),
                          "levels": _levels(args)},
                         [c for part in SUITES["twisted"].values() for c in part(args)])


# ---------------------------------------------------------------------------
# calibrate n2
# ---------------------------------------------------------------------------

def cmd_calibrate(args) -> int:
    n2 = _calibrated(args.window)
    sign_ok = _mirror_signs(n2)
    payload = {"schema": SCHEMA, "command": "calibrate-n2",
               **n2.to_json(), "mirror_signs": sign_ok}
    ok = n2.table.passed and sign_ok
    _emit(args, payload, [
        f"calibrated scalars: c1 = {n2.c1}, c2 = {n2.c2}, cJ = {n2.cJ}",
        f"n2 table (central {n2.table.central_value}): "
        f"{'PASS' if n2.table.passed else 'FAIL'} checked={n2.table.checked}",
        f"mirror-map signs (tau1 fixed, tau2 and J negated): "
        f"{'PASS' if sign_ok else 'FAIL'}",
    ])
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# character / corollary2
# ---------------------------------------------------------------------------

def cmd_character(args) -> int:
    trunc = _fraction(args.trunc, "--trunc")
    _require(trunc > 0, "--trunc must be positive")
    if args.space in ("ramond", "twisted"):
        _require(trunc.denominator == 1,
                 "--trunc counts levels for twisted sectors and must be an integer")
        _require(not args.dump_basis,
                 "--dump-basis is only available for untwisted spaces")
    if args.space in ("vosa", "ns-fermion"):
        space = TruncatedSpace(args.space, trunc)
        series = character(space, space.central_charge)
    elif args.space == "ramond":
        series = _sigma(int(trunc)).graded_dimension()
    else:  # twisted
        series = _build_stack(int(trunc)).graded_dimension()
    payload = {"schema": SCHEMA, "command": "character", "space": args.space,
               "series": series.to_json()}
    _emit(args, payload, [f"character of {args.space}: {series!r}"])
    if args.dump_basis:
        for line in space.basis_dump():
            print(line)
    return 0


def cmd_corollary2(args) -> int:
    _require(args.trunc >= 1, "--trunc must be >= 1")
    result = corollary2_check(_build_stack(max(2 * args.trunc, 4)), Fraction(args.trunc) * 2)
    payload = {"schema": SCHEMA, "command": "corollary2", **result.to_json()}
    _emit(args, payload, [
        f"dim_q (parity-twisted): {result.sigma_series!r}",
        f"dim_q (mirror-twisted): {result.mirror_series!r}",
        f"ground weights: sigma={result.sigma_ground}, mirror={result.mirror_ground}",
        f"dim_q sigma == dim_(q^2) mirror: {'PASS' if result.matches else 'FAIL'}",
    ])
    return 0 if result.matches else 1


# ---------------------------------------------------------------------------
# all
# ---------------------------------------------------------------------------

def _scalar_series_suite(seed: int) -> list[dict]:
    rng = random.Random(seed)

    def rand_scalar():
        return ExactScalar(*(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                             for _ in range(4)))

    field_ok = True
    for _ in range(40):
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        if (a + b) * c != a * c + b * c or a * (b * c) != (a * b) * c:
            field_ok = False
        if not a.is_zero() and a * a.inv() != ExactScalar(1):
            field_ok = False
        if (a * b).conj_i() != a.conj_i() * b.conj_i():
            field_ok = False
        if (a * b).conj_sqrt2() != a.conj_sqrt2() * b.conj_sqrt2():
            field_ok = False

    def rand_series():
        terms = [(Fraction(rng.randint(-4, 8), 2), rand_scalar()) for _ in range(4)]
        return Series("x", Fraction(5), terms)

    series_ok = True
    for _ in range(25):
        f, g, h = rand_series(), rand_series(), rand_series()
        if f * g != g * f or (f * g) * h != f * (g * h):
            series_ok = False
        if substitute_root_phase(substitute_root_phase(f, 1), 1) != f:
            series_ok = False
    return [_check("scalar-field-axioms", field_ok, samples=40),
            _check("series-ring-axioms", series_ok, samples=25)]


def _delta_suite() -> list[dict]:
    closed = all(
        delta_mod.delta_coefficients(k, 2)
        == (Fraction(1 - k, 2), Fraction(k * k - 1, 12))
        for k in range(1, 13))
    residuals = all(delta_mod.verify_delta_equation(k, 10, 10).is_zero()
                    for k in range(1, 7))
    perturbed = list(delta_mod.delta_coefficients(2, 3))
    perturbed[1] = Fraction(1, 3)
    control = not delta_mod.residual_for_coefficients(2, perturbed, 4).is_zero()
    return [_check("closed-forms-k-1..12", closed),
            _check("flow-residuals-k-1..6-order-10", residuals),
            _check("negative-control-perturbed-a2", control)]


def _algebra_suite(window: int) -> list[dict]:
    checks = []
    for name in sorted(PRESENTATIONS):
        rep = verify_algebra(PRESENTATIONS[name], window)
        checks.append(_check(f"algebra-{name}", rep.passed,
                             triples=rep.triples_checked))
    # a quintic cocycle first violates Jacobi on index-3 triples
    bad = verify_algebra(corrupted_virasoro_quintic(), max(window, 3))
    checks.append(_check("negative-control-quintic-cocycle", len(bad.violations) > 0,
                         violations=len(bad.violations)))
    rescaled = verify_algebra(rescaled_virasoro(11), window)
    checks.append(_check("rescaled-cocycle-still-lie-algebra", rescaled.passed))
    auto = verify_automorphism(PRESENTATIONS["n2-ns"], mirror_map_on_generator, window)
    checks.append(_check("mirror-map-automorphism", auto.passed,
                         pairs=auto.pairs_checked))

    def bad_map(g):
        e = Element.of(g)
        return e.scale(-1) if g.family == "G1" else e

    bad_auto = verify_automorphism(PRESENTATIONS["n2-ns"], bad_map, min(window, 2))
    checks.append(_check("negative-control-g1-flip-not-automorphism",
                         len(bad_auto.violations) > 0))
    return checks


def _kappa_suite() -> list[dict]:
    """kappa's compatibility with the vertex operators of the tensor
    square, which no calibration is needed for."""
    return [_reported("kappa-vertex-compatibility", kappa_automorphism_report(_tensor()),
                      "checked")]


def _calibration_suite() -> list[dict]:
    """The shared N=2 calibration's table and its mirror-map signs."""
    n2 = _calibrated(2)
    return [
        _check("n2-calibration-table", n2.table.passed, c1=str(n2.c1),
               c2=str(n2.c2), cJ=str(n2.cJ)),
        _check("n2-mirror-signs", _mirror_signs(n2)),
    ]


def _corollary2_suite(levels: int) -> list[dict]:
    result = corollary2_check(_build_stack(levels))
    low_ok = all(result.sigma_series.coefficient(Fraction(n)) == ExactScalar(c)
                 for n, c in enumerate((2, 4, 8, 16)))
    return [
        _check("sigma-character-2-4-8-16", low_ok),
        _check("mirror-leading-exponent-0",
               result.mirror_series.min_exponent() == 0),
        _check("corollary2-identity", result.matches),
        _check("ground-weights-1/16-1/8",
               result.sigma_ground == Fraction(1, 16)
               and result.mirror_ground == Fraction(1, 8)),
    ]


# The suites of `all` in dependency order, each an ordered dict of named
# parts; a part maps the parsed options to its check records, looking its
# runner up when it runs (so a test can replace the runner).  `verify
# twisted` runs the twisted suite's parts.
SUITES = {
    "scalars": {"scalars": lambda args: _scalar_series_suite(args.seed)},
    "delta": {"delta": lambda args: _delta_suite()},
    "algebra": {"algebra": lambda args: _algebra_suite(max(args.window, 2))},
    "vosa": {"vosa": lambda args: _vosa_suite(Fraction(4), min(args.window, 3))},
    "calibration": {"kappa": lambda args: _kappa_suite(),
                    "n2": lambda args: _calibration_suite()},
    "twisted": {"sigma": lambda args: _sigma_suite(args),
                "mirror": lambda args: _mirror_suite(args)},
    "corollary2": {"corollary2": lambda args: _corollary2_suite(max(_levels(args), 6))},
}

# The parts that read the N=2 calibration, through `_calibrated` and
# `_build_stack`.  `all` runs its parts over `fork.split`: these in the
# calling process, every other part in one forked child.
CALIBRATED = ("n2", "mirror", "corollary2")


def cmd_all(args) -> int:
    max_weight = _max_level(args.max_weight)
    only = set(args.only.split(",")) if args.only else set(SUITES)
    unknown = only - set(SUITES)
    _require(not unknown, f"unknown suites: {sorted(unknown)}")
    chosen = [(name, part) for name in SUITES if name in only for part in SUITES[name]]
    runners = [SUITES[name][part] for name, part in chosen]
    records = dict(zip(chosen, fork.split([part not in CALIBRATED for _, part in chosen],
                                          lambda i: runners[i](args))))
    suites = [_suite_payload(name, [c for part in SUITES[name] for c in records[name, part]])
              if name in only else _suite_payload(name, [], skipped=True)
              for name in SUITES]

    skipped = sum(1 for s in suites if s["skipped"])
    failed = sum(1 for s in suites if (not s["skipped"]) and not s["pass"])
    overall = failed == 0 and (skipped == 0 or args.allow_skip)
    payload = {
        "schema": SCHEMA,
        "command": "all",
        "config": {"window": args.window, "max_weight": str(max_weight),
                   "seed": args.seed, "levels": _levels(args)},
        "suites": suites,
        "summary": {"total": len(suites), "failed": failed, "skipped": skipped},
        "pass": overall,
    }
    lines = []
    for s in suites:
        if s["skipped"]:
            lines.append(f"SKIP {s['name']}")
            continue
        status = "PASS" if s["pass"] else "FAIL"
        lines.append(f"{status} {s['name']} "
                     f"({sum(1 for c in s['checks'] if c['pass'])}/{len(s['checks'])} checks)")
    lines.append(f"summary: {len(suites) - failed - skipped} passed, "
                 f"{failed} failed, {skipped} skipped")
    _emit(args, payload, lines)
    return 0 if overall else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superfock",
        description="Exact verification suite for free-field superconformal "
                    "structures and order-two twisted sectors.")
    sub = parser.add_subparsers(dest="command", required=True)
    # every command that reports takes --json
    json_opt = argparse.ArgumentParser(add_help=False)
    json_opt.add_argument("--json", action="store_true")

    p = sub.add_parser("delta", parents=[json_opt], help="twist-operator coefficients")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--verify-order", type=int, default=0)
    p.set_defaults(func=cmd_delta)

    v = sub.add_parser("verify", help="run a verification suite")
    vsub = v.add_subparsers(dest="target", required=True)

    p = vsub.add_parser("algebra", parents=[json_opt], help="structure-constant presentations")
    p.add_argument("--name", required=True)
    p.add_argument("--window", type=int, default=4)
    p.set_defaults(func=cmd_verify_algebra, min_window=1)

    p = vsub.add_parser("vosa", parents=[json_opt], help="free-field vertex algebra axioms")
    p.add_argument("--max-weight", default="4")
    p.add_argument("--window", type=int, default=3)
    p.set_defaults(func=cmd_verify_vosa, min_window=1)

    p = vsub.add_parser("twisted", parents=[json_opt], help="twisted sectors")
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--max-weight", default="2",
                   help="largest level above ground used for check columns")
    p.add_argument("--levels", type=int, default=0,
                   help="level truncation of the twisted space (default 4*window+1)")
    p.set_defaults(func=cmd_verify_twisted, min_window=1)

    c = sub.add_parser("calibrate", help="solve for generator normalizations")
    csub = c.add_subparsers(dest="target", required=True)
    p = csub.add_parser("n2", parents=[json_opt], help="N=2 generators on the tensor square")
    p.add_argument("--window", type=int, default=2)
    p.set_defaults(func=cmd_calibrate, min_window=1)

    p = sub.add_parser("character", parents=[json_opt], help="graded dimensions")
    p.add_argument("--space", choices=("vosa", "ns-fermion", "ramond", "twisted"),
                   required=True)
    p.add_argument("--trunc", required=True,
                   help="weight truncation (levels for twisted sectors)")
    p.add_argument("--dump-basis", action="store_true")
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("corollary2", parents=[json_opt], help="the character identity")
    p.add_argument("--trunc", type=int, default=4,
                   help="compare coefficients of q^0..q^(trunc-1) on the "
                        "parity-twisted side")
    p.set_defaults(func=cmd_corollary2)

    p = sub.add_parser("all", parents=[json_opt], help="every suite in dependency order")
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--max-weight", default="2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", default="",
                   help="comma-separated subset of suites; the rest are skipped")
    p.add_argument("--allow-skip", action="store_true")
    p.set_defaults(func=cmd_all, min_window=1, levels=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        reserve = mmap.mmap(-1, RESERVE)
    except OSError:
        reserve = None  # no room even for the reserve: run without it
    try:
        # a bracket table at window 0 holds L(0) (and J(0)) but no G mode
        # and no central term, so the commands that check one need window 1
        low = getattr(args, "min_window", 0)
        _require(getattr(args, "window", 0) >= low, f"--window must be >= {low}")
        code = args.func(args)
        # flushed here, so that a closed stdout is seen here and not at exit
        sys.stdout.flush()
        return code
    except MemoryError:
        # the cached engines outlive the error, so without the reserve the
        # line and the exit could find no memory left
        if reserve is not None:
            reserve.close()
        print("error: out of memory", file=sys.stderr)
        return CUT_SHORT
    except SuperfockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CUT_SHORT if isinstance(exc, ChildLost) else 2
    except BrokenPipeError:
        # the reader went away; later writes (the flush at exit) go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
