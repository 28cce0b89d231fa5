"""Fault injection: each case plants one known fault in the twisted-sector
construction and runs `verify twisted --window 1 --json`.  The run must
exit 1 (a failed check, not a pass and not a configuration error) with the
named checks reading FAIL, and the clean run must exit 0.  Two more cases
run `all --json` with the fault planted before the fork.  `all` computes
the vosa suite, kappa's compatibility and the parity-twisted (sigma)
checks in a forked child, and the calibration's table and signs, the
mirror-twisted checks and corollary2 in the calling process.  One case
must fail the vosa suite's checks in the child; the other must fail one
check of the twisted suite in each process.  Another cuts
the left side's sums at i = 0 and runs `calibrate n2`, which must exit 2
naming the vacuum line the cut makes 0 (whether a broken recursion should
exit 1 instead is ROADMAP item 9).

Two faults are known to pass `verify twisted`, at window 1 and at the
defaults: a3 + 1/100 and a4 + 1/100 (ROADMAP item 2).  Each is an
expected-pass row of `SURVIVORS`, naming the item whose fix will flip it
into a caught row of `FAULTS`."""

import json
from fractions import Fraction

import pytest

import superfock.cli as cli
import superfock.modes as modes
from conftest import perturb_delta
from superfock.scalars import v_scale
from superfock.twisted import MirrorModule
from superfock.vosa import TensorVosa

ARGV = ["verify", "twisted", "--window", "1", "--json"]


@pytest.fixture(autouse=True)
def fresh_stack():
    """No engine that a builder of `cli` cached before a case is reused by
    it, so memoized columns never hide a planted fault, and no faulty
    engine outlives it."""
    builders = [cli._tensor, cli._sigma, cli._calibrated, cli._build_stack]
    for builder in builders:
        builder.cache_clear()
    yield
    for builder in builders:
        builder.cache_clear()


def _drop_slot2_sign(monkeypatch):
    """Build slot-2 families with slot 1's odd-t2 coefficient +1."""
    exact = MirrorModule._slot_family
    monkeypatch.setattr(MirrorModule, "_slot_family", lambda self, i, slot: exact(self, i, 1))


def _drop_first_correction(monkeypatch):
    """Start `CompositeFamily.column`'s right side at i = 2 instead of 1;
    `checks` keeps its own binding of `jacobi_right`."""
    exact = modes.jacobi_right

    def skipping(acc, u_fam, w_fam, ell, m2, t2, col, first, products):
        return exact(acc, u_fam, w_fam, ell, m2, t2, col, 2 if first == 1 else first, products)

    monkeypatch.setattr(modes, "jacobi_right", skipping)


def _drop_product_at_one(monkeypatch):
    """`Engine.product_families` loses the family of u_1 v, wherever the
    composite families or the Jacobi verifier read it."""
    exact = modes.Engine.product_families

    def dropping(self, u_vec, v_vec):
        products = exact(self, u_vec, v_vec)
        return lambda s: None if s == 1 else products(s)

    monkeypatch.setattr(modes.Engine, "product_families", dropping)


def _unsigned_kappa(monkeypatch):
    """The transposition u (x) v -> v (x) u without its Koszul sign."""
    def kappa(self, vec):
        states, rows = self.space.states, self.space.rows
        return {rows[j][i]: c for k, c in vec.items() for i, j in (states[k],)}

    monkeypatch.setattr(TensorVosa, "kappa", kappa)


def _anticommute_left_side(monkeypatch):
    """The left side's second ordering with sign +1 where it is -1, so a
    commutator is read as an anticommutator.  Both `CompositeFamily.column`
    and the Jacobi verifier in `checks` reach the helper through `modes`."""
    exact = modes._ordered_products

    def unsigned(acc, outer, outer2, inner, inner2, ell, col, col_w2, sign):
        exact(acc, outer, outer2, inner, inner2, ell, col, col_w2, abs(sign))

    monkeypatch.setattr(modes, "_ordered_products", unsigned)


FAULTS = {
    "a1": (lambda mp: perturb_delta(mp, 0), {"mirror-equivariance"}),
    "a2": (lambda mp: perturb_delta(mp, 1),
           {"mirror-ground-weight-1/8", "mirror-twisted-n2-table", "mirror-virasoro",
            "mirror-g1-ns", "mirror-g2-ramond", "mirror-twisted-jacobi"}),
    "slot2-root-phase": (_drop_slot2_sign,
                         {"mirror-mode-lattices", "mirror-twisted-jacobi",
                          "mirror-equivariance"}),
    "composite-correction": (_drop_first_correction, {"mirror-equivariance"}),
    "product-at-one": (_drop_product_at_one,
                       {"sigma-twisted-jacobi", "mirror-twisted-jacobi"}),
    "kappa-sign": (_unsigned_kappa, {"mirror-equivariance"}),
    "left-side-sign": (_anticommute_left_side,
                       {"sigma-twisted-jacobi", "mirror-mode-lattices",
                        "mirror-twisted-n2-table", "mirror-twisted-jacobi",
                        "mirror-equivariance"}),
}


# fault -> (plant, the ROADMAP items whose fix must make it fail)
SURVIVORS = {
    "a3": (lambda mp: perturb_delta(mp, 2), "2"),
    "a4": (lambda mp: perturb_delta(mp, 3), "2"),
}


def _verify_twisted(capsys, argv=ARGV):
    code = cli.main(argv)
    checks = json.loads(capsys.readouterr().out)["checks"]
    return code, {c["name"] for c in checks if not c["pass"]}


def test_clean_run_passes(capsys):
    assert _verify_twisted(capsys) == (0, set())


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_fails_its_checks(fault, monkeypatch, capsys):
    plant, expected = FAULTS[fault]
    plant(monkeypatch)
    code, failed = _verify_twisted(capsys)
    assert code == 1
    assert expected <= failed, f"{fault} left {sorted(expected - failed)} passing"


@pytest.mark.parametrize("argv", [ARGV, ["verify", "twisted", "--json"]],
                         ids=["window-1", "defaults"])
@pytest.mark.parametrize("fault", sorted(SURVIVORS))
def test_known_survivor_passes(fault, argv, monkeypatch, capsys):
    plant, items = SURVIVORS[fault]
    plant(monkeypatch)
    assert _verify_twisted(capsys, argv) == (0, set()), (
        f"{fault} is caught now: move it to FAULTS (ROADMAP item {items})")


def _scale_deep_left_side(monkeypatch):
    """`CompositeFamily.column`'s left side times 101/100 when l <= -4;
    `checks` keeps its own binding of `jacobi_left`."""
    exact = modes.jacobi_left

    def scaled(u_fam, w_fam, ell, m2, n2, col, col_w2):
        acc = exact(u_fam, w_fam, ell, m2, n2, col, col_w2)
        return v_scale(acc, Fraction(101, 100)) if ell <= -4 else acc

    monkeypatch.setattr(modes, "jacobi_left", scaled)


def _cut_left_side(monkeypatch):
    """Each sum of the left side's helper cut at i = 0, as when its bound
    counts no correction term."""
    exact = modes._ordered_products

    def cut(acc, outer, outer2, inner, inner2, ell, col, col_w2, sign):
        exact(acc, outer, outer2, inner, inner2, ell, col,
              min(col_w2, inner2 + 2 - inner.weight2), sign)

    monkeypatch.setattr(modes, "_ordered_products", cut)


def test_broken_recursion_is_named_by_the_calibration(monkeypatch, capsys):
    _cut_left_side(monkeypatch)
    code = cli.main(["calibrate", "n2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "{G1(3/2), G1(-3/2)} is 0" in lines[0]
    assert "constructed modes are at fault" in lines[0]


def test_fault_in_the_forked_lane_fails_all(monkeypatch, capsys):
    _scale_deep_left_side(monkeypatch)
    code = cli.main(["all", "--json"])
    suites = json.loads(capsys.readouterr().out)["suites"]
    failed = {s["name"]: {c["name"] for c in s["checks"] if not c["pass"]}
              for s in suites}
    assert code == 1
    assert {"creation-axiom", "translation-axiom"} <= failed["vosa"]


def test_fault_on_both_sides_of_the_fork_fails_the_twisted_suite(monkeypatch, capsys):
    # sigma-twisted-jacobi is computed in the child, mirror-twisted-jacobi
    # in the caller
    _drop_product_at_one(monkeypatch)
    code = cli.main(["all", "--json"])
    suites = json.loads(capsys.readouterr().out)["suites"]
    twisted, = [s for s in suites if s["name"] == "twisted"]
    assert code == 1
    assert {"sigma-twisted-jacobi", "mirror-twisted-jacobi"} <= {
        c["name"] for c in twisted["checks"] if not c["pass"]}
