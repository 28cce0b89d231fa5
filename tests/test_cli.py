import contextlib
import dataclasses
import io
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import superfock.cli as cli
from superfock import fork, modes
from superfock.checks import CheckReport
from superfock.cli import main
from superfock.errors import NoCalibration, SuperfockError
from superfock.superalgebra import PRESENTATIONS, AlgebraReport

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = ROOT / "tests" / "snapshots" / "all.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_delta_command(capsys):
    code, out = run(capsys, "delta", "--k", "2", "--terms", "2")
    assert code == 0
    assert "-1/2, 1/4" in out


def test_delta_json_schema(capsys):
    code, out = run(capsys, "delta", "--k", "3", "--terms", "2",
                    "--verify-order", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["a"] == ["-1", "2/3"]
    assert payload["residual"]["terms"] == []


def test_verify_algebra_vacuous_window(capsys):
    # window 0 holds no G mode and no central term: for n2-ns it passed on
    # 9 pairs and 10 triples of L(0) and J(0) alone
    code = main(["verify", "algebra", "--name", "n2-ns", "--window", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == ["error: --window must be >= 1"]


@pytest.mark.parametrize("argv, want", [
    (("verify", "twisted", "--window", "1", "--max-weight", "2.0"), "2"),
    (("verify", "twisted", "--window", "1", "--max-weight", "4/2"), "2"),
    (("all", "--only", "twisted", "--allow-skip", "--window", "1", "--max-weight", "2.0"),
     "2"),
    (("verify", "vosa", "--max-weight", "4.0"), "4"),
])
def test_max_weight_is_echoed_in_one_form(capsys, argv, want):
    # the config echoes the parsed value, str(Fraction), however it is spelled
    code, out = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["config"]["max_weight"] == want


def test_a_closed_stdout_exits_quietly():
    # the basis dump (124 kB) outgrows the pipe, so a write after the reader
    # has gone fails; that is no failed check (1) and no traceback
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with subprocess.Popen([sys.executable, "-m", "superfock.cli", "character", "--space",
                           "vosa", "--trunc", "14", "--dump-basis"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(1) == b"c"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == cli.BROKEN_PIPE == 141
    assert err == b""


def test_verify_algebra_negative_control(capsys):
    code, out = run(capsys, "verify", "algebra",
                    "--name", "virasoro-corrupted-quintic", "--window", "3")
    assert code == 1
    assert "FAIL" in out


def test_unknown_algebra_is_config_error(capsys):
    code = main(["verify", "algebra", "--name", "nonsense"])
    assert code == 2


# int() reads each refused suffix but "--11" as a nonzero integer: a name
# is accepted only when it is the name of the rescaling it selects
@pytest.mark.parametrize("name, code", [
    ("virasoro-rescaled-03", 2), ("virasoro-rescaled-+11", 2),
    ("virasoro-rescaled-1_1", 2), ("virasoro-rescaled- 11", 2),
    ("virasoro-rescaled---11", 2), ("virasoro-rescaled--11", 0),
    ("virasoro-rescaled-11", 0),
])
def test_a_rescaled_name_names_what_was_verified(capsys, name, code):
    got = main(["verify", "algebra", "--name", name, "--window", "1", "--json"])
    captured = capsys.readouterr()
    assert got == code
    if code == 0:
        assert json.loads(captured.out)["algebra"] == name
    else:
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: {name!r}")


def test_bad_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# control -> (the verifier swapped for one that checks nothing, the suite)
EMPTY_VERIFIERS = {
    "negative-control-psi-normalization":
        ("grading_report", lambda V: CheckReport("l0-grading"),
         lambda: cli._vosa_suite(Fraction(5, 2), 1)),
    "negative-control-quintic-cocycle":
        ("verify_algebra", lambda alg, window: AlgebraReport(alg.name, window),
         lambda: cli._algebra_suite(1)),
    "negative-control-g1-flip-not-automorphism":
        ("verify_automorphism", lambda alg, image, window: AlgebraReport(alg.name, window),
         lambda: cli._algebra_suite(1)),
}


@pytest.mark.parametrize("control", sorted(EMPTY_VERIFIERS))
def test_a_negative_control_needs_an_observed_violation(control, monkeypatch):
    # a faulty model whose report checks nothing has not been caught
    name, empty, suite = EMPTY_VERIFIERS[control]
    monkeypatch.setattr(cli, name, empty)
    check, = [c for c in suite() if c["name"] == control]
    assert not check["pass"]


@pytest.mark.parametrize("max_weight", ["3", "7/2"])
def test_verify_vosa_low_truncation_filters_translation(capsys, max_weight):
    # L(-1) of a top-weight state leaves the truncated space: its translation
    # checks are filtered, not a configuration error
    code, out = run(capsys, "verify", "vosa", "--max-weight", max_weight,
                    "--window", "1")
    assert code == 0
    line, = [ln for ln in out.splitlines() if "translation-axiom" in ln]
    assert "PASS" in line and "filtered=0" not in line


def test_character_vosa(capsys):
    code, out = run(capsys, "character", "--space", "vosa", "--trunc", "3",
                    "--json")
    assert code == 0
    payload = json.loads(out)
    exps = {t["exp"] for t in payload["series"]["terms"]}
    assert "-1/16" in exps


def test_character_ramond(capsys):
    code, out = run(capsys, "character", "--space", "ramond", "--trunc", "4")
    assert code == 0
    assert "(2) + (4)*q + (8)*q^(2) + (16)*q^(3)" in out


def test_character_dump_basis(capsys):
    code, out = run(capsys, "character", "--space", "vosa", "--trunc", "2",
                    "--dump-basis")
    assert code == 0
    assert "psi(-1/2)|0>" in out


COROLLARY2_CHECKS = ["sigma-character-2-4-8-16", "mirror-leading-exponent-0",
                     "corollary2-identity", "ground-weights-1/16-1/8"]


def test_corollary2_command(capsys):
    # the series and the identity's line, then the records of all's part
    code, out = run(capsys, "corollary2", "--trunc", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[3] == "dim_q sigma == dim_(q^2) mirror: PASS"
    assert lines[4:] == [f"  PASS {name}" for name in COROLLARY2_CHECKS]
    code, out = run(capsys, "corollary2", "--trunc", "3", "--json")
    payload = json.loads(out)
    assert code == 0 and list(payload)[-1] == "checks"
    assert payload["checks"] == [{"name": name, "pass": True} for name in COROLLARY2_CHECKS]


def test_corollary2_at_trunc_1_reads_the_prefix_below_its_truncation(capsys):
    # two levels: sigma's series stops at q^1, so 2 and 4 are compared
    code, out = run(capsys, "corollary2", "--trunc", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dim_q (parity-twisted): (2) + (4)*q + O(q^(2))"
    assert lines[1] == "dim_q (mirror-twisted): (2) + (4)*q^(1/2) + O(q^(1))"
    assert lines[4:] == [f"  PASS {name}" for name in COROLLARY2_CHECKS]


def test_corollary2_and_all_judge_one_planted_failure_alike(capsys, monkeypatch):
    # a wrong sigma ground weight fails the same record in both commands
    exact = cli.corollary2_check
    monkeypatch.setattr(cli, "corollary2_check", lambda mirror: dataclasses.replace(
        exact(mirror), sigma_ground=Fraction(1, 8)))
    code, out = run(capsys, "corollary2", "--trunc", "6", "--json")
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if not c["pass"]]
    assert failed == [{"name": "ground-weights-1/16-1/8", "pass": False}]
    code, out = run(capsys, "all", "--only", "corollary2", "--allow-skip", "--json")
    assert code == 1
    suite, = [s for s in json.loads(out)["suites"] if s["name"] == "corollary2"]
    assert [c for c in suite["checks"] if not c["pass"]] == failed
    code, out = run(capsys, "corollary2", "--trunc", "6")
    assert code == 1 and "  FAIL ground-weights-1/16-1/8" in out.splitlines()


def test_calibrate_command(capsys):
    code, out = run(capsys, "calibrate", "n2")
    assert code == 0
    assert "c1 = 1" in out


def test_calibrate_prints_the_verdicts_of_the_n2_part(capsys, monkeypatch):
    # the table and the signs are judged by all's n2 part alone
    monkeypatch.setattr(cli, "_calibration_suite", lambda window: [
        cli._check("n2-calibration-table", False), cli._check("n2-mirror-signs", False)])
    code, out = run(capsys, "calibrate", "n2")
    assert code == 1
    assert out.splitlines()[1:] == [
        "n2 table (central 3): FAIL checked=3768",
        "mirror-map signs (tau1 fixed, tau2 and J negated): FAIL"]


def test_all_only_subset_and_allow_skip(capsys):
    code, _ = run(capsys, "all", "--only", "delta")
    assert code == 1  # skipped suites force failure
    code, out = run(capsys, "all", "--only", "delta", "--allow-skip")
    assert code == 0
    assert "SKIP" in out


def test_all_unknown_suite_is_config_error(capsys):
    code = main(["all", "--only", "nonsense"])
    assert code == 2


def test_all_json_determinism(capsys):
    args = ["all", "--only", "scalars,delta,algebra", "--allow-skip",
            "--json", "--seed", "3", "--window", "2"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == 1
    assert payload["summary"]["skipped"] == 4


# `all` runs the parts of its suites that read the N=2 calibration (the
# calibration's table and signs, the mirror-twisted checks and corollary2) in
# the calling process, and every other part (the scalars, delta, algebra and
# vosa suites, kappa's compatibility and the parity-twisted checks) in one
# forked child, which must be reaped on every path

def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


BOTH_LANES = ("all", "--only", "delta,calibration", "--allow-skip")


def _in_lane(lane, action):
    """A replacement suite that runs `action` on its arguments and refuses
    to run outside its lane: "forked" (the child) or "calling"."""
    caller = os.getpid()

    def suite(*args):
        assert (os.getpid() == caller) == (lane == "calling"), \
            f"the suite ran outside the {lane} process"
        return action(*args)

    return suite


def test_all_runs_each_part_in_its_lane(monkeypatch):
    # each suite's checks come from the lane that computed them, and the
    # output is the one recorded for a serial run
    for name, lane in [("_kappa_suite", "forked"), ("_sigma_suite", "forked"),
                       ("_calibration_suite", "calling"), ("_mirror_suite", "calling"),
                       ("_corollary2_suite", "calling")]:
        monkeypatch.setattr(cli, name, _in_lane(lane, getattr(cli, name)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["all", "--json"])
    assert code == 0
    assert out.getvalue() == SNAPSHOT.read_text()
    assert_no_child_left()


def test_all_forks_before_it_builds_an_engine(monkeypatch):
    # each process builds its own engines: none is built when the lanes
    # start, and the output is still the snapshot
    builders = [cli._tensor, cli._sigma, cli._calibrated, cli._build_stack]
    for builder in builders:
        builder.cache_clear()
    sizes, exact = [], fork.split

    def recording(sides, run):
        sizes.append([b.cache_info().currsize for b in builders])
        return exact(sides, run)

    monkeypatch.setattr(fork, "split", recording)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["all", "--json"])
    # all's split comes first; the corollary2 part's L(0) spectra split later
    assert code == 0 and sizes[0] == [0, 0, 0, 0] and len(sizes) == 2
    assert out.getvalue() == SNAPSHOT.read_text()
    assert_no_child_left()


def test_verify_twisted_runs_the_twisted_parts_of_all(capsys):
    code, out = run(capsys, "verify", "twisted", "--json")
    assert code == 0
    code, all_out = run(capsys, "all", "--only", "twisted", "--allow-skip", "--json")
    assert code == 0
    twisted, = [s for s in json.loads(all_out)["suites"] if s["name"] == "twisted"]
    assert json.loads(out)["checks"] == twisted["checks"]


def test_all_reaps_its_child_on_a_pass(capsys):
    code, out = run(capsys, *BOTH_LANES)
    assert code == 0
    lines = out.splitlines()
    assert "PASS delta (3/3 checks)" in lines and "PASS calibration (3/3 checks)" in lines
    assert_no_child_left()


def test_all_reaps_its_child_on_a_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_delta_suite",
                        _in_lane("forked", lambda: [cli._check("planted", False)]))
    code, out = run(capsys, *BOTH_LANES)
    assert code == 1
    assert "FAIL delta (0/1 checks)" in out.splitlines()
    assert_no_child_left()


def _raise(exc):
    raise exc


@pytest.mark.parametrize("lane, suite, exc", [
    ("forked", "_delta_suite", SuperfockError("planted in the child")),
    ("calling", "_calibration_suite", NoCalibration("planted in the caller")),
    ("forked", "_sigma_suite", SuperfockError("planted in the sigma part")),
])
def test_an_error_in_either_lane_exits_2(capsys, monkeypatch, lane, suite, exc):
    monkeypatch.setattr(cli, suite, _in_lane(lane, lambda *args: _raise(exc)))
    code = main(["all", "--only", "delta,calibration,twisted", "--allow-skip"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {exc}"]
    assert_no_child_left()


@pytest.mark.parametrize("first, later", [
    (("_kappa_suite", "forked", SuperfockError("kappa")),
     ("_calibration_suite", "calling", NoCalibration("n2"))),
    (("_calibration_suite", "calling", NoCalibration("n2")),
     ("_sigma_suite", "forked", SuperfockError("sigma"))),
], ids=["kappa before n2", "n2 before sigma"])
def test_when_both_lanes_raise_the_serial_error_is_reported(capsys, monkeypatch, first,
                                                            later):
    # a serial run stops at the first of the two parts, in whichever lane it ran
    for suite, lane, exc in (first, later):
        monkeypatch.setattr(cli, suite, _in_lane(lane, lambda *args, exc=exc: _raise(exc)))
    code = main(["all", "--only", "calibration,twisted", "--allow-skip"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {first[2]}"]
    assert_no_child_left()


@pytest.mark.parametrize("crash, status", [
    (lambda: _raise(ValueError("planted")), 1),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
])
def test_a_child_without_a_result_is_never_a_pass(capfd, monkeypatch, crash, status):
    # a run cut short exits 3 with its error last on stderr; the child's
    # own traceback comes first when an error killed it
    monkeypatch.setattr(cli, "_delta_suite", _in_lane("forked", crash))
    code = main(list(BOTH_LANES))
    assert_no_child_left()
    captured = capfd.readouterr()
    assert code == cli.CUT_SHORT and captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"error: the forked child sent no complete result (child exit status {status})")
    assert ("ValueError: planted" in captured.err) == (status == 1)


def test_a_part_missing_from_the_reply_is_never_a_pass(capfd, monkeypatch):
    exact, caller = fork._share, os.getpid()

    def dropping(run, positions):
        results, error = exact(run, positions)
        return (results[:-1] if os.getpid() != caller else results), error

    monkeypatch.setattr(fork, "_share", dropping)
    assert _cut_short(capfd, list(BOTH_LANES)) == (
        "error: the forked child sent no complete result (child exit status 0)")


def _cut_short(capfd, argv) -> str:
    """The one stderr line of a run that exits 3 with nothing on stdout and
    no traceback from either process."""
    code = main(argv)
    assert_no_child_left()
    captured = capfd.readouterr()
    assert code == cli.CUT_SHORT and captured.out == ""
    [line] = captured.err.splitlines()
    return line


@pytest.mark.parametrize("lane, suite", [("forked", "_delta_suite"),
                                         ("calling", "_calibration_suite")])
def test_running_out_of_memory_in_either_lane_exits_3(capfd, monkeypatch, lane, suite):
    monkeypatch.setattr(cli, suite, _in_lane(lane, lambda *args: _raise(MemoryError())))
    argv = ["all", "--only", "delta,calibration", "--allow-skip", "--json"]
    assert _cut_short(capfd, argv) == "error: out of memory"


def test_out_of_memory_before_a_later_error_is_the_one_reported(capfd, monkeypatch):
    # the serial rule: the forked delta part comes before the calling n2 part
    monkeypatch.setattr(cli, "_delta_suite",
                        _in_lane("forked", lambda *args: _raise(MemoryError())))
    monkeypatch.setattr(cli, "_calibration_suite",
                        _in_lane("calling", lambda *args: _raise(NoCalibration("n2"))))
    argv = ["all", "--only", "delta,calibration", "--allow-skip", "--json"]
    assert _cut_short(capfd, argv) == "error: out of memory"


def _in_child_column(monkeypatch, action):
    """Make `Engine._l0_entry` run action() on the forked child's columns
    above the ground states."""
    exact, caller = modes.Engine._l0_entry, os.getpid()

    def entry(engine, L, col):
        if os.getpid() != caller and engine.space.level2[col] > 0:
            action()
        return exact(engine, L, col)

    monkeypatch.setattr(modes.Engine, "_l0_entry", entry)


def test_running_out_of_memory_in_the_spectrum_child_exits_3(capfd, monkeypatch):
    _in_child_column(monkeypatch, lambda: _raise(MemoryError()))
    assert _cut_short(capfd, ["corollary2", "--trunc", "3"]) == "error: out of memory"


def test_a_child_that_dies_mid_share_exits_3(capfd, monkeypatch):
    _in_child_column(monkeypatch, lambda: os._exit(1))
    assert _cut_short(capfd, ["corollary2", "--trunc", "3"]) == (
        "error: the forked child sent no complete result (child exit status 1)")


# twisted and calibration each span both processes
@pytest.mark.parametrize("only", ["scalars,delta", "calibration,twisted", "twisted",
                                  "calibration"])
def test_each_lane_alone_matches_the_snapshot(capsys, only):
    code, out = run(capsys, "all", "--only", only, "--allow-skip", "--json")
    assert code == 0
    want = {s["name"]: s for s in json.loads(SNAPSHOT.read_text())["suites"]}
    ran = [s for s in json.loads(out)["suites"] if not s["skipped"]]
    assert [s["name"] for s in ran] == only.split(",")
    assert all(s == want[s["name"]] for s in ran)


@pytest.mark.parametrize("argv", [
    ("verify", "algebra", "--name", "virasoro-rescaled-0"),
    ("verify", "algebra", "--name", "virasoro-rescaled-x"),
    ("delta", "--k", "0", "--terms", "2"),
    ("verify", "vosa", "--max-weight", "1.5", "--window", "1"),
    ("character", "--space", "ramond", "--trunc", "x"),
    # a basis dump of a twisted space was refused only after the series printed
    ("character", "--space", "ramond", "--trunc", "2", "--dump-basis"),
    ("character", "--space", "twisted", "--trunc", "2", "--dump-basis"),
    # these two passed vacuously: only the central element, an empty range
    ("verify", "algebra", "--name", "n2-ns", "--window", "-1"),
    ("corollary2", "--trunc", "0"),
    # a negative largest column level ran the whole suite and failed with checked=0
    ("verify", "twisted", "--max-weight=-1"),
    ("all", "--max-weight=-1"),
    # these passed with no G mode and no central term in their N=2 tables
    ("calibrate", "n2", "--window", "0"),
    ("verify", "twisted", "--window", "0"),
    ("all", "--window", "0"),
    # passed with only [L(0), L(0)] in its N=1 table
    ("verify", "vosa", "--window", "0"),
    # passed on the pairs and triples of L(0) and J(0) alone
    ("verify", "algebra", "--name", "n2-ns", "--window", "0"),
])
def test_configuration_errors_exit_2(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_calibration_names_the_window_it_cannot_complete(capsys):
    # every candidate reads 0 violations at window 3, but truncation 5 leaves
    # pairs of the table unchecked: the window is at fault, not the ansatz
    code = main(["calibrate", "n2", "--window", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "at window 3" in lines[0] and "no column" in lines[0]
    assert "ansatz" not in lines[0]


# text with no decimal digits cannot parse as a number, so it cannot ask for
# a large (slow) truncation; the numeric cases are drawn separately
_TEXT = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6)


def _int_or_text(lo=None, hi=None):
    number = st.integers(lo, hi).map(str)
    return st.one_of(number, number, _TEXT)  # two thirds numbers


_JSON = st.sampled_from([[], ["--json"]])

_ARGV = st.one_of(
    st.builds(lambda k, terms, order, js: ["delta", "--k", k, "--terms", terms,
                                           "--verify-order", order] + js,
              _int_or_text(), _int_or_text(-3, 6), _int_or_text(-3, 8), _JSON),
    st.builds(lambda name, window, js: ["verify", "algebra", "--name", name,
                                        "--window", window] + js,
              st.one_of(st.sampled_from(sorted(PRESENTATIONS)
                                        + ["virasoro-corrupted-quintic"]),
                        st.integers().map(lambda n: f"virasoro-rescaled-{n}"),
                        _TEXT.map(lambda t: f"virasoro-rescaled-{t}"), _TEXT),
              _int_or_text(-3, 2), _JSON),
    st.builds(lambda space, trunc, dump, js: ["character", "--space", space,
                                              "--trunc", trunc] + dump + js,
              st.sampled_from(["vosa", "ns-fermion"]),
              st.one_of(st.fractions(-3, 4, max_denominator=4).map(str),
                        _int_or_text(hi=4)),
              st.sampled_from([[], ["--dump-basis"]]), _JSON),
    st.builds(lambda trunc, js: ["corollary2", "--trunc", trunc] + js,
              _int_or_text(hi=0), _JSON),
)


@settings(max_examples=300, deadline=None)
@given(_ARGV)
def test_cli_exit_codes_hold_for_any_option_values(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects malformed options
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
