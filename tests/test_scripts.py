"""The scripts under scripts/, each loaded as a module and driven by a
stubbed runner: nothing is benchmarked and no CLI command runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_alternates_sides_and_takes_medians_per_side():
    # a stubbed runner stands in for perfbench: nothing is benchmarked
    bench = _load("bench")
    readings = {"base": iter([3.0, 1.0, 2.0, 9.0]), "head": iter([2.0, 2.5, 0.5, 1.0])}
    calls = []

    def run_side(side):
        calls.append(side)
        setup = next(readings[side])
        metrics = {"w.setup_s": setup, "w.peak_rss_mb": 20.0}
        if side == "head":
            metrics["w.only_head"] = 1.0         # not reported by every run
        return {"correct": side == "base", "attempted": 5,
                "failed": int(side == "head" and setup == 0.5), "metrics": metrics}

    rounds = bench.bench(run_side, 4)
    assert calls == ["base", "head", "head", "base"] * 2
    assert [r["order"] for r in rounds] == [["base", "head"], ["head", "base"]] * 2
    assert [r["base"]["metrics"]["w.setup_s"] for r in rounds] == [3.0, 1.0, 2.0, 9.0]
    summary = bench.summarize(rounds)
    assert summary["median"] == {"base": {"w.peak_rss_mb": 20.0, "w.setup_s": 2.5},
                                 "head": {"w.peak_rss_mb": 20.0, "w.setup_s": 1.5}}
    assert summary["quartiles"] == {
        "base": {"w.peak_rss_mb": [20.0, 20.0], "w.setup_s": [1.5, 6.0]},
        "head": {"w.peak_rss_mb": [20.0, 20.0], "w.setup_s": [0.75, 2.25]}}
    assert bench.quartiles([5.0, 1.0, 3.0]) == [1.0, 5.0]
    assert bench.quartiles([4.0]) == [4.0, 4.0]
    # head lower in rounds 0, 2 and 3; equal readings count for neither side
    assert summary["head_lower"] == {"w.peak_rss_mb": 0, "w.setup_s": 3}
    assert summary["failed"] == {"base": 0, "head": 1}


def _same_outputs(monkeypatch):
    # a stubbed runner stands in for the CLI and nothing is unpacked
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return _load("same_outputs")


def test_same_outputs_compares_every_part_of_each_command(monkeypatch):
    same_outputs = _same_outputs(monkeypatch)
    assert "all --window 0" in same_outputs.COMMANDS
    assert len(set(same_outputs.COMMANDS)) == len(same_outputs.COMMANDS) == 35
    outputs = {"a": (0, b"out", b"", 1.0, 25.0), "b": (1, b"out", b"", 2.0, 40.0),
               "c": (0, b"out", b"warn", 3.0, 60.0), "d": (2, b"", b"error: x", 0.5, 20.0)}
    head = dict(outputs, a=(0, b"out", b"", 0.9, 24.0), b=(0, b"out", b"", 2.0, 40.0),
                c=(0, b"OUT", b"", 3.1, 58.5))
    calls = []

    def run(side, command):
        calls.append((side, command))
        return (outputs if side == "base" else head)[command]

    lines = list(same_outputs.compare(run, ["a", "b", "c", "d"]))
    assert calls == [(side, c) for c in "abcd" for side in ("base", "head")]
    assert lines == [
        "SAME  a  base 1.00 s 25.0 MiB  head 0.90 s 24.0 MiB",
        "DIFF  b  (exit code)  base 2.00 s 40.0 MiB  head 2.00 s 40.0 MiB",
        "DIFF  c  (stdout, stderr)  base 3.00 s 60.0 MiB  head 3.10 s 58.5 MiB",
        "SAME  d  base 0.50 s 20.0 MiB  head 0.50 s 20.0 MiB"]


def test_deep_compares_exit_code_and_stdout_digest(monkeypatch, capsys):
    # the corollary2 depth runs are commands of same_outputs, whose full
    # stdout comparison stands in for a digest of it; each runs twice per
    # side, base first and then head first, and both runs are printed
    same_outputs = _same_outputs(monkeypatch)
    deep = [f"corollary2 --trunc {n} --json" for n in range(7, 13)]
    assert same_outputs.COMMANDS[-6:] == same_outputs.DEPTH == deep
    base = {deep[0]: (0, b"x", b"", 1.0, 25.0), deep[1]: (0, b"y", b"", 2.0, 40.0),
            deep[2]: (0, b"z", b"", 3.0, 60.0)}
    head = {deep[0]: (0, b"x", b"", 0.9, 24.0), deep[1]: (1, b"y", b"", 2.0, 40.0),
            deep[2]: (0, b"x", b"", 3.1, 58.5)}
    lines = [
        f"SAME  {deep[0]}  base 1.00 s 25.0 MiB / 1.00 s 25.0 MiB  "
        "head 0.90 s 24.0 MiB / 0.90 s 24.0 MiB",
        f"DIFF  {deep[1]}  (exit code)  base 2.00 s 40.0 MiB / 2.00 s 40.0 MiB  "
        "head 2.00 s 40.0 MiB / 2.00 s 40.0 MiB",
        f"DIFF  {deep[2]}  (stdout)  base 3.00 s 60.0 MiB / 3.00 s 60.0 MiB  "
        "head 3.10 s 58.5 MiB / 3.10 s 58.5 MiB"]
    # main exits 0 when every command matches and 1 on any DIFF
    calls = []

    def run_cli(tree, command):
        side = "head" if tree == same_outputs.ROOT else "base"
        calls.append((side, command))
        return (head if side == "head" else base)[command]

    monkeypatch.setattr(same_outputs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(same_outputs, "unpack", lambda ref, dest: None)
    monkeypatch.setattr(same_outputs, "run_cli", run_cli)
    monkeypatch.setattr(same_outputs, "COMMANDS", deep[:1])
    assert same_outputs.main(["--base", "REF"]) == 0
    assert capsys.readouterr().out.splitlines() == lines[:1]
    assert calls == [(side, deep[0]) for side in ("base", "head", "head", "base")]
    calls.clear()
    monkeypatch.setattr(same_outputs, "COMMANDS", deep[:3])
    assert same_outputs.main(["--base", "REF"]) == 1
    assert capsys.readouterr().out.splitlines() == lines
    assert calls == [(side, c) for c in deep[:3] for side in ("base", "head", "head", "base")]


def test_depth_runs_that_disagree_on_one_side_differ(monkeypatch):
    # a depth command whose two runs on one side differ is a DIFF
    same_outputs = _same_outputs(monkeypatch)
    deep = same_outputs.DEPTH[0]
    base = iter([(0, b"x", b"", 1.0, 25.0), (0, b"y", b"", 1.2, 25.0)])
    lines = list(same_outputs.compare(
        lambda side, command: next(base) if side == "base" else (0, b"x", b"", 0.9, 24.0),
        [deep]))
    assert lines == [f"DIFF  {deep}  (stdout)  base 1.00 s 25.0 MiB / 1.20 s 25.0 MiB  "
                     "head 0.90 s 24.0 MiB / 0.90 s 24.0 MiB"]


def _json(**payload) -> bytes:
    return json.dumps(payload, indent=2).encode()


def test_same_outputs_prints_the_check_level_diff_of_a_json_command(monkeypatch):
    same_outputs = _same_outputs(monkeypatch)
    kept = {"name": "kept", "pass": True, "checked": 10, "filtered": 2}
    base_all = _json(command="all", suites=[
        {"name": "twisted", "checks": [kept, {"name": "gone", "pass": True, "checked": 3}]},
        {"name": "corollary2", "checks": [{"name": "kept", "pass": True}]}],
        summary={"failed": 0}, **{"pass": True})
    head_all = _json(command="all", suites=[
        {"name": "twisted", "checks": [dict(kept, checked=12, filtered=2, complete=True)]},
        {"name": "corollary2", "checks": [{"name": "kept", "pass": False},
                                          {"name": "new", "pass": True, "value": "1/16"}]}],
        summary={"failed": 1}, **{"pass": False})
    records = [{"name": n, "pass": True} for n in ("a", "b")]
    base_one = _json(command="corollary2", match=True)
    head_one = _json(command="corollary2", match=True, checks=records)
    outputs = {
        "all --json": ((1, base_all, b"", 1.0, 20.0), (1, head_all, b"", 1.0, 20.0)),
        "corollary2 --json": ((0, base_one, b"", 1.0, 20.0), (0, head_one, b"", 1.0, 20.0)),
        # no check-level diff: a text form, a stdout that is not JSON, an
        # exit code alone
        "all": ((0, b"PASS", b"", 1.0, 20.0), (0, b"FAIL", b"", 1.0, 20.0)),
        "verify twisted --json": ((0, b"{", b"", 1.0, 20.0), (0, b"}", b"", 1.0, 20.0)),
        "calibrate n2 --json": ((0, base_one, b"", 1.0, 20.0), (1, base_one, b"", 1.0, 20.0)),
    }
    lines = list(same_outputs.compare(
        lambda side, command: outputs[command][side == "head"], list(outputs)))
    times = "base 1.00 s 20.0 MiB  head 1.00 s 20.0 MiB"
    assert lines == [
        f"DIFF  all --json  (stdout)  {times}",
        "    ~ twisted / kept  checked: 10 -> 12",
        "    ~ twisted / kept  complete: null -> true",
        "    - twisted / gone  PASS checked=3",
        "    ~ corollary2 / kept  pass: true -> false",
        '    + corollary2 / new  PASS value="1/16"',
        "    ~ summary: ... -> ...",
        "    ~ pass: true -> false",
        f"DIFF  corollary2 --json  (stdout)  {times}",
        "    + corollary2 / a  PASS",
        "    + corollary2 / b  PASS",
        f"DIFF  all  (stdout)  {times}",
        f"DIFF  verify twisted --json  (stdout)  {times}",
        f"DIFF  calibrate n2 --json  (exit code)  {times}"]


@pytest.mark.parametrize("script, argv", [("bench", ["--tag", "x"]), ("same_outputs", [])])
def test_an_unknown_base_is_a_configuration_error(monkeypatch, capsys, script, argv):
    # exit 2 with argparse's error line; git runs only `rev-parse`, so the
    # state of the working tree plays no part
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    module = _load(script)
    calls, git = [], module.git

    def recording(*args):
        calls.append(args[0])
        return git(*args)

    monkeypatch.setattr(module, "git", recording)
    with pytest.raises(SystemExit) as exited:
        module.main(["--base", "no-such-ref", *argv])
    assert exited.value.code == 2
    assert calls == ["rev-parse"]
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "error: --base 'no-such-ref' names no commit")
