"""The scripts under scripts/, each loaded as a module and driven by a
stubbed runner: nothing is benchmarked and no CLI command runs."""

import importlib.util
from pathlib import Path

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
    # stdout comparison stands in for a digest of it
    same_outputs = _same_outputs(monkeypatch)
    deep = [f"corollary2 --trunc {n} --json" for n in range(7, 13)]
    assert same_outputs.COMMANDS[-6:] == deep
    base = {deep[0]: (0, b"x", b"", 1.0, 25.0), deep[1]: (0, b"y", b"", 2.0, 40.0),
            deep[2]: (0, b"z", b"", 3.0, 60.0)}
    head = {deep[0]: (0, b"x", b"", 0.9, 24.0), deep[1]: (1, b"y", b"", 2.0, 40.0),
            deep[2]: (0, b"x", b"", 3.1, 58.5)}
    lines = [
        f"SAME  {deep[0]}  base 1.00 s 25.0 MiB  head 0.90 s 24.0 MiB",
        f"DIFF  {deep[1]}  (exit code)  base 2.00 s 40.0 MiB  head 2.00 s 40.0 MiB",
        f"DIFF  {deep[2]}  (stdout)  base 3.00 s 60.0 MiB  head 3.10 s 58.5 MiB"]
    # main exits 0 when every command matches and 1 on any DIFF
    monkeypatch.setattr(same_outputs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(same_outputs, "unpack", lambda ref, dest: None)
    monkeypatch.setattr(same_outputs, "run_cli", lambda tree, command: (
        head if tree == same_outputs.ROOT else base)[command])
    monkeypatch.setattr(same_outputs, "COMMANDS", deep[:1])
    assert same_outputs.main(["--base", "REF"]) == 0
    assert capsys.readouterr().out.splitlines() == lines[:1]
    monkeypatch.setattr(same_outputs, "COMMANDS", deep[:3])
    assert same_outputs.main(["--base", "REF"]) == 1
    assert capsys.readouterr().out.splitlines() == lines
