"""The scripts under scripts/, each loaded as a module and driven by a
stubbed runner: nothing is benchmarked and no CLI command runs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_alternates_sides_and_takes_medians_per_side():
    # a stubbed runner stands in for perfbench: nothing is benchmarked
    bench = _load_bench()
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


def test_same_outputs_compares_every_part_of_each_command(monkeypatch):
    # a stubbed runner stands in for the CLI: nothing is run
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    spec = importlib.util.spec_from_file_location("same_outputs",
                                                  ROOT / "scripts" / "same_outputs.py")
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    outputs = {"a": (0, b"out", b""), "b": (1, b"out", b""), "c": (0, b"out", b"warn"),
               "d": (2, b"", b"error: x")}
    head = dict(outputs, b=(0, b"out", b""), c=(0, b"OUT", b""))
    calls = []

    def run(side, command):
        calls.append((side, command))
        return (outputs if side == "base" else head)[command]

    lines = list(same_outputs.compare(run, ["a", "b", "c", "d"]))
    assert calls == [(side, c) for c in "abcd" for side in ("base", "head")]
    assert lines == ["SAME  a", "DIFF  b  (exit code)", "DIFF  c  (stdout, stderr)",
                     "SAME  d"]
    assert "all --window 0" in same_outputs.COMMANDS
    assert len(set(same_outputs.COMMANDS)) == len(same_outputs.COMMANDS) == 31


def test_deep_compares_exit_code_and_stdout_digest(monkeypatch, capsys):
    # a stubbed runner stands in for the CLI and nothing is unpacked
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    spec = importlib.util.spec_from_file_location("deep", ROOT / "scripts" / "deep.py")
    deep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(deep)
    digest = {7: "a" * 64, 8: "b" * 64, 9: "c" * 64}
    runs = {("base", 7): (0, digest[7], 1.0, 25.0), ("head", 7): (0, digest[7], 0.9, 24.0),
            ("base", 8): (0, digest[8], 2.0, 40.0), ("head", 8): (1, digest[8], 2.0, 40.0),
            ("base", 9): (0, digest[9], 3.0, 60.0), ("head", 9): (0, digest[7], 3.1, 58.5)}
    calls = []

    def run(side, trunc):
        calls.append((side, trunc))
        return runs[side, trunc]

    lines = list(deep.compare(run, [7, 8, 9]))
    assert calls == [(side, n) for n in (7, 8, 9) for side in ("base", "head")]
    assert lines == [
        "SAME  --trunc 7  sha256 aaaaaaaaaaaa  base 1.00 s 25.0 MiB  head 0.90 s 24.0 MiB",
        "DIFF (exit code)  --trunc 8  sha256 bbbbbbbbbbbb  base 2.00 s 40.0 MiB  "
        "head 2.00 s 40.0 MiB",
        "DIFF (stdout)  --trunc 9  sha256 cccccccccccc / aaaaaaaaaaaa  base 3.00 s 60.0 MiB  "
        "head 3.10 s 58.5 MiB"]
    # main exits 1 on any difference and 0 when every N matches
    monkeypatch.setattr(deep, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(deep, "unpack", lambda ref, dest: None)
    monkeypatch.setattr(deep, "run_deep",
                        lambda tree, n: runs["head" if tree == deep.ROOT else "base", n])
    assert deep.main(["REF", "7"]) == 0
    assert deep.main(["REF", "7", "9"]) == 1
    assert capsys.readouterr().out.splitlines() == [lines[0], lines[0], lines[2]]
