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
