"""Output drift: every report the benchmark digests and the `all --json`
stdout must stay exactly what was recorded.

The benchmark's workloads (`perfbench/workloads.py`) are replayed in this
process at seed 0 and each output's checked and filtered counts and sha256
digest compared with `perfbench/expected.json`.  The digests sort keys, so
`all --json` is also compared byte for byte with `tests/snapshots/all.json`:
that catches a change in key order or layout.  The text of
`character --space vosa --trunc 4 --dump-basis`, whose basis lines are
built from the space's int codes, is compared with its snapshot the same
way.
"""

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from superfock.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text())


@functools.cache
def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_benchmark_outputs_match_expected(name):
    workload = _load_workloads()[name]
    with contextlib.redirect_stdout(io.StringIO()):
        outputs = workload.verify(workload.build(0), 0)
    got = {o.name: {"checked": o.checked, "filtered": o.filtered,
                    "digest": _digest(o.payload)} for o in outputs}
    assert got == EXPECTED[name]
    assert all(o.passed == o.expect_pass for o in outputs)


def test_all_json_matches_snapshot(capsys):
    code = main(["all", "--json"])
    assert code == 0
    assert capsys.readouterr().out == (ROOT / "tests" / "snapshots" / "all.json").read_text()


def test_character_basis_dump_matches_snapshot(capsys):
    code = main(["character", "--space", "vosa", "--trunc", "4", "--dump-basis"])
    assert code == 0
    snapshot = ROOT / "tests" / "snapshots" / "character-vosa-trunc4-basis.txt"
    assert capsys.readouterr().out == snapshot.read_text()
