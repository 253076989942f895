"""Tests of the benchmark itself (not part of the repository's suite).

Run from the repository root::

    python3 -m pytest perfbench -q

Each smoke run uses ``--quick`` (two inputs, one set-up, one round; two
rounds when traced), so the whole file takes well under a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from run import END_TO_END, PER_LAYER, schedule  # noqa: E402


def _run(workload, seed, trace=0):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--quick"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    tagged = dict(line.split(" ", 1) for line in lines
                  if line.startswith(("sequence ", "digest ")))
    return json.loads(lines[-1]), tagged


def test_metric_tables_match_benchmark_json():
    assert END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert PER_LAYER == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_reports_every_metric_and_no_failures(workload, trace):
    result, _ = _run(workload, seed=1, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = PER_LAYER if trace else END_TO_END
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == expected
    if not trace:
        assert result["metrics"]["pass_rate"]["value"] == 1.0


def test_same_seed_same_sequence_and_digest():
    first, tags1 = _run("static-bounds", seed=7)
    second, tags2 = _run("static-bounds", seed=7)
    assert tags1 == tags2
    assert first["attempted"] == second["attempted"]


def test_digest_does_not_depend_on_the_seed():
    _, tags1 = _run("design-sweep", seed=1)
    _, tags2 = _run("design-sweep", seed=2)
    assert tags1["digest"] == tags2["digest"]


def test_other_seed_other_order_same_mix():
    keys = [f"input{i}" for i in range(16)]
    for round_index in range(3):
        a = schedule(keys, 1, round_index)
        b = schedule(keys, 2, round_index)
        assert a != b
        assert sorted(a) == sorted(b) == sorted(keys)
        assert a == schedule(keys, 1, round_index)
