"""Golden gate: the raw rows of every experiment, pinned bit for bit.

``benchmarks/results`` rounds every figure to three decimals; this file
pins the unrounded headers and rows (benchmark rows and summary rows)
of all seven experiments over the whole suite at scale 2, computed with
the artifact store off.  JSON float text is exact, so any change to a
row value, however small, fails here.

Regenerate the golden file (only when a figure is meant to change)::

    PYTHONPATH=src python -m tests.test_experiment_rows
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import runtime
from repro.core.experiments import EXPERIMENTS

GOLDEN = pathlib.Path(__file__).parent / "golden" / "experiment_rows.json"

#: The scale every golden row is computed at.
SCALE = 2


def all_tables() -> dict:
    """``{exp_id: {"headers": [...], "rows": [...]}}``, store off."""
    saved = runtime.runtime_config()
    runtime.configure(enabled=False)
    try:
        tables = {}
        for key, experiment in EXPERIMENTS.items():
            headers, rows = experiment.runner(None, SCALE)
            tables[key] = {
                "headers": list(headers),
                "rows": [list(row) for row in rows],
            }
        return tables
    finally:
        runtime.set_runtime_config(saved)


def render(tables: dict) -> str:
    """The golden file's text: one JSON line per header list and row."""
    parts = []
    for key in sorted(tables):
        rows = ",\n   ".join(json.dumps(row) for row in tables[key]["rows"])
        parts.append(
            f' {json.dumps(key)}: {{\n'
            f'  "headers": {json.dumps(tables[key]["headers"])},\n'
            f'  "rows": [\n   {rows}\n  ]\n }}'
        )
    return "{\n" + ",\n".join(parts) + "\n}\n"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def tables() -> dict:
    return all_tables()


def test_golden_covers_every_experiment(golden):
    assert set(golden) == set(EXPERIMENTS)


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_runner_rows_match_golden(golden, tables, exp_id):
    assert tables[exp_id] == golden[exp_id]


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_parallel_uncached_run_matches_golden(capsys, golden, exp_id):
    """Rows computed in workers with the store off come back exact."""
    from repro.cli import main

    names = ("compress", "go")
    saved = runtime.runtime_config()
    try:
        assert main(
            ["run", exp_id, "--benchmarks", *names, "--scale", str(SCALE),
             "--no-cache", "--jobs", "2", "--json"]
        ) == 0
    finally:
        runtime.set_runtime_config(saved)
    expected = [row for row in golden[exp_id]["rows"] if row[0] in names]
    columns = list(zip(*expected))[1:]
    for label, reducers in EXPERIMENTS[exp_id].summaries:
        expected.append(
            [label] + [reduce(col) for reduce, col in zip(reducers, columns)]
        )
    assert json.loads(capsys.readouterr().out)["rows"] == expected


if __name__ == "__main__":
    GOLDEN.write_text(render(all_tables()))
    print(f"wrote {GOLDEN}")
