"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.cli
from repro import runtime
from repro.cli import build_parser, main
from repro.core.study import clear_caches


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("fig5", "fig7", "fig10", "fig13", "fig14"):
        assert exp_id in out


def test_run_fig5_single_benchmark(capsys):
    assert main(
        ["run", "fig5", "--benchmarks", "vortex", "--scale", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "vortex" in out
    assert "tailored%" in out


def test_run_fig10(capsys):
    assert main(
        ["run", "fig10", "--benchmarks", "gcc", "--scale", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "byte" in out and "full" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    assert (
        "configuration error: unknown experiment 'fig99'"
        in capsys.readouterr().err
    )


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_unknown_benchmark_exits_two(capsys, jobs):
    assert main(
        ["run", "fig7", "--benchmarks", "nope", "--jobs", jobs]
    ) == 2
    assert (
        "configuration error: unknown benchmark 'nope'"
        in capsys.readouterr().err
    )


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


@pytest.fixture
def fresh_cache(tmp_path):
    saved = runtime.runtime_config()
    clear_caches()
    runtime.configure(enabled=True, cache_dir=tmp_path / "cache")
    yield
    clear_caches()
    runtime.set_runtime_config(saved)


def test_run_json_includes_rows_and_runtime_report(capsys, fresh_cache):
    assert main(
        ["run", "fig5", "--benchmarks", "compress", "--scale", "2",
         "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment"] == "fig5"
    assert payload["headers"][0] == "benchmark"
    assert payload["rows"][0][0] == "compress"
    assert payload["runtime"]["totals"]["misses"] > 0  # cold store


def test_second_run_is_all_cache_hits(capsys, fresh_cache):
    args = ["run", "fig5", "--benchmarks", "compress", "--scale", "2",
            "--json"]
    assert main(args) == 0
    capsys.readouterr()
    clear_caches()
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runtime"]["totals"]["hits"] > 0
    assert payload["runtime"]["totals"]["misses"] == 0


def test_parallel_fig13_simulates_each_organization_once(
    capsys, fresh_cache
):
    """Per benchmark, a worker simulates Ideal, Base, Compressed and
    Tailored and hands its row back; the parent reads nothing back from
    the store."""
    assert main(
        ["run", "fig13", "--jobs", "2", "--benchmarks", "compress", "go",
         "--scale", "2", "--json"]
    ) == 0
    fetch = json.loads(capsys.readouterr().out)["runtime"]["stages"]["fetch"]
    assert (fetch["misses"], fetch["hits"]) == (8, 0)


def test_one_benchmark_with_jobs_runs_inline(
    capsys, fresh_cache, monkeypatch
):
    """A lone benchmark runs in the parent, whatever --jobs says, and
    only once: the row simulates every organization itself, as a
    --jobs 1 run does, and reads nothing back from the store."""
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main(
        ["run", "fig13", "--jobs", "2", "--benchmarks", "compress",
         "--scale", "2", "--json"]
    ) == 0
    fetch = json.loads(capsys.readouterr().out)["runtime"]["stages"]["fetch"]
    assert (fetch["misses"], fetch["hits"]) == (4, 0)


def test_jobs_without_the_cache_is_one_rule(capsys, fresh_cache):
    """``run --no-cache --jobs 2`` runs: the workers hand their rows
    back, so the rows equal those of ``--jobs 1``."""
    args = ["run", "fig5", "--benchmarks", "compress", "go", "--scale", "2",
            "--no-cache", "--json"]
    assert main(args + ["--jobs", "2"]) == 0
    pooled = json.loads(capsys.readouterr().out)
    clear_caches()
    assert main(args + ["--jobs", "1"]) == 0
    inline = json.loads(capsys.readouterr().out)
    assert pooled["rows"] == inline["rows"]
    assert pooled["runtime"]["totals"]["hits"] == 0
    assert runtime.default_store().stats().entries == 0


@pytest.mark.parametrize("jobs, parent_calls", [("1", 2), ("2", 0)])
def test_parallel_run_derives_nothing_in_the_parent(
    capsys, fresh_cache, monkeypatch, jobs, parent_calls
):
    """Under --jobs each worker computes its benchmark's whole row, the
    static bounds included, so the parent never bounds a benchmark."""
    from repro.analysis import cachebound

    calls = []
    bounds = cachebound.cycle_bounds

    def counting(*args, **kwargs):
        calls.append(args)
        return bounds(*args, **kwargs)

    monkeypatch.setattr(cachebound, "cycle_bounds", counting)
    assert main(
        ["run", "static", "--benchmarks", "compress", "go", "--scale", "2",
         "--jobs", jobs, "--json"]
    ) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row[0] for row in rows] == ["compress", "go", "average"]
    assert len(calls) == parent_calls


def test_inline_run_imports_no_process_pool(fresh_cache):
    """A one-benchmark ``run`` computes its row inline, so it never
    imports the pool machinery."""
    argv = ["run", "fig7", "--benchmarks", "compress", "--scale", "2",
            "--no-cache", "--json"]
    script = (
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", script],
        env=_child_env(runtime.runtime_config().cache_dir),
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    assert result["code"] == 0
    assert "concurrent.futures.process" not in result["modules"]
    assert "multiprocessing" not in result["modules"]


def test_warm_study_recomputes_nothing(capsys, fresh_cache):
    args = ["study", "compress", "--scale", "2", "--scheme", "byte",
            "--json"]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    clear_caches()
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["study"] == first["study"]
    # The per-stage metrics prove no stage re-ran: a warm study may hit
    # the store, but it must never take a miss (a miss is a recompute).
    report = second["metrics"]
    assert report["totals"]["hits"] > 0
    for name, stage in report["stages"].items():
        assert stage["misses"] == 0, (name, stage)


def _child_env(store_root) -> dict:
    """Environment for a ``repro`` child process using ``store_root``."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    env["REPRO_CACHE_DIR"] = str(store_root)
    env.pop("REPRO_CACHE", None)
    return env


#: Layers a warm ``repro study`` never runs, so must never import.
_NOT_IMPORTED_BY_WARM_STUDY = (
    "repro.compiler.lower",
    "repro.compiler.regalloc",
    "repro.compiler.treegion",
    "repro.compiler.schedule",
    "repro.compiler.assemble",
    "repro.compiler.liveness",
    "repro.analysis.cachebound",
    "repro.analysis.verifier",
    "repro.analysis.dataflow",
    "repro.check.runner",
    "repro.check.registry",
    "repro.core.experiments",
    "repro.fetch.sweep",
    "repro.fetch.banked_cache",
    "repro.fetch.l0buffer",
    "repro.power",
)

#: Pipeline layers a warm ``run`` child, which reads one row per
#: benchmark, must not load.
_NOT_IMPORTED_BY_WARM_RUN = (
    "repro.isa",
    "repro.compiler",
    "repro.emulator",
    "repro.compression",
    "repro.fetch",
    "repro.analysis",
    "repro.check.registry",
)


def _child_main(argv, report_key):
    """Run ``main(argv)`` in a fresh interpreter against the current
    store; its exit code, runtime report and loaded modules."""
    script = (
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = main({argv!r})\n"
        f"report = json.loads(out.getvalue())[{report_key!r}]\n"
        "print(json.dumps({'code': code, 'report': report,\n"
        "                  'modules': sorted(sys.modules)}))\n"
    )
    env = _child_env(runtime.runtime_config().cache_dir)
    env.pop("REPRO_ANALYZE", None)
    child = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def _loaded(modules, packages):
    return [
        module
        for module in modules
        if any(
            module == name or module.startswith(name + ".")
            for name in packages
        )
    ]


def test_warm_study_imports_only_what_it_runs(capsys, fresh_cache):
    argv = ["study", "compress", "--scheme", "full", "--json"]
    assert main(argv) == 0  # warms the store
    capsys.readouterr()
    result = _child_main(argv, "metrics")
    assert result["code"] == 0
    assert result["report"]["totals"]["misses"] == 0
    assert _loaded(result["modules"], _NOT_IMPORTED_BY_WARM_STUDY) == []


def test_warm_run_reads_one_row_and_loads_no_pipeline_layer(
    capsys, fresh_cache
):
    argv = ["run", "fig7", "--benchmarks", "compress", "--scale", "2",
            "--json"]
    assert main(argv) == 0  # warms the store
    capsys.readouterr()
    result = _child_main(argv, "runtime")
    assert result["code"] == 0
    stages = result["report"]["stages"]
    assert list(stages) == ["row"]
    assert (stages["row"]["hits"], stages["row"]["misses"]) == (1, 0)
    assert _loaded(result["modules"], _NOT_IMPORTED_BY_WARM_RUN) == []


def _stage_counts(payload) -> dict:
    return {
        name: (stage["hits"], stage["misses"])
        for name, stage in payload["runtime"]["stages"].items()
    }


def test_row_keys_keep_experiments_apart(capsys, fresh_cache):
    """Rows are keyed by experiment: after ``run fig5`` a ``run fig7``
    on the same benchmark computes its own row, from the compile and
    compress entries fig5 stored."""
    base = ["--benchmarks", "compress", "--scale", "2", "--json"]
    assert main(["run", "fig5"] + base) == 0
    capsys.readouterr()
    clear_caches()
    assert main(["run", "fig7"] + base) == 0
    counts = _stage_counts(json.loads(capsys.readouterr().out))
    assert counts["row"] == (0, 1)
    assert counts["compile"] == (1, 0)
    assert counts["compress"][0] >= 1 and counts["compress"][1] == 0


def test_parallel_rows_are_stored_by_their_workers(capsys, fresh_cache):
    """A cold ``--jobs 2`` run stores one row per benchmark from the
    workers; the same run again reads those rows and nothing else."""
    argv = ["run", "fig13", "--benchmarks", "compress", "go", "--scale",
            "2", "--jobs", "2", "--json"]
    assert main(argv) == 0
    cold = json.loads(capsys.readouterr().out)
    assert _stage_counts(cold)["row"] == (0, 2)
    clear_caches()
    assert main(argv) == 0
    warm = json.loads(capsys.readouterr().out)
    assert _stage_counts(warm) == {"row": (2, 0)}
    assert warm["rows"] == cold["rows"]


@pytest.fixture
def no_pool(monkeypatch):
    """Any process pool started raises."""
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


_FIG13_PAIR = ["run", "fig13", "--benchmarks", "compress", "go", "--scale",
               "2", "--json"]


def test_warm_parallel_run_starts_no_pool(capsys, fresh_cache, no_pool):
    """The runner looks every row up in the parent, so a warm ``--jobs
    2`` run makes no task and starts no pool."""
    assert main(_FIG13_PAIR + ["--jobs", "1"]) == 0
    inline = json.loads(capsys.readouterr().out)
    clear_caches()
    assert main(_FIG13_PAIR + ["--jobs", "2"]) == 0
    warm = json.loads(capsys.readouterr().out)
    assert _stage_counts(warm) == {"row": (2, 0)}
    assert warm["rows"] == inline["rows"]


def test_partly_warm_parallel_run_computes_only_the_miss(
    capsys, fresh_cache, no_pool
):
    """One stored row and one missing: the miss is the only task, and
    a lone task runs inline."""
    assert main(
        ["run", "fig13", "--benchmarks", "compress", "--scale", "2"]
    ) == 0
    capsys.readouterr()
    clear_caches()
    assert main(_FIG13_PAIR + ["--jobs", "2"]) == 0
    counts = _stage_counts(json.loads(capsys.readouterr().out))
    assert counts["row"] == (1, 1)


def test_row_analysis_is_a_recorded_stage(capsys, fresh_cache):
    """The row's own analysis (static heat, Spearman, cycle bounds) is
    charged to ``row``, and stage seconds stay exclusive."""
    started = time.perf_counter()
    assert main(
        ["run", "static", "--benchmarks", "compress", "--scale", "2",
         "--no-cache", "--json"]
    ) == 0
    wall = time.perf_counter() - started
    stages = json.loads(capsys.readouterr().out)["runtime"]["stages"]
    assert stages["row"]["seconds"] > 0
    assert sum(stage["seconds"] for stage in stages.values()) <= wall


def test_cold_static_run_derives_each_heat_profile_once(
    capsys, fresh_cache, monkeypatch
):
    """The hybrid compress stages, the sweep, the Spearman column and
    the cycle bounds of a benchmark read one trace count and one static
    estimate, both held by its study."""
    import functools

    from repro.analysis import freq
    from repro.compression import adaptive
    from repro.fetch.sweep import TraceReplay

    estimated, counted = [], []
    estimate = freq.static_heat_profile
    recount = adaptive.heat_profile
    count = TraceReplay.counts.func

    def counting_estimate(image, *graph):
        estimated.append(image.name)
        return estimate(image, *graph)

    def counting_recount(trace, num_blocks):
        counted.append(len(trace))
        return recount(trace, num_blocks)

    def counting_count(replay):
        counted.append(len(replay.trace))
        return count(replay)

    counts = functools.cached_property(counting_count)
    counts.__set_name__(TraceReplay, "counts")
    monkeypatch.setattr(freq, "static_heat_profile", counting_estimate)
    monkeypatch.setattr(adaptive, "heat_profile", counting_recount)
    monkeypatch.setattr(TraceReplay, "counts", counts)
    assert main(
        ["run", "static", "--benchmarks", "compress", "go", "--scale", "2",
         "--no-cache"]
    ) == 0
    assert len(estimated) == len(set(estimated)) == 2
    assert len(counted) == len(set(counted)) == 2


def test_cold_static_run_builds_one_graph_per_study(
    capsys, fresh_cache, graph_builds
):
    """The static heat and the cycle bounds of a benchmark derive their
    graph facts on its study's one :class:`ImageGraph`."""
    assert main(
        ["run", "static", "--benchmarks", "compress", "go", "--scale", "2",
         "--no-cache"]
    ) == 0
    assert graph_builds == ["compress", "go"]


def test_sigterm_drains_a_cold_parallel_run(tmp_path):
    from repro.check.faults import _store_audit

    store_root = tmp_path / "cache"
    env = _child_env(store_root)
    stderr_path = tmp_path / "stderr.txt"
    with open(stderr_path, "w") as stderr:
        # Own session: a broken drain cannot leave orphaned workers.
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "fig13", "--jobs", "2"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            start_new_session=True,
        )
    try:
        # Signal once the first artifact lands, so the run is under way
        # (about 1 s in; a cold fig13 takes a few seconds).
        deadline = time.monotonic() + 60.0
        while not any(store_root.glob("objects/*/*.pkl")):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.5)
        child.send_signal(signal.SIGTERM)
        child.wait(timeout=120)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    err = stderr_path.read_text()
    assert child.returncode == 130, err
    assert (
        "interrupted: drained in-flight tasks, cache left consistent"
        in err
    )
    audit = _store_audit(store_root)
    assert audit
    assert {status for _, status in audit} <= {"ok", "miss"}


def test_run_no_cache_bypasses_the_store(capsys, fresh_cache):
    assert main(
        ["run", "fig5", "--benchmarks", "compress", "--scale", "2",
         "--no-cache", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runtime"]["totals"]["hits"] == 0
    assert runtime.default_store().stats().entries == 0


def test_run_rows_identical_with_and_without_cache(capsys, fresh_cache):
    args = ["run", "fig5", "--benchmarks", "compress", "--scale", "2",
            "--json"]
    assert main(args + ["--no-cache"]) == 0
    direct = json.loads(capsys.readouterr().out)["rows"]
    clear_caches()
    runtime.configure(enabled=True)
    assert main(args) == 0  # cold
    cold = json.loads(capsys.readouterr().out)["rows"]
    clear_caches()
    assert main(args) == 0  # warm
    warm = json.loads(capsys.readouterr().out)["rows"]
    assert direct == cold == warm


def test_suite_json_reports_failures_and_exits_nonzero(
    capsys, monkeypatch, fresh_cache
):
    from repro.core.study import ProgramStudy

    monkeypatch.setattr(
        ProgramStudy, "verify_checksum", lambda self: self.name != "go"
    )
    assert main(["suite", "--scale", "2", "--json"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["failures"] == ["go"]
    assert "go" in captured.err and "MISMATCH" in captured.err


def test_suite_names_failing_benchmark_on_stderr(
    capsys, monkeypatch, fresh_cache
):
    from repro.core.study import ProgramStudy

    monkeypatch.setattr(
        ProgramStudy, "verify_checksum", lambda self: self.name != "perl"
    )
    assert main(["suite", "--scale", "2"]) == 1
    err = capsys.readouterr().err
    assert "perl" in err


def test_suite_ok_exits_zero(capsys, fresh_cache):
    assert main(["suite", "--scale", "2"]) == 0
    out = capsys.readouterr().out
    assert "Benchmark suite" in out
    assert "Runtime report" in out


def test_cache_stats_and_clear(capsys, fresh_cache):
    assert main(
        ["run", "fig5", "--benchmarks", "compress", "--scale", "2",
         "--json"]
    ) == 0
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "Artifact cache" in out and "entries" in out
    assert main(["cache", "clear"]) == 0
    assert "dropped" in capsys.readouterr().out
    assert runtime.default_store().stats().entries == 0


def test_run_with_jobs_prewarms_in_parallel(capsys, fresh_cache, tmp_path):
    """On a cold store, ``--jobs 2`` computes exactly what ``--jobs 1``
    does, in the workers, and reads nothing back."""
    args = ["run", "fig10", "--benchmarks", "compress", "go", "--scale",
            "2", "--json"]
    assert main(args + ["--jobs", "2"]) == 0
    pooled = json.loads(capsys.readouterr().out)
    assert pooled["rows"][0][0] == "compress"
    clear_caches()
    runtime.configure(cache_dir=tmp_path / "cold")
    assert main(args + ["--jobs", "1"]) == 0
    inline = json.loads(capsys.readouterr().out)
    assert pooled["rows"] == inline["rows"]
    assert pooled["runtime"]["totals"]["hits"] == 0
    assert (
        pooled["runtime"]["totals"]["misses"]
        == inline["runtime"]["totals"]["misses"]
        > 0
    )


class TestInvocationValidation:
    """Bad flags and malformed REPRO_* values fail fast with exit 2."""

    def test_jobs_zero_rejected(self, capsys):
        assert main(["run", "fig5", "--jobs", "0"]) == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and "0" in err

    def test_jobs_negative_rejected(self, capsys):
        assert main(["suite", "--jobs", "-3"]) == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["study", "compress"],
            ["run", "fig7", "--benchmarks", "compress"],
            ["sweep", "compress", "--scheme", "base"],
            ["check", "--quick"],
        ],
        ids=["study", "run", "sweep", "check"],
    )
    def test_non_positive_scale_rejected(self, capsys, argv, scale):
        assert main(argv + ["--scale", scale]) == 2
        assert (
            f"configuration error: --scale must be a positive integer, "
            f"got {scale}" in capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["study", "compress"],
            ["run", "fig7", "--benchmarks", "compress"],
            ["sweep", "compress", "--scheme", "base"],
            ["suite"],
            ["analyze", "--program", "compress"],
            ["check", "--quick", "--benchmarks", "compress"],
            ["run", "fig7", "--benchmarks", "compress", "--jobs", "2"],
            ["suite", "--jobs", "2"],
            ["sweep", "compress", "--jobs", "2"],
        ],
        ids=["study", "run", "sweep", "suite", "analyze", "check",
             "run-jobs2", "suite-jobs2", "sweep-jobs2"],
    )
    def test_oversized_scale_rejected(self, capsys, argv):
        assert main(argv + ["--scale", "100000"]) == 2
        err = capsys.readouterr().err
        assert (
            "configuration error: benchmark 'compress' cannot be built at "
            "scale 100000" in err
        )
        assert "Traceback" not in err

    def test_emulation_budget_overrun_is_a_configuration_error(
        self, capsys, monkeypatch, fresh_cache
    ):
        from repro.core import study as study_module
        from repro.emulator.machine import emulate

        monkeypatch.setattr(
            study_module, "emulate",
            lambda image, globals_data: emulate(
                image, globals_data, max_mops=100
            ),
        )
        assert main(["study", "compress", "--scale", "2"]) == 2
        err = capsys.readouterr().err
        assert (
            "configuration error: benchmark 'compress' cannot be emulated "
            "at scale 2: program exceeded 100 dynamic MultiOps" in err
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig7", "--benchmarks", "compress", "nope"],
            ["study", "nope"],
            ["sweep", "nope"],
            ["check", "--benchmarks", "nope"],
            ["analyze", "--program", "nope"],
            ["analyze", "--program", "nope", "--bounds"],
        ],
        ids=["run", "study", "sweep", "check", "analyze", "bounds"],
    )
    def test_unknown_benchmark_rejected_in_one_wording(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "configuration error: unknown benchmark 'nope'\n"
        )

    def test_huge_job_count_runs(self, capsys):
        assert main(
            ["run", "fig7", "--benchmarks", "compress", "--scale", "2",
             "--jobs", "99999999999"]
        ) == 0
        assert "compress" in capsys.readouterr().out

    def test_huge_repro_jobs_runs(self, tmp_path):
        # A child process: the environment is read once per process.
        env = _child_env(tmp_path / "cache")
        env["REPRO_JOBS"] = "99999999999"
        child = subprocess.run(
            [sys.executable, "-m", "repro", "run", "fig7",
             "--benchmarks", "compress", "--scale", "2"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert "compress" in child.stdout

    def test_malformed_repro_jobs_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "banana")
        assert main(["list"]) == 2
        assert "REPRO_JOBS" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["list", "study"])
    def test_malformed_study_cache_cap_rejected(self, tmp_path, command):
        # A child process: the study cache reads it once per process.
        env = _child_env(tmp_path / "cache")
        env["REPRO_STUDY_CACHE_CAP"] = "abc"
        argv = [command] + (
            ["compress", "--scale", "2"] if command == "study" else []
        )
        child = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 2, child.stderr
        assert "REPRO_STUDY_CACHE_CAP" in child.stderr
        assert "Traceback" not in child.stderr

    def test_malformed_repro_cache_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "maybe")
        assert main(["list"]) == 2
        assert "REPRO_CACHE" in capsys.readouterr().err

    def test_negative_repro_cache_max_bytes_rejected(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "-5")
        assert main(["list"]) == 2
        assert "REPRO_CACHE_MAX_BYTES" in capsys.readouterr().err

    def test_library_path_warns_once_and_defaults(self, monkeypatch):
        import warnings

        from repro.runtime.config import config_from_env, integer_setting

        config = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config = config_from_env({"REPRO_JOBS": "many"})
            cap = integer_setting(
                "REPRO_STUDY_CACHE_CAP", {"REPRO_STUDY_CACHE_CAP": "0"}
            )
        assert config.jobs == 1
        assert cap == 16
        assert any(
            "REPRO_JOBS" in str(w.message) for w in caught
        )
        assert integer_setting(
            "REPRO_STUDY_CACHE_CAP", {"REPRO_STUDY_CACHE_CAP": "64"}
        ) == 64


class TestCheckCommand:
    def test_check_quick_passes_and_reports(self, capsys):
        assert main(
            ["check", "--quick", "--benchmarks", "compress",
             "--scale", "2", "--seed", "1999"]
        ) == 0
        captured = capsys.readouterr()
        assert "Invariant report" in captured.out
        assert "huffman-roundtrip" in captured.out
        assert "store-race" in captured.out
        assert "invariant(s) hold" in captured.out

    def test_check_json_payload(self, capsys):
        assert main(
            ["check", "--quick", "--benchmarks", "compress",
             "--scale", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["mode"] == "quick"
        names = [i["name"] for i in payload["invariants"]]
        assert "fetch-conservation" in names
        assert "store-bitflip" in names

    def test_check_seeded_violation_exits_nonzero_naming_it(
        self, capsys
    ):
        assert main(
            ["check", "--quick", "--benchmarks", "compress",
             "--scale", "2", "--inject", "conservation"]
        ) == 1
        captured = capsys.readouterr()
        assert "fetch-conservation" in captured.err
        assert "FAIL" in captured.out

    def test_check_inject_roundtrip(self, capsys):
        assert main(
            ["check", "--quick", "--benchmarks", "compress",
             "--scale", "2", "--inject", "roundtrip"]
        ) == 1
        assert "huffman-roundtrip" in capsys.readouterr().err

    def test_check_unknown_benchmark_exits_two(self, capsys):
        assert main(["check", "--benchmarks", "warp-drive"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_check_quick_and_full_are_exclusive(self):
        with pytest.raises(SystemExit):
            main(["check", "--quick", "--full"])


class TestAnalyzeCommand:
    def test_analyze_clean_program_exits_zero(self, capsys):
        assert main(
            ["analyze", "--program", "compress", "--scale", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Static analysis (compress)" in out
        assert "0 error(s), 0 warning(s)" in out
        assert "branch-target" in out

    def test_analyze_json_payload(self, capsys):
        assert main(
            ["analyze", "--program", "compress", "--scale", "2",
             "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert payload["programs"] == ["compress"]
        assert payload["checked"]["branch-target"] > 0
        assert payload["diagnostics"] == []

    def test_analyze_injected_violation_exits_one(self, capsys):
        assert main(
            ["analyze", "--program", "compress", "--scale", "2",
             "--inject", "bad-branch"]
        ) == 1
        captured = capsys.readouterr()
        assert "branch-target" in captured.out
        assert "error" in captured.err

    def test_analyze_fail_on_warning_tightens_the_gate(self, capsys):
        # The injected image only has an error, which trips both
        # thresholds; a clean image trips neither.
        assert main(
            ["analyze", "--program", "compress", "--scale", "2",
             "--fail-on", "warning"]
        ) == 0

    def test_analyze_unknown_program_exits_two(self, capsys):
        assert main(["analyze", "--program", "warp-drive"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_analyze_program_and_all_are_exclusive(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--program", "compress", "--all"])

    def test_analyze_json_is_deterministic_and_sorted(self, capsys):
        args = ["analyze", "--program", "compress", "--scale", "2",
                "--inject", "bad-branch", "--json"]
        assert main(args) == 1
        first = capsys.readouterr().out
        assert main(args) == 1
        second = capsys.readouterr().out
        assert first == second
        diags = json.loads(first)["diagnostics"]
        assert diags
        rank = {"error": 0, "warning": 1, "info": 2}
        keys = [
            (rank[d["severity"]], d["program"], d["rule"],
             d["block_id"] if d["block_id"] is not None else -1,
             d["op_index"] if d["op_index"] is not None else -1,
             d["scheme"] or "", d["block"] or "", d["message"],
             d["hint"] or "")
            for d in diags
        ]
        assert keys == sorted(keys)

    def test_analyze_bounds_table(self, capsys):
        assert main(
            ["analyze", "--program", "compress", "--scale", "2",
             "--bounds"]
        ) == 0
        out = capsys.readouterr().out
        assert "Static fetch-cycle bounds vs simulator" in out
        assert "hybrid:static" in out

    def test_analyze_bounds_json_brackets(self, capsys):
        assert main(
            ["analyze", "--program", "compress", "--scale", "2",
             "--bounds", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["bounds"]
        for entry in payload["bounds"]:
            assert entry["bracketed"] is True
            assert (
                entry["lower_cycles"]
                <= entry["simulated_cycles"]
                <= entry["upper_cycles"]
            )

    def test_analyze_bounds_rejects_inject(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["analyze", "--program", "compress", "--bounds",
                 "--inject", "bad-branch"]
            )
        assert excinfo.value.code == 2
        assert "--bounds" in capsys.readouterr().err

    def test_analyze_rejects_malformed_gate_env(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ANALYZE", "maybe")
        assert main(
            ["analyze", "--program", "compress", "--scale", "2"]
        ) == 2
        assert "REPRO_ANALYZE" in capsys.readouterr().err


class TestSweepCommand:
    ARGS = [
        "sweep", "compress", "--scale", "2",
        "--scheme", "base", "--scheme", "compressed",
        "--cache", "512:2:16", "--cache", "1024:2:32",
        "--l0", "8", "--l0", "32",
    ]

    def test_sweep_table_output(self, capsys, fresh_cache):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Sweep (compress@2, 6 configs)" in out
        assert "base" in out and "compressed" in out
        assert "512:2:16" in out and "1024:2:32" in out

    def test_sweep_json_payload_shape(self, capsys, fresh_cache):
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        sweep = payload["sweep"]
        # 2 caches × (base + compressed×2 L0) = 6 config points.
        assert sweep["benchmark"] == "compress"
        assert sweep["scale"] == 2
        assert sweep["configs"] == 6
        assert len(sweep["results"]) == 6
        entry = sweep["results"][0]
        assert entry["config"]["scheme"] == "base"
        assert entry["metrics"]["cycles"] > 0
        assert entry["ipc"] > 0
        assert payload["metrics"]["totals"]["misses"] > 0  # cold store

    def test_sweep_results_warm_the_store(self, capsys, fresh_cache):
        assert main(self.ARGS + ["--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        clear_caches()
        assert main(self.ARGS + ["--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["sweep"] == cold["sweep"]
        assert warm["metrics"]["totals"]["misses"] == 0

    def test_sweep_malformed_cache_flag_exits_two(self, capsys):
        assert main(
            ["sweep", "compress", "--cache", "512:2"]
        ) == 2
        assert "--cache expects N:N:N" in capsys.readouterr().err

    def test_sweep_invalid_geometry_exits_two(self, capsys):
        for cache in ("600:2:32", "0:1:32", "1024:2:0", "1024:0:32"):
            assert main(["sweep", "compress", "--cache", cache]) == 2
            assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--atb", "100:3"],  # entries not divisible by ways
            ["--atb", "96:4"],  # 24 sets: not a power of two
            ["--atb-miss-penalty", "-3"],
            ["--predictor", "gshare", "--gshare-bits", "30"],
            ["--predictor", "gshare", "--gshare-bits", "0"],
            ["--bus", "0"],
            ["--l0", "0"],
        ],
    )
    def test_sweep_invalid_fetch_config_exits_two(self, capsys, flags):
        assert main(
            ["sweep", "compress", "--scale", "2",
             "--scheme", "compressed", *flags]
        ) == 2
        assert "configuration error:" in capsys.readouterr().err

    def test_sweep_unknown_benchmark_exits_two(self, capsys):
        assert main(["sweep", "warp-drive", "--scale", "2"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1.5", "-0.2"])
    def test_sweep_out_of_range_hotness_exits_two(self, capsys, value):
        assert main(
            ["sweep", "compress", "--scale", "2",
             "--scheme", "hybrid", "--hotness", value]
        ) == 2
        assert (
            f"configuration error: hybrid hotness threshold must be in "
            f"[0, 1], got {value}" in capsys.readouterr().err
        )

    def test_sweep_zero_hotness_matches_hybrid_at_zero(
        self, capsys, fresh_cache
    ):
        base = ["sweep", "compress", "--scale", "2", "--json"]
        assert main(base + ["--scheme", "hybrid", "--hotness", "0"]) == 0
        axis = json.loads(capsys.readouterr().out)["sweep"]["results"]
        assert main(base + ["--scheme", "hybrid@0"]) == 0
        key = json.loads(capsys.readouterr().out)["sweep"]["results"]
        assert [e["config"]["scheme"] for e in axis] == ["hybrid@0"]
        assert axis == key

    def test_sweep_scheme_typo_suggests_fix(self, capsys):
        assert main(
            ["sweep", "compress", "--scale", "2",
             "--scheme", "hybird@0.3"]
        ) == 2
        assert "did you mean 'hybrid@0.3'?" in capsys.readouterr().err

    def test_sweep_hotness_source_axis(self, capsys, fresh_cache):
        assert main(
            ["sweep", "compress", "--scale", "2",
             "--scheme", "hybrid", "--hotness", "0.5",
             "--hotness-source", "trace", "--hotness-source", "static",
             "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        schemes = {
            entry["config"]["scheme"]
            for entry in payload["sweep"]["results"]
        }
        assert schemes == {"hybrid@0.5", "hybrid@0.5:static"}


#: A cheap valid invocation of each subcommand with numeric or
#: geometry options; the fuzz cases append one such option to it.
_FUZZ_BASE = {
    "run": ["run", "fig7", "--benchmarks", "compress", "--scale", "2"],
    "suite": ["suite", "--scale", "2"],
    "check": ["check", "--quick", "--benchmarks", "compress",
              "--scale", "2", "--scope", "att"],
    "analyze": ["analyze", "--program", "compress", "--scale", "2"],
    "study": ["study", "compress", "--scale", "2"],
    "sweep": ["sweep", "compress", "--scale", "2", "--scheme", "hybrid",
              "--predictor", "gshare"],
}


def _fuzz_cases():
    """Each ``int``/``float``/geometry option of every subcommand, read
    off the parser itself, with 0, -1, a huge and a malformed value."""
    (subcommands,) = [
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    for name, parser in subcommands.items():
        for action in parser._actions:
            if action.type in (int, float):
                arity = 1
            elif action.metavar and ":" in action.metavar:
                arity = action.metavar.count(":") + 1
            else:
                continue
            flag = action.option_strings[-1]
            for value in ("0", "-1", "99999999999", "x"):
                option = f"{flag}={':'.join([value] * arity)}"
                yield pytest.param(name, option, id=f"{name}{option}")
    # A valid-looking geometry with a single set: the two-bank layout
    # needs one set per bank.
    yield pytest.param("sweep", "--cache=64:2:32", id="sweep--cache=64:2:32")

@pytest.mark.parametrize("command,option", list(_fuzz_cases()))
def test_numeric_and_geometry_options_never_crash(capsys, command, option):
    try:
        code = main(_FUZZ_BASE[command] + [option])
    except SystemExit as exc:  # an argparse usage error
        assert exc.code == 2
        assert f"repro {command}: error:" in capsys.readouterr().err
        return
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code in (0, 2), err
    if code == 2:
        lines = err.splitlines()
        named = [line for line in lines if line.startswith(
            "configuration error:"
        )]
        assert named == lines[-1:], err


def _documented_invocations():
    """Every ``python -m repro ...`` example in the CLI docstring and
    the README, continuation lines joined and comments dropped."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = (repro.cli.__doc__ + readme.read_text()).replace("\\\n", " ")
    for line in text.splitlines():
        match = re.match(r"\s*(?:\w+=\S+\s+)*python -m repro (.*)", line)
        if match and "..." not in match.group(1):  # README elisions
            yield match.group(1).split("#")[0]


def test_documented_examples_parse():
    examples = list(_documented_invocations())
    assert len(examples) > 30
    parser = build_parser()
    rejected = []
    for example in examples:
        try:
            parser.parse_args(shlex.split(example))
        except SystemExit:
            rejected.append(example)
    assert rejected == []
