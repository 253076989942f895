"""Tests for the task scheduler: a task is a task id plus a picklable
zero-argument call, and its value comes back to the caller."""

import concurrent.futures
import time
from functools import partial

import pytest

from repro import runtime
from repro.cli import _suite_row
from repro.core import study as study_module
from repro.core.experiments import (
    fig5_compression_row,
    fig7_att_row,
    fig10_decoder_row,
    fig14_busflip_row,
    fig14_busflip_rows,
)
from repro.core.study import clear_caches, study_for
from repro.core.sweep import expand_grid
from repro.errors import ConfigurationError, ReproError, SchedulerError
from repro.runtime.metrics import REPORT, reset_metrics
from repro.runtime.scheduler import execute_tasks, map_benchmarks
from repro.runtime.tasks import TaskSpec, benchmark_task_id


def _bad(task_id="bad", benchmark="no-such-benchmark"):
    """A task on an unknown benchmark, which fails."""
    return TaskSpec(task_id, partial(study_for, benchmark, 2))


def _cheap(task_id="cheap"):
    """A task that succeeds without computing an artifact."""
    return TaskSpec(task_id, partial(study_for, "compress", 2))


def _fetch(benchmark, scheme):
    study_for(benchmark, 2).fetch_metrics(scheme)


def _name(benchmark, scale):
    """A study's name: a value computed without any artifact."""
    return study_for(benchmark, scale).name


def _touch(path, seconds=0.0):
    """Sleep ``seconds``, then leave a marker file at ``path``."""
    time.sleep(seconds)
    path.write_text("ran")
    return path.name


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if a process pool is started."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)


@pytest.fixture
def fresh_cache(tmp_path):
    saved = runtime.runtime_config()
    clear_caches()
    runtime.configure(enabled=True, cache_dir=tmp_path / "cache")
    yield
    clear_caches()
    runtime.set_runtime_config(saved)


class TestGraphConstruction:
    def test_one_chain_per_benchmark(self, no_pool):
        results = execute_tasks(
            [
                TaskSpec(benchmark_task_id(name, 2), partial(_name, name, 2))
                for name in ("compress", "go")
            ]
        )
        assert [r.task_id for r in results] == ["compress@2", "go@2"]
        assert [r.value for r in results] == ["compress", "go"]
        assert benchmark_task_id("go") == "go@d"

    def test_fetch_depends_on_trace_and_its_image(self, fresh_cache):
        # The task names only what its caller reads: the study pulls in
        # the trace and the image the fetch simulation runs on.
        execute_tasks([TaskSpec("go@2", partial(_fetch, "go", "compressed"))])
        study = study_for("go", 2)
        assert study._run is not None
        # "Compressed" runs on the Full-op Huffman image
        assert set(study._images) == {"full"}

    def test_ideal_walks_the_uncompressed_image(self, fresh_cache):
        execute_tasks([TaskSpec("go@2", partial(_fetch, "go", "ideal"))])
        assert set(study_for("go", 2)._images) == {"base"}

    def test_trace_only_on_request(self, fresh_cache):
        # A task materializes what its call reads: Figure 10 reads
        # images only, a suite row reads the checksum of the run.
        reset_metrics()
        [row] = map_benchmarks(fig10_decoder_row, ["go"], 2)
        assert row[0] == "go" and len(row) == 5
        assert "trace" not in REPORT.stages
        [row] = map_benchmarks(_suite_row, ["go"], 2)
        assert (row[0], row[4]) == ("go", "ok")
        assert REPORT.stage("trace").misses == 1

    def test_nothing_requested_gives_no_chains(self, no_pool):
        assert execute_tasks([], jobs=2) == []
        assert map_benchmarks(_name, [], jobs=2) == []

    def test_benchmarks_are_independent(self, fresh_cache):
        [row] = map_benchmarks(fig7_att_row, ["go"], 2)
        assert row[0] == "go"
        assert ("go", 2) in study_module._studies
        assert ("compress", 2) not in study_module._studies

    def test_unknown_fetch_scheme_rejected(self, fresh_cache):
        task = TaskSpec("warp", partial(expand_grid, ("warp",)))
        with pytest.raises(SchedulerError) as excinfo:
            execute_tasks([task])
        assert isinstance(excinfo.value.__cause__, ConfigurationError)


class TestExecution:
    def test_inline_execution_warms_the_store(self, fresh_cache):
        [row] = map_benchmarks(fig7_att_row, ["compress"], 2, jobs=1)
        assert row[0] == "compress"
        assert runtime.default_store().stats().entries >= 4

    def test_one_task_runs_inline(self, fresh_cache, no_pool):
        # Nothing overlaps a lone task, so no worker is started for it,
        # and its value comes straight back, cache or no cache.
        (result,) = execute_tasks([_cheap()], jobs=2)
        assert result.ok and result.value is study_for("compress", 2)
        runtime.configure(enabled=False)
        (result,) = execute_tasks(
            [TaskSpec("compress@2", partial(fig7_att_row, "compress", 2))],
            jobs=2,
        )
        assert result.ok and result.task_id == "compress@2"
        assert result.value[0] == "compress"

    def test_parallel_execution_fans_out(self, fresh_cache):
        results = execute_tasks(
            [
                TaskSpec(benchmark_task_id(name, 2),
                         partial(fig7_att_row, name, 2))
                for name in ("compress", "go")
            ],
            jobs=2,
        )
        assert all(r.ok for r in results)
        assert [r.task_id for r in results] == ["compress@2", "go@2"]
        assert [r.value[0] for r in results] == ["compress", "go"]
        # worker metrics were merged into the parent report
        assert runtime.REPORT.total_misses > 0
        # the store the workers shared is a warm cache for later runs
        clear_caches()
        study = study_for("compress", 2)
        study.compressed("full")
        study.fetch_metrics("compressed")
        assert runtime.REPORT.total_misses == 0

    def test_parallel_matches_inline(self, fresh_cache):
        pooled = map_benchmarks(
            fig14_busflip_row, ["compress", "go"], 2, jobs=2
        )
        clear_caches()
        runtime.configure(enabled=False)
        _, rows = fig14_busflip_rows(("compress", "go"), 2)
        assert pooled == rows[:2]

    def test_parallel_without_cache_returns_values(self, fresh_cache):
        runtime.configure(enabled=False)
        pooled = map_benchmarks(fig7_att_row, ["compress", "go"], 2, jobs=2)
        assert pooled == map_benchmarks(fig7_att_row, ["compress", "go"], 2)
        assert runtime.default_store().stats().entries == 0

    def test_job_count_beyond_the_graph_is_capped(self, fresh_cache):
        # The pool holds at most one worker per task; sizing it by the
        # requested count overflowed the pool's semaphore.
        tasks = [_cheap("a"), _cheap("b")]
        results = execute_tasks(tasks, jobs=99999999999)
        assert len(results) == len(tasks)
        assert all(r.ok for r in results)

    def test_fig5_prewarm_records_no_trace_stage(self, fresh_cache):
        # Figure 5 reads compressed images only, so its tasks must not
        # emulate.
        reset_metrics()
        rows = map_benchmarks(
            fig5_compression_row, ["compress", "go"], 2, jobs=2
        )
        assert [row[0] for row in rows] == ["compress", "go"]
        assert REPORT.stage("compress").misses > 0
        assert "trace" not in REPORT.stages

    def test_failing_task_raises_with_task_id(self, fresh_cache):
        with pytest.raises(RuntimeError, match="bad"):
            execute_tasks([_bad(), _cheap()], jobs=2)

    def test_failure_skips_dependents(self, fresh_cache):
        # The first failure stops the tasks after it: the trace task
        # never runs, though it alone would succeed.
        reset_metrics()
        later = TaskSpec("later", partial(_suite_row, "compress", 2))
        with pytest.raises(SchedulerError, match="1 task"):
            execute_tasks([_bad(), later], jobs=1)
        assert [f["task_id"] for f in REPORT.failures] == ["bad"]
        assert "trace" not in REPORT.stages

    def test_pooled_failure_submits_nothing_more(self, fresh_cache, tmp_path):
        # At most one task per worker is in flight, so after ``bad``
        # fails only the task already running (``slow``) finishes.
        slow, c, d = (tmp_path / name for name in ("slow", "c", "d"))
        tasks = [
            _bad(),
            TaskSpec("slow", partial(_touch, slow, 1.0)),
            TaskSpec("c", partial(_touch, c)),
            TaskSpec("d", partial(_touch, d)),
        ]
        with pytest.raises(SchedulerError, match="1 task"):
            execute_tasks(tasks, jobs=2)
        assert slow.exists()
        assert not c.exists() and not d.exists()

    def test_pooled_values_come_back_in_task_order(self, tmp_path):
        # ``first`` finishes last; the results still follow the tasks.
        tasks = [
            TaskSpec("first", partial(_touch, tmp_path / "first", 0.5)),
            TaskSpec("second", partial(_touch, tmp_path / "second")),
            TaskSpec("third", partial(_touch, tmp_path / "third")),
        ]
        results = execute_tasks(tasks, jobs=2)
        assert [r.task_id for r in results] == ["first", "second", "third"]
        assert [r.value for r in results] == ["first", "second", "third"]


class TestFailureSurfacing:
    """Regression: a failure must carry its real traceback home, not
    vanish into a bare 'task failed' message — inline or pooled."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pool_failure_surfaces_worker_traceback(self, fresh_cache, jobs):
        reset_metrics()
        with pytest.raises(SchedulerError) as excinfo:
            execute_tasks([_bad(), _cheap()], jobs=jobs)
        message = str(excinfo.value)
        # The same message either way: count, first task id, traceback.
        assert message.startswith("1 task(s) failed, first: bad\n")
        assert "Traceback" in message
        assert "no-such-benchmark" in message

    def test_pool_failure_recorded_in_runtime_report(self, fresh_cache):
        reset_metrics()
        with pytest.raises(SchedulerError):
            execute_tasks([_bad(), _cheap()], jobs=2)
        assert REPORT.total_errors == 1
        (failure,) = REPORT.failures
        assert set(failure) == {"task_id", "error"}
        assert failure["task_id"] == "bad"
        assert "Traceback" in failure["error"]
        assert REPORT.to_json()["totals"]["errors"] == 1

    def test_inline_failure_chains_the_original_exception(
        self, fresh_cache
    ):
        reset_metrics()
        with pytest.raises(SchedulerError) as excinfo:
            execute_tasks([_bad()], jobs=1)
        assert isinstance(excinfo.value.__cause__, ConfigurationError)
        assert REPORT.total_errors == 1
        assert "bad" in str(excinfo.value)

    def test_pool_failure_chains_a_worker_configuration_error(
        self, fresh_cache
    ):
        with pytest.raises(SchedulerError) as excinfo:
            execute_tasks([_bad(), _cheap()], jobs=2)
        cause = excinfo.value.__cause__
        assert isinstance(cause, ConfigurationError)
        assert "no-such-benchmark" in str(cause)
        assert "Traceback" in str(excinfo.value)

    def test_scheduler_error_is_both_repro_and_runtime_error(self):
        # Callers that predate the dedicated class catch RuntimeError.
        assert issubclass(SchedulerError, ReproError)
        assert issubclass(SchedulerError, RuntimeError)

    def test_worker_failures_merge_across_processes(self, fresh_cache):
        reset_metrics()
        tasks = [_bad("bad-1"), _bad("bad-2", "also-missing")]
        with pytest.raises(SchedulerError, match="2 task"):
            execute_tasks(tasks, jobs=2)
        assert REPORT.total_errors == 2
        assert {f["task_id"] for f in REPORT.failures} == {
            "bad-1", "bad-2",
        }
