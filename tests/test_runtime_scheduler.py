"""Tests for the task scheduler: a task is a task id plus a picklable
zero-argument call."""

from functools import partial

import pytest

import repro.runtime.scheduler as scheduler
from repro import runtime
from repro.cli import _suite_row
from repro.core import study as study_module
from repro.core.experiments import (
    fig5_compression_rows,
    fig7_att_rows,
    fig10_decoder_rows,
    fig14_busflip_rows,
)
from repro.core.study import clear_caches, study_for
from repro.core.sweep import expand_grid
from repro.errors import ConfigurationError, ReproError, SchedulerError
from repro.runtime.metrics import REPORT, reset_metrics
from repro.runtime.scheduler import execute_tasks, prewarm
from repro.runtime.tasks import TaskSpec, benchmark_task_id


def _bad(task_id="bad", benchmark="no-such-benchmark"):
    """A task on an unknown benchmark, which fails."""
    return TaskSpec(task_id, partial(study_for, benchmark, 2))


def _cheap(task_id="cheap"):
    """A task that succeeds without computing an artifact."""
    return TaskSpec(task_id, partial(study_for, "compress", 2))


def _fetch(benchmark, scheme):
    study_for(benchmark, 2).fetch_metrics(scheme)


def _rows(runner, *benchmarks):
    """One task per benchmark calling ``runner`` on it at scale 2."""
    return {name: partial(runner, (name,), 2) for name in benchmarks}


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


@pytest.fixture
def fresh_cache(tmp_path):
    saved = runtime.runtime_config()
    clear_caches()
    runtime.configure(enabled=True, cache_dir=tmp_path / "cache")
    yield
    clear_caches()
    runtime.set_runtime_config(saved)


class TestGraphConstruction:
    def test_one_chain_per_benchmark(self, monkeypatch):
        monkeypatch.setattr(scheduler, "ProcessPoolExecutor", _NoPool)
        results = prewarm(
            {"compress": _cheap().call, "go": _cheap().call}, scale=2
        )
        assert [r.task_id for r in results] == [
            benchmark_task_id("compress", 2),
            benchmark_task_id("go", 2),
        ]
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
        prewarm(_rows(fig10_decoder_rows, "go"), scale=2)
        assert "trace" not in REPORT.stages
        prewarm({"go": partial(_suite_row, "go", 2)}, scale=2)
        assert REPORT.stage("trace").misses == 1

    def test_nothing_requested_gives_no_chains(self, monkeypatch):
        monkeypatch.setattr(scheduler, "ProcessPoolExecutor", _NoPool)
        assert execute_tasks([], jobs=2) == []
        assert prewarm({}, jobs=2) == []

    def test_benchmarks_are_independent(self, fresh_cache):
        prewarm(_rows(fig7_att_rows, "go"), scale=2)
        assert ("go", 2) in study_module._studies
        assert ("compress", 2) not in study_module._studies

    def test_unknown_fetch_scheme_rejected(self, fresh_cache):
        task = TaskSpec("warp", partial(expand_grid, ("warp",)))
        with pytest.raises(SchedulerError) as excinfo:
            execute_tasks([task])
        assert isinstance(excinfo.value.__cause__, ConfigurationError)


class TestExecution:
    def test_inline_execution_warms_the_store(self, fresh_cache):
        results = prewarm(_rows(fig7_att_rows, "compress"), scale=2, jobs=1)
        assert all(r.ok for r in results)
        assert runtime.default_store().stats().entries >= 4

    def test_one_task_runs_inline(self, fresh_cache, monkeypatch):
        # Nothing overlaps a lone task, so no worker is started for it,
        # and it needs no cache to hand its artifacts back.
        monkeypatch.setattr(scheduler, "ProcessPoolExecutor", _NoPool)
        (result,) = execute_tasks([_cheap()], jobs=2)
        assert result.ok
        runtime.configure(enabled=False)
        (result,) = prewarm(
            _rows(fig7_att_rows, "compress"), scale=2, jobs=2
        )
        assert result.ok and result.task_id == "compress@2"

    def test_parallel_execution_fans_out(self, fresh_cache):
        results = prewarm(
            _rows(fig7_att_rows, "compress", "go"), scale=2, jobs=2
        )
        assert all(r.ok for r in results)
        assert [r.task_id for r in results] == ["compress@2", "go@2"]
        # worker metrics were merged into the parent report
        assert runtime.REPORT.total_misses > 0
        # parent can now read everything back without recomputing
        clear_caches()
        study = study_for("compress", 2)
        study.compressed("full")
        study.fetch_metrics("compressed")
        assert runtime.REPORT.total_misses == 0

    def test_parallel_matches_inline(self, fresh_cache, tmp_path):
        results = prewarm(
            _rows(fig14_busflip_rows, "compress", "go"), scale=2, jobs=2
        )
        assert all(r.ok for r in results)
        clear_caches()
        pooled = fig14_busflip_rows(("compress", "go"), 2)
        assert runtime.REPORT.total_misses == 0

        clear_caches()
        runtime.configure(enabled=False)
        assert fig14_busflip_rows(("compress", "go"), 2) == pooled

    def test_parallel_without_cache_is_rejected(self, fresh_cache):
        runtime.configure(enabled=False)
        with pytest.raises(ConfigurationError, match="artifact cache"):
            execute_tasks([_cheap("a"), _cheap("b")], jobs=2)

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
        prewarm(_rows(fig5_compression_rows, "compress", "go"), scale=2,
                jobs=2)
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
