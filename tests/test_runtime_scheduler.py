"""Tests for the per-benchmark request chains and the parallel
scheduler."""

import pytest

from repro import runtime
from repro.core.experiments import EXPERIMENTS
from repro.core.study import clear_caches, study_for
from repro.errors import ConfigurationError, ReproError, SchedulerError
from repro.runtime.metrics import REPORT, reset_metrics
from repro.runtime.scheduler import execute_chains, prewarm
from repro.runtime.tasks import Request, TaskSpec, chain_id, study_chains


def _bad(task_id="bad", benchmark="no-such-benchmark", stage="compress"):
    """A one-request chain on an unknown benchmark, which fails."""
    key = "full" if stage == "compress" else None
    return TaskSpec(task_id, benchmark, 2, (Request(stage, key),))


class TestGraphConstruction:
    def test_one_chain_per_benchmark(self):
        chains = study_chains(
            ["compress", "go"], scale=2, schemes=("full",),
            fetch_schemes=("compressed",),
        )
        assert [(c.task_id, c.benchmark) for c in chains] == [
            (chain_id("compress", 2), "compress"),
            (chain_id("go", 2), "go"),
        ]
        for chain in chains:
            # Only what the caller reads: the study pulls in the trace
            # and the images the fetch request runs on.
            assert chain.requests == (
                Request("compress", "full"),
                Request("fetch", "compressed"),
            )

    def test_fetch_depends_on_trace_and_its_image(self, fresh_cache):
        (chain,) = study_chains(
            ["go"], scale=2, fetch_schemes=("compressed",)
        )
        assert [r.stage for r in chain.requests] == ["fetch"]
        execute_chains([chain])
        study = study_for("go", 2)
        assert study._run is not None
        # "Compressed" runs on the Full-op Huffman image
        assert set(study._images) == {"full"}

    def test_ideal_walks_the_uncompressed_image(self, fresh_cache):
        execute_chains(
            study_chains(["go"], scale=2, fetch_schemes=("ideal",))
        )
        assert set(study_for("go", 2)._images) == {"base"}

    def test_trace_only_on_request(self):
        fig5 = EXPERIMENTS["fig5"]
        (chain,) = study_chains(
            ["go"], schemes=fig5.schemes, fetch_schemes=fig5.fetch_schemes
        )
        assert {r.stage for r in chain.requests} == {"compress"}
        (chain,) = study_chains(["go"], trace=True)
        assert chain.requests == (Request("trace"),)

    def test_requests_are_deduplicated(self):
        (chain,) = study_chains(
            ["go"], schemes=("full", "full"),
            fetch_schemes=("hybrid", "hybrid@0.3"),
        )
        assert chain.requests == (
            Request("compress", "full"),
            Request("fetch", "hybrid"),
        )

    def test_nothing_requested_gives_no_chains(self):
        assert study_chains(["compress", "go"], scale=2) == []

    def test_benchmarks_are_independent(self):
        chains = study_chains(
            ["compress", "go"], scale=2, trace=True, schemes=("full",)
        )
        assert [c.benchmark for c in chains] == ["compress", "go"]
        assert len({c.task_id for c in chains}) == len(chains)

    def test_unknown_fetch_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            study_chains(["go"], fetch_schemes=("warp",))

    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigurationError):
            Request("paint")


@pytest.fixture
def fresh_cache(tmp_path):
    saved = runtime.runtime_config()
    clear_caches()
    runtime.configure(enabled=True, cache_dir=tmp_path / "cache")
    yield
    clear_caches()
    runtime.set_runtime_config(saved)


class TestExecution:
    def test_inline_execution_warms_the_store(self, fresh_cache):
        results = prewarm(
            ["compress"], scale=2, schemes=("full",),
            fetch_schemes=("compressed",), jobs=1,
        )
        assert all(r.ok for r in results)
        assert runtime.default_store().stats().entries >= 4

    def test_parallel_execution_fans_out(self, fresh_cache):
        results = prewarm(
            ["compress", "go"], scale=2, schemes=("full",),
            fetch_schemes=("compressed",), jobs=2,
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
            ["compress"], scale=2, schemes=("byte",),
            fetch_schemes=("base",), jobs=2,
        )
        assert all(r.ok for r in results)
        clear_caches()
        via_pool = study_for("compress", 2)
        pool_size = via_pool.compressed("byte").total_code_bytes
        pool_ipc = via_pool.fetch_metrics("base").ipc

        clear_caches()
        runtime.configure(enabled=False)
        direct = study_for("compress", 2)
        assert direct.compressed("byte").total_code_bytes == pool_size
        assert direct.fetch_metrics("base").ipc == pool_ipc

    def test_parallel_without_cache_is_rejected(self, fresh_cache):
        runtime.configure(enabled=False)
        chains = study_chains(["compress"], scale=2, trace=True)
        with pytest.raises(ConfigurationError):
            execute_chains(chains, jobs=2)

    def test_job_count_beyond_the_graph_is_capped(self, fresh_cache):
        # The pool holds at most one worker per task; sizing it by the
        # requested count overflowed the pool's semaphore.
        chains = study_chains(["compress"], scale=2, trace=True)
        results = execute_chains(chains, jobs=99999999999)
        assert len(results) == len(chains)
        assert all(r.ok for r in results)

    def test_fig5_prewarm_records_no_trace_stage(self, fresh_cache):
        # Figure 5 reads compressed images only, so its chains must not
        # emulate.
        fig5 = EXPERIMENTS["fig5"]
        reset_metrics()
        prewarm(
            ["compress", "go"], scale=2, schemes=fig5.schemes,
            fetch_schemes=fig5.fetch_schemes, jobs=2,
        )
        assert REPORT.stage("compress").misses > 0
        assert "trace" not in REPORT.stages

    def test_failing_task_raises_with_task_id(self, fresh_cache):
        with pytest.raises(RuntimeError, match="bad"):
            execute_chains([_bad()], jobs=2)

    def test_failure_skips_dependents(self, fresh_cache):
        # The chain stops at its failing request: the trace request
        # after it never runs, though it alone would succeed.
        reset_metrics()
        chain = TaskSpec(
            "bad", "compress", 2,
            (Request("compress", "no-such-scheme"), Request("trace")),
        )
        with pytest.raises(SchedulerError, match="1 task"):
            execute_chains([chain], jobs=2)
        assert [f["stage"] for f in REPORT.failures] == ["compress"]
        assert "trace" not in REPORT.stages


class TestFailureSurfacing:
    """Regression: a worker failure must carry its real traceback home,
    not vanish into a bare 'task failed' message."""

    def test_pool_failure_surfaces_worker_traceback(self, fresh_cache):
        reset_metrics()
        with pytest.raises(SchedulerError) as excinfo:
            execute_chains([_bad()], jobs=2)
        message = str(excinfo.value)
        # The worker's formatted traceback rides home in the message.
        assert "Traceback" in message
        assert "no-such-benchmark" in message

    def test_pool_failure_recorded_in_runtime_report(self, fresh_cache):
        reset_metrics()
        with pytest.raises(SchedulerError):
            execute_chains([_bad()], jobs=2)
        assert REPORT.stage("compress").errors == 1
        assert REPORT.total_errors == 1
        failure = REPORT.failures[0]
        assert failure["stage"] == "compress"
        assert failure["task_id"] == "bad"
        assert "Traceback" in failure["error"]
        assert REPORT.to_json()["totals"]["errors"] == 1

    def test_inline_failure_chains_the_original_exception(
        self, fresh_cache
    ):
        reset_metrics()
        with pytest.raises(SchedulerError) as excinfo:
            execute_chains([_bad()], jobs=1)
        assert isinstance(excinfo.value.__cause__, ConfigurationError)
        assert REPORT.stage("compress").errors == 1
        assert "bad" in str(excinfo.value)

    def test_pool_failure_chains_a_worker_configuration_error(
        self, fresh_cache
    ):
        with pytest.raises(SchedulerError) as excinfo:
            execute_chains([_bad()], jobs=2)
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
        chains = [
            _bad("bad-1"),
            _bad("bad-2", "also-missing", "trace"),
        ]
        with pytest.raises(SchedulerError, match="2 task"):
            execute_chains(chains, jobs=2)
        assert REPORT.total_errors == 2
        assert {f["stage"] for f in REPORT.failures} == {
            "compress", "trace",
        }