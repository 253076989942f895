"""Tests for the task graph and the parallel scheduler."""

import pytest

from repro import runtime
from repro.core.study import clear_caches, study_for
from repro.errors import ConfigurationError, ReproError, SchedulerError
from repro.runtime.metrics import REPORT, reset_metrics
from repro.runtime.scheduler import execute_graph, prewarm
from repro.runtime.tasks import (
    TaskSpec,
    build_study_graph,
    compile_id,
    compress_id,
    fetch_id,
    topological_order,
    trace_id,
)


class TestGraphConstruction:
    def test_nodes_per_benchmark(self):
        graph = build_study_graph(
            ["compress"], scale=2, schemes=("full",),
            fetch_schemes=("compressed",),
        )
        assert set(graph) == {
            compile_id("compress", 2),
            trace_id("compress", 2),
            compress_id("compress", "full", 2),
            fetch_id("compress", "compressed", 2),
        }

    def test_fetch_depends_on_trace_and_its_image(self):
        graph = build_study_graph(
            ["go"], scale=2, fetch_schemes=("compressed",)
        )
        fetch = graph[fetch_id("go", "compressed", 2)]
        assert trace_id("go", 2) in fetch.deps
        # "Compressed" runs on the Full-op Huffman image
        assert compress_id("go", "full", 2) in fetch.deps

    def test_ideal_walks_the_uncompressed_image(self):
        graph = build_study_graph(["go"], scale=2, fetch_schemes=("ideal",))
        fetch = graph[fetch_id("go", "ideal", 2)]
        assert compress_id("go", "base", 2) in fetch.deps

    def test_image_nodes_are_added_implicitly_once(self):
        graph = build_study_graph(
            ["go"], scale=2, schemes=("full",),
            fetch_schemes=("compressed",),
        )
        compress_nodes = [
            t for t in graph.values() if t.stage == "compress"
        ]
        assert len(compress_nodes) == 1  # "full" not duplicated

    def test_benchmarks_are_independent(self):
        graph = build_study_graph(["compress", "go"], scale=2)
        for spec in graph.values():
            for dep in spec.deps:
                assert graph[dep].benchmark == spec.benchmark

    def test_unknown_fetch_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            build_study_graph(["go"], fetch_schemes=("warp",))

    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskSpec("x", "paint", "go")


class TestTopologicalOrder:
    def test_dependencies_come_first(self):
        graph = build_study_graph(
            ["compress", "go"], scale=2, schemes=("full", "byte"),
            fetch_schemes=("compressed", "base"),
        )
        order = topological_order(graph)
        assert sorted(order) == sorted(graph)
        position = {task_id: i for i, task_id in enumerate(order)}
        for spec in graph.values():
            for dep in spec.deps:
                assert position[dep] < position[spec.task_id]

    def test_missing_dependency_rejected(self):
        graph = {"a": TaskSpec("a", "compile", "go", deps=("ghost",))}
        with pytest.raises(ConfigurationError):
            topological_order(graph)

    def test_cycle_rejected(self):
        graph = {
            "a": TaskSpec("a", "compile", "go", deps=("b",)),
            "b": TaskSpec("b", "trace", "go", deps=("a",)),
        }
        with pytest.raises(ConfigurationError):
            topological_order(graph)


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
        assert len(results) == 8  # 2 benchmarks × 4 stages
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
        graph = build_study_graph(["compress"], scale=2)
        with pytest.raises(ConfigurationError):
            execute_graph(graph, jobs=2)

    def test_job_count_beyond_the_graph_is_capped(self, fresh_cache):
        # The pool holds at most one worker per task; sizing it by the
        # requested count overflowed the pool's semaphore.
        graph = build_study_graph(["compress"], scale=2)
        results = execute_graph(graph, jobs=99999999999)
        assert len(results) == len(graph)
        assert all(r.ok for r in results)

    def test_failing_task_raises_with_task_id(self, fresh_cache):
        graph = {
            "bad": TaskSpec("bad", "compile", "no-such-benchmark", 2),
        }
        with pytest.raises(RuntimeError, match="bad"):
            execute_graph(graph, jobs=2)

    def test_failure_skips_dependents(self, fresh_cache):
        graph = {
            "bad": TaskSpec("bad", "compile", "no-such-benchmark", 2),
            "child": TaskSpec(
                "child", "trace", "no-such-benchmark", 2, deps=("bad",)
            ),
        }
        with pytest.raises(RuntimeError):
            execute_graph(graph, jobs=2)


class TestFailureSurfacing:
    """Regression: a worker failure must carry its real traceback home,
    not vanish into a bare 'task failed' message."""

    def test_pool_failure_surfaces_worker_traceback(self, fresh_cache):
        reset_metrics()
        graph = {
            "bad": TaskSpec("bad", "compile", "no-such-benchmark", 2),
        }
        with pytest.raises(SchedulerError) as excinfo:
            execute_graph(graph, jobs=2)
        message = str(excinfo.value)
        # The worker's formatted traceback rides home in the message.
        assert "Traceback" in message
        assert "no-such-benchmark" in message

    def test_pool_failure_recorded_in_runtime_report(self, fresh_cache):
        reset_metrics()
        graph = {
            "bad": TaskSpec("bad", "compile", "no-such-benchmark", 2),
        }
        with pytest.raises(SchedulerError):
            execute_graph(graph, jobs=2)
        assert REPORT.stage("compile").errors == 1
        assert REPORT.total_errors == 1
        failure = REPORT.failures[0]
        assert failure["stage"] == "compile"
        assert failure["task_id"] == "bad"
        assert "Traceback" in failure["error"]
        assert REPORT.to_json()["totals"]["errors"] == 1

    def test_inline_failure_chains_the_original_exception(
        self, fresh_cache
    ):
        reset_metrics()
        graph = {
            "bad": TaskSpec("bad", "compile", "no-such-benchmark", 2),
        }
        with pytest.raises(SchedulerError) as excinfo:
            execute_graph(graph, jobs=1)
        assert isinstance(excinfo.value.__cause__, ConfigurationError)
        assert REPORT.stage("compile").errors == 1
        assert "bad" in str(excinfo.value)

    def test_pool_failure_chains_a_worker_configuration_error(
        self, fresh_cache
    ):
        graph = {
            "bad": TaskSpec("bad", "compile", "no-such-benchmark", 2),
        }
        with pytest.raises(SchedulerError) as excinfo:
            execute_graph(graph, jobs=2)
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
        graph = {
            "bad-1": TaskSpec("bad-1", "compile", "no-such-benchmark", 2),
            "bad-2": TaskSpec("bad-2", "trace", "also-missing", 2),
        }
        with pytest.raises(SchedulerError, match="2 task"):
            execute_graph(graph, jobs=2)
        assert REPORT.total_errors == 2
        assert {f["stage"] for f in REPORT.failures} == {
            "compile", "trace",
        }