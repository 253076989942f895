"""Per-program studies: compile once, emulate once, reuse everywhere.

A :class:`ProgramStudy` owns the expensive artifacts of one benchmark at
one scale — the compiled image, the emulator's block trace, the
compressed images per scheme, and fetch-simulation results — and
memoizes them.  The module-level :func:`study_for` cache shares studies
across experiments within one process (all of Figures 5–14 reuse the
same trace, exactly like the paper's single trace-collection run).

Every stage additionally routes through
:func:`repro.runtime.get_or_compute`, the persistent content-addressed
artifact cache: with the cache enabled (the default), a second process —
or a second ``pytest``/CLI invocation — reloads compiled images, traces,
compressed images and fetch metrics from disk instead of recomputing
them, and the scheduler's worker processes hand artifacts back to their
parent the same way.  ``REPRO_CACHE=0`` (or ``--no-cache``) restores the
direct path, byte-identical by construction: the cache stores exactly
what the compute closures return.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro import runtime
from repro.compiler.pipeline import CompiledProgram
from repro.compression.alphabets import SIX_STREAM_CONFIGS
from repro.compression.registry import (
    hybrid_profile_source,
    normalize_scheme_key,
    parse_hybrid_key,
    scheme_factory as _scheme_factory,  # noqa: F401 - re-exported name
)
from repro.compression.schemes import (
    BlockWords,
    CompressedImage,
    block_words,
)
from repro.emulator.machine import RunResult, emulate
from repro.errors import ConfigurationError, MopBudgetError
from repro.fetch.config import (
    FetchConfig,
    fetch_image_key,
    normalize_fetch_scheme,
)
from repro.fetch.engine import FetchMetrics, ideal_metrics, simulate_fetch
from repro.programs.suite import SUITE, compile_benchmark, effective_scale
from repro.runtime.config import gate_enabled, integer_setting

if TYPE_CHECKING:
    from repro.fetch.sweep import TraceReplay

#: Scheme presentation order in reports (mirrors Figure 5's legend).
SCHEME_ORDER = ("byte", "stream", "stream_1", "full", "tailored")


@dataclass
class ProgramStudy:
    """All artifacts for one (benchmark, scale) pair."""

    name: str
    scale: Optional[int] = None
    _compiled: Optional[CompiledProgram] = None
    _run: Optional[RunResult] = None
    _words: Optional[BlockWords] = None
    _images: dict = field(default_factory=dict)
    _fetch: dict = field(default_factory=dict)
    _replay: Optional["TraceReplay"] = None

    # -------------------------------------------------------- artifacts
    @property
    def effective_scale(self) -> int:
        """The scale actually compiled (``None`` → the suite default).

        Cache digests key on this, so ``study_for("go")`` and
        ``study_for("go", 3)`` share artifacts.
        """
        return effective_scale(self.name, self.scale)

    def _stage(self, stage: str, compute, **key):
        return runtime.get_or_compute(
            stage,
            compute,
            benchmark=self.name,
            scale=self.effective_scale,
            **key,
        )

    @property
    def compiled(self) -> CompiledProgram:
        if self._compiled is None:
            self._compiled = self._stage(
                "compile",
                lambda: compile_benchmark(self.name, self.scale),
            )
            # Opt-in post-compile gate (REPRO_ANALYZE=1): statically
            # verify the image before anything downstream consumes it.
            # Raises AnalysisError on error-severity findings; a cache
            # hit is re-verified too — corruption at rest is exactly
            # what the gate is for.
            if gate_enabled():
                from repro.analysis.verifier import enforce_image

                enforce_image(
                    self._compiled.image, program=self.name
                )
        return self._compiled

    @property
    def run(self) -> RunResult:
        if self._run is None:
            self._run = self._stage("trace", self._emulate)
        return self._run

    def _emulate(self) -> RunResult:
        try:
            return emulate(
                self.compiled.image, self.compiled.module.globals
            )
        except MopBudgetError as exc:
            # The scale sizes the run; a budget overrun is the scale's
            # fault, like a build that outgrows the address space.
            raise ConfigurationError(
                f"benchmark {self.name!r} cannot be emulated at scale "
                f"{self.effective_scale}: {exc}"
            ) from exc

    def verify_checksum(self) -> bool:
        """Does the emulated run match the pure-Python oracle?"""
        expected = SUITE[self.name].reference_checksum(self.effective_scale)
        module = self.compiled.module
        address = module.globals["result"].address
        return self.run.machine.load_word(address) == expected

    # ------------------------------------------------------ compression
    @property
    def op_words(self) -> BlockWords:
        """The compiled image's baseline op words, encoded once.

        Every scheme this study compresses reads these same words
        (:meth:`CompressionScheme.with_words`).  They are an immutable
        value held by the study, not a memo on the mutable image.
        """
        if self._words is None:
            self._words = block_words(self.compiled.image)
        return self._words

    def compressed(self, scheme_key: str) -> CompressedImage:
        """The program re-encoded under ``scheme_key`` (cached).

        Hybrid keys (``hybrid``, ``hybrid@T``) run the profile →
        recompress stage: the scheme consumes this study's own fetch
        trace as its heat profile.  The trace is a pure function of the
        (benchmark, scale, source-fingerprint) triple the store digests
        already key on, so the compressed artifact caches under the
        normalized scheme key alone.  ``:static`` hybrid keys substitute
        the compile-time heat estimate instead — the trace stage is
        never touched, which the ``static-profile-zero-trace`` invariant
        verifies via stage metrics.

        A store hit holds no program image (see :class:`CompressedImage`);
        it is bound to this study's compiled image, which the same
        (benchmark, scale, source fingerprint) key determines.
        """
        scheme_key = normalize_scheme_key(scheme_key)
        if scheme_key not in self._images:

            def compute() -> CompressedImage:
                scheme = _scheme_factory(scheme_key)
                if parse_hybrid_key(scheme_key) is not None:
                    if hybrid_profile_source(scheme_key) == "static":
                        from repro.analysis.freq import static_heat_profile

                        scheme.with_profile(
                            static_heat_profile(self.compiled.image)
                        )
                    else:
                        from repro.compression.adaptive import heat_profile

                        scheme.with_profile(
                            heat_profile(
                                self.run.block_trace,
                                len(self.compiled.image),
                            )
                        )
                scheme.with_words(self.op_words)
                return scheme.compress(self.compiled.image)

            compressed = self._stage("compress", compute, scheme=scheme_key)
            self._images[scheme_key] = compressed.bind(self.compiled.image)
        return self._images[scheme_key]

    def stream_results(self) -> dict[str, CompressedImage]:
        """All six stream configurations (the paper's search space)."""
        return {
            cfg.name: self.compressed(cfg.name)
            for cfg in SIX_STREAM_CONFIGS
        }

    def best_stream_keys(self) -> tuple[str, str]:
        """(smallest-decoder, smallest-size) stream config names.

        The paper calls these ``stream`` and ``stream_1`` in Figure 5.
        """
        from repro.compression.decoder_cost import scheme_decoder_cost

        results = self.stream_results()
        by_decoder = min(
            results,
            key=lambda k: scheme_decoder_cost(results[k]).transistors,
        )
        by_size = min(results, key=lambda k: results[k].total_code_bytes)
        return by_decoder, by_size

    # ------------------------------------------------------------ fetch
    @property
    def replay(self) -> "TraceReplay":
        """The fetch engine's replay state for this study's trace.

        Made on the first computed fetch or sweep, never on a store
        hit.  It holds per-block counts and first positions, not
        per-position lists, plus every predictor outcome computed so
        far, which the study's later organizations and sweeps reuse.
        """
        if self._replay is None:
            from repro.fetch.sweep import TraceReplay

            self._replay = TraceReplay(self.run.block_trace)
        return self._replay

    def fetch_metrics(
        self, scheme: str, config: Optional[FetchConfig] = None
    ) -> FetchMetrics:
        """Fetch simulation for one organization.

        Accepts ``base``/``tailored``/``compressed``/``ideal`` plus the
        hybrid keys (``hybrid``, ``hybrid@T``), which replay their own
        tagged image.  The Compressed organization runs on the Full-op
        Huffman image — the paper's choice for its cache study
        ("'Compressed' uses the Full op compression scheme").  Without
        a ``config`` it simulates the pressure-scaled cache pair that
        puts these miniature benchmarks under the same cache pressure
        SPEC put on the paper's 16KB caches; pass
        ``FetchConfig.for_scheme(scheme)`` for the paper's literal
        geometry.  The result is stored under :func:`fetch_key` of the
        resolved config.  A computed result replays against the
        study's :attr:`replay` state, so the organizations of one
        study, which share one predictor evolution, run it once.
        """
        scheme = normalize_fetch_scheme(scheme)
        if scheme == "ideal":
            config = None
        elif config is None:
            config = FetchConfig.for_scheme(scheme, scaled=True)
        memo = (scheme, config)
        if memo in self._fetch:
            return self._fetch[memo]

        def compute() -> FetchMetrics:
            trace = self.run.block_trace
            compressed = self.compressed(fetch_image_key(scheme))
            if config is None:
                return ideal_metrics(compressed, trace, replay=self.replay)
            return simulate_fetch(
                compressed, trace, config, replay=self.replay
            )
        metrics = self._stage("fetch", compute, **fetch_key(scheme, config))
        self._fetch[memo] = metrics
        return metrics


def fetch_key(scheme: str, config: Optional[FetchConfig]) -> dict:
    """The store address of one fetch result (``get_or_compute`` key).

    ``scheme`` is the normalized fetch organization and ``config`` its
    resolved :class:`FetchConfig` (``None`` for ``ideal``, which has no
    cache or predictor to configure).  The config token already holds
    the geometry, so a figure study's standard config and the equal
    sweep point share one entry: ``fetch_metrics`` and ``run_sweep``
    both read and publish through this key.
    """
    return {
        "scheme": scheme,
        "extra": {"config": runtime.fetch_config_token(config)},
    }


@functools.lru_cache(maxsize=None)
def _study_cache_capacity() -> int:
    """The study cache's bound (``REPRO_STUDY_CACHE_CAP``, read once):
    long sweeps cannot grow it without limit, and evicted studies
    reload cheaply from the artifact store."""
    return integer_setting("REPRO_STUDY_CACHE_CAP")

_studies: "OrderedDict[tuple[str, Optional[int]], ProgramStudy]" = (
    OrderedDict()
)


def study_for(name: str, scale: Optional[int] = None) -> ProgramStudy:
    """Shared, memoized study for a benchmark at a scale (LRU-bounded)."""
    key = (name, scale)
    study = _studies.get(key)
    if study is None:
        if name not in SUITE:
            raise ConfigurationError(f"unknown benchmark {name!r}")
        if scale is not None and scale < 1:
            raise ConfigurationError(
                f"scale must be a positive integer, got {scale}"
            )
        study = ProgramStudy(name, scale)
        _studies[key] = study
        while len(_studies) > _study_cache_capacity():
            _studies.popitem(last=False)
    else:
        _studies.move_to_end(key)
    return study


def clear_caches() -> None:
    """Drop all memoized in-process state (tests use this for isolation).

    Clears the study LRU, the suite's compile cache, and the runtime's
    in-process state (metrics, fingerprints, store handle).  The
    persistent on-disk artifact store survives — clearing it is an
    explicit operation (``repro cache clear``).
    """
    from repro.programs import suite as _suite

    _studies.clear()
    _suite._compile_cache.clear()
    runtime.reset_runtime_state()
