"""Golden gate: every compressed image of the suite, pinned bit for bit.

The figure tables pin total sizes only.  This test pins every block
payload, every block's bit length and every stream's code table for all
eight benchmarks at their default scales under every scheme key
(``known_scheme_keys()`` plus ``hybrid:static``).  Images are built
directly from the compiled program, so the artifact store plays no part.

Regenerate the golden file (only when an encoding is meant to change)::

    PYTHONPATH=src python -m tests.test_compressed_golden
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.programs.suite import BENCHMARK_NAMES

GOLDEN = pathlib.Path(__file__).parent / "golden" / "compressed_images.json"

STATIC_HYBRID_KEY = "hybrid:static"


def scheme_keys() -> tuple:
    from repro.compression.registry import known_scheme_keys

    return known_scheme_keys() + (STATIC_HYBRID_KEY,)


def image_digest(compressed) -> str:
    """sha256 over payloads, bit lengths and each stream's code table."""
    h = hashlib.sha256()
    h.update(repr(list(compressed.block_payloads)).encode())
    h.update(repr(list(compressed.block_bit_lengths)).encode())
    for stream in compressed.streams:
        h.update(repr(sorted(stream.code.codes.items())).encode())
    return h.hexdigest()


def benchmark_digests(name: str) -> dict:
    """``{"<name>/<scheme>": digest}`` for one benchmark, store off."""
    from repro.analysis.freq import static_heat_profile
    from repro.compression.adaptive import heat_profile
    from repro.compression.registry import (
        hybrid_profile_source,
        parse_hybrid_key,
        scheme_factory,
    )
    from repro.emulator import emulate
    from repro.programs.suite import compile_benchmark

    compiled = compile_benchmark(name)
    image = compiled.image
    trace_profile = None
    out = {}
    for key in scheme_keys():
        scheme = scheme_factory(key)
        if parse_hybrid_key(key) is not None:
            if hybrid_profile_source(key) == "static":
                scheme.with_profile(static_heat_profile(image))
            else:
                if trace_profile is None:
                    run = emulate(image, compiled.module.globals)
                    trace_profile = heat_profile(run.block_trace, len(image))
                scheme.with_profile(trace_profile)
        out[f"{name}/{key}"] = image_digest(scheme.compress(image))
    return out


def all_digests() -> dict:
    out = {}
    for name in BENCHMARK_NAMES:
        out.update(benchmark_digests(name))
    return out


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_benchmark_and_scheme():
    expected = {f"{n}/{k}" for n in BENCHMARK_NAMES for k in scheme_keys()}
    assert set(_golden()) == expected


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_compressed_images_match_golden(name):
    golden = _golden()
    actual = benchmark_digests(name)
    mismatched = sorted(k for k, v in actual.items() if golden[k] != v)
    assert not mismatched, f"compressed images changed: {mismatched}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(all_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
