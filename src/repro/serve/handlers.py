"""The JSON payloads of ``repro study`` and ``repro sweep``.

Each function computes one request against the artifact store and
returns its canonical JSON-serializable payload; the CLI renders it as
a table or emits it verbatim under ``--json``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.runtime.fingerprint import artifact_digest


def study_payload(
    benchmark: str,
    scale: Optional[int] = None,
    schemes: Sequence[str] = (),
) -> dict:
    """Every deterministic observable of one program study: artifact
    digests, the oracle checksum, op counts and per-scheme code sizes.
    """
    from repro.core.study import study_for

    study = study_for(benchmark, scale)
    effective = study.effective_scale
    image = study.compiled.image
    run = study.run
    artifacts = {
        "compile": artifact_digest(
            "compile", benchmark=benchmark, scale=effective
        ),
        "trace": artifact_digest(
            "trace", benchmark=benchmark, scale=effective
        ),
    }
    scheme_results = {}
    for key in schemes:
        compressed = study.compressed(key)
        artifacts[f"compress/{key}"] = artifact_digest(
            "compress", benchmark=benchmark, scale=effective, scheme=key
        )
        scheme_results[key] = {
            "total_code_bytes": compressed.total_code_bytes,
        }
    return {
        "benchmark": benchmark,
        "scale": effective,
        "checksum_ok": study.verify_checksum(),
        "static_ops": image.total_ops,
        "dynamic_ops": run.dynamic_ops,
        "dynamic_mops": run.dynamic_mops,
        "executed_ops": run.executed_ops,
        "machine_digest": (
            run.machine.state_digest() if run.machine else None
        ),
        "artifacts": artifacts,
        "schemes": scheme_results,
    }


def sweep_payload(
    benchmark: str,
    scale: Optional[int],
    configs,
    *,
    jobs: int = 1,
) -> dict:
    """One multi-config sweep, as its canonical JSON payload."""
    from dataclasses import asdict

    from repro.core.study import study_for
    from repro.core.sweep import run_sweep
    from repro.fetch.sweep import config_to_json

    metrics = run_sweep(benchmark, configs, scale=scale, jobs=jobs)
    results = []
    for config, m in zip(configs, metrics):
        results.append(
            {
                "config": config_to_json(config),
                "metrics": asdict(m),
                "ipc": m.ipc,
                "cache_hit_rate": m.cache_hit_rate,
            }
        )
    return {
        "benchmark": benchmark,
        "scale": study_for(benchmark, scale).effective_scale,
        "configs": len(configs),
        "results": results,
    }
