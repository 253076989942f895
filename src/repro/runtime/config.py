"""Runtime configuration: where the artifact cache lives and how it runs.

The configuration is resolved once from the environment and can be
overridden programmatically (tests and the CLI's ``--no-cache`` /
``--jobs`` flags do).  Worker processes receive a pickled snapshot so a
parent's overrides survive the fan-out.

Environment variables:

``REPRO_CACHE``
    ``0`` / ``false`` / ``off`` / ``no`` disables the persistent store
    (the opt-out the paper-regeneration CLI exposes as ``--no-cache``).
``REPRO_CACHE_DIR``
    Store root (default ``~/.cache/repro``).
``REPRO_CACHE_MAX_BYTES``
    LRU size cap for the store (default 512 MiB).
``REPRO_JOBS``
    Default ``--jobs`` for the scheduler (default 1 = in-process).
``REPRO_STUDY_CACHE_CAP``
    How many :class:`~repro.core.study.ProgramStudy` objects one process
    keeps (default 16, at least 1).
``REPRO_ANALYZE``
    ``1`` / ``true`` / ``on`` / ``yes`` switches on the post-compile
    static-verification gate (:func:`gate_enabled`; default off).

A boolean switch that is unset or empty takes its default.  The CLI
rejects a malformed value (exit code 2, naming the variable); library
use warns once and takes the default.
"""

from __future__ import annotations

import os
import pathlib
import warnings
from dataclasses import dataclass, replace
from typing import List, Optional

_FALSEY = {"0", "false", "off", "no"}
_TRUTHY = {"1", "true", "on", "yes"}

#: Boolean ``REPRO_*`` switches and their value when unset or empty.
_SWITCHES = {"REPRO_CACHE": True, "REPRO_ANALYZE": False}

DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: Integer ``REPRO_*`` settings: name -> (minimum, default).
_INTEGERS = {
    "REPRO_CACHE_MAX_BYTES": (0, DEFAULT_MAX_BYTES),
    "REPRO_JOBS": (1, 1),
    "REPRO_STUDY_CACHE_CAP": (1, 16),
}

_warned: set = set()


def _warn_once(message: str) -> None:
    if message in _warned:
        return
    _warned.add(message)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


@dataclass(frozen=True)
class RuntimeConfig:
    """One immutable snapshot of the runtime's knobs."""

    enabled: bool = True
    cache_dir: pathlib.Path = pathlib.Path.home() / ".cache" / "repro"
    max_bytes: int = DEFAULT_MAX_BYTES
    jobs: int = 1


def environment_problems(environ=None) -> List[str]:
    """Complaints about malformed ``REPRO_*`` values (empty = all good).

    The CLI treats any entry here as a :class:`ConfigurationError` (exit
    code 2); :func:`config_from_env` merely warns once per problem and
    falls back to the documented default, so library use keeps working.
    """
    env = os.environ if environ is None else environ
    problems: List[str] = []
    for name in _SWITCHES:
        raw = env.get(name, "")
        if raw.strip().lower() not in _FALSEY | _TRUTHY | {""}:
            choices = sorted(_FALSEY | _TRUTHY)
            problems.append(
                f"{name}={raw!r} is not a recognised switch "
                f"(expected one of: {', '.join(choices)})"
            )
    problems += filter(None, (
        _integer_problem(name, env[name]) for name in _INTEGERS if name in env
    ))
    return problems


def _integer_problem(name: str, raw: str) -> Optional[str]:
    minimum = _INTEGERS[name][0]
    try:
        value = int(raw)
    except ValueError:
        return f"{name}={raw!r} is not an integer"
    if value < minimum:
        return f"{name}={raw!r} must be >= {minimum}"
    return None


def integer_setting(name: str, environ=None) -> int:
    """One integer ``REPRO_*`` setting; unset gives its default, and a
    malformed value warns once and gives the default too."""
    env = os.environ if environ is None else environ
    raw = env.get(name)
    if raw is not None:
        problem = _integer_problem(name, raw)
        if problem is None:
            return int(raw)
        _warn_once(f"{problem}; using the default")
    return _INTEGERS[name][1]


def _switch(env, name: str) -> bool:
    value = env.get(name, "").strip().lower()
    if value in _TRUTHY:
        return True
    if value in _FALSEY:
        return False
    return _SWITCHES[name]


def gate_enabled(environ=None) -> bool:
    """Is the ``REPRO_ANALYZE`` post-compile gate switched on?"""
    return _switch(os.environ if environ is None else environ,
                   "REPRO_ANALYZE")


def config_from_env(environ=None) -> RuntimeConfig:
    """Build a :class:`RuntimeConfig` from environment variables.

    Malformed values warn once (:class:`RuntimeWarning`) and fall back
    to their defaults; use :func:`environment_problems` to reject them
    outright, as the CLI does.
    """
    env = os.environ if environ is None else environ
    for problem in environment_problems(env):
        _warn_once(f"{problem}; using the default")
    enabled = _switch(env, "REPRO_CACHE")
    cache_dir = pathlib.Path(
        env.get("REPRO_CACHE_DIR")
        or pathlib.Path.home() / ".cache" / "repro"
    )
    return RuntimeConfig(
        enabled=enabled,
        cache_dir=cache_dir,
        max_bytes=integer_setting("REPRO_CACHE_MAX_BYTES", env),
        jobs=integer_setting("REPRO_JOBS", env),
    )


_active: Optional[RuntimeConfig] = None


def runtime_config() -> RuntimeConfig:
    """The active configuration (resolved lazily from the environment)."""
    global _active
    if _active is None:
        _active = config_from_env()
    return _active


def set_runtime_config(config: RuntimeConfig) -> RuntimeConfig:
    """Install ``config`` as the active configuration."""
    global _active
    _active = config
    return config


def configure(**overrides) -> RuntimeConfig:
    """Override fields of the active configuration (returns the new one)."""
    if "cache_dir" in overrides:
        overrides["cache_dir"] = pathlib.Path(overrides["cache_dir"])
    return set_runtime_config(replace(runtime_config(), **overrides))


def reset_runtime_config() -> None:
    """Forget overrides; the next access re-reads the environment."""
    global _active
    _active = None
