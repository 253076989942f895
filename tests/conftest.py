"""Shared fixtures: small compiled programs reused across test modules.

Compiling and emulating are the expensive steps, so tests share
session-scoped artifacts at tiny scales; anything needing isolation
builds its own module.
"""

from __future__ import annotations

import os

import pytest

from repro.compiler.builder import ModuleBuilder
from repro.compiler.pipeline import compile_module
from repro.emulator import run_image


@pytest.fixture(autouse=True, scope="session")
def _cache_sandbox(tmp_path_factory):
    """Point the runtime artifact store at a per-session temp directory.

    Tests still exercise the persistent cache (warm hits within the
    session) without touching — or depending on — the user's real
    ``~/.cache/repro``.  An explicit ``REPRO_CACHE_DIR`` wins, so CI can
    share a cache across runs.
    """
    from repro import runtime

    if os.environ.get("REPRO_CACHE_DIR"):
        yield
        return
    cache_dir = tmp_path_factory.mktemp("repro-artifact-cache")
    runtime.configure(cache_dir=cache_dir)
    yield
    runtime.reset_runtime_config()
    runtime.reset_default_store()


def build_counting_module(name: str = "tiny", limit: int = 25):
    """A minimal loop program: result = sum of squares below ``limit``."""
    mb = ModuleBuilder(name)
    out = mb.global_array("result", words=1)
    b = mb.function("main", num_args=0)
    i = b.ireg()
    total = b.ireg()
    b.li(i, 0)
    b.li(total, 0)
    lim = b.iconst(limit)
    b.label("loop")
    sq = b.ireg()
    b.mpy(sq, i, i)
    b.add(total, total, sq)
    b.addi(i, i, 1)
    p = b.preg()
    b.cmp_lt(p, i, lim)
    b.br_if(p, "loop")
    addr = b.ireg()
    b.la(addr, "result")
    b.store(addr, total)
    b.halt()
    b.done()
    return mb.build(), out


def build_call_module(name: str = "callee", depth: int = 6):
    """A recursive program: result = fib(depth) via real calls."""
    mb = ModuleBuilder(name)
    out = mb.global_array("result", words=1)
    f = mb.function("fib", num_args=1)
    n = f.arg(0)
    p = f.preg()
    f.cmpi_le(p, n, 1)
    f.br_if(p, "base")
    n1 = f.ireg()
    f.subi(n1, n, 1)
    a = f.ireg()
    f.call("fib", args=[n1], ret=a)
    n2 = f.ireg()
    f.subi(n2, n, 2)
    bb = f.ireg()
    f.call("fib", args=[n2], ret=bb)
    s = f.ireg()
    f.add(s, a, bb)
    f.ret(s)
    f.label("base")
    f.ret(n)
    f.done()
    m = mb.function("main", num_args=0)
    arg = m.iconst(depth)
    r = m.ireg()
    m.call("fib", args=[arg], ret=r)
    addr = m.ireg()
    m.la(addr, "result")
    m.store(addr, r)
    m.halt()
    m.done()
    return mb.build(), out


@pytest.fixture(scope="session")
def tiny_program():
    """(CompiledProgram, result_address, expected_value)."""
    module, out = build_counting_module()
    prog = compile_module(module)
    return prog, out, sum(i * i for i in range(25))


@pytest.fixture(scope="session")
def tiny_run(tiny_program):
    prog, out, expected = tiny_program
    result = run_image(prog.image, prog.module.globals)
    assert result.machine.load_word(out) == expected
    return prog, result


@pytest.fixture(scope="session")
def call_program():
    module, out = build_call_module()
    prog = compile_module(module)
    return prog, out


@pytest.fixture(scope="session")
def compress_study():
    """A shared small-scale study of the compress benchmark."""
    from repro.core.study import ProgramStudy

    study = ProgramStudy("compress", scale=3)
    assert study.verify_checksum()
    return study


@pytest.fixture
def graph_builds(monkeypatch):
    """The name of each image an :class:`ImageGraph` is built for, in
    build order; every graph fact is derived on one of these."""
    from repro.analysis.graph import ImageGraph

    built = []
    build = ImageGraph.__init__

    def counting(self, image):
        built.append(image.name)
        build(self, image)

    monkeypatch.setattr(ImageGraph, "__init__", counting)
    return built
