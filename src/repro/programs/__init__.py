"""The benchmark suite (the paper's SPECint95 stand-ins).

Eight programs mirror the *kind* of computation of the paper's
benchmarks — each is a real algorithm with its own instruction mix and
branch behaviour, compiled by :mod:`repro.compiler` and executed by
:mod:`repro.emulator`:

========== ==========================================================
compress   LZW compression of a synthetic text (hashing, mixed loops)
go         board evaluation with captures (irregular, data-dependent
           branches — the paper's hard-to-predict case)
ijpeg      blocked integer DCT + quantization (loop-dominated, high ILP)
li         cons-cell list interpreter (recursion, call/return heavy)
m88ksim    instruction-set interpreter (dispatch chains, table state)
perl       string hashing and substring matching (byte loops)
vortex     in-memory record store with a sorted index (binary search)
gcc        table-driven lexer/parser state machine (table loads)
========== ==========================================================

Every module exposes ``build(scale)`` returning an
:class:`~repro.compiler.ir.IRModule` whose ``main`` deposits a checksum
at the global ``result``, and ``reference_checksum(scale)`` computing
the same value in pure Python — the differential oracle used by the
tests.

:mod:`repro.programs.kernels` adds the tight DSP loops used for the
L0-buffer study (Section 4: "tight, frequently executed loops (like DSP
kernels) fit into the buffer completely").

This package imports nothing; import from the defining submodule.
:mod:`repro.programs.specs` holds the benchmark table and loads no
compiler module, and :mod:`repro.programs.suite` builds and compiles.
"""
