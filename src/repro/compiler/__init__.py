"""The optimizing compiler (the paper's LEGO/TINKER tool-suite stand-in).

The pipeline mirrors the paper's flow: optimize, form treegions, schedule
into 6-issue zero-NOP MultiOps, and emit a laid-out
:class:`~repro.isa.image.ProgramImage`:

1. programs are written against :class:`~repro.compiler.builder.FunctionBuilder`
   (three-address IR over virtual registers),
2. classical optimizations run on the IR
   (:mod:`repro.compiler.passes`),
3. calls/returns are lowered to an explicit stack protocol
   (:mod:`repro.compiler.lower`),
4. linear-scan register allocation maps virtual registers onto the 32/32/32
   architectural files, spilling across call sites
   (:mod:`repro.compiler.regalloc`),
5. treegions are formed and each basic block is list-scheduled into
   MultiOps (:mod:`repro.compiler.treegion`,
   :mod:`repro.compiler.schedule`),
6. the assembler lays blocks out and resolves branch targets
   (:mod:`repro.compiler.assemble`).

:func:`repro.compiler.pipeline.compile_module` drives the whole thing.
This package imports nothing; import from the defining submodule
(:mod:`~repro.compiler.builder`, :mod:`~repro.compiler.ir`,
:mod:`~repro.compiler.pipeline`).
"""
