"""The TEPIC emulator (the paper's YULA stand-in).

Executes a compiled :class:`~repro.isa.image.ProgramImage` with VLIW
semantics — within a MultiOp all sources are read before any destination
is written — and emits the block-level instruction-address trace the
cache studies consume, exactly the role of the paper's compiler-inserted
trace annotations ("these annotations are not included when determining
instruction addresses or performing compression" — here the trace is a
side channel by construction).

Two executions of the same machine exist: the interpretive reference
(:func:`run_image`) and the threaded-code kernel
(:func:`~repro.emulator.kernel.run_image_kernel`).  :func:`emulate` runs
the kernel and is what the study pipeline calls; the reference stays as
the oracle the differential tests compare against.  The kernel states
only the hazard-free MultiOp semantics; a group with an intra-MultiOp
hazard (:mod:`repro.analysis.hazards`) runs the reference's own
executor.
"""

from repro.emulator.machine import (
    DEFAULT_MAX_MOPS,
    Machine,
    RunResult,
    emulate,
    run_image,
)

__all__ = [
    "DEFAULT_MAX_MOPS",
    "Machine",
    "RunResult",
    "emulate",
    "run_image",
]
