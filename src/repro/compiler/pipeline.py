"""The compiler driver: IR module → program image, end to end.

The stage modules load inside :func:`compile_module`, so unpickling a
cached :class:`CompiledProgram` imports only the IR and the image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.ir import IRModule
from repro.isa.image import ProgramImage


@dataclass
class CompileStats:
    """What the pipeline did, for reports and tests."""

    spill_slots: dict[str, int] = field(default_factory=dict)
    hoisted_ops: int = 0
    treegions: int = 0
    largest_treegion: int = 0


@dataclass
class CompiledProgram:
    """A compiled program: the image plus pipeline statistics."""

    image: ProgramImage
    stats: CompileStats
    module: IRModule

    @property
    def name(self) -> str:
        return self.image.name


def compile_module(
    module: IRModule,
    *,
    opt: bool = True,
    hoist: bool = True,
) -> CompiledProgram:
    """Compile an IR module into a laid-out TEPIC program image.

    ``opt`` runs the scalar optimization pipeline; ``hoist`` enables
    treegion-scoped speculative code motion (the compiler's global
    scheduling flavor).  Both default on, matching the paper's
    "optimizing compiler" setting.
    """
    from repro.compiler.assemble import assemble
    from repro.compiler.cfg import cleanup
    from repro.compiler.lower import lower_module
    from repro.compiler.passes import optimize
    from repro.compiler.regalloc import allocate_registers
    from repro.compiler.schedule import schedule_module
    from repro.compiler.treegion import form_treegions, hoist_into_parents

    module.validate()
    stats = CompileStats()
    if opt:
        optimize(module)
    else:
        # CFG normalization (empty/unreachable block removal) is
        # structural, not an optimization: the back end requires it.
        for func in module.functions.values():
            cleanup(func)
    for name, func in module.functions.items():
        result = allocate_registers(func)
        stats.spill_slots[name] = result.num_slots
    mmodule = lower_module(module)
    for func in mmodule.functions:
        regions = form_treegions(func)
        stats.treegions += len(regions)
        if regions:
            stats.largest_treegion = max(
                stats.largest_treegion, max(r.size for r in regions)
            )
        if hoist:
            stats.hoisted_ops += hoist_into_parents(func)
    schedule_module(mmodule)
    image = assemble(mmodule)
    return CompiledProgram(image=image, stats=stats, module=module)
