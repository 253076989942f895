"""Threaded-code emulation kernel (the default ``emulate`` path).

:func:`repro.emulator.machine.run_image` is the behavioral definition of
the TEPIC emulator: a per-operation interpretive loop that re-decodes
every field of every op on every dynamic execution.  One functional run
produces the block trace that *all* fetch/compression experiments
replay, so on a cold artifact cache that loop dominates suite
wall-clock.  This module re-states the same machine as a threaded-code
engine:

* **compile once per static program** — each basic block's MultiOps
  become a flat tuple of specialized closures, one per opcode family,
  with register indices, immediates, predicate slots, memory widths and
  branch targets bound at closure-creation time (no ``Opcode`` dict
  chains, no dataclass attribute chases in the dynamic loop);
* **block-granular dispatch** — the dynamic loop executes a block's
  closure list and follows a single precomputed continuation
  (fallthrough / branch / call / ret), appending to the trace and
  bumping the op/MultiOp totals once per block from per-block
  precomputed counts;
* **static statistics** — ops guarded by the hard-wired ``p0`` are
  folded into a per-block static opcode :class:`~collections.Counter`
  scaled by block execution counts at the end of the run; only
  genuinely predicated ops pay a per-execution count.

Per-MultiOp VLIW semantics are preserved exactly.  At compile time each
MultiOp is analyzed for intra-group hazards (an op reading a register —
or a predicate guard — written by an earlier op of the same group, or a
load following a store): hazard-free groups run as straight-line
closures, hazardous ones through a buffered read-all-then-write-all
executor identical in effect to the reference's ``_execute_mop``.

The kernel must produce a **bit-identical** :class:`RunResult`
(``block_trace``, ``dynamic_ops``/``dynamic_mops``, ``executed_ops``,
``opcode_counts``, final machine state) — enforced by
``tests/test_emulator_kernel.py`` and the ``emulator-kernel-vs-ref``
invariant in :mod:`repro.check`.  The one deliberate divergence is on
the *raising* path: when an op faults mid-MultiOp (division by zero,
bad address), earlier ops of a hazard-free group have already written
their results where the reference would have discarded the whole
group's buffered writes.  An :class:`EmulationError` aborts the run
before any ``RunResult`` exists, so no observable output differs.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Callable, List, Optional
from weakref import WeakKeyDictionary

from repro.analysis.hazards import needs_buffered_execution
from repro.errors import EmulationError, MopBudgetError
from repro.emulator.machine import (
    DEFAULT_MAX_MOPS,
    Machine,
    RunResult,
    _CMP,
    _FP_BINARY,
    _INT_BINARY,
)
from repro.isa.image import BasicBlockImage, ProgramImage
from repro.isa.multiop import MultiOp
from repro.isa.opcodes import Opcode
from repro.isa.operation import (
    BHWX_DOUBLE,
    Operation,
)
from repro.isa.registers import RegisterBank
from repro.utils.arith import div_trunc, mod_trunc

#: 32-bit wrap constants, inlined into the hot closures
#: (``wrap32(x) == ((x + _BIAS) & _MASK) - _BIAS``).
_MASK = 0xFFFFFFFF
_BIAS = 0x80000000

#: Continuation kinds, bound into per-op control constants.
_BRANCH, _CALL, _RET, _HALT = range(4)

#: Per-op control constants (branch/call targets get their own tuples).
_CTL_RET = (_RET, -1)
_CTL_HALT = (_HALT, -1)

#: A compiled MultiOp: ``step(machine, rt) -> control | None`` where
#: ``rt`` is the per-run dynamic-statistics cell ``[predicated_executed,
#: predicated_opcode_counter]``.
Step = Callable[[Machine, list], Optional[tuple]]


# ------------------------------------------------------------ op compile
def _direct_step(op: Operation) -> Step:
    """A closure executing ``op`` immediately against machine state.

    Only ever called for ops proven hazard-free within their MultiOp,
    so in-place writes are equivalent to the reference's buffered
    read-all-then-write-all order.
    """
    opcode = op.opcode
    d = op.dest.index if op.dest is not None else 0
    s1 = op.src1.index if op.src1 is not None else 0
    s2 = op.src2.index if op.src2 is not None else 0

    if opcode is Opcode.ADD:
        def step(m, rt):
            g = m.gpr
            g[d] = ((g[s1] + g[s2] + _BIAS) & _MASK) - _BIAS
        return step
    if opcode is Opcode.SUB:
        def step(m, rt):
            g = m.gpr
            g[d] = ((g[s1] - g[s2] + _BIAS) & _MASK) - _BIAS
        return step
    if opcode is Opcode.MPY:
        def step(m, rt):
            g = m.gpr
            g[d] = ((g[s1] * g[s2] + _BIAS) & _MASK) - _BIAS
        return step
    if opcode is Opcode.AND:
        def step(m, rt):
            g = m.gpr
            g[d] = g[s1] & g[s2]
        return step
    if opcode is Opcode.OR:
        def step(m, rt):
            g = m.gpr
            g[d] = g[s1] | g[s2]
        return step
    if opcode is Opcode.XOR:
        def step(m, rt):
            g = m.gpr
            g[d] = g[s1] ^ g[s2]
        return step
    if opcode is Opcode.SHL:
        def step(m, rt):
            g = m.gpr
            g[d] = (((g[s1] << (g[s2] & 31)) + _BIAS) & _MASK) - _BIAS
        return step
    if opcode is Opcode.SHR:
        def step(m, rt):
            g = m.gpr
            g[d] = (
                (((g[s1] & _MASK) >> (g[s2] & 31)) + _BIAS) & _MASK
            ) - _BIAS
        return step
    if opcode is Opcode.SRA:
        def step(m, rt):
            g = m.gpr
            g[d] = g[s1] >> (g[s2] & 31)
        return step
    if opcode is Opcode.MIN:
        def step(m, rt):
            g = m.gpr
            a, b = g[s1], g[s2]
            g[d] = a if a < b else b
        return step
    if opcode is Opcode.MAX:
        def step(m, rt):
            g = m.gpr
            a, b = g[s1], g[s2]
            g[d] = a if a > b else b
        return step
    if opcode in (Opcode.DIV, Opcode.MOD):
        fn = div_trunc if opcode is Opcode.DIV else mod_trunc
        def step(m, rt):
            g = m.gpr
            b = g[s2]
            if b == 0:
                raise EmulationError("integer division by zero")
            g[d] = ((fn(g[s1], b) + _BIAS) & _MASK) - _BIAS
        return step
    if opcode in _CMP:
        if d == 0:
            # p0 is hard-wired true: the compare is pure, the write is
            # forced, so the whole op folds to a constant store.
            def step(m, rt):
                m.pr[0] = True
            return step
        cmp = _CMP[opcode]
        def step(m, rt):
            g = m.gpr
            m.pr[d] = cmp(g[s1], g[s2])
        return step
    if opcode is Opcode.LDI:
        imm = op.imm or 0
        def step(m, rt):
            m.gpr[d] = imm
        return step
    if opcode is Opcode.MOV:
        def step(m, rt):
            g = m.gpr
            g[d] = g[s1]
        return step
    if opcode is Opcode.ABS:
        def step(m, rt):
            g = m.gpr
            g[d] = ((abs(g[s1]) + _BIAS) & _MASK) - _BIAS
        return step
    if opcode is Opcode.NOT:
        def step(m, rt):
            g = m.gpr
            g[d] = ~g[s1]
        return step
    if opcode in _FP_BINARY:
        fn = _FP_BINARY[opcode]
        def step(m, rt):
            f = m.fpr
            f[d] = fn(f[s1], f[s2])
        return step
    if opcode is Opcode.FDIV:
        def step(m, rt):
            f = m.fpr
            b = f[s2]
            if b == 0.0:
                raise EmulationError("floating-point division by zero")
            f[d] = f[s1] / b
        return step
    if opcode is Opcode.FABS:
        def step(m, rt):
            f = m.fpr
            f[d] = abs(f[s1])
        return step
    if opcode is Opcode.FMOV:
        def step(m, rt):
            f = m.fpr
            f[d] = f[s1]
        return step
    if opcode is Opcode.I2F:
        def step(m, rt):
            m.fpr[d] = float(m.gpr[s1])
        return step
    if opcode is Opcode.F2I:
        def step(m, rt):
            m.gpr[d] = ((int(m.fpr[s1]) + _BIAS) & _MASK) - _BIAS
        return step
    if opcode is Opcode.LD:
        bhwx = op.bhwx
        if op.dest.bank is RegisterBank.FPR:
            # byte/half loads return raw ints; the reference write-back
            # coerces with float(), so the closure must as well.
            def step(m, rt):
                m.fpr[d] = float(m.load(m.gpr[s1], bhwx, True))
            return step
        if bhwx == BHWX_DOUBLE:
            # A double loaded into a GPR truncates and wraps, exactly
            # like the reference write-back's wrap32(int(value)).
            def step(m, rt):
                m.gpr[d] = (
                    (int(m.load(m.gpr[s1], bhwx, False)) + _BIAS) & _MASK
                ) - _BIAS
            return step
        def step(m, rt):
            m.gpr[d] = m.load(m.gpr[s1], bhwx, False)
        return step
    if opcode is Opcode.ST:
        bhwx = op.bhwx
        if op.src2.bank is RegisterBank.FPR:
            def step(m, rt):
                m.store(m.gpr[s1], m.fpr[s2], bhwx)
            return step
        def step(m, rt):
            m.store(m.gpr[s1], m.gpr[s2], bhwx)
        return step
    ctl = _control_const(op)
    if ctl is not None:
        def step(m, rt):
            return ctl
        return step
    return _unimplemented_step(opcode)


def _unimplemented_step(opcode: Opcode) -> Step:
    """Raise only on *execution*, like the reference's catch-all."""
    def step(m, rt):
        raise EmulationError(f"unimplemented opcode {opcode.name}")
    return step


def _control_const(op: Operation) -> Optional[tuple]:
    opcode = op.opcode
    if opcode is Opcode.BR:
        return (_BRANCH, op.target_block)
    if opcode is Opcode.CALL:
        return (_CALL, op.target_block)
    if opcode is Opcode.RET:
        return _CTL_RET
    if opcode is Opcode.HALT:
        return _CTL_HALT
    return None


def _buffered_effect(op: Operation):
    """``effect(m, gw, fw, pw, st) -> None`` appending fully-converted
    write-back values, or ``None`` for pure control ops.

    The value functions are shared with the reference
    (:data:`_INT_BINARY` / :data:`_CMP` / :data:`_FP_BINARY` from
    :mod:`repro.emulator.machine`), so the buffered path can never
    drift from ``_execute_op`` arithmetic.
    """
    opcode = op.opcode
    d = op.dest.index if op.dest is not None else 0
    s1 = op.src1.index if op.src1 is not None else 0
    s2 = op.src2.index if op.src2 is not None else 0
    if opcode in _INT_BINARY:
        fn = _INT_BINARY[opcode]
        def eff(m, gw, fw, pw, st):
            g = m.gpr
            gw.append((d, fn(g[s1], g[s2])))
        return eff
    if opcode in _CMP:
        if d == 0:
            def eff(m, gw, fw, pw, st):
                pw.append((0, True))
            return eff
        cmp = _CMP[opcode]
        def eff(m, gw, fw, pw, st):
            g = m.gpr
            pw.append((d, cmp(g[s1], g[s2])))
        return eff
    if opcode is Opcode.LDI:
        imm = op.imm or 0
        def eff(m, gw, fw, pw, st):
            gw.append((d, imm))
        return eff
    if opcode is Opcode.MOV:
        def eff(m, gw, fw, pw, st):
            gw.append((d, m.gpr[s1]))
        return eff
    if opcode is Opcode.ABS:
        def eff(m, gw, fw, pw, st):
            gw.append((d, ((abs(m.gpr[s1]) + _BIAS) & _MASK) - _BIAS))
        return eff
    if opcode is Opcode.NOT:
        def eff(m, gw, fw, pw, st):
            gw.append((d, ~m.gpr[s1]))
        return eff
    if opcode in (Opcode.DIV, Opcode.MOD):
        fn = div_trunc if opcode is Opcode.DIV else mod_trunc
        def eff(m, gw, fw, pw, st):
            g = m.gpr
            b = g[s2]
            if b == 0:
                raise EmulationError("integer division by zero")
            gw.append((d, ((fn(g[s1], b) + _BIAS) & _MASK) - _BIAS))
        return eff
    if opcode in _FP_BINARY:
        fn = _FP_BINARY[opcode]
        def eff(m, gw, fw, pw, st):
            f = m.fpr
            fw.append((d, fn(f[s1], f[s2])))
        return eff
    if opcode is Opcode.FDIV:
        def eff(m, gw, fw, pw, st):
            f = m.fpr
            b = f[s2]
            if b == 0.0:
                raise EmulationError("floating-point division by zero")
            fw.append((d, f[s1] / b))
        return eff
    if opcode is Opcode.FABS:
        def eff(m, gw, fw, pw, st):
            fw.append((d, abs(m.fpr[s1])))
        return eff
    if opcode is Opcode.FMOV:
        def eff(m, gw, fw, pw, st):
            fw.append((d, m.fpr[s1]))
        return eff
    if opcode is Opcode.I2F:
        def eff(m, gw, fw, pw, st):
            fw.append((d, float(m.gpr[s1])))
        return eff
    if opcode is Opcode.F2I:
        def eff(m, gw, fw, pw, st):
            gw.append((d, ((int(m.fpr[s1]) + _BIAS) & _MASK) - _BIAS))
        return eff
    if opcode is Opcode.LD:
        bhwx = op.bhwx
        if op.dest.bank is RegisterBank.FPR:
            def eff(m, gw, fw, pw, st):
                fw.append((d, float(m.load(m.gpr[s1], bhwx, True))))
            return eff
        if bhwx == BHWX_DOUBLE:
            def eff(m, gw, fw, pw, st):
                gw.append((
                    d,
                    ((int(m.load(m.gpr[s1], bhwx, False)) + _BIAS)
                     & _MASK) - _BIAS,
                ))
            return eff
        def eff(m, gw, fw, pw, st):
            gw.append((d, m.load(m.gpr[s1], bhwx, False)))
        return eff
    if opcode is Opcode.ST:
        bhwx = op.bhwx
        if op.src2.bank is RegisterBank.FPR:
            def eff(m, gw, fw, pw, st):
                st.append((m.gpr[s1], m.fpr[s2], bhwx))
            return eff
        def eff(m, gw, fw, pw, st):
            st.append((m.gpr[s1], m.gpr[s2], bhwx))
        return eff
    if opcode.is_branch:
        return None  # pure control; the constant is attached separately
    return _unimplemented_buffered(opcode)


def _unimplemented_buffered(opcode: Opcode):
    def eff(m, gw, fw, pw, st):
        raise EmulationError(f"unimplemented opcode {opcode.name}")
    return eff


# ----------------------------------------------------------- mop compile
def _guard_step(p: int, opcode: Opcode, inner: Step) -> Step:
    """Wrap ``inner`` in a predicate check plus dynamic statistics."""
    def step(m, rt):
        if not m.pr[p]:
            return None
        rt[0] += 1
        rt[1][opcode] += 1
        return inner(m, rt)
    return step


def _seq_step(steps: tuple) -> Step:
    """Hazard-free multi-op group: run the ops in order.

    Only compiled for groups with at most one control op, so a plain
    overwrite of ``control`` cannot hide the reference's
    two-control-transfers error.
    """
    def step(m, rt):
        control = None
        for s in steps:
            c = s(m, rt)
            if c is not None:
                control = c
        return control
    return step


def _buffered_step(ops: tuple) -> Step:
    """Reference-shaped executor: read all, then write all.

    Used for groups with intra-MultiOp hazards or more than one control
    op; mirrors ``_execute_mop`` including the double-control check.
    """
    compiled = tuple(
        (
            op.predicate.index,
            op.opcode,
            _buffered_effect(op),
            _control_const(op),
        )
        for op in ops
    )

    def step(m, rt):
        gw: List[tuple] = []
        fw: List[tuple] = []
        pw: List[tuple] = []
        st: List[tuple] = []
        control = None
        for p, opcode, eff, ctl in compiled:
            if p:
                if not m.pr[p]:
                    continue
                rt[0] += 1
                rt[1][opcode] += 1
            if eff is not None:
                eff(m, gw, fw, pw, st)
            if ctl is not None:
                if control is not None:
                    raise EmulationError(
                        "two control transfers in one MultiOp"
                    )
                control = ctl
        if gw:
            g = m.gpr
            for d, v in gw:
                g[d] = v
        if fw:
            f = m.fpr
            for d, v in fw:
                f[d] = v
        if pw:
            pr = m.pr
            for d, v in pw:
                pr[d] = v
        for addr, value, bhwx in st:
            m.store(addr, value, bhwx)
        return control
    return step


def _compile_mop(mop: MultiOp) -> Step:
    ops = mop.ops
    # Shared with the static verifier's vliw-hazard rule; the pinning
    # regression test keeps the two consumers classifying identically.
    if needs_buffered_execution(ops):
        return _buffered_step(ops)
    steps = []
    for op in ops:
        inner = _direct_step(op)
        p = op.predicate.index
        if p:
            inner = _guard_step(p, op.opcode, inner)
        steps.append(inner)
    if len(steps) == 1:
        return steps[0]
    return _seq_step(tuple(steps))


# --------------------------------------------------------- block compile
class _BlockPlan:
    """One compiled basic block: closure list plus static statistics."""

    __slots__ = (
        "steps",
        "mop_count",
        "op_count",
        "fallthrough",
        "label",
        "static_counts",
        "static_executed",
    )

    def __init__(self, block: BasicBlockImage) -> None:
        self.steps = tuple(_compile_mop(mop) for mop in block.mops)
        self.mop_count = block.mop_count
        self.op_count = block.op_count
        self.fallthrough = block.fallthrough
        self.label = block.label
        static = Counter(
            op.opcode
            for mop in block.mops
            for op in mop.ops
            if op.guard is None
        )
        self.static_counts = tuple(static.items())
        self.static_executed = sum(static.values())


class _ImagePlan:
    """The compiled program: block plans indexed by block id."""

    __slots__ = ("blocks",)

    def __init__(self, image: ProgramImage) -> None:
        self.blocks = [_BlockPlan(block) for block in image]


#: Compile-once memo keyed on the live image object.  A ``WeakKey``
#: mapping (rather than an attribute on the image) keeps compiled
#: closures out of the runtime store's pickled artifacts.
_PLANS: "WeakKeyDictionary[ProgramImage, _ImagePlan]" = WeakKeyDictionary()


def plan_for(image: ProgramImage) -> _ImagePlan:
    """The (memoized) threaded-code plan for ``image``."""
    plan = _PLANS.get(image)
    if plan is None:
        plan = _ImagePlan(image)
        _PLANS[image] = plan
    return plan


# ------------------------------------------------------------ run loop
def run_image_kernel(
    image: ProgramImage,
    globals_data=None,
    max_mops: int = DEFAULT_MAX_MOPS,
    machine: Optional[Machine] = None,
) -> RunResult:
    """Execute ``image`` with the threaded-code engine.

    Same contract as :func:`repro.emulator.machine.run_image`; the
    returned :class:`RunResult` is field-for-field identical.
    """
    plan = plan_for(image)
    m = machine or Machine()
    if globals_data:
        m.initialize_globals(globals_data)
    blocks = plan.blocks
    exec_counts = [0] * len(blocks)
    trace: List[int] = []
    append = trace.append
    rt: list = [0, Counter()]
    dynamic_ops = 0
    dynamic_mops = 0
    call_stack = m.call_stack
    bid = image.entry_block
    while True:
        bp = blocks[bid]
        append(bid)
        exec_counts[bid] += 1
        new_mops = dynamic_mops + bp.mop_count
        if new_mops > max_mops:
            _overrun(bp, m, rt, dynamic_mops, max_mops)
        dynamic_mops = new_mops
        dynamic_ops += bp.op_count
        control = None
        for step in bp.steps:
            c = step(m, rt)
            if c is not None:
                control = c
        if control is None:
            nxt = bp.fallthrough
            if nxt is None:
                raise EmulationError(
                    f"block {bp.label} has no successor and no control "
                    "transfer fired"
                )
            bid = nxt
            continue
        kind = control[0]
        if kind == _BRANCH:
            bid = control[1]
        elif kind == _HALT:
            break
        elif kind == _CALL:
            if bp.fallthrough is None:
                raise EmulationError(
                    f"call block {bp.label} lacks a continuation"
                )
            if len(call_stack) > 10_000:
                raise EmulationError("call stack overflow")
            call_stack.append(bp.fallthrough)
            bid = control[1]
        else:  # _RET
            if not call_stack:
                raise EmulationError("RET with an empty call stack")
            bid = call_stack.pop()

    opcode_counts: Counter = Counter()
    for block_id, count in enumerate(exec_counts):
        if count:
            for opcode, static in blocks[block_id].static_counts:
                opcode_counts[opcode] += static * count
    executed_ops = rt[0]
    for block_id, count in enumerate(exec_counts):
        if count:
            executed_ops += blocks[block_id].static_executed * count
    opcode_counts.update(rt[1])
    return RunResult(
        block_trace=array("i", trace),
        dynamic_ops=dynamic_ops,
        dynamic_mops=dynamic_mops,
        executed_ops=executed_ops,
        opcode_counts=opcode_counts,
        machine=m,
    )


def _overrun(
    bp: _BlockPlan, m: Machine, rt: list, dynamic_mops: int, max_mops: int
) -> None:
    """Replay the budget-exhausting block one MultiOp at a time.

    The reference charges the budget per MultiOp *before* executing it,
    so the kernel must raise at exactly the same group — with the side
    effects of the preceding groups already applied.  The precondition
    ``dynamic_mops + bp.mop_count > max_mops`` guarantees the raise.
    """
    for step in bp.steps:
        dynamic_mops += 1
        if dynamic_mops > max_mops:
            raise MopBudgetError(
                f"program exceeded {max_mops} dynamic MultiOps"
            )
        step(m, rt)
    raise AssertionError("overrun slow path failed to raise")


__all__ = ["plan_for", "run_image_kernel"]
