"""Generated-code emulation kernel (the default ``emulate`` path).

:func:`repro.emulator.machine.run_image` is the behavioral definition of
the TEPIC emulator: a per-operation interpretive loop that re-decodes
every field of every op on every dynamic execution.  One functional run
produces the block trace that *all* fetch/compression experiments
replay, so on a cold artifact cache that loop dominates suite
wall-clock.  This module re-states the same machine as generated
Python, built once per static program:

* **one function per basic block** — each block's MultiOps become
  straight-line statements with register indices, immediates, memory
  widths and branch targets as literals, and register values kept in
  block-local variables (every write still goes to the machine).
  Loads and stores call precompiled :class:`struct.Struct`
  ``unpack_from``/``pack_into`` after one ``&`` against an address
  mask; a flagged address goes to :meth:`Machine._check`, which raises
  the reference's own message.  The function appends its block id to
  the trace and returns the next block id; HALT raises ``_Halt``;
* **one ``compile()`` per block** — a block's source is compiled on its
  own, never the whole image, so the compiler's peak memory stays that
  of the largest block;
* **block-granular dispatch** — the run loop calls one block function
  after another, and charges each block's MultiOps against the budget
  only once the budget is within reach.  Op and MultiOp totals and the
  ``p0``-guarded ops' opcode histogram are folded in after the run from
  per-block execution counts; a predicated op bumps its own integer
  slot, folded into ``opcode_counts`` at the end.

Only integers and fixed statement templates reach the generated source
(immediates pass through ``int()``); labels are looked up at run time.
The plan holds no reference to its image, so the ``WeakKeyDictionary``
memo drops it with the image.

Per-MultiOp VLIW semantics are exact on every path, the raising one
included.  A hazard-free group (no op reads a register or predicate
guard an earlier op of the group writes, no load after a store, at most
one control transfer) has every op read the state before the group, as
the reference's read-all-then-write-all does.  The generated group
evaluates its may-fault ops (loads, divisions, ``F2I``) before any of
its register writes when an earlier op writes one, and performs its
stores at the group's end, in order, with each store's address, value
and guard read at its own position.  So the first fault the reference
would raise is the one raised, with the machine in the reference's
state.  FP results that are NaNs are the one canonical NaN, as in the
reference.  Hazardous groups run the reference's own
:func:`~repro.emulator.machine._execute_mop`, which counts their ops
dynamically; the scheduler never emits one (see
:mod:`repro.analysis.hazards`).  A block that would overrun the MultiOp
budget is replayed group by group through ``_execute_mop`` up to the
reference's :class:`MopBudgetError` point.

The kernel must produce a **bit-identical** :class:`RunResult`
(``block_trace``, ``dynamic_ops``/``dynamic_mops``, ``executed_ops``,
``opcode_counts``, final machine state) and raise the reference's error
type and message — enforced by ``tests/test_emulator_kernel.py`` and the
``emulator-kernel-vs-ref`` invariant in :mod:`repro.check`.
"""

from __future__ import annotations

import struct
from array import array
from collections import Counter
from types import FunctionType
from typing import Callable, List, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.analysis.hazards import needs_buffered_execution
from repro.errors import EmulationError, MopBudgetError
from repro.emulator.machine import (
    DEFAULT_MAX_MOPS,
    Machine,
    RunResult,
    _Control,
    _execute_mop,
    block_trace_array,
    canonical_float,
)
from repro.isa.image import BasicBlockImage, ProgramImage
from repro.isa.opcodes import Opcode
from repro.isa.operation import (
    BHWX_BYTE,
    BHWX_DOUBLE,
    BHWX_HALF,
    BHWX_WORD,
    Operation,
)
from repro.isa.registers import RegisterBank
from repro.utils.arith import div_trunc, mod_trunc, wrap32

# ------------------------------------------------ generated-code runtime
class _Halt(Exception):
    """Raised by a block whose HALT fires: the run is over."""


def _hazardous(m: Machine, ops: tuple, rt: list) -> Optional[_Control]:
    """A hazardous group: the reference's own ``_execute_mop``.

    It reads all, then writes all, counts every op it runs (``p0``
    guarded ones too) into ``rt`` and raises the reference's errors,
    two control transfers included.
    """
    control, executed = _execute_mop(m, ops, rt[1])
    rt[0] += executed
    return control


def _transfer(
    control: _Control,
    call_stack: list,
    fallthrough: Optional[int],
    label: str,
) -> int:
    """The next block id after a hazardous group's control transfer."""
    kind = control.kind
    if kind == "halt":
        raise _Halt
    if kind == "branch":
        return control.target  # type: ignore[return-value]
    if kind == "call":
        if fallthrough is None:
            raise EmulationError(f"call block {label} lacks a continuation")
        if len(call_stack) > 10_000:
            raise EmulationError("call stack overflow")
        call_stack.append(fallthrough)
        return control.target  # type: ignore[return-value]
    if not call_stack:
        raise EmulationError("RET with an empty call stack")
    return call_stack.pop()


#: What generated code names besides the per-run names below.
_NAMESPACE = {
    "__builtins__": {"abs": abs, "float": float, "int": int, "len": len},
    "EmulationError": EmulationError,
    "_Halt": _Halt,
    "_hazardous": _hazardous,
    "_transfer": _transfer,
    "_canon": canonical_float,
    "_div": div_trunc,
    "_mod": mod_trunc,
    "_u16": struct.Struct("<H").unpack_from,
    "_i32": struct.Struct("<i").unpack_from,
    "_f64": struct.Struct("<d").unpack_from,
    "_p16": struct.Struct("<H").pack_into,
    "_p32": struct.Struct("<I").pack_into,
    "_pf64": struct.Struct("<d").pack_into,
}

#: The names a run binds in its block functions' globals (see
#: :meth:`_ImagePlan.bind`): the machine's register banks, memory and
#: call stack, the count slots, the machine, the hazardous groups'
#: dynamic statistics, the trace's ``append``, each block's groups and
#: label, and the address masks ``k1``-``k8``.
_RUN_NAMES = ("g", "f", "p", "mem", "cs", "cnt", "m", "rt", "t", "H", "L")


# ----------------------------------------------------------- op source
_WIDTH = {BHWX_BYTE: 1, BHWX_HALF: 2, BHWX_WORD: 4, BHWX_DOUBLE: 8}


def _wrap(expr: str) -> str:
    """``wrap32(expr)`` inline."""
    return f"((({expr}) + 2147483648) & 4294967295) - 2147483648"


#: Register-writing ops whose value is one expression of their sources.
_EXPRESSIONS = {
    Opcode.ADD: _wrap("{a} + {b}"),
    Opcode.SUB: _wrap("{a} - {b}"),
    Opcode.MPY: _wrap("{a} * {b}"),
    Opcode.AND: "{a} & {b}",
    Opcode.OR: "{a} | {b}",
    Opcode.XOR: "{a} ^ {b}",
    Opcode.SHL: _wrap("{a} << ({b} & 31)"),
    Opcode.SHR: _wrap("({a} & 4294967295) >> ({b} & 31)"),
    Opcode.SRA: "{a} >> ({b} & 31)",
    Opcode.MOV: "{a}",
    Opcode.ABS: _wrap("abs({a})"),
    Opcode.NOT: "~{a}",
    Opcode.CMPP_EQ: "{a} == {b}",
    Opcode.CMPP_NE: "{a} != {b}",
    Opcode.CMPP_LT: "{a} < {b}",
    Opcode.CMPP_LE: "{a} <= {b}",
    Opcode.CMPP_GT: "{a} > {b}",
    Opcode.CMPP_GE: "{a} >= {b}",
    Opcode.FADD: "_canon({a} + {b})",
    Opcode.FSUB: "_canon({a} - {b})",
    Opcode.FMPY: "_canon({a} * {b})",
    Opcode.FABS: "abs({a})",
    Opcode.FMOV: "{a}",
    Opcode.I2F: "float({a})",
    Opcode.F2I: _wrap("int({a})"),
}

#: ``min``/``max`` as the builtins pick: the second operand only when it
#: is strictly smaller/larger (so NaN and ``-0.0`` resolve alike).
_SELECT = {
    Opcode.MIN: "<", Opcode.MAX: ">", Opcode.FMIN: "<", Opcode.FMAX: ">",
}

#: How the generator states each opcode; a group holding any other
#: opcode runs on the reference.  A may-fault op can raise while it is
#: evaluated: division by zero, a bad address, ``int()`` of an infinity
#: or a NaN.
_PLAIN, _MAY_FAULT, _STORE, _CONTROL = range(4)
_KIND = dict.fromkeys([*_EXPRESSIONS, *_SELECT, Opcode.LDI], _PLAIN)
_KIND.update(dict.fromkeys(
    (Opcode.DIV, Opcode.MOD, Opcode.FDIV, Opcode.F2I, Opcode.LD), _MAY_FAULT
))
_KIND[Opcode.ST] = _STORE
_KIND.update(dict.fromkeys(
    (Opcode.BR, Opcode.CALL, Opcode.RET, Opcode.HALT), _CONTROL
))


def _reg(reg) -> str:
    bank = reg.bank
    name = (
        "g" if bank is RegisterBank.GPR
        else "f" if bank is RegisterBank.FPR
        else "p"
    )
    return f"{name}[{int(reg.index)}]"


def _memory_test(addr: str, bhwx: int) -> Tuple[str, str]:
    """``(test, name)``: vet the address ``addr`` as :meth:`Machine._check`.

    ``k{width}`` has every bit set that a valid, aligned address has
    clear (see :func:`_address_masks`), so one ``&`` passes every valid
    access; anything it flags goes to ``_check``, which raises the
    reference's own message.  ``name`` holds the address afterwards.
    """
    if addr.startswith("(") and " := " in addr:
        name = addr[1:addr.index(" := ")]
    elif addr.isidentifier() or addr.lstrip("-").isdigit():
        name = addr
    else:
        addr, name = f"(a := {addr})", "a"
    return f"if {addr} & k{_WIDTH[bhwx]}: m._check({name}, {int(bhwx)})", name


def _address_masks(memory_bytes: int) -> tuple:
    """``(k1, k2, k4, k8)``: the bits no valid aligned access may set.

    With ``top`` the largest power of two not above the memory size, an
    address ``a`` with ``a & k == 0`` lies in ``[0, top)`` and is
    aligned, hence valid.  A flagged address is still checked exactly,
    so a memory size that is not a power of two stays correct.
    """
    if not memory_bytes:
        return (-1, -1, -1, -1)
    top = 1 << (memory_bytes.bit_length() - 1)
    return tuple(-top | (width - 1) for width in (1, 2, 4, 8))


def _value(op: Operation, read: Callable) -> Tuple[List[str], str]:
    """``(statements, expression)`` computing a register-writing op.

    The statements run first (operand temporaries and fault tests); the
    expression is the value written to ``op.dest``.  ``read`` renders a
    source register; sources are read in the order they run.
    """
    opcode = op.opcode
    template = _EXPRESSIONS.get(opcode)
    if template is not None:
        if op.dest.index == 0 and op.dest.bank is RegisterBank.PRED:
            # p0 is hard-wired true: the reference forces the write back.
            return [], "True"
        a = read(op.src1)
        b = read(op.src2) if op.src2 is not None else ""
        return [], template.format(a=a, b=b)
    if opcode is Opcode.LDI:
        return [], str(wrap32(int(op.imm or 0)))
    if opcode is Opcode.LD:
        return _load(op, read(op.src1))
    if opcode is Opcode.FDIV:
        return [
            f"y = {read(op.src2)}",
            "if y == 0.0: raise EmulationError("
            '"floating-point division by zero")',
        ], f"_canon({read(op.src1)} / y)"
    if opcode is Opcode.DIV or opcode is Opcode.MOD:
        fn = "_div" if opcode is Opcode.DIV else "_mod"
        return [
            f"y = {read(op.src2)}",
            'if y == 0: raise EmulationError("integer division by zero")',
        ], _wrap(f"{fn}({read(op.src1)}, y)")
    return [f"x = {read(op.src1)}", f"y = {read(op.src2)}"], (
        f"y if y {_SELECT[opcode]} x else x"
    )


def _load(op: Operation, addr: str) -> Tuple[List[str], str]:
    """A load's value, as :meth:`Machine.load` plus the write-back."""
    bhwx = op.bhwx
    test, name = _memory_test(addr, bhwx)
    loaded = {
        BHWX_BYTE: f"mem[{name}]",
        BHWX_HALF: f"_u16(mem, {name})[0]",
        BHWX_WORD: f"_i32(mem, {name})[0]",
        BHWX_DOUBLE: f"_f64(mem, {name})[0]",
    }[bhwx]
    if op.dest.bank is RegisterBank.FPR:
        if bhwx != BHWX_DOUBLE:
            loaded = f"float({loaded})"
    elif bhwx == BHWX_DOUBLE:
        # A double loaded into a GPR truncates and wraps.
        loaded = _wrap(f"int({loaded})")
    return [test], loaded


def _store(op: Operation, addr: str, read_value: Callable) -> List[str]:
    """Check and write one store, as :meth:`Machine.store` does.

    ``read_value()`` renders the stored value, after the address test.
    """
    bhwx = op.bhwx
    test, name = _memory_test(addr, bhwx)
    value = read_value()
    from_fpr = op.src2.bank is RegisterBank.FPR
    if bhwx == BHWX_DOUBLE:
        value = value if from_fpr else f"float({value})"
        return [test, f"_pf64(mem, {name}, {value})"]
    ivalue = f"int({value})" if from_fpr else value
    return [test, {
        BHWX_BYTE: f"mem[{name}] = {ivalue} & 255",
        BHWX_HALF: f"_p16(mem, {name}, {ivalue} & 65535)",
        BHWX_WORD: f"_p32(mem, {name}, {ivalue} & 4294967295)",
    }[bhwx]]


def _indent(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


def _rendered(ops: tuple) -> bool:
    """Does this group run as generated statements?"""
    # Shared with the static verifier's vliw-hazard rule; the pinning
    # regression test keeps the two classifying alike.  One op alone
    # has no intra-group hazard.
    return all(op.opcode in _KIND for op in ops) and (
        len(ops) == 1 or not needs_buffered_execution(ops)
    )


# -------------------------------------------------------- block source
class _BlockSource:
    """One basic block's generated source and its static statistics.

    Within the block, register values live in Python locals too: every
    unguarded write also binds a local (``G5`` for ``g[5]``; an
    immediate stays a literal), and the first unguarded read of a
    register binds one with ``:=``.  Later reads use the local.  Writes
    still go to the machine as they happen, so its state is exact
    wherever a fault can stop the run; a guarded write or a hazardous
    group forgets what it may have changed.
    """

    def __init__(self, block: BasicBlockImage, slot_opcodes: list) -> None:
        self.block_id = int(block.block_id)
        self.fallthrough = block.fallthrough
        #: Opcode of each predicated op's count slot, run-wide.
        self.slot_opcodes = slot_opcodes
        #: Opcode counts of the ``p0``-guarded hazard-free ops.
        self.static: Counter = Counter()
        self.temps = 0
        #: What reads each register (``"g[5]"``): a local or a literal.
        self.known: dict = {}
        #: Transfer lines of each control site, in block order; the
        #: last site that fires picks the successor.
        self.sites: List[List[str]] = []
        self.body: List[str] = []
        groups = [(mop.ops, _rendered(mop.ops)) for mop in block.mops]
        self.final, self.tail = self._block_exit(groups)
        for index, (ops, rendered) in enumerate(groups):
            if rendered:
                self._group(ops)
                self.static.update(
                    op.opcode for op in ops if op.guard is None
                )
            else:
                self._hazardous_group(index, ops)

    @staticmethod
    def _block_exit(groups: list) -> tuple:
        """``(final, tail)``: a transfer that needs no site variable.

        ``final`` is the last group's unguarded transfer, which always
        fires last, so earlier sites only count.  ``tail`` is a guarded
        transfer of the last group that is the block's only site and
        whose guard the rest of its group leaves alone: testing it at
        the block's end reads the same predicate.
        """
        ops, rendered = groups[-1]
        if not rendered:
            return None, None
        for position, op in enumerate(ops):
            if _KIND[op.opcode] != _CONTROL:
                continue
            if op.guard is None:
                return op, None
            guard = _reg(op.guard)
            if any(
                o.dest is not None and _reg(o.dest) == guard
                for o in ops[position + 1:]
            ):
                return None, None
            if any(
                _KIND.get(o.opcode) == _CONTROL
                for earlier, _ in groups[:-1] for o in earlier
            ):
                return None, None
            return None, op
        return None, None

    # ---------------------------------------------------- register values
    def _read(self, reg, top: bool = True) -> str:
        """Render a read of ``reg``.

        Only a read that runs unconditionally (``top``) may bind the
        register's local: one under a guard might not run.
        """
        key = _reg(reg)
        known = self.known.get(key)
        if known is not None:
            return known
        if not top:
            return key
        name = self.known[key] = _local(key)
        return f"({name} := {key})"

    def _reader(self, top: bool) -> Callable:
        return lambda reg: self._read(reg, top)

    def _write(self, reg, value: str, guarded: bool) -> str:
        """Render a write of ``value`` to ``reg`` and track the value."""
        key = _reg(reg)
        if guarded or key == "p[0]":
            self.known.pop(key, None)
            return f"{key} = {value}"
        if value.lstrip("-").isdigit():
            self.known[key] = value
            return f"{key} = {value}"
        name = self.known[key] = _local(key)
        return f"{key} = {name} = {value}"

    # ------------------------------------------------------------ pieces
    def _temp(self, stem: str) -> str:
        self.temps += 1
        return f"{stem}{self.temps}"

    def _guarded(
        self, op: Operation, lines: List[str], test: Optional[str]
    ) -> List[str]:
        """``lines`` under the guard ``test``, after ``op``'s count bump.

        A ``p0``-guarded op (``test`` None) is counted statically; a
        predicated one bumps its own slot of ``cnt``.
        """
        if test is None:
            return lines
        self.slot_opcodes.append(op.opcode)
        return [f"if {test}:"] + _indent(
            [f"cnt[{len(self.slot_opcodes) - 1}] += 1"] + lines
        )

    def _test(self, op: Operation) -> Optional[str]:
        """``op``'s guard test, read where it stands; None for ``p0``."""
        return None if op.guard is None else self._read(op.guard)

    def _transfer_lines(self, op: Operation) -> List[str]:
        opcode = op.opcode
        if opcode is Opcode.BR:
            return [f"return {int(op.target_block)}"]
        if opcode is Opcode.HALT:
            return ["raise _Halt"]
        if opcode is Opcode.CALL:
            if self.fallthrough is None:
                return [
                    "raise EmulationError("
                    f'f"call block {{L[{self.block_id}]}} lacks a '
                    'continuation")'
                ]
            return [
                "if len(cs) > 10000: "
                'raise EmulationError("call stack overflow")',
                f"cs.append({int(self.fallthrough)})",
                f"return {int(op.target_block)}",
            ]
        return [
            'if not cs: raise EmulationError("RET with an empty call stack")',
            "return cs.pop()",
        ]

    # ------------------------------------------------------------ groups
    def _hazardous_group(self, index: int, ops: tuple) -> None:
        # The reference's executor may write any register.
        self.known.clear()
        call = f"_hazardous(m, H[{self.block_id}][{index}], rt)"
        if self.final is not None or not any(
            _KIND.get(op.opcode) == _CONTROL for op in ops
        ):
            self.body.append(call)
            return
        control = self._temp("x")
        fallthrough = self.fallthrough
        self.sites.append([
            f"return _transfer({control}, cs, "
            f"{'None' if fallthrough is None else int(fallthrough)}, "
            f"L[{self.block_id}])"
        ])
        self.body.append(f"{control} = {call}")
        self.body.append(f"if {control} is not None:")
        self.body.append(f"    c = {len(self.sites)}")

    def _group(self, ops: tuple) -> None:
        """A hazard-free group, exact on its raising path too."""
        kinds = [_KIND[op.opcode] for op in ops]
        body = self.body
        # Every op reads the state before the group.  A may-fault op
        # must raise before any register write of the group, so when an
        # earlier op writes one, every may-fault op is evaluated into a
        # temporary first, in order.
        hoisted = {}
        if any(
            kind == _MAY_FAULT
            and any(o.dest is not None for o in ops[:i])
            for i, kind in enumerate(kinds)
        ):
            for i, op in enumerate(ops):
                if kinds[i] != _MAY_FAULT:
                    continue
                hoisted[i] = self._temp("t")
                test = self._test(op)
                pre, expr = _value(op, self._reader(test is None))
                lines = pre + [f"{hoisted[i]} = {expr}"]
                if test is not None:
                    lines = [f"if {test}:"] + _indent(lines)
                body.extend(lines)
        stores = []
        for i, op in enumerate(ops):
            kind = kinds[i]
            if kind == _STORE:
                stores.append((op, self._capture_store(op, ops[i + 1:])))
                continue
            if kind == _CONTROL:
                self._control(op)
                continue
            test = self._test(op)
            if i in hoisted:
                pre, expr = [], hoisted[i]
            else:
                pre, expr = _value(op, self._reader(test is None))
            line = self._write(op.dest, expr, test is not None)
            body.extend(self._guarded(op, pre + [line], test))
        for op, captured in stores:
            body.extend(self._store_lines(op, captured))

    def _capture_store(self, op: Operation, later: tuple):
        """Read a store's operands now if a later op overwrites them.

        The check and the write run at the group's end, in order, as the
        reference's ``stores`` list does; operands no later op of the
        group writes are read there.
        """
        overwritten = {_reg(o.dest) for o in later if o.dest is not None}
        reads = [_reg(op.src1), _reg(op.src2)]
        if op.guard is not None:
            reads.append(_reg(op.guard))
        if not overwritten.intersection(reads):
            return None
        captured = self._temp("s")
        self.body.append(f"{captured}a = {self._read(op.src1)}")
        self.body.append(f"{captured}v = {self._read(op.src2)}")
        if op.guard is not None:
            self.body.append(f"{captured}p = {self._read(op.guard)}")
        return captured

    def _store_lines(self, op: Operation, captured: Optional[str]):
        if captured is not None:
            test = f"{captured}p" if op.guard is not None else None
            lines = _store(op, f"{captured}a", lambda: f"{captured}v")
        else:
            test = self._test(op)
            read = self._reader(test is None)
            address = read(op.src1)
            lines = _store(op, address, lambda: read(op.src2))
        return self._guarded(op, lines, test)

    def _control(self, op: Operation) -> None:
        if op is self.tail or op is self.final:
            return
        test = self._test(op)
        if self.final is not None:
            self.body.extend(self._guarded(op, [], test))
            return
        self.sites.append(self._transfer_lines(op))
        self.body.extend(self._guarded(op, [f"c = {len(self.sites)}"], test))

    # ------------------------------------------------------------ source
    def _fallthrough_lines(self) -> List[str]:
        if self.fallthrough is None:
            return [
                "raise EmulationError("
                f'f"block {{L[{self.block_id}]}} has no successor and no '
                'control transfer fired")'
            ]
        return [f"return {int(self.fallthrough)}"]

    def source(self) -> str:
        """The block's function: it appends its id to the trace, runs
        its groups and returns the next block id."""
        head = [f"t({self.block_id})"]
        if self.final is not None:
            exit_lines = self._transfer_lines(self.final)
        elif self.tail is not None:
            exit_lines = self._guarded(
                self.tail,
                self._transfer_lines(self.tail),
                self._test(self.tail),
            ) + self._fallthrough_lines()
        elif self.sites:
            head.append("c = 0")
            exit_lines = []
            for number, lines in enumerate(self.sites, 1):
                exit_lines.append(f"if c == {number}:")
                exit_lines.extend(_indent(lines))
            exit_lines += self._fallthrough_lines()
        else:
            exit_lines = self._fallthrough_lines()
        lines = head + self.body + exit_lines
        return "\n".join(["def block():"] + _indent(lines)) + "\n"


def _local(key: str) -> str:
    """The local holding register ``key`` in a block: ``g[5]`` → ``G5``."""
    return key[0].upper() + key[2:-1]


# ---------------------------------------------------------- image plan
class _ImagePlan:
    """The compiled program: one block function's code per block id.

    It holds the code objects, each block's groups (for the hazardous
    groups and the budget-overrun replay), labels and statistics, but
    never the image itself, so the memo below cannot keep it alive.
    """

    __slots__ = (
        "codes",
        "groups",
        "labels",
        "mop_counts",
        "largest",
        "op_counts",
        "static_counts",
        "static_executed",
        "slot_opcodes",
    )

    def __init__(self, image: ProgramImage) -> None:
        self.slot_opcodes: List[Opcode] = []
        codes = []
        statics = []
        for block in image:
            generated = _BlockSource(block, self.slot_opcodes)
            # One compile() per block keeps the compiler's peak memory
            # that of one block, not of the whole image.
            module = compile(
                generated.source(), f"<block {generated.block_id}>", "exec",
                dont_inherit=True,
            )
            scope: dict = {}
            exec(module, _NAMESPACE, scope)
            codes.append(scope["block"].__code__)
            statics.append(generated.static)
        self.codes = codes
        self.groups = [tuple(mop.ops for mop in block.mops) for block in image]
        self.labels = [block.label for block in image]
        self.mop_counts = [block.mop_count for block in image]
        #: No run can reach its MultiOp budget within its first
        #: ``max_mops // largest`` blocks.
        self.largest = max(self.mop_counts)
        self.op_counts = [block.op_count for block in image]
        self.static_counts = [tuple(static.items()) for static in statics]
        self.static_executed = [sum(static.values()) for static in statics]

    def bind(
        self, m: Machine, cnt: list, rt: list, trace: array
    ) -> List[Callable]:
        """Each block's function, bound to one run's state."""
        env = dict(_NAMESPACE)
        env.update(zip(_RUN_NAMES, (
            m.gpr, m.fpr, m.pr, m.memory, m.call_stack, cnt, m, rt,
            trace.append, self.groups, self.labels,
        )))
        env.update(zip(("k1", "k2", "k4", "k8"), _address_masks(
            len(m.memory)
        )))
        return [FunctionType(code, env) for code in self.codes]


#: Compile-once memo keyed on the live image object.  A ``WeakKey``
#: mapping (rather than an attribute on the image) keeps generated code
#: out of the runtime store's pickled artifacts.
_PLANS: "WeakKeyDictionary[ProgramImage, _ImagePlan]" = WeakKeyDictionary()


def plan_for(image: ProgramImage) -> _ImagePlan:
    """The (memoized) generated-code plan for ``image``."""
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
    """Execute ``image`` with the generated-code engine.

    Same contract as :func:`repro.emulator.machine.run_image`; the
    returned :class:`RunResult` is field-for-field identical.
    """
    plan = plan_for(image)
    m = machine or Machine()
    if globals_data:
        m.initialize_globals(globals_data)
    cnt = [0] * len(plan.slot_opcodes)
    rt: list = [0, Counter()]
    trace = block_trace_array(image)
    blocks = plan.bind(m, cnt, rt, trace)
    mop_counts = plan.mop_counts
    bid = image.entry_block
    try:
        for _ in range(max_mops // plan.largest):
            bid = blocks[bid]()
        # Close to the budget: charge each block before it runs.
        left = max_mops - sum(map(mop_counts.__getitem__, trace))
        while True:
            left -= mop_counts[bid]
            if left < 0:
                _overrun(plan.groups[bid], m, left + mop_counts[bid], max_mops)
            bid = blocks[bid]()
    except _Halt:
        pass

    executions = Counter(trace)
    dynamic_ops = dynamic_mops = 0
    executed_ops = rt[0] + sum(cnt)
    opcode_counts: Counter = Counter()
    for block_id in sorted(executions):
        count = executions[block_id]
        dynamic_ops += plan.op_counts[block_id] * count
        dynamic_mops += mop_counts[block_id] * count
        executed_ops += plan.static_executed[block_id] * count
        for opcode, static in plan.static_counts[block_id]:
            opcode_counts[opcode] += static * count
    for opcode, count in zip(plan.slot_opcodes, cnt):
        if count:
            opcode_counts[opcode] += count
    opcode_counts.update(rt[1])
    return RunResult(
        block_trace=trace,
        dynamic_ops=dynamic_ops,
        dynamic_mops=dynamic_mops,
        executed_ops=executed_ops,
        opcode_counts=opcode_counts,
        machine=m,
    )


def _overrun(groups: tuple, m: Machine, left: int, max_mops: int) -> None:
    """Replay the budget-exhausting block one MultiOp at a time.

    The reference charges the budget per MultiOp *before* executing it,
    so the kernel raises at exactly the same group, with the preceding
    groups' effects applied by the reference's own executor.  ``left``
    is what the budget had left before the block (at most zero groups
    run when it is negative); the caller guarantees
    ``left < len(groups)``.
    """
    for ops in groups[:max(left, 0)]:
        _execute_mop(m, ops, Counter())
    raise MopBudgetError(f"program exceeded {max_mops} dynamic MultiOps")


__all__ = ["plan_for", "run_image_kernel"]
