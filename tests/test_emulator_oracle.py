"""The table-driven emulation kernel against the mnemonic-driven one it replaced.

`oracle_disassemble`, `oracle_emulate_block` and `oracle_prepare_stack` are
the earlier implementations, kept here as references together with the
records and value-table methods they used (frozen dataclasses built through
keyword arguments, folding by a chain of mnemonic compares, stacks wrapped
in a `StackState`).  Random byte strings over all 256 opcodes are decoded
and emulated by both, each against its own value table; the tables are
driven in lockstep and every result, including every value appended, must
agree field by field as plain tuples.  Reference values also carry their
own id and an unread `reason`, which `Value` dropped; values are compared
without them.  The reference `prepare_stack` reported a depth mismatch as
a diagnostic; recovery now reports it at the join, on the same condition,
and the comparison checks that condition.  It also returned a "changed"
flag; the kernel hands back the existing stack itself when nothing
changed, so the flag is compared with `merged is not existing`.  The
reference lists each block's successor requests; the kernel reports only
the jump operand, and the block gives the fallthrough offset, so the
requests are rebuilt from those.
The kernel records three-address code as value ids only; `tac_ops` rebuilds
the ops from those and the block, and the rebuilt ops are compared.  Both
halt at the first instruction that reads below the bottom of the stack,
with one warning and no exit stack, successor or TAC.  The kernel reads
how deep each opcode reads from its dispatch table, which takes it from
`stack_effect`; the reference works it out per mnemonic, and takes only
the other opcodes' pops from `stack_effect`.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reusecfg.bytecode import (
    OPCODES,
    STACK_LIMIT,
    WORD_MASK,
    BasicBlock,
    BlockId,
    Terminator,
    disassemble,
    identify_blocks,
    stack_effect,
)
from reusecfg.emulator import (
    CONST,
    PHI,
    SYM,
    UNKNOWN,
    ValueTable,
    emulate_block,
    prepare_stack,
    tac_ops,
)

# ---------------------------------------------------------------------------
# Reference implementation
# ---------------------------------------------------------------------------

ORACLE_FOLDED_OPS = {
    "ADD", "MUL", "SUB", "DIV", "MOD", "EXP", "AND", "OR", "XOR", "NOT",
    "SHL", "SHR", "BYTE", "LT", "GT", "EQ", "ISZERO",
}


@dataclass(frozen=True)
class StackState:
    """Stack as value ids; index 0 is the bottom, the last entry the top."""

    entries: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, idx: int) -> int:
        return self.entries[idx]

    @property
    def top(self) -> int | None:
        return self.entries[-1] if self.entries else None


@dataclass
class EmulationResult:
    s_end: StackState | None
    successors: list[OracleSuccessorRequest]
    tac: list[OracleTacOp]
    diagnostics: list[tuple[str, str, int]] = field(default_factory=list)


@dataclass(frozen=True)
class OracleInstruction:
    offset: int
    opcode: int
    mnemonic: str
    push_data: int | None = None
    length: int = 1
    truncated: bool = False

    @property
    def is_push(self) -> bool:
        return 0x60 <= self.opcode <= 0x7F


@dataclass(frozen=True)
class OracleValue:
    vid: int
    kind: str
    const: int | None = None
    op: str | None = None
    args: tuple[int, ...] = ()
    members: tuple[int, ...] = ()
    reason: str | None = None


@dataclass(frozen=True)
class OracleTacOp:
    offset: int
    mnemonic: str
    result: int | None
    args: tuple[int, ...]
    push_data: int | None = None


@dataclass(frozen=True)
class OracleSuccessorRequest:
    kind: str
    offset: int | None
    value: int | None


class OracleValueTable:
    def __init__(self) -> None:
        self._values: list[OracleValue] = []
        self._phi_index: dict[tuple, int] = {}

    def get(self, vid: int) -> OracleValue:
        return self._values[vid]

    def _add(self, value: OracleValue) -> int:
        self._values.append(value)
        return value.vid

    def new_const(self, raw: int, args: tuple[int, ...] = ()) -> int:
        vid = len(self._values)
        return self._add(OracleValue(vid, CONST, const=raw & WORD_MASK, args=args))

    def new_sym(self, op: str, args: tuple[int, ...]) -> int:
        vid = len(self._values)
        return self._add(OracleValue(vid, SYM, op=op, args=args))

    def new_unknown(self, reason: str) -> int:
        vid = len(self._values)
        return self._add(OracleValue(vid, UNKNOWN, reason=reason))

    def new_phi(self, members: tuple[int, ...]) -> int:
        vid = len(self._values)
        return self._add(OracleValue(vid, PHI, members=members))

    def const_value(self, vid: int) -> int | None:
        v = self._values[vid]
        return v.const if v.kind == CONST else None

    def values_equal(self, a: int, b: int) -> bool:
        if a == b:
            return True
        va, vb = self._values[a], self._values[b]
        return va.kind == CONST and vb.kind == CONST and va.const == vb.const

    def phi_members(self, vid: int) -> tuple[int, ...]:
        v = self._values[vid]
        return v.members if v.kind == PHI else (vid,)

    def make_phi(self, member_ids: list[int]) -> int:
        flat: list[int] = []
        for m in member_ids:
            flat.extend(self.phi_members(m))
        seen_consts: dict[int, int] = {}
        seen_ids: set[int] = set()
        members: list[int] = []
        key_parts: list[tuple] = []
        for m in flat:
            v = self._values[m]
            if v.kind == CONST:
                if v.const in seen_consts:
                    continue
                seen_consts[v.const] = m
                key_parts.append(("c", v.const))
            else:
                if m in seen_ids:
                    continue
                key_parts.append(("v", m))
            seen_ids.add(m)
            members.append(m)
        if len(members) == 1:
            return members[0]
        key = tuple(sorted(key_parts))
        cached = self._phi_index.get(key)
        if cached is not None:
            return cached
        members.sort()
        vid = self.new_phi(tuple(members))
        self._phi_index[key] = vid
        return vid


def oracle_mnemonic_for(opcode: int) -> str:
    entry = OPCODES.get(opcode)
    if entry is not None:
        return entry[0]
    return f"UNKNOWN_0x{opcode:02x}"


def oracle_disassemble(code: bytes) -> list[OracleInstruction]:
    if not code:
        raise ValueError("empty bytecode")
    out: list[OracleInstruction] = []
    pc = 0
    n = len(code)
    while pc < n:
        op = code[pc]
        if 0x60 <= op <= 0x7F:
            width = op - 0x5F
            payload = code[pc + 1 : pc + 1 + width]
            consumed = len(payload)
            value = int.from_bytes(payload + b"\x00" * (width - consumed), "big")
            out.append(
                OracleInstruction(
                    offset=pc,
                    opcode=op,
                    mnemonic=f"PUSH{width}",
                    push_data=value,
                    length=1 + consumed,
                    truncated=consumed < width,
                )
            )
            pc += 1 + consumed
        else:
            out.append(OracleInstruction(offset=pc, opcode=op, mnemonic=oracle_mnemonic_for(op)))
            pc += 1
    return out


def oracle_fold(op: str, operands: list[int]) -> int:
    a = operands[0]
    b = operands[1] if len(operands) > 1 else 0
    if op == "ADD":
        return (a + b) & WORD_MASK
    if op == "MUL":
        return (a * b) & WORD_MASK
    if op == "SUB":
        return (a - b) & WORD_MASK
    if op == "DIV":
        return a // b if b else 0
    if op == "MOD":
        return a % b if b else 0
    if op == "EXP":
        return pow(a, b, 1 << 256)
    if op == "AND":
        return a & b
    if op == "OR":
        return a | b
    if op == "XOR":
        return a ^ b
    if op == "NOT":
        return a ^ WORD_MASK
    if op == "SHL":
        return (b << a) & WORD_MASK if a < 256 else 0
    if op == "SHR":
        return b >> a if a < 256 else 0
    if op == "BYTE":
        return (b >> (8 * (31 - a))) & 0xFF if a < 32 else 0
    if op == "LT":
        return 1 if a < b else 0
    if op == "GT":
        return 1 if a > b else 0
    if op == "EQ":
        return 1 if a == b else 0
    if op == "ISZERO":
        return 1 if a == 0 else 0
    raise AssertionError(f"not a folded op: {op}")


def oracle_reads(op: int, name: str) -> int:
    """How many entries an instruction reads, from what it does."""
    if 0x80 <= op <= 0x8F:  # DUPn copies the n-th entry
        return op - 0x7F
    if 0x90 <= op <= 0x9F:  # SWAPn exchanges the top and the (n + 1)-th
        return op - 0x8F + 1
    if name in ("POP", "JUMP"):
        return 1
    if name == "JUMPI":
        return 2
    return stack_effect(op)[0]


def oracle_emulate_block(
    block: BasicBlock, s_start: StackState, table: OracleValueTable
) -> EmulationResult:
    stack: list[int] = list(s_start.entries)
    tac: list[OracleTacOp] = []
    diags: list[tuple[str, str, int]] = []
    successors: list[OracleSuccessorRequest] = []

    overflow_reported = False
    for ins in block.instructions:
        op = ins.opcode
        name = ins.mnemonic
        if len(stack) < oracle_reads(op, name):
            # The EVM halts here: no exit stack, no successor, no TAC.
            diags.append(("warning", f"stack underflow at offset 0x{ins.offset:x}", ins.offset))
            return EmulationResult(None, [], [], diags)
        if ins.is_push:
            vid = table.new_const(ins.push_data)
            stack.append(vid)
            tac.append(OracleTacOp(ins.offset, name, vid, (), push_data=ins.push_data))
        elif name == "PUSH0":
            vid = table.new_const(0)
            stack.append(vid)
            tac.append(OracleTacOp(ins.offset, name, vid, (), push_data=0))
        elif 0x80 <= op <= 0x8F:  # DUPn
            vid = stack[-(op - 0x7F)]
            stack.append(vid)
            tac.append(OracleTacOp(ins.offset, name, vid, (vid,)))
        elif 0x90 <= op <= 0x9F:  # SWAPn
            depth = op - 0x8F
            stack[-1], stack[-depth - 1] = stack[-depth - 1], stack[-1]
            tac.append(OracleTacOp(ins.offset, name, None, (stack[-1], stack[-depth - 1])))
        elif name == "POP":
            v = stack.pop()
            tac.append(OracleTacOp(ins.offset, name, None, (v,)))
        elif name == "JUMPDEST":
            tac.append(OracleTacOp(ins.offset, name, None, ()))
        elif name == "JUMP":
            target = stack.pop()
            tac.append(OracleTacOp(ins.offset, name, None, (target,)))
            successors.append(
                OracleSuccessorRequest("jump", table.const_value(target), target)
            )
        elif name == "JUMPI":
            target = stack.pop()
            cond = stack.pop()
            tac.append(OracleTacOp(ins.offset, name, None, (target, cond)))
            successors.append(
                OracleSuccessorRequest("jump", table.const_value(target), target)
            )
            successors.append(OracleSuccessorRequest("fallthrough", ins.offset + 1, None))
        else:
            pops, pushes = stack_effect(op)
            args = tuple(stack.pop() for _ in range(pops))
            result: int | None = None
            if pushes:
                const_args = [table.const_value(a) for a in args]
                if name in ORACLE_FOLDED_OPS and all(c is not None for c in const_args):
                    result = table.new_const(oracle_fold(name, const_args), args=args)
                else:
                    result = table.new_sym(name, args)
                stack.append(result)
            tac.append(OracleTacOp(ins.offset, name, result, args))

        if len(stack) > STACK_LIMIT and not overflow_reported:
            diags.append(
                ("warning", f"stack overflow at offset 0x{ins.offset:x}", ins.offset)
            )
            overflow_reported = True

    if block.terminator is Terminator.FALLTHROUGH:
        successors.append(OracleSuccessorRequest("fallthrough", block.end_offset, None))

    return EmulationResult(StackState(tuple(stack)), successors, tac, diags)


def oracle_prepare_stack(
    pred_s_end: StackState,
    existing_s_start: StackState | None,
    table: OracleValueTable,
) -> tuple[StackState, bool, list[tuple[str, str, int]]]:
    diags: list[tuple[str, str, int]] = []
    if existing_s_start is None:
        return StackState(pred_s_end.entries), True, diags

    old = existing_s_start.entries
    new = pred_s_end.entries
    changed = False
    if len(old) != len(new):
        diags.append(("warning", "irregular stack depth at join", -1))
        if len(new) > len(old):
            base = list(new)
            overlay = old
            changed = True
        else:
            base = list(old)
            overlay = new
    else:
        base = list(old)
        overlay = new

    k = min(len(base), len(overlay))
    for i in range(1, k + 1):
        existing_id = old[-i] if i <= len(old) else base[-i]
        incoming_id = new[-i] if i <= len(new) else base[-i]
        if existing_id == incoming_id or table.values_equal(existing_id, incoming_id):
            base[-i] = existing_id
            continue
        if table.get(existing_id).kind == UNKNOWN:
            base[-i] = existing_id
            continue
        merged = table.make_phi([existing_id, incoming_id])
        if merged != existing_id:
            changed = True
        base[-i] = merged

    return StackState(tuple(base)), changed, diags


# ---------------------------------------------------------------------------
# Lockstep comparison
# ---------------------------------------------------------------------------

# Bytes drawn more often than uniform sampling would: folded and stack ops
# with short pushes to feed them constants, and control flow.
_FAVOURED = sorted(
    {op for op, (name, _, _) in OPCODES.items() if name in ORACLE_FOLDED_OPS}
    | {0x50, 0x56, 0x57, 0x5B, 0x5F, 0x60, 0x61, 0x80, 0x81, 0x8F, 0x90, 0x91, 0x9F}
)

_code = st.lists(
    st.one_of(st.integers(0, 255), st.sampled_from(_FAVOURED)), min_size=1, max_size=80
).map(bytes)

_entry = st.one_of(
    st.tuples(st.just("const"), st.sampled_from([0, 1, 2, 31, 32, 255, 256, WORD_MASK])),
    st.tuples(st.just("sym"), st.sampled_from(["CALLER", "CALLVALUE", "MLOAD"])),
    st.tuples(st.just("phi"), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("unknown"), st.just("test")),
)

# An entry stack: its entries bottom to top, and whether it sits on 1,020
# more entries so that pushes run past the stack limit.
_stack = st.tuples(st.lists(_entry, max_size=20), st.booleans())


class Lockstep:
    """The new and the reference value table, fed identical requests."""

    def __init__(self) -> None:
        self.new = ValueTable()
        self.old = OracleValueTable()
        self.checked = 0  # values already compared

    def both(self, method: str, *args) -> int:
        a = getattr(self.new, method)(*args)
        b = getattr(self.old, method)(*args)
        assert a == b
        return a

    def stack(self, spec) -> tuple[int, ...]:
        entries, deep = spec
        ids: list[int] = []
        if deep:
            ids += [self.both("new_const", 7)] * (STACK_LIMIT - 4)
        for entry in entries:
            kind = entry[0]
            if kind == "const":
                ids.append(self.both("new_const", entry[1]))
            elif kind == "sym":
                ids.append(self.both("new_sym", entry[1], ()))
            elif kind == "phi":
                members = [self.both("new_const", entry[1]), self.both("new_const", entry[2])]
                ids.append(self.both("make_phi", members))
            else:
                vid = self.new.new_unknown()
                assert self.old.new_unknown(entry[1]) == vid
                ids.append(vid)
        return tuple(ids)

    def assert_tables_agree(self) -> None:
        """Every value appended since the last call agrees."""
        new, old = self.new.values, self.old._values
        assert len(new) == len(old)
        assert all(v.vid == vid for vid, v in enumerate(old[self.checked :], self.checked))
        # Without vid and reason; a phi's members are its args here.
        assert [tuple(v) for v in new[self.checked :]] == [
            (v.kind, v.const, v.op, v.args + v.members) for v in old[self.checked :]
        ]
        assert self.new._phi_index == self.old._phi_index
        self.checked = len(new)


@settings(max_examples=400, deadline=None)
@given(_code)
def test_disassemble_matches_reference(code):
    assert [tuple(i) for i in disassemble(code)] == [astuple(i) for i in oracle_disassemble(code)]


_CALLER = ("sym", "CALLER")
_ONE = ("const", 1)


# Cases that the order of the kernel's dispatch could break: the overflow
# watch after a JUMPDEST that opens a block entered with 1,025 entries,
# PUSH0, the one- and two-operand folders with one symbolic operand, and
# DUP16 and SWAP16 entered exactly as deep as they read (and one short).
@example(b"\x5b\x00", Terminator.STOP, ([_ONE] * 5, True), ([_ONE] * 4, True))
@example(b"\x5f", Terminator.FALLTHROUGH, ([], False), ([_ONE], True))
@example(b"\x15\x19", Terminator.FALLTHROUGH, ([_CALLER], False), ([_ONE], False))
@example(b"\x01\x14", Terminator.FALLTHROUGH, ([_ONE, _ONE, _CALLER], False), ([_CALLER, _ONE, _ONE], False))
@example(b"\x8f", Terminator.FALLTHROUGH, ([_ONE] * 16, False), ([_ONE] * 15, False))
@example(b"\x9f", Terminator.FALLTHROUGH, ([_ONE] * 17, False), ([_ONE] * 16, False))
@settings(max_examples=300, deadline=None)
@given(_code, st.sampled_from(list(Terminator)), _stack, _stack)
def test_emulate_block_and_prepare_stack_match_reference(code, terminator, first, second):
    tables = Lockstep()
    instructions = disassemble(code)
    # Every candidate block, then the whole stream as one block so that
    # jumps and halts sit in the middle of a run.
    whole = BasicBlock(BlockId(0, 0), instructions, terminator)
    blocks = [*identify_blocks(instructions), whole]
    entry_stacks = [tables.stack(first), tables.stack(second)]
    ends: list[tuple[int, ...]] = []
    for block in blocks:
        for s_start in entry_stacks:
            new = emulate_block(block, s_start, tables.new)
            old = oracle_emulate_block(block, StackState(s_start), tables.old)
            assert new.diagnostics == old.diagnostics
            tables.assert_tables_agree()
            if old.s_end is None:
                # Both halted on a stack underflow.
                assert (new.s_end, new.jump, new.tac_ids) == (None, None, ())
                continue
            assert new.s_end == old.s_end.entries
            requests = [astuple(s) for s in old.successors]
            if block is whole:
                # Jumps sit mid-run here: the last one's operand is reported.
                jumps = [value for kind, _, value in requests if kind == "jump"]
                assert new.jump == (jumps[-1] if jumps else None)
            else:
                rebuilt = []
                if new.jump is not None:
                    rebuilt.append(("jump", tables.new.get(new.jump).const, new.jump))
                if block.fallthrough_offset is not None:
                    rebuilt.append(("fallthrough", block.fallthrough_offset, None))
                assert requests == rebuilt
            assert [tuple(op) for op in tac_ops(block, new.tac_ids)] == [astuple(op) for op in old.tac]
            ends.append(new.s_end)

    # Merge exit and entry stacks into each other, and into none.
    merged_stacks = entry_stacks + ends[:6]
    for incoming in merged_stacks:
        for existing in [None, *merged_stacks]:
            merged = prepare_stack(incoming, existing, tables.new)
            old_merged, old_changed, old_diags = oracle_prepare_stack(
                StackState(incoming),
                None if existing is None else StackState(existing),
                tables.old,
            )
            assert (merged, merged is not existing) == (old_merged.entries, old_changed)
            irregular = existing is not None and len(existing) != len(incoming)
            assert old_diags == ([("warning", "irregular stack depth at join", -1)] if irregular else [])
            tables.assert_tables_agree()


def test_prepare_stack_returns_existing_state_for_an_equal_stack():
    table = ValueTable()
    a, b = table.new_const(1), table.new_sym("CALLER", ())
    existing = (a, b)
    before = len(table)
    merged = prepare_stack((a, b), existing, table)
    assert merged is existing
    assert len(table) == before
