"""Symbolic stack machine over SSA-form values.

Each block is emulated against its entry stack: pushes create constants,
stack shuffles move value ids around, a whitelisted set of pure opcodes
folds constant operands, and everything else produces a fresh symbol that
records its operands.  Entry stacks from multiple predecessors merge
positionally, introducing phi values where entries disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bytecode import (
    BasicBlock,
    Terminator,
    WORD_MASK,
    STACK_LIMIT,
    stack_effect,
)

CONST = "const"
SYM = "sym"
PHI = "phi"
UNKNOWN = "unknown"

# Pure opcodes folded when every operand is a constant.  Signed ops and
# SHA3 stay symbolic: their folding adds nothing to jump-target resolution.
FOLDED_OPS = {
    "ADD", "MUL", "SUB", "DIV", "MOD", "EXP", "AND", "OR", "XOR", "NOT",
    "SHL", "SHR", "BYTE", "LT", "GT", "EQ", "ISZERO",
}


@dataclass(frozen=True)
class Value:
    """SSA value: 256-bit constant, operation result, phi, or unknown.

    Constants produced by folding keep their operand ids in `args` so taint
    tracing can walk from a resolved jump target back to the pushes that
    fed it.
    """

    vid: int
    kind: str
    const: int | None = None
    op: str | None = None
    args: tuple[int, ...] = ()
    members: tuple[int, ...] = ()
    reason: str | None = None


class ValueTable:
    """Append-only arena of Values, owned by one recovery session."""

    def __init__(self) -> None:
        self._values: list[Value] = []
        self._phi_index: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self._values)

    def get(self, vid: int) -> Value:
        return self._values[vid]

    def _add(self, value: Value) -> int:
        self._values.append(value)
        return value.vid

    def new_const(self, raw: int, args: tuple[int, ...] = ()) -> int:
        vid = len(self._values)
        return self._add(Value(vid, CONST, const=raw & WORD_MASK, args=args))

    def new_sym(self, op: str, args: tuple[int, ...]) -> int:
        vid = len(self._values)
        return self._add(Value(vid, SYM, op=op, args=args))

    def new_unknown(self, reason: str) -> int:
        vid = len(self._values)
        return self._add(Value(vid, UNKNOWN, reason=reason))

    def new_phi(self, members: tuple[int, ...]) -> int:
        vid = len(self._values)
        return self._add(Value(vid, PHI, members=members))

    def const_value(self, vid: int) -> int | None:
        v = self._values[vid]
        return v.const if v.kind == CONST else None

    def values_equal(self, a: int, b: int) -> bool:
        """Id equality, or equal constants (distinct pushes of one value)."""
        if a == b:
            return True
        va, vb = self._values[a], self._values[b]
        return va.kind == CONST and vb.kind == CONST and va.const == vb.const

    def phi_members(self, vid: int) -> tuple[int, ...]:
        v = self._values[vid]
        return v.members if v.kind == PHI else (vid,)

    def make_phi(self, member_ids: list[int]) -> int:
        """Phi over flattened members, deduplicating constants by value.

        Falls back to the sole member when deduplication leaves a single
        alternative.  Phis are interned by their canonical member set, so
        re-merging the same alternatives yields the same value id (this is
        what lets a join report "unchanged" once it has stabilized).
        """
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

    def render(self, vid: int) -> str:
        v = self._values[vid]
        if v.kind == CONST:
            return f"0x{v.const:x}"
        return f"v{vid}"


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


@dataclass(frozen=True)
class TacOp:
    """Three-address form of one emulated instruction."""

    offset: int
    mnemonic: str
    result: int | None
    args: tuple[int, ...]
    push_data: int | None = None

    def render(self, table: ValueTable) -> str:
        if self.push_data is not None and not self.args:
            rhs = f"{self.mnemonic}(0x{self.push_data:x})"
        else:
            rhs = f"{self.mnemonic}({', '.join(table.render(a) for a in self.args)})"
        if self.result is not None:
            return f"v{self.result} = {rhs}"
        return rhs


@dataclass(frozen=True)
class SuccessorRequest:
    """One control transfer out of a block, before target resolution."""

    kind: str  # "jump" | "fallthrough"
    offset: int | None  # resolved target, None when symbolic
    value: int | None  # jump operand value id (jump kind only)


@dataclass
class EmulationResult:
    s_end: StackState
    successors: list[SuccessorRequest]
    tac: list[TacOp]
    diagnostics: list[tuple[str, str, int]] = field(default_factory=list)


def _fold(op: str, operands: list[int]) -> int:
    """Concrete semantics of the folded opcode set (mod 2^256, unsigned)."""
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


def emulate_block(
    block: BasicBlock, s_start: StackState, table: ValueTable
) -> EmulationResult:
    """Run one block symbolically from `s_start`.

    Underflow pops produce unknown values and a diagnostic instead of
    failing: dead or data blocks must not abort recovery.  Growth past the
    stack limit is likewise only a diagnostic.
    """
    stack: list[int] = list(s_start.entries)
    tac: list[TacOp] = []
    diags: list[tuple[str, str, int]] = []
    successors: list[SuccessorRequest] = []

    def pop(offset: int) -> int:
        if stack:
            return stack.pop()
        diags.append(("warning", f"stack underflow at offset 0x{offset:x}", offset))
        return table.new_unknown("underflow")

    overflow_reported = False
    for ins in block.instructions:
        op = ins.opcode
        name = ins.mnemonic
        if ins.is_push:
            vid = table.new_const(ins.push_data)
            stack.append(vid)
            tac.append(TacOp(ins.offset, name, vid, (), push_data=ins.push_data))
        elif name == "PUSH0":
            vid = table.new_const(0)
            stack.append(vid)
            tac.append(TacOp(ins.offset, name, vid, (), push_data=0))
        elif 0x80 <= op <= 0x8F:  # DUPn
            depth = op - 0x7F
            if len(stack) >= depth:
                vid = stack[-depth]
            else:
                diags.append(
                    ("warning", f"stack underflow at offset 0x{ins.offset:x}", ins.offset)
                )
                vid = table.new_unknown("underflow")
            stack.append(vid)
            tac.append(TacOp(ins.offset, name, vid, (vid,)))
        elif 0x90 <= op <= 0x9F:  # SWAPn
            depth = op - 0x8F
            if len(stack) >= depth + 1:
                stack[-1], stack[-depth - 1] = stack[-depth - 1], stack[-1]
                tac.append(TacOp(ins.offset, name, None, (stack[-1], stack[-depth - 1])))
            else:
                diags.append(
                    ("warning", f"stack underflow at offset 0x{ins.offset:x}", ins.offset)
                )
                while len(stack) < depth + 1:
                    stack.insert(0, table.new_unknown("underflow"))
                stack[-1], stack[-depth - 1] = stack[-depth - 1], stack[-1]
                tac.append(TacOp(ins.offset, name, None, (stack[-1], stack[-depth - 1])))
        elif name == "POP":
            v = pop(ins.offset)
            tac.append(TacOp(ins.offset, name, None, (v,)))
        elif name == "JUMPDEST":
            tac.append(TacOp(ins.offset, name, None, ()))
        elif name == "JUMP":
            target = pop(ins.offset)
            tac.append(TacOp(ins.offset, name, None, (target,)))
            successors.append(
                SuccessorRequest("jump", table.const_value(target), target)
            )
        elif name == "JUMPI":
            target = pop(ins.offset)
            cond = pop(ins.offset)
            tac.append(TacOp(ins.offset, name, None, (target, cond)))
            successors.append(
                SuccessorRequest("jump", table.const_value(target), target)
            )
            successors.append(
                SuccessorRequest("fallthrough", ins.offset + 1, None)
            )
        else:
            pops, pushes = stack_effect(op)
            args = tuple(pop(ins.offset) for _ in range(pops))
            result: int | None = None
            if pushes:
                const_args = [table.const_value(a) for a in args]
                if name in FOLDED_OPS and all(c is not None for c in const_args):
                    result = table.new_const(_fold(name, const_args), args=args)
                else:
                    result = table.new_sym(name, args)
                stack.append(result)
            tac.append(TacOp(ins.offset, name, result, args))

        if len(stack) > STACK_LIMIT and not overflow_reported:
            diags.append(
                ("warning", f"stack overflow at offset 0x{ins.offset:x}", ins.offset)
            )
            overflow_reported = True

    if block.terminator is Terminator.FALLTHROUGH:
        successors.append(SuccessorRequest("fallthrough", block.end_offset, None))

    return EmulationResult(StackState(tuple(stack)), successors, tac, diags)


def prepare_stack(
    pred_s_end: StackState,
    existing_s_start: StackState | None,
    table: ValueTable,
) -> tuple[StackState, bool, list[tuple[str, str, int]]]:
    """Merge a predecessor's exit stack into a block's entry stack.

    Positionwise-equal value ids (or equal constants) keep the existing
    entry; disagreeing positions widen to a phi over the union.  Unknown
    entries absorb everything.  Depth mismatches merge top-aligned over the
    deeper stack and are reported as a diagnostic.
    """
    diags: list[tuple[str, str, int]] = []
    if existing_s_start is None:
        return StackState(pred_s_end.entries), True, diags

    old = existing_s_start.entries
    new = pred_s_end.entries
    changed = False
    if len(old) != len(new):
        diags.append(("warning", "irregular stack depth at join", -1))
        if len(new) > len(old):
            # Deeper predecessor: adopt its extra bottom entries.
            base = list(new)
            overlay = old
            changed = True
        else:
            base = list(old)
            overlay = new
    else:
        base = list(old)
        overlay = new

    # Top-aligned merge over the common suffix.
    k = min(len(base), len(overlay))
    for i in range(1, k + 1):
        existing_id = old[-i] if i <= len(old) else base[-i]
        incoming_id = new[-i] if i <= len(new) else base[-i]
        if existing_id == incoming_id or table.values_equal(existing_id, incoming_id):
            base[-i] = existing_id
            continue
        if table.get(existing_id).kind == UNKNOWN:
            base[-i] = existing_id
            continue  # widened position stays widened
        merged = table.make_phi([existing_id, incoming_id])
        if merged != existing_id:
            changed = True
        base[-i] = merged

    return StackState(tuple(base)), changed, diags


def trace_origin(vid: int, table: ValueTable) -> set[int]:
    """The value plus all transitive operands on its def-use chain.

    Walks symbol operands, folded-constant provenance, and phi members;
    plain constants and unknowns are the leaves.
    """
    seen: set[int] = set()
    work = [vid]
    while work:
        v = work.pop()
        if v in seen:
            continue
        seen.add(v)
        value = table.get(v)
        work.extend(value.args)
        work.extend(value.members)
    return seen
