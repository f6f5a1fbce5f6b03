"""Symbolic stack machine over SSA-form values.

Each block is emulated against its entry stack: pushes create constants,
stack shuffles move value ids around, a whitelisted set of pure opcodes
folds constant operands, and everything else produces a fresh symbol that
records its operands.  An instruction that reads below the bottom of the
stack halts the emulation, as it halts the EVM.  Entry stacks from
multiple predecessors merge positionally, introducing phi values where
entries disagree.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .bytecode import (
    MNEMONICS,
    PUSH1,
    PUSH32,
    STACK_LIMIT,
    WORD_MASK,
    BasicBlock,
    _new,
    stack_effect,
)

CONST = "const"
SYM = "sym"
PHI = "phi"
UNKNOWN = "unknown"

# Concrete semantics of the pure opcodes folded when every operand is a
# constant (mod 2^256, unsigned).  Signed ops and SHA3 stay symbolic: their
# folding adds nothing to jump-target resolution.
_FOLDERS = {
    "ADD": lambda a, b: (a + b) & WORD_MASK,
    "MUL": lambda a, b: (a * b) & WORD_MASK,
    "SUB": lambda a, b: (a - b) & WORD_MASK,
    "DIV": lambda a, b: a // b if b else 0,
    "MOD": lambda a, b: a % b if b else 0,
    "EXP": lambda a, b: pow(a, b, 1 << 256),
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "NOT": lambda a: a ^ WORD_MASK,
    "SHL": lambda a, b: (b << a) & WORD_MASK if a < 256 else 0,
    "SHR": lambda a, b: b >> a if a < 256 else 0,
    "BYTE": lambda a, b: (b >> (8 * (31 - a))) & 0xFF if a < 32 else 0,
    "LT": lambda a, b: 1 if a < b else 0,
    "GT": lambda a, b: 1 if a > b else 0,
    "EQ": lambda a, b: 1 if a == b else 0,
    "ISZERO": lambda a: 1 if a == 0 else 0,
}
FOLDED_OPS = set(_FOLDERS)


class Value(NamedTuple):
    """SSA value: 256-bit constant, operation result, phi, or unknown.

    An immutable named tuple: it compares equal to the plain tuple of its
    fields, in field order.  Its id is its index in its `ValueTable`.  Only
    constants carry `const`.  `args` holds the operand ids: a symbol's
    operands, a phi's members (in SSA a phi's alternatives are its
    operands), and a folded constant's operands, kept so taint tracing can
    walk from a resolved jump target back to the pushes that fed it.
    """

    kind: str
    const: int | None = None
    op: str | None = None
    args: tuple[int, ...] = ()


class ValueTable:
    """Append-only arena of Values, owned by one recovery session.

    `values` is the arena itself, a plain list: a value's id is its index
    there, which every `new_*` method returns.  Loops that read many values
    index it directly rather than call `get`.  Only the `new_*` methods and
    `emulate_block` append to it, each a Value built from all four fields
    through `tuple.__new__` (see `bytecode._new`); nothing changes an entry
    once appended.

    A pushed constant (one without `args`) depends only on its word, so
    the table keeps one `Value` per word in `_pushed` and appends that
    shared object at every push: each push still gets a fresh id, since a
    value's id is its position in `values`, not the object.  Folded
    constants keep their own `args` and are never shared.

    `has_phi` turns true when `new_phi`, the one place a phi is appended,
    first appends one, and stays true.  While it is false no entry of any
    stack is a phi, so a stack holds a value without `args` only where its
    own id sits (`cfg.update_reuse_context` relies on this).

    `_joins` is `prepare_stack`'s memo: (entry id, arrival id) -> what
    `make_phi` gave for that pair.  It is exact, since `make_phi`'s result
    depends only on the two immutable values and on `_phi_index`, which
    only grows: a repeated call would return the same id and append
    nothing.  It lives as long as the recovery that fills it
    (`cfg._Recovery._finalize` empties it)."""

    def __init__(self) -> None:
        self.values: list[Value] = []
        self.has_phi = False
        self._phi_index: dict[tuple, int] = {}
        self._pushed: dict[int, Value] = {}
        self._joins: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        return len(self.values)

    def get(self, vid: int) -> Value:
        return self.values[vid]

    def new_const(self, raw: int, args: tuple[int, ...] = ()) -> int:
        values = self.values
        word = raw & WORD_MASK
        if args:
            values.append(_new(Value, (CONST, word, None, args)))
        else:
            values.append(self.pushed_value(word))
        return len(values) - 1

    def pushed_value(self, word: int) -> Value:
        """The shared `Value` of a pushed constant `word` (see above)."""
        value = self._pushed.get(word)
        if value is None:
            value = self._pushed[word] = _new(Value, (CONST, word, None, ()))
        return value

    def new_sym(self, op: str, args: tuple[int, ...]) -> int:
        values = self.values
        values.append(_new(Value, (SYM, None, op, args)))
        return len(values) - 1

    def new_unknown(self) -> int:
        """A value that stands for anything: only recovery's widening
        (`cfg._Recovery._widen`) makes one; no emulation does."""
        values = self.values
        values.append(_new(Value, (UNKNOWN, None, None, ())))
        return len(values) - 1

    def new_phi(self, members: tuple[int, ...]) -> int:
        self.has_phi = True
        values = self.values
        values.append(_new(Value, (PHI, None, None, members)))
        return len(values) - 1

    def make_phi(self, member_ids: list[int]) -> int:
        """Phi over flattened members, deduplicating constants by value.

        Falls back to the sole member when deduplication leaves a single
        alternative.  Phis are interned by their canonical member set, so
        re-merging the same alternatives yields the same value id (this is
        what lets a join hand back its existing stack once it has
        stabilized).
        """
        values = self.values
        seen_consts: set[int] = set()
        seen_ids: set[int] = set()
        members: list[int] = []
        key_parts: list[tuple] = []
        for member in member_ids:
            value = values[member]
            # A phi's members are flattened in place.
            for m in value.args if value.kind == PHI else (member,):
                v = values[m]
                if v.kind == CONST:
                    if v.const in seen_consts:
                        continue
                    seen_consts.add(v.const)
                    key_parts.append(("c", v.const))
                else:
                    if m in seen_ids:
                        continue
                    seen_ids.add(m)
                    key_parts.append(("v", m))
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
        v = self.values[vid]
        if v.kind == CONST:
            return f"0x{v.const:x}"
        return f"v{vid}"


# A stack as value ids; index 0 is the bottom, the last entry the top.
Stack = tuple[int, ...]


class TacOp(NamedTuple):
    """Three-address form of one emulated instruction.

    An immutable named tuple: it compares equal to the plain tuple of its
    fields, in field order.
    """

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


class EmulationResult(NamedTuple):
    """What one emulation of a block produced.

    `jump` is the value id of the JUMP or JUMPI operand, or None when the
    block does not jump; where control falls through is the block's own
    `fallthrough_offset`.  `tac_ids` is the block's three-address form
    without the instructions: the value ids each instruction read, then the
    one it wrote, in instruction order (see `tac_ops`), as a tuple: it is
    kept as long as the graph, and a tuple of ints is smaller than a list
    and not tracked by the cyclic collector.  An emulation that a stack
    underflow halted has `s_end` and `jump` None and empty `tac_ids`: the
    EVM reverts all that a frame did before an exceptional halt, so the
    block has no exit, no successor and no TAC.  `diagnostics` still holds
    its warnings.  An immutable named tuple: it compares equal to the plain
    tuple of its fields, in field order.
    """

    s_end: Stack | None
    jump: int | None
    tac_ids: tuple[int, ...]
    diagnostics: list[tuple[str, str, int]]


# How `emulate_block` treats each opcode.
_PUSH, _DUP, _SWAP, _POP, _JUMPDEST, _JUMP, _JUMPI, _OTHER = range(8)


def _dispatch_entry(opcode: int) -> tuple:
    """(kind, n, pushes, folder) for one byte value.  `n` is how many
    entries it reads, its pops: a DUPn reads down to its n-th entry and a
    SWAPn to its (n + 1)-th.  `folder` is the constant folding function, or
    None when the opcode stays symbolic."""
    pops, pushes = stack_effect(opcode)
    name = MNEMONICS[opcode]
    if PUSH1 <= opcode <= PUSH32 or name == "PUSH0":
        return (_PUSH, 0, 1, None)
    if 0x80 <= opcode <= 0x8F:
        return (_DUP, pops, 1, None)
    if 0x90 <= opcode <= 0x9F:
        return (_SWAP, pops, 0, None)
    kind = {"POP": _POP, "JUMPDEST": _JUMPDEST, "JUMP": _JUMP, "JUMPI": _JUMPI}.get(name, _OTHER)
    return (kind, pops, pushes, _FOLDERS.get(name))


_DISPATCH: tuple[tuple, ...] = tuple(_dispatch_entry(op) for op in range(256))


def emulate_block(
    block: BasicBlock, s_start: Stack, table: ValueTable
) -> EmulationResult:
    """Run one block symbolically from `s_start`.

    The first instruction that reads below the bottom of the stack halts
    the emulation, as it halts the EVM: it gets a "stack underflow"
    warning, and the result has no exit stack, jump or TAC (see
    `EmulationResult`).  No value is made up for a missing operand.
    Growth past the stack limit is only a diagnostic.  Pushed and folded
    constants are appended to `table.values` here, as `ValueTable.new_const`
    would: every PUSH payload and every folder result already fits in a
    word.  A push appends the table's shared `Value` of its word under a
    fresh id; a fold appends a new one that keeps its operand ids.  The
    three-address form is recorded as value ids only; `tac_ops` builds the
    `TacOp`s from them and the block's instructions.

    The dispatch tests the opcode kinds in the order of how often they run
    in recovered contracts (PUSH, JUMPDEST, POP, JUMP, other, JUMPI, DUP,
    SWAP).  Every folder takes one operand or two, and reads their `const`
    in place; a symbol is appended as `ValueTable.new_sym` would.  The
    underflow test runs before every instruction and the overflow watch
    after every one, a JUMPDEST's included: a block entered 1,025 deep
    that opens with one is past the limit at its first offset.
    """
    stack: list[int] = list(s_start)
    ids: list[int] = []
    diags: list[tuple[str, str, int]] = []
    jump: int | None = None
    values = table.values
    add_value = values.append
    pushed = table._pushed
    record = ids.append

    # Each instruction adds at most one entry: a block that starts no
    # deeper than this bound allows cannot pass the limit.  Watching stops
    # at the first report.
    watch = len(stack) + len(block.instructions) > STACK_LIMIT
    for offset, opcode, name, push_data, _, _ in block.instructions:
        kind, n, pushes, folder = _DISPATCH[opcode]
        if n > len(stack):
            # It reads below the bottom of the stack: the EVM halts here.
            diags.append(("warning", f"stack underflow at offset 0x{offset:x}", offset))
            return _new(EmulationResult, (None, None, (), diags))
        if kind == _PUSH:
            data = push_data or 0  # PUSH0 has no payload
            vid = len(values)
            add_value(pushed.get(data) or table.pushed_value(data))
            stack.append(vid)
            record(vid)
        elif kind == _JUMPDEST:
            pass  # reads and writes nothing, but the watch below still runs
        elif kind == _POP:
            record(stack.pop())
        elif kind == _JUMP:
            jump = stack.pop()
            record(jump)
        elif kind == _OTHER:
            # Popped top first.
            args = tuple(stack[: -n - 1 : -1])
            if n:
                del stack[-n:]
            ids += args
            if pushes:
                const = None  # the folded word, if the operands are constants
                if folder is not None:
                    a = values[args[0]].const
                    if a is not None:
                        if n == 1:
                            const = folder(a)
                        else:
                            b = values[args[1]].const
                            if b is not None:
                                const = folder(a, b)
                result = len(values)
                if const is None:
                    add_value(_new(Value, (SYM, None, name, args)))
                else:
                    add_value(_new(Value, (CONST, const, None, args)))
                stack.append(result)
                record(result)
        elif kind == _JUMPI:
            jump = stack.pop()
            record(jump)
            record(stack.pop())
        elif kind == _DUP:
            vid = stack[-n]
            stack.append(vid)
            record(vid)
        else:  # _SWAP
            stack[-1], stack[-n] = stack[-n], stack[-1]
            record(stack[-1])
            record(stack[-n])

        if watch and len(stack) > STACK_LIMIT:
            diags.append(("warning", f"stack overflow at offset 0x{offset:x}", offset))
            watch = False

    return _new(EmulationResult, (tuple(stack), jump, tuple(ids), diags))


def tac_ops(block: BasicBlock, ids: Sequence[int]) -> list[TacOp]:
    """The `TacOp`s of one emulation of `block`, from its `tac_ids`.

    Each instruction takes its operands, then its result, from `ids` in
    order, by its opcode's arity: a PUSH has only its result, a DUP one id
    that is both its operand and its result, a SWAP the two ids it swapped
    (the new top first), and every other opcode as many operands as it pops
    (top first) and a result when it pushes one.
    """
    ops: list[TacOp] = []
    emit = ops.append
    pos = 0
    for offset, opcode, name, push_data, _, _ in block.instructions:
        kind, n, pushes, _ = _DISPATCH[opcode]
        if kind == _PUSH:
            emit(_new(TacOp, (offset, name, ids[pos], (), push_data or 0)))
            pos += 1
        elif kind == _DUP:
            vid = ids[pos]
            emit(_new(TacOp, (offset, name, vid, (vid,), None)))
            pos += 1
        else:
            if kind == _SWAP:
                n = 2
            args = tuple(ids[pos : pos + n])
            pos += n
            result = None
            if pushes:
                result = ids[pos]
                pos += 1
            emit(_new(TacOp, (offset, name, result, args, None)))
    return ops


def tac_templates(block: BasicBlock) -> tuple[list[str], list[int]]:
    """`block`'s TAC lines as `str.format` templates, one per instruction,
    and the `tac_ids` positions of their operands, from the instructions
    alone: every emulation of a block lays its ids out alike (see
    `tac_ops`).  In a template, field `{0[i]}` is `tac_ids[i]` written as a
    result id and `{1[k]}` the text of the k-th operand position's value.
    With `ids` one emulation's `tac_ids` and `texts` the `ValueTable.render`
    of each `ids[p]` over the positions, `line.format(ids, texts)` is what
    `TacOp.render` gives for that line's op.  The text is mnemonics, hex,
    ids and `= (),`: it holds no brace, quote or backslash.
    """
    lines: list[str] = []
    positions: list[int] = []
    pos = 0
    for _, opcode, name, push_data, _, _ in block.instructions:
        kind, n, pushes, _ = _DISPATCH[opcode]
        if kind == _PUSH:
            lines.append(f"v{{0[{pos}]}} = {name}(0x{push_data or 0:x})")
            pos += 1
            continue
        k = len(positions)  # this op's first operand field
        if kind == _DUP:
            lines.append(f"v{{0[{pos}]}} = {name}({{1[{k}]}})")
            positions.append(pos)
            pos += 1
            continue
        if kind == _SWAP:
            n = 2
        # Most ops read one operand or none: those need no join.
        if n == 1:
            line = f"{name}({{1[{k}]}})"
        elif n:
            line = f"{name}({', '.join([f'{{1[{j}]}}' for j in range(k, k + n)])})"
        else:
            line = f"{name}()"
        positions += range(pos, pos + n)
        pos += n
        if pushes:
            line = f"v{{0[{pos}]}} = {line}"
            pos += 1
        lines.append(line)
    return lines, positions


def prepare_stack(
    pred_s_end: Stack,
    existing_s_start: Stack | None,
    table: ValueTable,
) -> Stack:
    """Merge a predecessor's exit stack into a block's entry stack.

    Positionwise-equal value ids (or equal constants) keep the existing
    entry; disagreeing positions widen to a phi over the union, through the
    table's join memo (see `ValueTable`).  Unknown entries absorb
    everything.  Depth mismatches merge top-aligned over the deeper stack;
    the caller reports them where the join is.  The result is the existing
    stack object itself exactly when the join changes nothing, so a caller
    tells a change by identity (`merged is existing`).  Without an existing
    stack the result is the predecessor's.
    """
    if existing_s_start is None:
        return pred_s_end

    old, new = existing_s_start, pred_s_end
    if old == new:
        return old
    # A deeper predecessor adds its extra bottom entries.  Otherwise the
    # merged stack is built at the first entry that changes.
    extra = len(new) - len(old)
    base = [*new[:extra], *old] if extra > 0 else None
    values = table.values
    joins = table._joins

    # Top-aligned merge over the common suffix.
    for i in range(1, min(len(old), len(new)) + 1):
        existing_id = old[-i]
        incoming_id = new[-i]
        if existing_id == incoming_id:
            continue
        existing = values[existing_id]
        if existing.kind == UNKNOWN:
            continue  # widened position stays widened
        const = existing.const  # None unless a constant
        if const is not None and const == values[incoming_id].const:
            continue
        merged = joins.get((existing_id, incoming_id))
        if merged is None:
            merged = joins[existing_id, incoming_id] = table.make_phi([existing_id, incoming_id])
        if merged != existing_id:
            if base is None:
                base = list(old)
            base[-i] = merged

    return old if base is None else tuple(base)


def trace_origin(vid: int, table: ValueTable) -> set[int]:
    """The value plus all transitive operands on its def-use chain.

    Walks `args`: symbol operands, phi members and folded-constant
    provenance; plain constants and unknowns have none and are the leaves.
    """
    values = table.values
    if not values[vid].args:
        return {vid}  # a leaf is its own chain: no walk
    seen: set[int] = set()
    work = [vid]
    while work:
        v = work.pop()
        if v in seen:
            continue
        seen.add(v)
        work.extend(values[v].args)
    return seen
