"""Fixture synthesis and a concrete ground-truth interpreter.

The generator emits bytecode for the eight compiler code-reuse shapes we
target, each built from the same trick: a block's jump operand is pushed
by its predecessors instead of next to the jump, so the block can serve
several unrelated paths.  Every fixture carries its own ground truth:
which offsets are deliberately reused, closed-form path counts for both
recovery modes, and the execution traces enumerated by the interpreter.

The interpreter is intentionally written as a standalone concrete machine
so it can act as an independent oracle for constant folding and trace
coverage: it steps over the blocks that `disassemble` and `identify_blocks`
decode, but its arithmetic, halting and opcode classification share no
code with the symbolic emulator.  It executes each instruction through its
own 256-entry step table, `_STEPS`.
"""

from __future__ import annotations

import enum
import operator
import random
from dataclasses import dataclass, field

from .bytecode import (
    CODE_SIZE_LIMIT,
    JUMPDEST,
    MNEMONIC_TO_OPCODE,
    OPCODES,
    PUSH1,
    PUSH32,
    STACK_LIMIT,
    WORD_MASK,
    Instruction,
    disassemble,
    identify_blocks,
)
from .cfg import AnalysisError
from .metrics import Trace


class Pattern(enum.Enum):
    BASIC_FAKE_JOIN = "BasicFakeJoin"
    BASIC_FAKE_LOOP = "BasicFakeLoop"
    FAKE_JOIN_SEQUENCE = "FakeJoinSequence"
    NESTED_FAKE_LOOPS = "NestedFakeLoops"
    FAKE_JOIN_WITH_REAL = "FakeJoinWithReal"
    FAKE_LOOP_WITH_REAL_LOOP = "FakeLoopWithRealLoop"
    FAKE_JOIN_MULTI_EXIT = "FakeJoinMultiExit"
    FAKE_LOOP_WITH_TRANSFERS = "FakeLoopWithTransfers"


@dataclass(frozen=True)
class PatternSpec:
    pattern: Pattern
    seed: int = 0
    nesting_depth: int = 1

    def __post_init__(self) -> None:
        if self.nesting_depth < 1:
            raise ValueError("nesting_depth must be >= 1")


@dataclass
class GroundTruth:
    bytecode: bytes
    reused_offsets: set[int]
    expected_sensitive_paths: int
    expected_insensitive_paths: int
    traces: list[Trace]
    label_offsets: dict[str, int] = field(default_factory=dict)


class Assembler:
    """One-pass label assembler; all label pushes are fixed-width PUSH2.

    Each instruction is written to the bytes as it is added, and a label
    takes the current length as its offset at once, so `labels` and `size`
    are always up to date.  A label push writes `PUSH2 00 00` and records
    its operand's offset; `assemble` fills those operands into a copy.
    """

    def __init__(self) -> None:
        self._code = bytearray()
        self._patches: list[tuple[int, str]] = []  # (operand offset, label)
        self.labels: dict[str, int] = {}

    @property
    def size(self) -> int:
        return len(self._code)

    def jumpdest(self, name: str) -> None:
        self.label(name)
        self.op("JUMPDEST")

    def jump(self, name: str) -> None:
        self.push_label(name)
        self.op("JUMP")

    def label(self, name: str) -> None:
        if name in self.labels:
            raise ValueError(f"duplicate label {name}")
        self.labels[name] = len(self._code)

    def absorb(self, other: "Assembler", prefix: str) -> None:
        """Append another program relocated to the end of this one: its
        labels and label pushes move by that offset, under `prefix`."""
        base = len(self._code)
        labels = {prefix + name: base + offset for name, offset in other.labels.items()}
        for name in labels:
            if name in self.labels:
                raise ValueError(f"duplicate label {name}")
        self._code += other._code
        self.labels.update(labels)
        self._patches += [(base + at, prefix + name) for at, name in other._patches]

    def op(self, mnemonic: str) -> None:
        self._code.append(MNEMONIC_TO_OPCODE[mnemonic])

    def push(self, value: int, width: int | None = None) -> None:
        if width is None:
            width = max(1, (value.bit_length() + 7) // 8)
        if not 0 <= width <= 32 or not 0 <= value < 1 << (8 * width):
            raise ValueError(f"cannot push {value:#x} in {width} bytes")
        self._code.append(0x5F + width)
        self._code += value.to_bytes(width, "big")

    def push_label(self, name: str) -> None:
        self._code += b"\x61\0\0"  # PUSH2
        self._patches.append((len(self._code) - 2, name))

    def raw(self, data: bytes) -> None:
        self._code += data

    def assemble(self) -> bytes:
        """The bytes with every label push's operand filled in."""
        out = bytearray(self._code)
        for at, name in self._patches:
            target = self.labels.get(name)
            if target is None:
                raise ValueError(f"undefined label {name}")
            if target > 0xFFFF:
                raise ValueError(f"label {name} at {target:#x} does not fit a PUSH2")
            out[at] = target >> 8
            out[at + 1] = target & 0xFF
        return bytes(out)


class UnsupportedOpcodeError(AnalysisError):
    def __init__(self, mnemonic: str) -> None:
        super().__init__(f"unsupported opcode in concrete interpreter: {mnemonic}")
        self.mnemonic = mnemonic


_MOD = 1 << 256

# Concrete single-opcode semantics, written independently of the emulator's
# folding table on purpose: the two must agree and are cross-checked.
_CONCRETE_BINOPS = {
    0x01: lambda a, b: (a + b) % _MOD,
    0x02: lambda a, b: (a * b) % _MOD,
    0x03: lambda a, b: (a - b) % _MOD,
    0x04: lambda a, b: 0 if b == 0 else a // b,
    0x06: lambda a, b: 0 if b == 0 else a % b,
    0x0A: lambda a, b: pow(a, b, _MOD),
    0x10: lambda a, b: int(a < b),
    0x11: lambda a, b: int(a > b),
    0x14: lambda a, b: int(a == b),
    0x16: operator.and_,
    0x17: operator.or_,
    0x18: operator.xor,
    0x1B: lambda a, b: 0 if a >= 256 else (b << a) % _MOD,
    0x1C: lambda a, b: 0 if a >= 256 else b >> a,
    0x1A: lambda a, b: 0 if a >= 32 else (b >> (8 * (31 - a))) & 0xFF,
}
_CONCRETE_UNOPS = {
    0x15: lambda a: int(a == 0),
    0x19: lambda a: a ^ (_MOD - 1),
}

_HALTING = frozenset({"STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT"})

# How `interpret` executes each opcode, built from `OPCODES`, `_HALTING` and
# the concrete semantics above, never from the emulator's tables.  `_ENV`
# appears only in a call's own copy of the table, for an opcode whose value
# `env` supplies.
(_HALT, _PUSH, _PUSH0, _DUP, _SWAP, _POP, _JUMPDEST, _JUMP, _JUMPI,
 _BINOP, _UNOP, _UNSUPPORTED, _ENV) = range(13)

_KIND_BY_NAME = {"PUSH0": _PUSH0, "POP": _POP, "JUMPDEST": _JUMPDEST, "JUMP": _JUMP, "JUMPI": _JUMPI}


def _step_entry(opcode: int) -> tuple:
    """(kind, pops, pushes, arg) for one byte value.  `pops` is how many
    entries it needs: a DUPn reads down to its n-th entry and a SWAPn to its
    (n + 1)-th.  `arg` is the concrete function of an arithmetic opcode and
    the mnemonic of one without semantics here."""
    entry = OPCODES.get(opcode)
    if entry is None or entry[0] in _HALTING:
        return (_HALT, 0, 0, None)
    name, pops, pushes = entry
    if PUSH1 <= opcode <= PUSH32:
        return (_PUSH, 0, 1, None)
    if 0x80 <= opcode <= 0x8F:
        return (_DUP, pops, 1, None)
    if 0x90 <= opcode <= 0x9F:
        return (_SWAP, pops, 0, None)
    if name in _KIND_BY_NAME:
        return (_KIND_BY_NAME[name], pops, pushes, None)
    if opcode in _CONCRETE_BINOPS:
        return (_BINOP, pops, pushes, _CONCRETE_BINOPS[opcode])
    if opcode in _CONCRETE_UNOPS:
        return (_UNOP, pops, pushes, _CONCRETE_UNOPS[opcode])
    return (_UNSUPPORTED, pops, pushes, name)


_STEPS: tuple[tuple, ...] = tuple(_step_entry(op) for op in range(256))


def concrete_op(mnemonic: str, operands: list[int]) -> int:
    """Concrete result of one pure opcode; operands top-of-stack first."""
    opcode = MNEMONIC_TO_OPCODE[mnemonic]
    if opcode in _CONCRETE_UNOPS:
        return _CONCRETE_UNOPS[opcode](operands[0])
    if opcode in _CONCRETE_BINOPS:
        return _CONCRETE_BINOPS[opcode](operands[0], operands[1])
    raise UnsupportedOpcodeError(mnemonic)


# Bounds on one `interpret` call's JUMPI forks and instructions executed over
# all forks.  Golden fixtures need at most 7,927 steps; 2^19 also lets a
# chain of forks a few instructions apart reach the fork bound.
_MAX_FORKS = 65536
_MAX_STEPS = 1 << 19

# Branch decisions per run that `interpret` explores by default.
BRANCH_BOUND = 16

# What a fork runs once it passes the end of code.
_IMPLICIT_STOP = (Instruction(0, 0x00, "STOP"),)


def interpret(
    code: bytes,
    branch_bound: int = BRANCH_BOUND,
    env: dict[str, int] | None = None,
) -> list[Trace]:
    """Concretely execute `code`, forking both arms at every JUMPI.

    Steps over the decoded blocks: a fork appends a block's offset to its
    trace on entering it, runs its instructions and goes on to the jump
    target or the next block; past the end of code it stops as on STOP.
    Each instruction is one lookup in `_STEPS` and one branch on its kind.
    Returns the distinct traces that reach a terminator within
    `branch_bound` branch decisions per run.  Invalid jumps, underflows and
    overflows end their fork as a revert-class trace, which is still
    recorded.  A fork may reach each of its own exact (JUMPI offset, stack)
    decision states twice, so a loop that makes no progress runs one extra
    lap, and the third visit is pruned: `5b5f5f57` (JUMPDEST; PUSH0; PUSH0;
    JUMPI back to 0) takes its jump back twice.  An opcode without
    semantics here, and an environment opcode unless `env` supplies a
    constant for its mnemonic, raises `UnsupportedOpcodeError`; `env`
    overrides any opcode but the stack, control and halting ones,
    arithmetic included.  More than `_MAX_FORKS` forks or `_MAX_STEPS`
    instructions executed raise its base, `AnalysisError`.
    """
    table = _STEPS
    if env:
        table = list(_STEPS)
        for name, value in env.items():
            opcode = MNEMONIC_TO_OPCODE.get(name)
            if opcode is not None and table[opcode][0] in (_BINOP, _UNOP, _UNSUPPORTED):
                _, pops, pushes, _ = table[opcode]
                table[opcode] = (_ENV, pops, pushes, value)
    # block offset -> (instructions, offset the block falls through to)
    blocks = {
        b.id.offset: (b.instructions, b.end_offset)
        for b in identify_blocks(disassemble(code))
    }
    # Bytes inside push payloads are not legal landing sites; every
    # JUMPDEST opens a block.
    valid_dests = {o for o, (ins, _) in blocks.items() if ins[0].opcode == JUMPDEST}

    # A trace so far is a linked list, newest block first: (offset, rest),
    # ending in None; extending it and sharing it with a fork are O(1).
    # (next block, stack tuple, decisions used, trace so far, seen decision states)
    work = [(0, (), 0, None, frozenset())]
    found: dict[tuple[int, ...], None] = {}  # distinct traces, in the order first reached
    forks = 0
    steps_left = _MAX_STEPS

    def record(node) -> None:
        offsets = []
        while node is not None:
            offset, node = node
            offsets.append(offset)
        found[tuple(reversed(offsets))] = None

    while work:
        offset, stack, used, trace, seen = work.pop()
        stack = list(stack)
        while True:
            block = blocks.get(offset)
            if block is None:
                instructions = _IMPLICIT_STOP
            else:
                trace = (offset, trace)
                instructions, offset = block
            # A `break` ends the fork; running off the block goes on to `offset`.
            for pc, op, _, data, _, _ in instructions:
                steps_left -= 1
                if steps_left < 0:
                    raise AnalysisError(f"interpreter step budget of {_MAX_STEPS} exceeded")
                kind, pops, pushes, arg = table[op]
                if kind == _PUSH:
                    stack.append(data)
                    if len(stack) > STACK_LIMIT:
                        record(trace)
                        break
                elif kind == _JUMPDEST:
                    pass
                elif kind == _HALT or len(stack) < pops:
                    record(trace)  # halting, or an underflow, which reverts
                    break
                elif kind == _POP:
                    stack.pop()
                elif kind == _JUMP:
                    offset = stack.pop()
                    if offset not in valid_dests:
                        record(trace)  # invalid jump reverts
                        break
                elif kind == _UNOP:
                    stack[-1] = arg(stack[-1])
                elif kind == _BINOP:
                    stack[-1] = arg(stack.pop(), stack[-1])
                elif kind == _JUMPI:
                    target = stack.pop()
                    stack.pop()  # condition: both arms are explored regardless
                    if used >= branch_bound:
                        break  # fork abandoned, no trace
                    # A decision state may recur once (one extra loop lap);
                    # beyond that the fork makes no progress and is pruned.
                    rest = tuple(stack)
                    state_key = (pc, rest)
                    if (state_key, 1) not in seen:
                        seen = seen | {(state_key, 1)}
                    elif (state_key, 2) not in seen:
                        seen = seen | {(state_key, 2)}
                    else:
                        break
                    forks += 1
                    if forks > _MAX_FORKS:
                        raise AnalysisError(f"interpreter fork budget of {_MAX_FORKS} exceeded")
                    used += 1
                    # Explore the fall arm via the work list, continue on taken.
                    work.append((offset, rest, used, trace, seen))
                    if target not in valid_dests:
                        record(trace)  # taken arm reverts on a bad target
                        break
                    offset = target
                elif kind == _DUP:
                    stack.append(stack[-pops])
                    if len(stack) > STACK_LIMIT:
                        record(trace)
                        break
                elif kind == _SWAP:
                    stack[-1], stack[-pops] = stack[-pops], stack[-1]
                elif kind == _PUSH0:
                    stack.append(0)
                    if len(stack) > STACK_LIMIT:
                        record(trace)
                        break
                elif kind == _ENV:
                    if pops:
                        del stack[-pops:]
                    if pushes:
                        stack.append(arg & WORD_MASK)
                        if len(stack) > STACK_LIMIT:
                            record(trace)
                            break
                else:  # _UNSUPPORTED: no semantics here and no `env` constant
                    raise UnsupportedOpcodeError(arg)
            else:
                continue
            break

    return [Trace(trace) for trace in found]


# ---------------------------------------------------------------------------
# Pattern generators
# ---------------------------------------------------------------------------

def _filler(asm: Assembler, rng: random.Random, budget: int = 2) -> None:
    """Stack-neutral padding so seeds shift offsets and exercise folding."""
    for _ in range(rng.randrange(0, budget + 1)):
        choice = rng.randrange(3)
        if choice == 0:
            asm.push(rng.randrange(256))
            asm.op("POP")
        elif choice == 1:
            asm.push(rng.randrange(256))
            asm.push(rng.randrange(256))
            asm.op(rng.choice(["ADD", "XOR", "AND", "OR"]))
            asm.op("POP")
        else:
            asm.push(rng.randrange(256))
            asm.op("ISZERO")
            asm.op("POP")


def _block(asm: Assembler, rng: random.Random, name: str) -> None:
    """Jump destination `name` followed by filler."""
    asm.jumpdest(name)
    _filler(asm, rng)


def _dispatcher(asm: Assembler, arms: list[str]) -> None:
    """Chain of JUMPIs routing to `arms`; the last arm is the fallthrough."""
    for target in arms[:-1]:
        asm.push(0)
        asm.push_label(target)
        asm.op("JUMPI")
    asm.jump(arms[-1])


def _data_tail(asm: Assembler, rng: random.Random) -> None:
    """Unreachable trailing bytes, standing in for metadata regions."""
    tail = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 12)))
    asm.raw(tail)


def _build_basic_fake_join(rng: random.Random, depth: int):
    """One callee, d+1 callers each pre-pushing its own return target."""
    k = depth + 1
    asm = Assembler()
    callers = [f"caller{i}" for i in range(k)]
    _dispatcher(asm, callers)
    for i in range(k):
        _block(asm, rng, callers[i])
        asm.push_label(f"ret{i}")
        asm.jump("shared")
    _block(asm, rng, "shared")
    asm.op("JUMP")
    for i in range(k):
        _block(asm, rng, f"ret{i}")
        asm.op("STOP")
    return asm, ["shared"], k, k * k


def _build_basic_fake_loop(rng: random.Random, depth: int):
    """One callee revisited d+1 times along a single path."""
    asm = Assembler()
    # Entry pre-pushes every continuation, last use first popped.
    asm.push_label("exit")
    for i in range(depth, 0, -1):
        asm.push_label(f"mid{i}")
    asm.jump("shared")
    _block(asm, rng, "shared")
    asm.op("JUMP")
    for i in range(1, depth + 1):
        _block(asm, rng, f"mid{i}")
        asm.jump("shared")
    _block(asm, rng, "exit")
    asm.op("STOP")
    return asm, ["shared"], 1, depth + 1


def _build_fake_join_sequence(rng: random.Random, depth: int):
    """Nested reuse: level k wraps the level-(k-1) chain with one more
    prologue/epilogue pair, so a whole block sequence is shared."""
    asm = Assembler()
    callers = [f"caller{i}" for i in range(depth + 1)]
    _dispatcher(asm, callers)
    # caller 0 uses the core block alone; caller k uses pro_k..pro_1 core epi_1..epi_k
    for k in range(depth + 1):
        _block(asm, rng, callers[k])
        asm.push_label(f"ret{k}")
        for j in range(k, 0, -1):
            asm.push_label(f"epi{j}")
        if k == 0:
            asm.push_label("core")
        else:
            asm.push_label(f"pro{k}")
        asm.op("JUMP")
    for j in range(1, depth + 1):
        _block(asm, rng, f"pro{j}")
        if j == 1:
            asm.push_label("core")
        else:
            asm.push_label(f"pro{j-1}")
        asm.op("JUMP")
    _block(asm, rng, "core")
    asm.op("JUMP")
    for j in range(1, depth + 1):
        _block(asm, rng, f"epi{j}")
        asm.op("JUMP")
    for k in range(depth + 1):
        _block(asm, rng, f"ret{k}")
        asm.op("STOP")
    reused = ["core"]
    for j in range(1, depth):  # pro_j/epi_j run on levels j..depth
        reused += [f"pro{j}", f"epi{j}"]
    n = depth + 1
    return asm, reused, n, n * n


def _build_nested_fake_loops(rng: random.Random, depth: int):
    """Fake loops nested inside fake loops; one straight-line execution.

    Each nesting level is a shared snippet invoked twice by the level above:
    level 1 is the innermost block, level k wraps level k-1 with an entry
    block, a return site between the two inner invocations, and an exit
    block that pops level k's own pre-pushed return.  The innermost block
    runs 2^depth times overall.
    """
    asm = Assembler()
    inner = "body" if depth == 1 else f"w{depth}_in"
    asm.push_label("m1")
    asm.jump(inner)
    _block(asm, rng, "m1")
    asm.push_label("m2")
    asm.jump(inner)
    _block(asm, rng, "m2")
    asm.op("STOP")
    for k in range(depth, 1, -1):
        called = "body" if k == 2 else f"w{k-1}_in"
        _block(asm, rng, f"w{k}_in")
        asm.push_label(f"w{k}_r1")
        asm.jump(called)
        _block(asm, rng, f"w{k}_r1")
        asm.push_label(f"w{k}_r2")
        asm.jump(called)
        _block(asm, rng, f"w{k}_r2")
        asm.op("JUMP")  # pops this level's own pre-pushed return
    _block(asm, rng, "body")
    asm.op("JUMP")
    reused = ["body"]
    for k in range(2, depth + 1):
        reused += [f"w{k}_in", f"w{k}_r1", f"w{k}_r2"]
    return asm, reused, 1, depth + 1


def _build_fake_join_with_real(rng: random.Random, depth: int):
    """One caller reuses the shared block; d+1 more form a real join on it."""
    asm = Assembler()
    callers = ["reuser"] + [f"joiner{i}" for i in range(depth + 1)]
    _dispatcher(asm, callers)
    _block(asm, rng, "reuser")
    asm.push_label("ret_a")
    asm.jump("shared")
    for i in range(depth + 1):
        _block(asm, rng, f"joiner{i}")
        asm.push_label("ret_b")
        asm.jump("shared")
    _block(asm, rng, "shared")
    asm.op("JUMP")
    for name in ("ret_a", "ret_b"):
        _block(asm, rng, name)
        asm.op("STOP")
    k = depth + 2
    return asm, ["shared"], k, 2 * k


def _build_fake_loop_with_real_loop(rng: random.Random, depth: int):
    """A genuine two-block loop whose exit target changes per reuse round."""
    rounds = depth + 1
    asm = Assembler()
    asm.push_label("exit")
    for r in range(depth, 0, -1):
        asm.push_label(f"hop{r}")
    asm.jump("head")
    # head tests the pre-pushed exit target without consuming it.
    _block(asm, rng, "head")
    asm.push(0)
    asm.op("DUP2")
    asm.op("JUMPI")
    # fallthrough: loop body, jumps back to head.
    asm.label("head_fall")
    _filler(asm, rng)
    asm.jump("head")
    for r in range(1, depth + 1):
        asm.jumpdest(f"hop{r}")
        asm.op("POP")
        _filler(asm, rng)
        asm.jump("head")
    asm.jumpdest("exit")
    asm.op("POP")
    _filler(asm, rng)
    asm.op("STOP")
    return asm, ["head", "head_fall"], rounds + 1, rounds + 1


def _build_fake_join_multi_exit(rng: random.Random, depth: int):
    """Reused cluster with a real branch and a real join inside it."""
    asm = Assembler()
    callers = [f"caller{i}" for i in range(depth + 1)]
    _dispatcher(asm, callers)
    for i in range(depth + 1):
        _block(asm, rng, callers[i])
        asm.push_label(f"ret{i}")
        asm.jump("cluster")
    _block(asm, rng, "cluster")
    asm.push(0)
    asm.push_label("arm_b")
    asm.op("JUMPI")
    asm.label("cluster_fall")  # fallthrough arm
    _filler(asm, rng)
    asm.op("JUMP")
    _block(asm, rng, "arm_b")
    asm.op("JUMP")
    for i in range(depth + 1):
        _block(asm, rng, f"ret{i}")
        asm.jump(f"fin{i}")
    for i in range(depth + 1):
        asm.jumpdest(f"fin{i}")
        asm.op("STOP")
    k = depth + 1
    return asm, ["cluster", "cluster_fall", "arm_b"], 2 * k, 2 * k * k


def _build_fake_loop_with_transfers(rng: random.Random, depth: int):
    """Reused cluster (branch + join + a chain of d tail blocks) used twice,
    the first use looping back through a connector block."""
    asm = Assembler()
    asm.push_label("exit")
    asm.push_label("back")
    asm.jump("head")
    _block(asm, rng, "head")
    asm.push(0)
    asm.push_label("arm_b")
    asm.op("JUMPI")
    asm.label("head_fall")
    _filler(asm, rng)
    asm.jump("tail1")
    _block(asm, rng, "arm_b")
    asm.jump("tail1")
    for j in range(1, depth + 1):
        _block(asm, rng, f"tail{j}")
        if j < depth:
            asm.jump(f"tail{j+1}")
        else:
            asm.op("JUMP")  # pops the pre-pushed continuation
    _block(asm, rng, "back")
    asm.jump("head")
    _block(asm, rng, "exit")
    asm.op("STOP")
    reused = ["head", "head_fall", "arm_b"] + [f"tail{j}" for j in range(1, depth + 1)]
    return asm, reused, 4, 4


_BUILDERS = {
    Pattern.BASIC_FAKE_JOIN: _build_basic_fake_join,
    Pattern.BASIC_FAKE_LOOP: _build_basic_fake_loop,
    Pattern.FAKE_JOIN_SEQUENCE: _build_fake_join_sequence,
    Pattern.NESTED_FAKE_LOOPS: _build_nested_fake_loops,
    Pattern.FAKE_JOIN_WITH_REAL: _build_fake_join_with_real,
    Pattern.FAKE_LOOP_WITH_REAL_LOOP: _build_fake_loop_with_real_loop,
    Pattern.FAKE_JOIN_MULTI_EXIT: _build_fake_join_multi_exit,
    Pattern.FAKE_LOOP_WITH_TRANSFERS: _build_fake_loop_with_transfers,
}


def generate(spec: PatternSpec) -> GroundTruth:
    """Synthesize one labeled fixture for `spec`."""
    rng = random.Random(f"{spec.pattern.value}:{spec.seed}:{spec.nesting_depth}")
    asm, reused_labels, sens, insens = _BUILDERS[spec.pattern](rng, spec.nesting_depth)
    _data_tail(asm, rng)
    if asm.size > CODE_SIZE_LIMIT:
        raise ValueError(
            f"fixture exceeds deployable code size limit ({asm.size} > {CODE_SIZE_LIMIT})"
        )
    code = asm.assemble()
    traces = interpret(code)
    return GroundTruth(
        bytecode=code,
        reused_offsets={asm.labels[name] for name in reused_labels},
        expected_sensitive_paths=sens,
        expected_insensitive_paths=insens,
        traces=traces,
        label_offsets=dict(asm.labels),
    )


def stress_fixture(target_size: int = 24_000, seed: int = 0) -> bytes:
    """Near-code-size-limit composition of pattern segments behind one
    dispatcher; the scalability fixture."""
    rng = random.Random(seed)
    cycle = [
        Pattern.FAKE_JOIN_SEQUENCE,
        Pattern.FAKE_LOOP_WITH_REAL_LOOP,
        Pattern.BASIC_FAKE_JOIN,
        Pattern.FAKE_JOIN_MULTI_EXIT,
        Pattern.NESTED_FAKE_LOOPS,
        Pattern.FAKE_LOOP_WITH_TRANSFERS,
        Pattern.BASIC_FAKE_LOOP,
    ]
    segment_asms: list[Assembler] = []
    estimated = 0
    i = 0
    while True:
        pat = cycle[i % len(cycle)]
        sub_rng = random.Random(f"stress:{seed}:{i}")
        sub_asm, _, _, _ = _BUILDERS[pat](sub_rng, 4)
        # dispatcher arm (6 bytes) + entry JUMPDEST per segment
        if estimated + sub_asm.size + 6 + 1 > target_size:
            if not segment_asms:
                raise ValueError(
                    f"stress fixture target size {target_size} is below one segment "
                    f"({sub_asm.size + 6 + 1} bytes at seed {seed})"
                )
            break
        segment_asms.append(sub_asm)
        estimated += sub_asm.size + 6 + 1
        i += 1

    asm = Assembler()
    names = [f"seg{j}_" for j in range(len(segment_asms))]
    _dispatcher(asm, [name + "entry" for name in names])
    for name, seg in zip(names, segment_asms):
        asm.jumpdest(name + "entry")
        asm.absorb(seg, name)
    code = asm.assemble()
    if len(code) < target_size:
        code += bytes(rng.randrange(256) for _ in range(target_size - len(code)))
    return code
