"""EVM bytecode decoding and basic-block identification.

Linear-sweep disassembly over runtime bytecode.  Every byte is retained:
push payloads are consumed as data, unknown opcodes decode as 1-byte
invalid instructions, and trailing regions that are never reached stay in
the instruction stream so later passes can flag them instead of dropping
them.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

WORD_MASK = (1 << 256) - 1
STACK_LIMIT = 1024
CODE_SIZE_LIMIT = 24_576

# opcode -> (mnemonic, pops, pushes)
OPCODES: dict[int, tuple[str, int, int]] = {
    0x00: ("STOP", 0, 0),
    0x01: ("ADD", 2, 1),
    0x02: ("MUL", 2, 1),
    0x03: ("SUB", 2, 1),
    0x04: ("DIV", 2, 1),
    0x05: ("SDIV", 2, 1),
    0x06: ("MOD", 2, 1),
    0x07: ("SMOD", 2, 1),
    0x08: ("ADDMOD", 3, 1),
    0x09: ("MULMOD", 3, 1),
    0x0A: ("EXP", 2, 1),
    0x0B: ("SIGNEXTEND", 2, 1),
    0x10: ("LT", 2, 1),
    0x11: ("GT", 2, 1),
    0x12: ("SLT", 2, 1),
    0x13: ("SGT", 2, 1),
    0x14: ("EQ", 2, 1),
    0x15: ("ISZERO", 1, 1),
    0x16: ("AND", 2, 1),
    0x17: ("OR", 2, 1),
    0x18: ("XOR", 2, 1),
    0x19: ("NOT", 1, 1),
    0x1A: ("BYTE", 2, 1),
    0x1B: ("SHL", 2, 1),
    0x1C: ("SHR", 2, 1),
    0x1D: ("SAR", 2, 1),
    0x20: ("SHA3", 2, 1),
    0x30: ("ADDRESS", 0, 1),
    0x31: ("BALANCE", 1, 1),
    0x32: ("ORIGIN", 0, 1),
    0x33: ("CALLER", 0, 1),
    0x34: ("CALLVALUE", 0, 1),
    0x35: ("CALLDATALOAD", 1, 1),
    0x36: ("CALLDATASIZE", 0, 1),
    0x37: ("CALLDATACOPY", 3, 0),
    0x38: ("CODESIZE", 0, 1),
    0x39: ("CODECOPY", 3, 0),
    0x3A: ("GASPRICE", 0, 1),
    0x3B: ("EXTCODESIZE", 1, 1),
    0x3C: ("EXTCODECOPY", 4, 0),
    0x3D: ("RETURNDATASIZE", 0, 1),
    0x3E: ("RETURNDATACOPY", 3, 0),
    0x3F: ("EXTCODEHASH", 1, 1),
    0x40: ("BLOCKHASH", 1, 1),
    0x41: ("COINBASE", 0, 1),
    0x42: ("TIMESTAMP", 0, 1),
    0x43: ("NUMBER", 0, 1),
    0x44: ("PREVRANDAO", 0, 1),
    0x45: ("GASLIMIT", 0, 1),
    0x46: ("CHAINID", 0, 1),
    0x47: ("SELFBALANCE", 0, 1),
    0x48: ("BASEFEE", 0, 1),
    0x50: ("POP", 1, 0),
    0x51: ("MLOAD", 1, 1),
    0x52: ("MSTORE", 2, 0),
    0x53: ("MSTORE8", 2, 0),
    0x54: ("SLOAD", 1, 1),
    0x55: ("SSTORE", 2, 0),
    0x56: ("JUMP", 1, 0),
    0x57: ("JUMPI", 2, 0),
    0x58: ("PC", 0, 1),
    0x59: ("MSIZE", 0, 1),
    0x5A: ("GAS", 0, 1),
    0x5B: ("JUMPDEST", 0, 0),
    0x5F: ("PUSH0", 0, 1),
    0xF0: ("CREATE", 3, 1),
    0xF1: ("CALL", 7, 1),
    0xF2: ("CALLCODE", 7, 1),
    0xF3: ("RETURN", 2, 0),
    0xF4: ("DELEGATECALL", 6, 1),
    0xF5: ("CREATE2", 4, 1),
    0xFA: ("STATICCALL", 6, 1),
    0xFD: ("REVERT", 2, 0),
    0xFE: ("INVALID", 0, 0),
    0xFF: ("SELFDESTRUCT", 1, 0),
}
for _n in range(1, 33):
    OPCODES[0x5F + _n] = (f"PUSH{_n}", 0, 1)
for _n in range(1, 17):
    OPCODES[0x7F + _n] = (f"DUP{_n}", _n, _n + 1)
    OPCODES[0x8F + _n] = (f"SWAP{_n}", _n + 1, _n + 1)
for _n in range(0, 5):
    OPCODES[0xA0 + _n] = (f"LOG{_n}", 2 + _n, 0)

MNEMONIC_TO_OPCODE: dict[str, int] = {name: op for op, (name, _, _) in OPCODES.items()}

JUMPDEST = 0x5B
PUSH1, PUSH32 = 0x60, 0x7F

class Terminator(enum.Enum):
    JUMP = "jump"
    JUMPI = "jumpi"
    STOP = "stop"
    RETURN = "return"
    REVERT = "revert"
    INVALID = "invalid"
    SELFDESTRUCT = "selfdestruct"
    FALLTHROUGH = "fallthrough"

    # Members compare by identity; hash them the same way, in C, rather
    # than through `Enum.__hash__` (a Python frame per `halts` test).
    __hash__ = object.__hash__


# Opcodes that end a basic block, with the terminator each one gives.
_TERMINATOR_BY_OPCODE = {
    0x56: Terminator.JUMP,
    0x57: Terminator.JUMPI,
    0x00: Terminator.STOP,
    0xF3: Terminator.RETURN,
    0xFD: Terminator.REVERT,
    0xFE: Terminator.INVALID,
    0xFF: Terminator.SELFDESTRUCT,
}

# Terminators that end the transaction; blocks ending in one of these are
# "end blocks" and get per-predecessor clones during recovery.
HALTING_TERMINATORS = {
    Terminator.STOP,
    Terminator.RETURN,
    Terminator.REVERT,
    Terminator.INVALID,
    Terminator.SELFDESTRUCT,
}

# Terminators after which execution goes on at the next block; a module
# name, so that testing for one reads no member off the enum class.
_FALLS_THROUGH = frozenset({Terminator.JUMPI, Terminator.FALLTHROUGH})

# Builds a named tuple from all of its fields in order, in C.  Calling the
# class instead runs its Python-level `__new__`, which costs about twice as
# much per record; `tuple.__new__` applies no defaults and checks no arity,
# so every hot site passes every field.
_new = tuple.__new__


class Instruction(NamedTuple):
    """One decoded instruction at a byte offset.

    An immutable named tuple: it compares equal to the plain tuple of its
    fields, in field order.
    """

    offset: int
    opcode: int
    mnemonic: str
    push_data: int | None = None
    length: int = 1
    truncated: bool = False

    @property
    def is_push(self) -> bool:
        return PUSH1 <= self.opcode <= PUSH32

    @property
    def push_width(self) -> int:
        return self.opcode - 0x5F if self.is_push else 0

    def to_bytes(self) -> bytes:
        """Re-serialize exactly the bytes this instruction was decoded from."""
        if not self.is_push:
            return bytes([self.opcode])
        payload = self.push_data.to_bytes(self.push_width, "big")
        return bytes([self.opcode]) + payload[: self.length - 1]

    def listing_line(self) -> str:
        # Reads the opcode in place rather than through `is_push` and
        # `push_width`: the exports render a line per decoded instruction.
        if PUSH1 <= self.opcode <= PUSH32:
            width = (self.opcode - 0x5F) * 2
            return f"0x{self.offset:x}: {self.mnemonic} 0x{self.push_data:0{width}x}"
        return f"0x{self.offset:x}: {self.mnemonic}"


class BlockId(NamedTuple):
    """CFG node identity: byte offset plus clone index (0 = original)."""

    offset: int
    clone: int

    def __str__(self) -> str:
        return f"0x{self.offset:x}_{self.clone}"


class BasicBlock(NamedTuple):
    """Straight-line instruction run with a single entry and exit.

    An immutable named tuple; its offset is `id.offset`.  A clone is the
    same record with another `id`, sharing the original's instructions.
    """

    id: BlockId
    instructions: list[Instruction]
    terminator: Terminator

    @property
    def end_offset(self) -> int:
        last = self.instructions[-1]
        return last.offset + last.length

    @property
    def fallthrough_offset(self) -> int | None:
        """Offset execution continues at when the block does not jump away:
        its `end_offset`, or None when it ends in a JUMP or a halt.  It reads
        the last instruction itself rather than through `end_offset`, since
        recovery reads it once per emulation."""
        if self.terminator in _FALLS_THROUGH:
            last = self.instructions[-1]
            return last.offset + last.length
        return None

    @property
    def halts(self) -> bool:
        return self.terminator in HALTING_TERMINATORS


def stack_effect(opcode: int) -> tuple[int, int]:
    """(pops, pushes) for an opcode; unknown opcodes touch nothing."""
    entry = OPCODES.get(opcode)
    if entry is None:
        return (0, 0)
    return (entry[1], entry[2])


# opcode -> mnemonic for all 256 byte values.
MNEMONICS: tuple[str, ...] = tuple(
    OPCODES[op][0] if op in OPCODES else f"UNKNOWN_0x{op:02x}" for op in range(256)
)


def disassemble(code: bytes) -> list[Instruction]:
    """Linear sweep over `code`, skipping push payloads as data.

    A push whose payload runs past the end of the code is zero-padded to its
    declared width (bytes beyond the end of code read as zero) and marked
    `truncated`; its `length` only covers the bytes actually present so the
    instruction stream still round-trips to the input.
    """
    if not code:
        raise ValueError("empty bytecode")
    out: list[Instruction] = []
    append = out.append
    names = MNEMONICS
    pc = 0
    n = len(code)
    while pc < n:
        op = code[pc]
        if PUSH1 <= op <= PUSH32:
            width = op - 0x5F
            end = pc + 1 + width
            if end <= n:
                value = int.from_bytes(code[pc + 1 : end], "big")
                append(_new(Instruction, (pc, op, names[op], value, 1 + width, False)))
                pc = end
            else:
                consumed = n - pc - 1
                value = int.from_bytes(code[pc + 1 :] + bytes(width - consumed), "big")
                append(_new(Instruction, (pc, op, names[op], value, 1 + consumed, True)))
                pc = n
        else:
            append(_new(Instruction, (pc, op, names[op], None, 1, False)))
            pc += 1
    return out


# byte value -> the terminator of a block that ends with it, or None when
# the block goes on.  An unknown byte ends one like INVALID: it is an
# invalid-class instruction, or simply data.
_BLOCK_END: tuple[Terminator | None, ...] = tuple(
    _TERMINATOR_BY_OPCODE.get(op, None if op in OPCODES else Terminator.INVALID)
    for op in range(256)
)


def identify_blocks(instructions: list[Instruction]) -> list[BasicBlock]:
    """Partition an instruction stream into candidate basic blocks.

    Splits before every JUMPDEST and after every terminator.  Unknown
    opcodes terminate a block like INVALID.  All bytes stay in the output;
    whether a block is real code or data is decided later by reachability.
    """
    blocks: list[BasicBlock] = []
    start = 0  # index of the current block's first instruction

    def cut(stop: int, terminator: Terminator) -> None:
        nonlocal start
        block_id = _new(BlockId, (instructions[start].offset, 0))
        blocks.append(_new(BasicBlock, (block_id, instructions[start:stop], terminator)))
        start = stop

    ends = _BLOCK_END
    for i, ins in enumerate(instructions):
        opcode = ins.opcode
        if opcode == JUMPDEST and i > start:
            cut(i, Terminator.FALLTHROUGH)
        terminator = ends[opcode]
        if terminator is not None:
            cut(i + 1, terminator)
    if start < len(instructions):
        cut(len(instructions), Terminator.FALLTHROUGH)
    return blocks


def serialize(instructions: list[Instruction]) -> bytes:
    return b"".join(ins.to_bytes() for ins in instructions)


def format_listing(instructions: list[Instruction]) -> str:
    return "\n".join(ins.listing_line() for ins in instructions)


_HEX_RE = re.compile(r"^[0-9a-fA-F]*$")


def parse_hex(text: str) -> bytes:
    """Hex string (optional 0x prefix, case-insensitive, whitespace ok) to bytes."""
    stripped = "".join(text.split())
    if stripped[:2] in ("0x", "0X"):
        stripped = stripped[2:]
    if not stripped or not _HEX_RE.match(stripped):
        raise ValueError("malformed hex input")
    if len(stripped) % 2:
        raise ValueError("odd-length hex input")
    return bytes.fromhex(stripped)


def load_bytecode(data: bytes) -> bytes:
    """Auto-detect hex text vs raw binary contents."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return data
    if re.fullmatch(r"[0-9a-fA-FxX\s]+", text):
        return parse_hex(text)
    return data
