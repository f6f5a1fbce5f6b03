import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reusecfg.bytecode import (
    OPCODES,
    Terminator,
    disassemble,
    format_listing,
    identify_blocks,
    load_bytecode,
    parse_hex,
    serialize,
)


def oracle_decode(code: bytes):
    """Independent table-driven decoder: (offset, opcode, payload bytes).

    Built directly from the instruction-length rule, sharing nothing with
    the production decoder.
    """
    out = []
    pc = 0
    while pc < len(code):
        op = code[pc]
        if 0x60 <= op <= 0x7F:
            payload = code[pc + 1 : pc + 1 + (op - 0x5F)]
            out.append((pc, op, payload))
            pc += 1 + len(payload)
        else:
            out.append((pc, op, None))
            pc += 1
    return out


def as_tuples(instructions):
    out = []
    for ins in instructions:
        if ins.is_push:
            full = ins.push_data.to_bytes(ins.push_width, "big")
            out.append((ins.offset, ins.opcode, full[: ins.length - 1]))
        else:
            out.append((ins.offset, ins.opcode, None))
    return out


def test_single_push():
    ins = disassemble(bytes.fromhex("6001"))
    assert len(ins) == 1
    assert ins[0].mnemonic == "PUSH1"
    assert ins[0].push_data == 1
    assert ins[0].offset == 0


def test_push_payload_not_decoded_as_opcode():
    # 0x56 is the JUMP opcode byte, but here it is PUSH1 payload.
    ins = disassemble(bytes.fromhex("60565b"))
    assert [i.mnemonic for i in ins] == ["PUSH1", "JUMPDEST"]
    assert ins[0].push_data == 0x56
    assert ins[1].offset == 2


def test_truncated_trailing_push_zero_padded():
    ins = disassemble(bytes.fromhex("61ff"))
    assert ins[0].mnemonic == "PUSH2"
    assert ins[0].push_data == 0xFF00
    assert ins[0].truncated
    assert ins[0].length == 2
    assert serialize(ins) == bytes.fromhex("61ff")


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=1, max_size=200))
def test_only_the_last_instruction_can_be_truncated(code):
    # Recovery checks only the last instruction for a truncated push.
    assert not any(ins.truncated for ins in disassemble(code)[:-1])


def test_unknown_opcode_decodes_as_invalid_class():
    ins = disassemble(bytes.fromhex("0c00"))
    assert ins[0].mnemonic == "UNKNOWN_0x0c"
    assert ins[0].length == 1
    blocks = identify_blocks(ins)
    assert blocks[0].terminator is Terminator.INVALID


def test_decoder_matches_independent_oracle():
    rng = random.Random(0xD15A)
    for _ in range(10_000):
        code = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 160)))
        assert as_tuples(disassemble(code)) == oracle_decode(code)


def test_round_trip_random():
    rng = random.Random(0xBEEF)
    for _ in range(2_000):
        code = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 256)))
        assert serialize(disassemble(code)) == code


def test_round_trip_one_kilobyte():
    rng = random.Random(7)
    code = bytes(rng.randrange(256) for _ in range(1024))
    assert as_tuples(disassemble(code)) == oracle_decode(code)
    assert serialize(disassemble(code)) == code


def test_lengths_cover_code():
    rng = random.Random(3)
    for _ in range(200):
        code = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 300)))
        assert sum(i.length for i in disassemble(code)) == len(code)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        disassemble(b"")


def test_blocks_split_on_jumpdest_and_terminators():
    # JUMPDEST; PUSH1 0x08; JUMP; JUMPDEST; STOP
    blocks = identify_blocks(disassemble(bytes.fromhex("5b6008565b00")))
    assert [b.id.offset for b in blocks] == [0, 4]
    assert blocks[0].terminator is Terminator.JUMP
    assert blocks[1].terminator is Terminator.STOP


def test_jumpi_block_records_fallthrough_boundary():
    # PUSH1 0x06; JUMPI; STOP; JUMPDEST; STOP
    blocks = identify_blocks(disassemble(bytes.fromhex("600657005b00")))
    assert [b.id.offset for b in blocks] == [0, 3, 4]
    assert blocks[0].terminator is Terminator.JUMPI
    assert blocks[0].fallthrough_offset == 3


# Opcodes that end a block, with the terminator each gives.
TERMINATORS = {
    0x56: Terminator.JUMP,
    0x57: Terminator.JUMPI,
    0x00: Terminator.STOP,
    0xF3: Terminator.RETURN,
    0xFD: Terminator.REVERT,
    0xFE: Terminator.INVALID,
    0xFF: Terminator.SELFDESTRUCT,
}


def test_partition_properties():
    rng = random.Random(11)
    for _ in range(300):
        code = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 400)))
        instructions = disassemble(code)
        blocks = identify_blocks(instructions)
        collected = [i for b in blocks for i in b.instructions]
        assert collected == instructions
        starts = [b.id.offset for b in blocks]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)
        for b, following in zip(blocks, [*blocks[1:], None]):
            offs = b.instructions
            assert b.id == (offs[0].offset, 0)
            for a, c in zip(offs, offs[1:]):
                assert c.offset == a.offset + a.length
                assert c.opcode != 0x5B  # JUMPDEST only block-initial
            # JUMP, JUMPI, halting opcodes and unknown bytes only block-final
            for a in offs[:-1]:
                assert a.opcode in OPCODES, a
                assert a.opcode not in TERMINATORS, a
            last = offs[-1].opcode
            if last in TERMINATORS:
                assert b.terminator is TERMINATORS[last]
            elif last not in OPCODES:
                assert b.terminator is Terminator.INVALID
            else:
                assert b.terminator is Terminator.FALLTHROUGH
                # A block ends before a JUMPDEST or at the end of the code.
                assert following is None or following.instructions[0].opcode == 0x5B


def test_listing_format():
    text = format_listing(disassemble(bytes.fromhex("611234565b")))
    assert text.splitlines() == ["0x0: PUSH2 0x1234", "0x3: JUMP", "0x4: JUMPDEST"]


def test_parse_hex_variants():
    assert parse_hex("0x6001") == b"\x60\x01"
    assert parse_hex("6001") == b"\x60\x01"
    assert parse_hex("0X60 01\n") == b"\x60\x01"
    with pytest.raises(ValueError):
        parse_hex("60011")
    with pytest.raises(ValueError):
        parse_hex("zz")
    for doubled in ("0x0x12", "0X0x12", "0x 0x12"):
        with pytest.raises(ValueError, match="malformed hex input"):
            parse_hex(doubled)


def test_load_bytecode_autodetect():
    assert load_bytecode(b"0x6001") == b"\x60\x01"
    raw = bytes([0x60, 0x01, 0xFE])
    assert load_bytecode(raw) == raw
    assert load_bytecode(b"hello") == b"hello"  # ASCII, but not hex
