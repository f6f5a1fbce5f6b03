"""Records built through `tuple.__new__` are whole named tuples.

The hot sites of recovery build `Instruction`, `BlockId`, `Value`, `TacOp`,
`EmulationResult` and `Edge` by calling `tuple.__new__` with every field in
order, which applies no defaults and checks no arity.  Each record they
produce must still be an instance of its class with one item per field, and
equal the record the class constructor builds from the same items.
"""

from __future__ import annotations

import pytest

from reusecfg.bytecode import BlockId, Instruction, disassemble, identify_blocks
from reusecfg.cfg import Edge, Mode, build_cfg
from reusecfg.corpus import stress_fixture
from reusecfg.emulator import EmulationResult, TacOp, Value, emulate_block

INPUTS = {
    "stress_3000": stress_fixture(3000, 0),
    # An ADD on the empty stack (unknown operands), a jump to 0x6 and a
    # PUSH2 whose payload runs past the end of the code.
    "truncated_push": bytes.fromhex("0160065600005b61ab"),
}


def assert_whole(records, cls) -> None:
    records = list(records)
    assert records
    for record in records:
        assert isinstance(record, cls)
        assert len(record) == len(cls._fields)
        assert record == cls(*record)


@pytest.mark.parametrize("name", INPUTS)
def test_decoded_records_are_whole(name):
    instructions = disassemble(INPUTS[name])
    assert_whole(instructions, Instruction)
    assert_whole((block.id for block in identify_blocks(instructions)), BlockId)
    if name == "truncated_push":
        assert instructions[-1].truncated


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", INPUTS)
def test_recovered_records_are_whole(name, mode):
    cfg = build_cfg(INPUTS[name], mode)
    assert_whole(cfg.blocks, BlockId)
    assert_whole((block.id for block in cfg.blocks.values()), BlockId)
    assert_whole(cfg.value_table.values, Value)
    assert_whole((op for ops in cfg.tac.values() for op in ops), TacOp)
    assert_whole(cfg.edges, Edge)
    results = [
        emulate_block(cfg.blocks[block], stack, cfg.value_table)
        for block, stack in cfg.s_start.items()
    ]
    assert_whole(results, EmulationResult)
