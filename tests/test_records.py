"""Records built through `tuple.__new__` are whole named tuples.

The hot sites of recovery build `Instruction`, `BlockId`, `BasicBlock`,
`Value`, `TacOp`, `EmulationResult` and `Edge` by calling `tuple.__new__`
with every field in order, which applies no defaults and checks no arity.
Each record they produce must still be an instance of its class with one
item per field, and equal the record the class constructor builds from the
same items.  Decoded blocks are immutable: recovery adds clones beside them
and changes none.
"""

from __future__ import annotations

import pytest

from reusecfg.bytecode import BasicBlock, BlockId, Instruction, disassemble, identify_blocks
from reusecfg.cfg import Edge, Mode, build_cfg
from reusecfg.corpus import stress_fixture
from reusecfg.emulator import EmulationResult, TacOp, Value, emulate_block, tac_ops

INPUTS = {
    "stress_3000": stress_fixture(3000, 0),
    # Two pushes and their ADD, a jump to 0xa and a PUSH2 whose payload
    # runs past the end of the code.
    "truncated_push": bytes.fromhex("6001600201600a5600005b61ab"),
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
    blocks = identify_blocks(instructions)
    assert_whole(blocks, BasicBlock)
    assert_whole((block.id for block in blocks), BlockId)
    if name == "truncated_push":
        assert instructions[-1].truncated


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", INPUTS)
def test_recovered_records_are_whole(name, mode):
    cfg = build_cfg(INPUTS[name], mode)
    assert_whole(cfg.blocks, BlockId)
    assert_whole(cfg.blocks.values(), BasicBlock)
    assert_whole((block.id for block in cfg.blocks.values()), BlockId)
    if mode is Mode.REUSE_SENSITIVE and name == "stress_3000":
        assert any(block.clone for block in cfg.blocks)  # clones are checked too
    assert_whole(cfg.value_table.values, Value)
    tac = (op for block, ids in cfg.tac_ids.items() for op in tac_ops(cfg.blocks[block], ids))
    assert_whole(tac, TacOp)
    assert_whole(cfg.edges, Edge)
    results = [
        emulate_block(cfg.blocks[block], stack, cfg.value_table)
        for block, stack in cfg.s_start.items()
    ]
    assert_whole(results, EmulationResult)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", INPUTS)
def test_recovery_leaves_decoded_blocks_unchanged(name, mode):
    fresh = {block.id.offset: block for block in identify_blocks(disassemble(INPUTS[name]))}
    cfg = build_cfg(INPUTS[name], mode)
    assert {block_id.offset for block_id in cfg.blocks} == set(fresh)
    for block_id, block in cfg.blocks.items():
        assert block.id == block_id
        assert block[1:] == fresh[block_id.offset][1:]
        if block_id.clone:
            # A clone shares its original's instruction list.
            assert block.instructions is cfg.blocks[(block_id.offset, 0)].instructions
