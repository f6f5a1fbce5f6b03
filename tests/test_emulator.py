import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import two_branch_shared_increment
from reusecfg.bytecode import STACK_LIMIT, disassemble, identify_blocks, stack_effect
from reusecfg.cfg import Mode, build_cfg
from reusecfg.corpus import Assembler, concrete_op
from reusecfg.emulator import (
    CONST,
    FOLDED_OPS,
    PHI,
    SYM,
    UNKNOWN,
    ValueTable,
    _DISPATCH,
    emulate_block,
    prepare_stack,
    tac_ops,
    trace_origin,
)


def emulate_hex(hex_code: str, s_start=(), table=None):
    if table is None:
        table = ValueTable()  # an empty table is falsy: test for None
    blocks = identify_blocks(disassemble(bytes.fromhex(hex_code)))
    result = emulate_block(blocks[0], s_start, table)
    return result, table


def test_constant_fold_add():
    result, table = emulate_hex("6002600301")
    assert [table.get(v).const for v in result.s_end] == [5]


def test_pushed_constants_share_one_value_under_distinct_ids():
    # A push constant depends only on its word: every push of the word gets
    # a fresh id for the same Value object, in emulations and in new_const.
    table = ValueTable()
    first, _ = emulate_hex("6005600760055f", table=table)
    second, _ = emulate_hex("6005", table=table)
    ids = [*first.s_end, *second.s_end]
    assert len(set(ids)) == len(ids) == 5
    values = table.values
    assert values[ids[0]] is values[ids[2]] is values[ids[4]]
    assert values[ids[0]] == (CONST, 5, None, ())
    assert values[ids[1]] is not values[ids[0]]
    a, b = table.new_const(5), table.new_const(5 + (1 << 256))
    assert a != b and values[a] is values[b] is values[ids[0]]
    assert table.get(ids[3]) == (CONST, 0, None, ())
    # A folded constant keeps its operands: it is never shared.
    folded, _ = emulate_hex("6002600301", table=table)
    assert values[folded.s_end[0]].args and values[folded.s_end[0]] is not values[ids[0]]
    assert table.new_const(5, args=(a,)) != a
    assert values[-1] is not values[a]


def test_and_with_symbolic_operand_keeps_links():
    table = ValueTable()
    b = table.new_sym("CALLVALUE", ())
    result, _ = emulate_hex("61ffff16", (b,), table)
    top = table.get(result.s_end[-1])
    assert top.kind == SYM and top.op == "AND"
    operands = {table.get(a).kind for a in top.args}
    assert CONST in operands
    assert b in top.args


def test_folding_matches_concrete_interpreter():
    rng = random.Random(0xF01D)
    unary = {"NOT", "ISZERO"}
    for mnemonic in sorted(FOLDED_OPS):
        for _ in range(1_000):
            ops = [rng.randrange(1 << 256) for _ in range(1 if mnemonic in unary else 2)]
            if rng.random() < 0.3:  # small operands hit shift/byte edge cases
                ops = [o % 300 for o in ops]
            asm = Assembler()
            for value in reversed(ops):
                asm.push(value, width=32)
            asm.op(mnemonic)
            result, table = emulate_hex(asm.assemble().hex())
            folded = table.get(result.s_end[-1])
            assert folded.kind == CONST
            assert folded.const == concrete_op(mnemonic, ops)


def test_random_const_programs_match_interpreter_stack():
    """Random straight-line programs over constants end with the same stack
    as a direct concrete evaluation."""
    rng = random.Random(0xCAFE)
    binary = sorted(FOLDED_OPS - {"NOT", "ISZERO"})
    for _ in range(1_000):
        asm = Assembler()
        model = []
        for _ in range(rng.randrange(1, 12)):
            if len(model) >= 2 and rng.random() < 0.5:
                mnemonic = rng.choice(binary)
                asm.op(mnemonic)
                a, b = model.pop(), model.pop()
                model.append(concrete_op(mnemonic, [a, b]))
            elif model and rng.random() < 0.2:
                asm.op("POP")
                model.pop()
            else:
                value = rng.randrange(1 << 64)
                asm.push(value, width=8)
                model.append(value)
        result, table = emulate_hex(asm.assemble().hex())
        got = [table.get(v).const for v in result.s_end]
        assert got == model


def test_stack_effect_law():
    rng = random.Random(0x57AC)
    for _ in range(500):
        asm = Assembler()
        depth = 0
        pops_total = pushes_total = 0
        for _ in range(rng.randrange(1, 20)):
            value = rng.randrange(256)
            choice = rng.random()
            if choice < 0.5 or depth < 2:
                asm.push(value)
                pops, pushes = 0, 1
            elif choice < 0.8:
                asm.op("ADD")
                pops, pushes = 2, 1
            else:
                asm.op("POP")
                pops, pushes = 1, 0
            depth += pushes - pops
            pops_total += pops
            pushes_total += pushes
        result, _ = emulate_hex(asm.assemble().hex())
        assert len(result.s_end) == pushes_total - pops_total


def test_memory_and_environment_stay_symbolic():
    for code, op in (("600051", "MLOAD"), ("600054", "SLOAD"), ("32", "ORIGIN")):
        result, table = emulate_hex(code)
        top = table.get(result.s_end[-1])
        assert top.kind == SYM and top.op == op


@pytest.mark.parametrize(
    "hex_code, offset",
    [
        ("600101", 0x2),  # ADD on one entry
        ("600181", 0x2),  # DUP2 on one entry
        ("600190", 0x2),  # SWAP1 on one entry
        ("60015050", 0x3),  # the second POP
        ("60015056", 0x3),  # JUMP on an empty stack
        ("600157", 0x2),  # JUMPI on one entry
    ],
)
def test_underflow_halts_the_emulation(hex_code, offset):
    result, table = emulate_hex(hex_code + "6002")  # a push after the halt
    assert result == (None, None, (), [("warning", f"stack underflow at offset 0x{offset:x}", offset)])
    # Only the push before the halt appended a value: none stands in for
    # the missing operand, and nothing after the halt ran.
    assert table.values == [(CONST, 1, None, ())]


def test_jump_successors():
    # (code, constant jump operand, fallthrough offset of the first block)
    for hex_code, target, fallthrough in (
        ("600456", 4, None),
        ("6001600857", 8, 5),
        ("60015b00", None, 2),
        ("600100", None, None),
    ):
        result, table = emulate_hex(hex_code)
        assert (None if result.jump is None else table.get(result.jump).const) == target
        block = identify_blocks(disassemble(bytes.fromhex(hex_code)))[0]
        assert block.fallthrough_offset == fallthrough


def test_tac_listing_renders():
    result, table = emulate_hex("6002600301")
    block = identify_blocks(disassemble(bytes.fromhex("6002600301")))[0]
    lines = [op.render(table) for op in tac_ops(block, result.tac_ids)]
    assert lines[0] == "v0 = PUSH1(0x2)"
    assert lines[2].endswith("= ADD(0x3, 0x2)")


def test_prepare_stack_identical_unchanged():
    table = ValueTable()
    a = table.new_const(5)
    existing = (a,)
    merged = prepare_stack((a,), existing, table)
    assert merged is existing and merged == (a,)


def test_prepare_stack_equal_consts_unchanged():
    table = ValueTable()
    a, b = table.new_const(5), table.new_const(5)
    existing = (a,)
    merged = prepare_stack((b,), existing, table)
    assert merged is existing and merged == (a,)


def test_prepare_stack_differing_consts_make_phi():
    table = ValueTable()
    a, b = table.new_const(5), table.new_const(7)
    existing = (a,)
    merged = prepare_stack((b,), existing, table)
    assert merged is not existing
    phi = table.get(merged[0])
    assert phi.kind == PHI
    assert {table.get(m).const for m in phi.args} == {5, 7}


def test_prepare_stack_phi_absorbs_existing_member():
    table = ValueTable()
    a, b = table.new_const(5), table.new_const(7)
    merged = prepare_stack((b,), (a,), table)
    again = prepare_stack((table.new_const(5),), merged, table)
    assert again is merged
    assert again == merged


def test_prepare_stack_absent_copies():
    table = ValueTable()
    a = table.new_const(9)
    merged = prepare_stack((a,), None, table)
    assert merged is not None and merged == (a,)


def test_prepare_stack_depth_mismatch_merges_over_deeper_stack():
    table = ValueTable()
    a, b, c = table.new_const(1), table.new_const(2), table.new_const(3)
    existing = (a, b)
    merged = prepare_stack((c,), existing, table)
    assert merged is not existing
    assert len(merged) == 2  # deeper stack is the base
    assert merged[0] == a
    top = table.get(merged[-1])
    assert top.kind == PHI


def test_rejoining_a_pair_reuses_its_memo_entry():
    table = ValueTable()
    a, b, c = table.new_const(1), table.new_sym("CALLER", ()), table.new_const(2)
    merged = prepare_stack((b,), (a,), table)
    prepare_stack((c, a), (b, c), table)  # other joins in between
    prepare_stack((a,), merged, table)
    before = list(table.values)
    existing = (a,)
    again = prepare_stack((b,), existing, table)
    assert again is not existing and again == merged
    assert table.values == before  # no value appended
    assert table._joins[a, b] == merged[0]


def merge_without_memo(incoming, existing, table):
    """`prepare_stack`'s result with `make_phi` called at every
    disagreeing position, through no memo."""
    values = table.values
    base = list(incoming if len(incoming) > len(existing) else existing)
    for i in range(1, min(len(existing), len(incoming)) + 1):
        e, n = existing[-i], incoming[-i]
        ve, vn = values[e], values[n]
        if e == n or ve.kind == UNKNOWN or (ve.kind == vn.kind == CONST and ve.const == vn.const):
            base[-i] = e
        else:
            base[-i] = table.make_phi([e, n])
    return tuple(base)


# A value: a constant from a few words (so distinct pushes share one), a
# symbol or an unknown.
_value = st.one_of(
    st.tuples(st.just("const"), st.integers(0, 3)),
    st.tuples(st.just("sym"), st.sampled_from(["CALLER", "MLOAD"])),
    st.tuples(st.just("unknown")),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(_value, max_size=6), min_size=1, max_size=6),
    st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=40),
)
def test_memoized_joins_leave_the_table_as_direct_ones(stack_specs, joins):
    """Two tables get the same values; one merges through `prepare_stack`
    and its memo, the other calls `make_phi` at every disagreeing entry.
    Each join merges one stack of the pool into another and adds the
    result, so later joins meet earlier pairs and phis again."""
    memo, direct = ValueTable(), ValueTable()
    pools = {memo: [], direct: []}
    for table, pool in pools.items():
        for spec in stack_specs:
            ids = []
            for kind, *arg in spec:
                if kind == "const":
                    ids.append(table.new_const(arg[0]))
                elif kind == "sym":
                    ids.append(table.new_sym(arg[0], ()))
                else:
                    ids.append(table.new_unknown())
            pool.append(tuple(ids))
    for i, j in joins:
        existing, incoming = (pools[memo][k % len(pools[memo])] for k in (i, j))
        merged = prepare_stack(incoming, existing, memo)
        assert merged == merge_without_memo(incoming, existing, direct)
        assert (merged is not existing) == (merged != existing)
        for pool in pools.values():
            pool.append(merged)
    assert memo.values == direct.values
    assert memo._phi_index == direct._phi_index
    assert memo.has_phi == direct.has_phi


def test_built_graph_holds_no_join_memo():
    cfg = build_cfg(two_branch_shared_increment(), Mode.REUSE_INSENSITIVE)
    assert cfg.value_table.has_phi  # the build joined through the memo
    assert cfg.value_table._joins == {}


def overflow_warnings(block_hex, s_start):
    result, _ = emulate_hex(block_hex, s_start)
    return [msg for _, msg, _ in result.diagnostics if "overflow" in msg]


def test_overflow_at_the_first_entry_past_the_limit():
    # Each instruction adds at most one entry, so only a block of more
    # than 1,024 instructions can pass the limit from an empty stack.
    assert overflow_warnings("6001" * 1025, ()) == ["stack overflow at offset 0x800"]
    assert overflow_warnings("6001" * 1024, ()) == []


def test_overflow_from_a_deep_entry_stack():
    table = ValueTable()
    s_start = tuple(table.new_const(7) for _ in range(STACK_LIMIT - 4))
    result, _ = emulate_hex("6001" * 10, s_start, table)
    # The fifth push, at 0x8, makes 1,025 entries; the warning is given once.
    assert [m for _, m, _ in result.diagnostics] == ["stack overflow at offset 0x8"]
    assert len(result.s_end) == STACK_LIMIT + 6


def test_trace_origin_const_is_leaf():
    table = ValueTable()
    v = table.new_const(0x10)
    assert trace_origin(v, table) == {v}


def test_trace_origin_sym_operands():
    table = ValueTable()
    c = table.new_const(0xFFFF)
    b = table.new_sym("CALLER", ())
    v = table.new_sym("AND", (c, b))
    assert trace_origin(v, table) == {v, c, b}


def test_trace_origin_through_phi_matches_exhaustive_walk():
    table = ValueTable()
    c = table.new_const(1)
    d = table.new_const(2)
    a = table.new_sym("ADD", (c, d))
    b = table.new_sym("CALLVALUE", ())
    v = table.make_phi([a, b])

    def exhaustive(root):
        out = set()
        frontier = [root]
        while frontier:
            x = frontier.pop()
            if x in out:
                continue
            out.add(x)
            val = table.get(x)
            frontier += list(val.args)
        return out

    assert trace_origin(v, table) == exhaustive(v) == {v, a, b, c, d}


def test_trace_origin_idempotent_and_monotone():
    table = ValueTable()
    c = table.new_const(1)
    s = table.new_sym("ADD", (c, table.new_const(2)))
    origin = trace_origin(s, table)
    assert s in origin
    combined = set()
    for member in origin:
        combined |= trace_origin(member, table)
    assert combined == origin


def test_ssa_freshness_and_structural_stability():
    table = ValueTable()
    blocks = identify_blocks(disassemble(bytes.fromhex("6002600301346001011600")))
    first = emulate_block(blocks[0], (), table)
    second = emulate_block(blocks[0], (), table)
    assert len(first.s_end) == len(second.s_end)
    for x, y in zip(first.s_end, second.s_end):
        vx, vy = table.get(x), table.get(y)
        assert vx.kind == vy.kind
        if vx.kind == CONST:
            assert vx.const == vy.const
        elif vx.kind == SYM:
            assert vx.op == vy.op
    # value ids are never redefined: the arena only grows, and the second
    # emulation's values all come after the first's
    assert min(second.s_end) > max(first.s_end)


def test_stack_effect_table_sanity():
    assert stack_effect(0x01) == (2, 1)  # ADD
    assert stack_effect(0x80) == (1, 2)  # DUP1
    assert stack_effect(0x90) == (2, 2)  # SWAP1
    assert stack_effect(0xF1) == (7, 1)  # CALL


def test_every_folder_reads_one_operand_or_two():
    # `emulate_block` folds by reading the first operand's `const`, and the
    # second's only for a two-operand op.
    folded = [(n, pushes) for _, n, pushes, folder in _DISPATCH if folder is not None]
    assert len(folded) == len(FOLDED_OPS)
    assert all(n in (1, 2) and pushes == 1 for n, pushes in folded)
