import gc
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixtures import (
    CALLER_ENV,
    DEEPENING_LOOP,
    halting_loop,
    random_program,
    shared_returns,
    masked_operand_fixture,
    mixed_join_fixture,
    shared_revert,
    three_exit_fixture,
    time_limit,
    two_branch_shared_increment,
)
import reusecfg.cfg
from reusecfg.bytecode import BlockId
from reusecfg.cfg import (
    AnalysisError,
    Cfg,
    CloneBudgetError,
    Config,
    EdgeKind,
    Mode,
    _Recovery,
    build_cfg,
    export,
)
from reusecfg.corpus import Assembler, Pattern, PatternSpec, generate, interpret, stress_fixture
from reusecfg.emulator import TacOp, tac_ops
from reusecfg.graph import dfs
from reusecfg.metrics import count_paths, polymorphic_jump_targets, trace_coverage


def offsets_of_edges(cfg):
    return {(e.src.offset, e.dst.offset, e.kind) for e in cfg.edges}


def test_motivating_example_sensitive_four_acyclic_paths():
    code = two_branch_shared_increment()
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    report = count_paths(cfg)
    assert report.path_count == 4
    assert report.back_edges_removed == 0
    assert polymorphic_jump_targets(cfg) == []


def test_motivating_example_insensitive_has_cycle():
    code = two_branch_shared_increment()
    cfg = build_cfg(code, Mode.REUSE_INSENSITIVE)
    report = count_paths(cfg)
    assert report.back_edges_removed >= 1
    assert len(polymorphic_jump_targets(cfg)) >= 1


def test_single_reused_block_one_linear_path():
    gt = generate(PatternSpec(Pattern.BASIC_FAKE_LOOP, seed=0, nesting_depth=1))
    cfg = build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE)
    assert count_paths(cfg).path_count == 1
    insensitive = build_cfg(gt.bytecode, Mode.REUSE_INSENSITIVE)
    shared = gt.label_offsets["shared"]
    targets = {
        e.dst.offset
        for e in insensitive.edges
        if e.src.offset == shared and e.kind is EdgeKind.JUMP
    }
    assert len(targets) == 2  # the shared block aims at both continuations


def test_mixed_join_walkthrough():
    code, blocks = mixed_join_fixture()
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    x = blocks["X"]
    x_clones = sorted(b for b in cfg.blocks if b.offset == x)
    assert x_clones == [BlockId(x, 0), BlockId(x, 1)]
    # A keeps the original, B and E share the single clone.
    assert cfg.has_edge(BlockId(blocks["A"], 0), BlockId(x, 0), EdgeKind.JUMP)
    assert cfg.has_edge(BlockId(blocks["B"], 0), BlockId(x, 1), EdgeKind.JUMP)
    assert cfg.has_edge(BlockId(blocks["E"], 0), BlockId(x, 1), EdgeKind.JUMP)
    # Tainted locations: the continuation sits above the junk word.
    assert cfg.reuse_contexts[BlockId(x, 0)] == {1: blocks["C"]}
    assert cfg.reuse_contexts[BlockId(x, 1)] == {1: blocks["D"]}
    assert cfg.has_edge(BlockId(x, 0), BlockId(blocks["C"], 0), EdgeKind.JUMP)
    assert cfg.has_edge(BlockId(x, 1), BlockId(blocks["D"], 0), EdgeKind.JUMP)


def test_jump_operand_pushed_locally_is_not_tainted():
    code, blocks = mixed_join_fixture()
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    # A pushes X's offset right before its JUMPI: A itself gains no taint.
    assert BlockId(blocks["A"], 0) not in cfg.reuse_contexts


def test_masked_operand_taints_the_wide_source():
    code, labels, wide = masked_operand_fixture()
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    x = BlockId(labels["X"], 0)
    assert cfg.has_edge(x, BlockId(labels["D"], 0), EdgeKind.JUMP)
    assert cfg.reuse_contexts[x] == {0: wide}


def test_new_edge_backpropagates_context_into_a_reused_arm():
    # Recovery must extend a block's context back through each new edge
    # into it (`backpropagate_context`); the golden digests and the random
    # builds do not notice when it is skipped, this program does.  A real
    # branch sends both arms A and B to the shared block S, with return
    # address R1 pushed before the branch; a second caller pushes R2 and
    # reuses A.  The jump arm B reaches S first, and S's jump taints the
    # path through B.  When A then reaches S, S's entry stack is unchanged
    # and S is not emulated again: only the backpropagation over the new
    # edge A->S taints A's entry stack, which makes the second caller clone
    # A.  Without it S merges both return addresses and its jump is left
    # unresolved.
    asm = Assembler()
    asm.push(0)
    asm.push_label("BRANCH")
    asm.op("JUMPI")
    asm.push_label("CALLER2")
    asm.op("JUMP")
    asm.label("BRANCH")
    asm.op("JUMPDEST")
    asm.push_label("R1")
    asm.push(0)
    asm.push_label("B")
    asm.op("JUMPI")
    asm.label("A")
    asm.op("JUMPDEST")
    asm.push_label("S")
    asm.op("JUMP")
    asm.label("B")
    asm.op("JUMPDEST")
    asm.push_label("S")
    asm.op("JUMP")
    asm.label("CALLER2")
    asm.op("JUMPDEST")
    asm.push_label("R2")
    asm.push_label("A")
    asm.op("JUMP")
    asm.label("S")
    asm.op("JUMPDEST")
    asm.op("JUMP")
    for name in ("R1", "R2"):
        asm.label(name)
        asm.op("JUMPDEST")
        asm.op("STOP")
    cfg = build_cfg(asm.assemble(), Mode.REUSE_SENSITIVE)
    assert BlockId(asm.labels["A"], 1) in cfg.blocks
    assert not cfg.diagnostics
    assert polymorphic_jump_targets(cfg) == []


def test_end_blocks_cloned_per_predecessor():
    code, end = three_exit_fixture()
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    end_blocks = [b for b in cfg.blocks if b.offset == end]
    assert len(end_blocks) == 3
    for block_id in end_blocks:
        preds = cfg.predecessors(block_id)
        assert len(preds) == 1
    assert len(cfg.end_block_clones) == 2


def test_end_block_clones_count_against_the_clone_budget():
    # Each site is a predecessor of the revert block at `end` and takes its
    # own clone of it; the clones of `end` count against the per-offset
    # clone budget (README, Known limitations).
    code, end = shared_revert(500)
    assert end == 0xBB9
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    assert len(cfg.blocks) == 1001
    assert len(cfg.end_block_clones) == 499
    assert all(len(cfg.predecessors(clone)) == 1 for clone in cfg.clones_at(end))
    code, end = shared_revert(520)
    with pytest.raises(CloneBudgetError, match="^clone explosion at offset 0xc31$"):
        build_cfg(code, Mode.REUSE_SENSITIVE)
    assert end == 0xC31


def test_end_blocks_not_cloned_in_insensitive_mode():
    code, end = three_exit_fixture()
    cfg = build_cfg(code, Mode.REUSE_INSENSITIVE)
    assert [b for b in cfg.blocks if b.offset == end] == [BlockId(end, 0)]


def test_unresolved_symbolic_jump_drops_edge_with_diagnostic():
    # PUSH1 0; MLOAD; JUMP
    cfg = build_cfg(bytes.fromhex("60005156"), Mode.REUSE_SENSITIVE)
    assert all(e.kind is not EdgeKind.JUMP for e in cfg.edges)
    assert any("unresolved jump" in m for _, m, _ in cfg.diagnostics)


def test_invalid_jump_target_diagnostic():
    # PUSH1 3; JUMP -> offset 3 is STOP, not JUMPDEST
    cfg = build_cfg(bytes.fromhex("60035600"), Mode.REUSE_SENSITIVE)
    assert not any(e.kind is EdgeKind.JUMP for e in cfg.edges)
    assert any("invalid jump target" in m for _, m, _ in cfg.diagnostics)


# Loops in front of a halting block: PUSH0, then the loop JUMPDEST at 0x1
# and its body, PUSH1 1; JUMPI back to 0x1, which falls through to the
# JUMPDEST of the halting block.  The first is CALLER; ADD; DUP1 and STOP,
# the second POP; CALLER; SLOAD; CALLER and STOP, the third ISZERO; SLOAD;
# ISZERO; DUP1 and PUSH0; DUP1; RETURN.  Each turn changes the loop's entry
# stack until the re-emulation cap widens it.  Each re-emulation keeps the
# loop's out-edges, and `handle_end_block` hands the loop back the end
# block it fed, so no re-emulation makes another end clone.
HALTING_LOOPS = [
    bytes.fromhex("5f5b3301806001575b00"),
    bytes.fromhex("5f5b503354336001575b00"),
    bytes.fromhex("5f5b155415806001575b5f80f3"),
]


def test_end_block_keeps_its_clone_across_reemulations():
    # At cap 513 the loop is emulated more often than the clone budget of
    # 512 would allow end clones.
    loop = BlockId(1, 0)
    for code, cap in itertools.product(HALTING_LOOPS, [1, 8, 64, 513]):
        end = BlockId(code.rindex(0x5B), 0)
        recovery = _Recovery(code, Mode.REUSE_SENSITIVE, Config(reemulation_cap=cap))
        cfg = recovery.run()
        assert recovery.emulation_count[loop] > 1, (code.hex(), cap)
        assert len(cfg.blocks) == 3, (code.hex(), cap)
        assert cfg.clones_at(end.offset) == [end]
        assert cfg.predecessors(end) == [loop]
        assert cfg.end_block_clones == set()
        assert count_paths(cfg).path_count == 1


# Random programs that open with three pushes of one label, PUSH0 and
# JUMPI, on which a re-emulation from a more general entry stack sends a
# jump to another clone than the block's first emulation chose: 0x37_8
# from 0x35_18 to 0x35_26, and the loop 0x9_0 from itself to 0x9_1.
# Recovery only adds edges, so each block keeps both jump edges, and every
# concrete trace is covered.  On the second, a recovery that drops the
# re-emulated block's out-edges loses the self-loop that one of its two
# traces takes.
MOVED_JUMPS = [
    (
        "6034603460345f575f336035603460346035601f6034909060345f603460355b601f601f"
        "60345760350060355f9160343333601f5b5b57916035603557dd5ebc5f509160345691f1"
        "0191605f33601f4e6035905fbb90603401601f",
        BlockId(0x37, 8),
        [BlockId(0x35, 18), BlockId(0x35, 26)],
    ),
    (
        "6009600960095f57905b339091565b600956915b01466045fb600e5f5f339156805b6034"
        "016009602190605060346050335660095b56336009915681816050916050815f575b5660"
        "45010160096034915b80903391605091600957605001600990009060450050",
        BlockId(0x9, 0),
        [BlockId(0x9, 0), BlockId(0x9, 1)],
    ),
]


@pytest.mark.parametrize("code, block, targets", MOVED_JUMPS)
def test_reemulation_keeps_the_jump_edge_its_first_emulation_added(code, block, targets):
    code = bytes.fromhex(code)
    for cap in (1, Config().reemulation_cap):
        cfg = build_cfg(code, Mode.REUSE_SENSITIVE, Config(reemulation_cap=cap))
        assert cfg.jump_successors(block) == targets
        covered, total, _ = trace_coverage(cfg, interpret(code, 8, CALLER_ENV))
        assert covered == total > 0


@settings(max_examples=200, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from([random_program, halting_loop, shared_returns]),
    st.sampled_from(list(Mode)),
    st.sampled_from([1, Config().reemulation_cap]),
)
# Draws on which a join would change a walked clone's entry stack if
# `_connect` merged before it added the edge: (d) would apply there.
@example(random.Random(568), random_program, Mode.REUSE_SENSITIVE, Config().reemulation_cap)
@example(random.Random(780), random_program, Mode.REUSE_SENSITIVE, Config().reemulation_cap)
@example(random.Random(1611), random_program, Mode.REUSE_SENSITIVE, Config().reemulation_cap)
@example(random.Random(2142), random_program, Mode.REUSE_SENSITIVE, Config().reemulation_cap)
# A loop emulated again after it fed its end block: a recovery that drops
# a re-emulated block's out-edges fails (a) here.
@example(random.Random(60), halting_loop, Mode.REUSE_SENSITIVE, 1)
def test_successor_step_invariants(rng, program, mode, cap):
    # The successor step relies on these without testing them: (a) recovery
    # never calls `Cfg.remove_out_edges`, so no block is left unreachable;
    # (b) a block without an entry stack has no predecessor, so an end
    # block's first visit needs no test of its own; (c) a block past the
    # re-emulation cap has been emulated, so it has an entry stack to widen
    # against; (d) a join that changes a walked clone's entry stack empties
    # the walk set (see `Cfg`).
    violations = []
    remove_out_edges, handle_end_block = Cfg.remove_out_edges, reusecfg.cfg.handle_end_block
    widen, merge_into = _Recovery._widen, _Recovery._merge_into

    def checked_remove_out_edges(self, src):
        violations.append(("out-edges removed", src))
        return remove_out_edges(self, src)

    def checked_handle_end_block(cfg, b_c, end_offset):
        for cand in cfg.clones_at(end_offset):
            if cfg.pred.get(cand) and cand not in cfg.s_start:
                violations.append(("predecessor without entry stack", cand))
        return handle_end_block(cfg, b_c, end_offset)

    def checked_widen(self, block, merged):
        if block not in self.cfg.s_start:
            violations.append(("widened without entry stack", block))
        return widen(self, block, merged)

    def checked_merge_into(self, incoming, succ):
        existing = self.cfg.s_start.get(succ)
        walked = succ in self.cfg._walked
        merge_into(self, incoming, succ)
        changed = existing is not None and self.cfg.s_start[succ] != existing
        if changed and walked and self.cfg._walked:
            violations.append(("walk set kept past a walked entry stack's change", succ))

    recovery = _Recovery(program(rng), mode, Config(reemulation_cap=cap))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Cfg, "remove_out_edges", checked_remove_out_edges)
        patch.setattr(reusecfg.cfg, "handle_end_block", checked_handle_end_block)
        patch.setattr(_Recovery, "_widen", checked_widen)
        patch.setattr(_Recovery, "_merge_into", checked_merge_into)
        try:
            with time_limit(2):
                recovery.run()
        except AnalysisError:
            pass  # the invariants hold up to a bounded abort
    assert violations == []


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(list(Mode)))
def test_scheduling_emulates_each_entry_stack_once_and_every_reached_block(rng, mode):
    # Recovery emulates a block again only when its entry stack changed:
    # (a) no block is emulated twice in a row from an equal entry stack, and
    # (b) every block reachable from the entry was emulated.  A block that
    # a stack underflow halted has no TAC, so (b) reads what was emulated
    # off the calls, not off `tac_ids`.
    emulate_block = reusecfg.cfg.emulate_block
    last_stack = {}
    repeats = []

    def checked_emulate_block(block, s_start, table):
        if last_stack.get(block.id) == s_start:
            repeats.append(block.id)
        last_stack[block.id] = s_start
        return emulate_block(block, s_start, table)

    code = random_program(rng)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reusecfg.cfg, "emulate_block", checked_emulate_block)
        try:
            with time_limit(2):
                cfg = build_cfg(code, mode, Config(clone_budget_per_offset=16))
        except AnalysisError:
            return  # a bounded abort says nothing of scheduling
    assert repeats == [], "emulated again from an equal entry stack"
    postorder, _ = dfs(cfg.succ, [cfg.entry])
    assert [b for b in postorder if b not in last_stack] == [], "reached but never emulated"


@settings(max_examples=200, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from([halting_loop, random_program]),
    st.sampled_from(list(Mode)),
    st.sampled_from([1, Config().reemulation_cap]),
)
# Draws whose loop is emulated again after it fed its end block, which
# must then get back the clone it fed, not a new one.
@example(random.Random(60), halting_loop, Mode.REUSE_SENSITIVE, 1)
@example(random.Random(163), halting_loop, Mode.REUSE_SENSITIVE, Config().reemulation_cap)
def test_recovery_keeps_only_what_the_entry_reaches(rng, program, mode, cap):
    # After recovery, (a) only blocks that the entry reaches have an entry
    # stack, TAC, out-edges or a `pred` entry; (b) `pred` mirrors `succ`;
    # (c) each sensitive clone of a halting offset has one predecessor.
    try:
        with time_limit(2):
            cfg = build_cfg(program(rng), mode, Config(reemulation_cap=cap))
    except AnalysisError:
        return  # a bounded abort builds no graph
    reachable = set(dfs(cfg.succ, [cfg.entry])[0])
    assert {*cfg.s_start, *cfg.tac_ids, *cfg.succ, *cfg.pred} <= reachable
    edges = sorted((src, dst) for src, out in cfg.succ.items() for dst in out)
    assert sorted((src, dst) for dst, srcs in cfg.pred.items() for src in srcs) == edges
    if mode is Mode.REUSE_SENSITIVE:
        halting = [b for b, block in cfg.blocks.items() if b.clone and block.halts]
        assert set(halting) == cfg.end_block_clones
        assert all(len(cfg.pred[b]) == 1 for b in halting)


def test_data_tail_kept_and_flagged():
    # STOP then unreachable trailing bytes (a JUMPDEST and friends).
    code = bytes.fromhex("005b6001")
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    data_blocks = [b for b in json.loads(export(cfg))["blocks"] if b["is_data"]]
    assert data_blocks, "trailing region must stay in the block map"
    assert all(b["offset"] >= 1 for b in data_blocks)
    listed = sorted(cfg.blocks)
    assert BlockId(1, 0) in listed


def test_irregular_stack_depth_reported_at_join():
    # PUSH1 0; PUSH1 7; JUMPI; PUSH1 1; JUMPDEST; JUMPDEST; STOP.  The jump
    # arm reaches the join at 0x7 with an empty stack, the fallthrough arm
    # through 0x5 with one entry.
    code = bytes.fromhex("600060075760015b5b00")
    cfg = build_cfg(code, Mode.REUSE_INSENSITIVE)
    assert ("warning", "irregular stack depth at join", 0x7) in cfg.diagnostics
    assert len(cfg.s_start[BlockId(7, 0)]) == 1  # merged over the deeper stack
    # Reuse-sensitive recovery gives each depth its own clone: no join.
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    assert cfg.clones_at(7) == [BlockId(7, 0), BlockId(7, 1)]
    assert not any("irregular" in message for _, message, _ in cfg.diagnostics)


def test_jumpi_constant_zero_still_yields_both_edges():
    # PUSH1 0; PUSH1 6; JUMPI; STOP; JUMPDEST; STOP
    cfg = build_cfg(bytes.fromhex("60006006 57 00 5b00".replace(" ", "")), Mode.REUSE_SENSITIVE)
    kinds = {e.kind for e in cfg.edges if e.src == BlockId(0, 0)}
    assert kinds == {EdgeKind.JUMP, EdgeKind.FALLTHROUGH}


def test_clone_budget_abort():
    gt = generate(PatternSpec(Pattern.BASIC_FAKE_JOIN, seed=0, nesting_depth=4))
    with pytest.raises(CloneBudgetError) as excinfo:
        build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE, Config(clone_budget_per_offset=2))
    assert "clone explosion" in str(excinfo.value)


def test_limits_below_one_are_rejected():
    with pytest.raises(ValueError, match="^clone_budget_per_offset must be >= 1$"):
        Config(clone_budget_per_offset=0)


def test_total_block_budget_abort():
    # Eight blocks, then the shared block at 0x20 needs a clone for its
    # second caller: a ninth block.
    code = generate(PatternSpec(Pattern.BASIC_FAKE_JOIN, seed=0, nesting_depth=1)).bytecode
    with pytest.raises(CloneBudgetError) as excinfo:
        build_cfg(code, Mode.REUSE_SENSITIVE, Config(total_block_budget=8))
    assert str(excinfo.value) == "total block budget exceeded"
    assert excinfo.value.offset == 0x20
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE, Config(total_block_budget=9))
    assert len(cfg.blocks) == 9


def test_deepening_loop_ends_in_analysis_error():
    deeper = "^entry stack deeper than 1024 at offset 0x2$"
    with time_limit(5):
        with pytest.raises(AnalysisError, match=deeper):
            build_cfg(DEEPENING_LOOP, Mode.REUSE_INSENSITIVE)
        # Each turn arrives one entry deeper and matches no clone, so the
        # sensitive build makes a new clone per turn: a clone budget below
        # 1,024, the default of 512 too, runs out before the new clone's
        # entry stack passes the EVM's depth.
        for budget in (16, Config().clone_budget_per_offset):
            with pytest.raises(CloneBudgetError, match="^clone explosion at offset 0x2$"):
                build_cfg(DEEPENING_LOOP, Mode.REUSE_SENSITIVE, Config(clone_budget_per_offset=budget))
        with pytest.raises(AnalysisError, match=deeper):
            build_cfg(DEEPENING_LOOP, Mode.REUSE_SENSITIVE, Config(clone_budget_per_offset=1024))


def test_clone_instructions_identical():
    gt = generate(PatternSpec(Pattern.FAKE_JOIN_SEQUENCE, seed=1, nesting_depth=3))
    cfg = build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE)
    by_offset = {}
    for block_id, block in cfg.blocks.items():
        by_offset.setdefault(block_id.offset, []).append(block)
    for group in by_offset.values():
        reference = group[0].instructions
        for block in group[1:]:
            assert block.instructions is reference or block.instructions == reference


def test_conservativity_edges_subset_of_insensitive():
    # On every acceptance fixture the sensitive edges, projected to offsets,
    # are the baseline edges.
    for pattern in Pattern:
        for depth in (1, 2, 3, 4):
            for seed in range(5):
                code = generate(PatternSpec(pattern, seed=seed, nesting_depth=depth)).bytecode
                sens = build_cfg(code, Mode.REUSE_SENSITIVE)
                insens = build_cfg(code, Mode.REUSE_INSENSITIVE)
                assert offsets_of_edges(sens) == offsets_of_edges(insens), (pattern, depth, seed)
    # On random code they are equal too, except where the sensitive build
    # leaves a jump unresolved: it then keeps a strict subset.  Those
    # exceptions are pinned.  Every sensitive graph also covers every trace
    # that the interpreter finds, unless the interpreter cannot run it.
    limits = Config(clone_budget_per_offset=16)
    fewer = []
    for i in range(3000):
        code = random_program(random.Random(i))
        try:
            with time_limit(1):
                sens = build_cfg(code, Mode.REUSE_SENSITIVE, limits)
        except AnalysisError:
            continue  # a bounded abort compares nothing
        try:
            traces = interpret(code, 8, CALLER_ENV)
        except AnalysisError:
            pass  # nothing to cover
        else:
            covered, total, _ = trace_coverage(sens, traces)
            assert covered == total, i
        try:
            with time_limit(1):
                insens = build_cfg(code, Mode.REUSE_INSENSITIVE, limits)
        except AnalysisError:
            continue
        if offsets_of_edges(sens) == offsets_of_edges(insens):
            continue
        assert offsets_of_edges(sens) < offsets_of_edges(insens), i
        assert any("unresolved jump" in message for _, message, _ in sens.diagnostics), i
        fewer.append(i)
    assert fewer == [1712]


def test_determinism_repeated_builds():
    gt = generate(PatternSpec(Pattern.FAKE_LOOP_WITH_REAL_LOOP, seed=2, nesting_depth=3))
    first = export(build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE), "json")
    second = export(build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE), "json")
    assert first == second
    assert export(build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE), "dot") == export(
        build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE), "dot"
    )


def test_export_single_block_contract():
    cfg = build_cfg(b"\x00", Mode.REUSE_SENSITIVE)
    doc = json.loads(export(cfg, "json"))
    assert doc["entry"] == "0x0_0"
    assert len(doc["blocks"]) == 1
    assert doc["blocks"][0]["id"] == "0x0_0"
    assert doc["blocks"][0]["terminator"] == "stop"
    assert doc["edges"] == []


def test_export_mixed_join_shape():
    code, blocks = mixed_join_fixture()
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    doc = json.loads(export(cfg, "json"))
    assert len(doc["blocks"]) == 7
    ids = {b["id"] for b in doc["blocks"]}
    x = blocks["X"]
    assert f"0x{x:x}_0" in ids and f"0x{x:x}_1" in ids
    for block in doc["blocks"]:
        assert set(block) >= {"id", "offset", "clone", "instructions", "terminator", "is_data"}
    for edge in doc["edges"]:
        assert edge["kind"] in ("jump", "fallthrough")


def test_export_dot_styles():
    code, _ = mixed_join_fixture()
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    text = export(cfg, "dot").decode()
    assert text.startswith("digraph")
    assert "[style=solid]" in text and "[style=dashed]" in text


def test_export_unknown_format_is_rejected():
    with pytest.raises(ValueError, match="unknown export format: xml"):
        export(build_cfg(b"\x00"), "xml")


def test_export_tac_listing():
    code, blocks = mixed_join_fixture()
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    doc = json.loads(export(cfg, "json", emit_tac=True))
    entry = next(b for b in doc["blocks"] if b["id"] == "0x0_0")
    assert any("PUSH" in line for line in entry["tac"])


def _dot_tac_lines(dot: str) -> dict[str, list[str]]:
    """Each DOT node's TAC label lines (after its `--` line), by node name."""
    tac = {}
    for line in dot.splitlines():
        if ' [label="' not in line:
            continue
        name, label = line.strip().split(' [label="', 1)
        body = label.rsplit('\\l"', 1)[0].split("\\l")
        if "--" in body:
            tac[name.strip('"')] = body[body.index("--") + 1 :]
    return tac


@settings(max_examples=100, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from(list(Mode)),
    st.sampled_from([1, Config().reemulation_cap]),
)
def test_exports_match_json_dumps_and_the_reference_tac(rng, mode, cap):
    # The exporters write from per-offset templates; `json.dumps` is the
    # reference for the JSON layout and `TacOp.render` for the TAC text.
    # Re-emulation cap 1 widens entries to unknown values.
    try:
        with time_limit(2):
            cfg = build_cfg(random_program(rng), mode, Config(reemulation_cap=cap))
    except AnalysisError:
        return  # a bounded abort exports nothing
    for emit_tac in (False, True):
        out = export(cfg, "json", emit_tac=emit_tac).decode()
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
    table = cfg.value_table
    expected = {
        str(block): [op.render(table) for op in tac_ops(cfg.blocks[block], ids)]
        for block, ids in cfg.tac_ids.items()
    }
    blocks = json.loads(out)["blocks"]  # `out` is the TAC export
    assert {b["id"]: b["tac"] for b in blocks if "tac" in b} == expected
    assert _dot_tac_lines(export(cfg, "dot", emit_tac=True).decode()) == expected
    assert _exported_edges(cfg) == _sorted_edge_records(cfg)


def _sorted_edge_records(cfg):
    edges = sorted(cfg.edges, key=lambda e: (e.src, e.dst, e.kind.value))
    return [(str(e.src), str(e.dst), e.kind.value) for e in edges]


def _exported_edges(cfg):
    """The JSON export's edges, checked against the DOT export's."""
    edges = [(e["from"], e["to"], e["kind"]) for e in json.loads(export(cfg))["edges"]]
    style = {"solid": "jump", "dashed": "fallthrough"}
    dot = [
        line.strip().rstrip("];").split(" [style=")
        for line in export(cfg, "dot").decode().splitlines()
        if " -> " in line
    ]
    assert [(*ends.replace('"', "").split(" -> "), style[s]) for ends, s in dot] == edges
    return edges


def test_exports_list_a_jumpi_to_the_next_block_fallthrough_first():
    # PUSH1 0; PUSH1 5; JUMPI; JUMPDEST; STOP: both arms reach 0x5, the
    # jump arm first.  Each pair's kinds are listed by value.
    cfg = build_cfg(bytes.fromhex("60006005575b00"))
    assert cfg.succ[BlockId(0, 0)][BlockId(5, 0)] == (EdgeKind.JUMP, EdgeKind.FALLTHROUGH)
    assert _exported_edges(cfg) == [("0x0_0", "0x5_0", "fallthrough"), ("0x0_0", "0x5_0", "jump")]


def _tac_ops_alive() -> int:
    return sum(1 for obj in gc.get_objects() if isinstance(obj, TacOp))


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_tac_ops_are_built_only_when_read(mode):
    # Recovery records each emulation's TAC as value ids and builds no
    # `TacOp`; `tac_ops` builds them from those ids and the graph keeps none.
    gc.collect()
    before = _tac_ops_alive()
    cfg = build_cfg(stress_fixture(3000, 0), mode)
    assert _tac_ops_alive() == before
    assert cfg.tac_ids
    ops = [op for block, ids in cfg.tac_ids.items() for op in tac_ops(cfg.blocks[block], ids)]
    assert _tac_ops_alive() == before + len(ops)
    assert len(ops) == sum(len(cfg.blocks[block].instructions) for block in cfg.tac_ids)
    del ops
    assert _tac_ops_alive() == before


def test_fuzz_never_crashes():
    rng = random.Random(0xFADE)
    for _ in range(250):
        code = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 200)))
        for mode in (Mode.REUSE_SENSITIVE, Mode.REUSE_INSENSITIVE):
            try:
                cfg = build_cfg(code, mode)
            except CloneBudgetError:
                continue  # bounded abort is the defined behavior
            assert cfg.entry in cfg.blocks
