import itertools
import random

from fixtures import diamond_fixture, memory_jump_fixture, single_loop_with_exit
from reusecfg.bytecode import BlockId
from reusecfg.cfg import Cfg, EdgeKind, Mode, build_cfg
from reusecfg.corpus import Pattern, PatternSpec, generate
from reusecfg.metrics import (
    Trace,
    count_paths,
    polymorphic_jump_targets,
    trace_coverage,
)


def graph_of(edges, n_nodes):
    """Assemble a bare Cfg from integer-labeled nodes for counting tests."""
    cfg = Cfg(mode=Mode.REUSE_SENSITIVE, entry=BlockId(0, 0))
    for i in range(n_nodes):
        cfg.blocks[BlockId(i, 0)] = None  # blocks are only used as node ids here
    for a, b in edges:
        cfg.add_edge(BlockId(a, 0), BlockId(b, 0), EdgeKind.JUMP)
    return cfg


def enumerate_paths(edges, n_nodes):
    """Brute-force oracle: every simple path from node 0 to any sink,
    where revisiting a node truncates that walk (loops count once)."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    sinks = set(range(n_nodes)) - set(adj)
    count = 0
    stack = [(0, frozenset({0}))]
    while stack:
        node, seen = stack.pop()
        succs = [s for s in adj.get(node, []) if s not in seen]
        if node in sinks or not succs:
            count += 1
            continue
        for s in succs:
            stack.append((s, seen | {s}))
    return count


def test_diamond_counts_two():
    cfg = build_cfg(diamond_fixture(), Mode.REUSE_SENSITIVE)
    assert count_paths(cfg).path_count == 2


def test_diamond_graph_direct():
    cfg = graph_of([(0, 1), (0, 2), (1, 3), (2, 3)], 4)
    assert count_paths(cfg).path_count == 2


def test_fake_join_sequence_three_versus_nine():
    gt = generate(PatternSpec(Pattern.FAKE_JOIN_SEQUENCE, seed=0, nesting_depth=2))
    sens = build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE)
    insens = build_cfg(gt.bytecode, Mode.REUSE_INSENSITIVE)
    assert count_paths(sens).path_count == 3
    assert count_paths(insens).path_count == 9


def test_single_cycle_counts_once():
    cfg = build_cfg(single_loop_with_exit(), Mode.REUSE_SENSITIVE)
    report = count_paths(cfg)
    assert report.back_edges_removed == 1
    # Exhaustive enumeration on the 3-node shape A -> B -> {A, C}: the only
    # loop-free walk is A, B, C.
    assert enumerate_paths([(0, 1), (1, 0), (1, 2)], 3) == 1
    assert report.path_count == 1


def test_random_dags_match_bruteforce():
    rng = random.Random(0xDA6)
    for _ in range(300):
        n = rng.randrange(2, 13)
        edges = []
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < 0.35:
                edges.append((a, b))
        cfg = graph_of(edges, n)
        assert count_paths(cfg).path_count == enumerate_paths(edges, n)


def test_random_graphs_with_cycles_terminate():
    rng = random.Random(0xC1C)
    for _ in range(200):
        n = rng.randrange(2, 10)
        edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(n * 2)}
        edges = [(a, b) for a, b in edges if a != b]
        report = count_paths(graph_of(edges, n))
        assert report.path_count >= 0


def test_polymorphic_targets_in_baseline_only():
    gt = generate(PatternSpec(Pattern.BASIC_FAKE_LOOP, seed=0, nesting_depth=1))
    sens = build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE)
    insens = build_cfg(gt.bytecode, Mode.REUSE_INSENSITIVE)
    assert polymorphic_jump_targets(sens) == []
    poly = polymorphic_jump_targets(insens)
    assert len(poly) == 1
    block_id, targets = poly[0]
    assert block_id.offset == gt.label_offsets["shared"]
    assert {t.offset for t in targets} == {
        gt.label_offsets["mid1"],
        gt.label_offsets["exit"],
    }


def test_straight_line_contract_has_no_polymorphic_targets():
    cfg = build_cfg(bytes.fromhex("6001600201 00".replace(" ", "")), Mode.REUSE_SENSITIVE)
    assert polymorphic_jump_targets(cfg) == []


def test_trace_coverage_linear():
    code = bytes.fromhex("6003565b00")  # PUSH1 3; JUMP; JUMPDEST; STOP
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    covered, total, uncovered = trace_coverage(cfg, [Trace((0, 3))])
    assert (covered, total, uncovered) == (1, 1, [])


def test_trace_not_starting_at_the_entry_is_uncovered():
    code = bytes.fromhex("6003565b00")  # PUSH1 3; JUMP; JUMPDEST; STOP
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    assert trace_coverage(cfg, [Trace((3, 3))]) == (0, 1, [Trace((3, 3))])


def test_trace_coverage_empty_list():
    cfg = build_cfg(b"\x00", Mode.REUSE_SENSITIVE)
    assert trace_coverage(cfg, []) == (0, 0, [])


def test_trace_coverage_full_fixture_sets():
    for pattern in Pattern:
        gt = generate(PatternSpec(pattern, seed=3, nesting_depth=2))
        cfg = build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE)
        covered, total, uncovered = trace_coverage(cfg, gt.traces)
        assert covered == total and not uncovered, pattern


def test_trace_through_memory_jump_is_uncovered():
    code = memory_jump_fixture()
    cfg = build_cfg(code, Mode.REUSE_SENSITIVE)
    land = max(b.offset for b in cfg.blocks)
    covered, total, uncovered = trace_coverage(cfg, [Trace((0, land))])
    assert covered == 0 and total == 1
    assert uncovered == [Trace((0, land))]
    assert any("unresolved jump" in m for _, m, _ in cfg.diagnostics)


def test_coverage_monotone_under_added_edges():
    gt = generate(PatternSpec(Pattern.BASIC_FAKE_JOIN, seed=0, nesting_depth=2))
    sens = build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE)
    insens = build_cfg(gt.bytecode, Mode.REUSE_INSENSITIVE)
    c_sens, total, _ = trace_coverage(sens, gt.traces)
    c_insens, _, _ = trace_coverage(insens, gt.traces)
    # the baseline graph over-approximates: anything covered stays covered
    assert c_insens >= c_sens == total


def test_infeasible_cross_paths_only_in_baseline():
    gt = generate(PatternSpec(Pattern.BASIC_FAKE_JOIN, seed=0, nesting_depth=1))
    sens = build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE)
    insens = build_cfg(gt.bytecode, Mode.REUSE_INSENSITIVE)
    lab = gt.label_offsets
    crossed = Trace((lab["caller0"], lab["shared"], lab["ret1"]))
    # stitch the dispatcher prefix for caller0 (entry block at 0)
    full = Trace((0,) + crossed.offsets)
    assert trace_coverage(insens, [full])[0] == 1
    assert trace_coverage(sens, [full])[0] == 0


def test_sensitive_counts_never_exceed_baseline():
    for pattern in Pattern:
        for depth in (1, 2, 3):
            gt = generate(PatternSpec(pattern, seed=1, nesting_depth=depth))
            sens = count_paths(build_cfg(gt.bytecode, Mode.REUSE_SENSITIVE)).path_count
            insens = count_paths(
                build_cfg(gt.bytecode, Mode.REUSE_INSENSITIVE)
            ).path_count
            assert sens <= insens, pattern
