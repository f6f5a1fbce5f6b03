"""Derived reuse contexts against the per-clone contexts they replace.

The reference below is the earlier reuse-context step, which kept one
context dict per clone and a pairwise transfer fixpoint to keep the clones
of an offset in sync.  Its four functions are copied in with their storage
moved to the `ref_contexts` and `ref_settled` attributes of the graph being
built, plus the entry-depth check that `reuse_handler` now makes before
cloning.  Building the same input both ways must give the same graph, the
same contexts and the same error; the only difference allowed is that the
reference also reports "reuse-context index N out of range" diagnostics,
which described the transfer rather than the input.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reusecfg.cfg
from reusecfg import stress_fixture
from reusecfg.bytecode import STACK_LIMIT, BlockId
from reusecfg.cfg import (
    AnalysisError,
    Config,
    EdgeKind,
    Mode,
    backpropagate_context,
    _make_clone,
    _Recovery,
    build_cfg,
    export,
    reuse_handler,
    transfer_taint,
    update_reuse_context,
)
from reusecfg.corpus import Pattern, PatternSpec, generate
from reusecfg.emulator import CONST, PHI, trace_origin

# ---------------------------------------------------------------------------
# Reference: per-clone contexts and the pairwise transfer fixpoint
# ---------------------------------------------------------------------------


def ref_update_reuse_context(cfg, block, jump_target_value):
    table = cfg.value_table
    origins = cfg._origins
    work = [(block, jump_target_value)]
    visited = set()
    touched_offsets = []
    while work:
        clone, root = work.pop()
        if (clone, root) in visited:
            continue
        visited.add((clone, root))
        s_start = cfg.s_start.get(clone)
        if s_start is None:
            continue
        chain = origins.get(root)
        if chain is None:
            chain = origins[root] = trace_origin(root, table)
        found = {}
        for idx, entry in enumerate(s_start):
            if entry in chain:
                found.setdefault(entry, []).append(idx)
            value = table.get(entry)
            if value.kind == PHI:
                for member in value.members:
                    if member in chain:
                        found.setdefault(member, []).append(idx)
        if not found:
            continue
        preds = cfg.pred.get(clone, ())
        for vid in sorted(found):
            value = table.get(vid)
            if value.kind == CONST:
                ctx = cfg.ref_contexts.setdefault(clone, {})
                added = False
                for idx in found[vid]:
                    if ctx.get(idx) != value.const:
                        ctx[idx] = value.const
                        added = True
                if added:
                    touched_offsets.append(clone.offset)
            for pred in preds:
                work.append((pred, vid))

    for offset in dict.fromkeys(touched_offsets):
        ref_transfer_taint(cfg, offset)


def ref_backpropagate_context(cfg, pred, succ):
    ctx = cfg.ref_contexts.get(succ)
    s_start = cfg.s_start.get(succ)
    if not ctx or s_start is None:
        return
    for idx in sorted(ctx):
        if idx < len(s_start):
            ref_update_reuse_context(cfg, succ, s_start[idx])


def ref_transfer_taint(cfg, offset):
    clones = [c for c in cfg.clones_at(offset) if cfg.s_start.get(c) is not None]
    if len(clones) < 2:
        return
    table = cfg.value_table
    contexts = cfg.ref_contexts
    settled = cfg.ref_settled.get(offset, {})
    dirty = set()
    for c in clones:
        record = settled.get(c)
        if record is None or record[0] is not cfg.s_start[c] or record[1] != contexts.get(c, {}):
            dirty.add(c)
    changed = bool(dirty)
    while changed:
        changed = False
        for a in clones:
            ctx_a = contexts.get(a)
            if not ctx_a:
                continue
            a_dirty = a in dirty
            keys_a = sorted(ctx_a)
            for b in clones:
                if a == b or not (a_dirty or b in dirty):
                    continue
                s_b = cfg.s_start[b]
                ctx_b = contexts.setdefault(b, {})
                for idx in keys_a:
                    if idx >= len(s_b):
                        cfg.add_diagnostic(
                            "info",
                            f"reuse-context index {idx} out of range for {b}",
                            offset,
                        )
                        continue
                    value_b = table.get(s_b[idx])
                    if value_b.kind != CONST:
                        break
                    if idx not in ctx_b:
                        ctx_b[idx] = value_b.const
                        changed = True
                        dirty.add(b)
                    if ctx_b[idx] != ctx_a[idx]:
                        break
    for c in clones:
        if not contexts.get(c):
            contexts.pop(c, None)
    cfg.ref_settled[offset] = {
        c: (cfg.s_start[c], dict(contexts.get(c, {}))) if c in dirty else settled[c]
        for c in clones
    }


def ref_reuse_handler(cfg, b_c, target_offset):
    s_end = cfg.s_end[b_c]
    table = cfg.value_table
    for cand in cfg.clones_at(target_offset):
        cand_start = cfg.s_start.get(cand)
        if cand_start is None:
            return cand
        if len(cand_start) != len(s_end):
            continue
        ctx = cfg.ref_contexts.get(cand, {})
        ok = True
        for idx, expected in ctx.items():
            if idx >= len(s_end):
                ok = False
                break
            have = table.get(s_end[idx])
            if have.kind != CONST or have.const != expected:
                ok = False
                break
        if ok:
            return cand
    if len(s_end) > STACK_LIMIT:
        raise AnalysisError(
            f"entry stack deeper than {STACK_LIMIT} at offset 0x{target_offset:x}"
        )
    clone = _make_clone(cfg, target_offset)
    cfg.s_start[clone] = s_end
    ref_transfer_taint(cfg, target_offset)
    return clone


OUT_OF_RANGE = re.compile(r"reuse-context index \d+ out of range for ")


def build_reference(code, limits):
    """The sensitive build of `code` with the reference step, and its
    contexts of the blocks kept in the graph."""
    recovery = _Recovery(code, Mode.REUSE_SENSITIVE, limits)
    cfg = recovery.cfg
    cfg.ref_contexts, cfg.ref_settled = {}, {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reusecfg.cfg, "update_reuse_context", ref_update_reuse_context)
        patch.setattr(reusecfg.cfg, "backpropagate_context", ref_backpropagate_context)
        patch.setattr(reusecfg.cfg, "transfer_taint", ref_transfer_taint)
        patch.setattr(reusecfg.cfg, "reuse_handler", ref_reuse_handler)
        recovery.run()
    cfg.diagnostics = {d: None for d in cfg.diagnostics if not OUT_OF_RANGE.match(d[1])}
    return cfg, {b: ctx for b, ctx in cfg.ref_contexts.items() if b in cfg.blocks and ctx}


def outcome(build):
    try:
        return build(), None
    except AnalysisError as exc:
        return None, (type(exc), str(exc))


def assert_same_recovery(code, limits=Config()):
    ref, ref_error = outcome(lambda: build_reference(code, limits))
    cfg, error = outcome(lambda: build_cfg(code, Mode.REUSE_SENSITIVE, limits))
    assert error == ref_error
    if error is not None:
        return
    ref_cfg, ref_contexts = ref
    assert export(cfg, "json", emit_tac=True) == export(ref_cfg, "json", emit_tac=True)
    assert export(cfg, "dot") == export(ref_cfg, "dot")
    assert dict(cfg.reuse_contexts) == ref_contexts


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(1500, 6000), st.integers(0, 2**16))
def test_stress_fixtures_match_reference(size, seed):
    assert_same_recovery(stress_fixture(size, seed))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(Pattern)), st.integers(1, 6), st.integers(0, 2**16))
def test_pattern_fixtures_match_reference(pattern, depth, seed):
    assert_same_recovery(generate(PatternSpec(pattern, seed=seed, nesting_depth=depth)).bytecode)


# Random code: mostly stack, arithmetic and control-flow opcodes, pushes of
# the offset of the k-th JUMPDEST (k drawn, the offset filled in once the
# layout is known) and now and then any byte, so that random code reaches
# shared blocks with pre-pushed jump operands.
_OPS = [0x00, 0x01, 0x33, 0x50, 0x56, 0x57, 0x5B, 0x5F, 0x80, 0x81, 0x90, 0x91]
_label = st.tuples(st.just("label"), st.integers(0, 15))
_op = st.sampled_from(_OPS)
_element = st.one_of(_label, _label, _op, _op, _op, _op, _op, st.integers(0, 255))


def assemble(elements):
    dests, offset = [], 0
    for element in elements:
        if element == 0x5B:
            dests.append(offset)
        offset += 2 if isinstance(element, tuple) else 1
    code = bytearray()
    for element in elements:
        if isinstance(element, tuple):
            k = element[1]
            code += bytes([0x60, dests[k % len(dests)] % 256 if dests else k])
        else:
            code.append(element)
    return bytes(code)


@settings(max_examples=400, deadline=None)
@given(st.lists(_element, min_size=1, max_size=100).map(assemble))
def test_random_bytes_match_reference(code):
    assert_same_recovery(code, Config(clone_budget_per_offset=16))


# ---------------------------------------------------------------------------
# The derived rule
# ---------------------------------------------------------------------------


def test_contexts_derive_from_tainted_indices_per_offset_and_depth():
    # Four JUMPDESTs, then STOP: originals at offsets 0..3.
    cfg = _Recovery(bytes.fromhex("5b5b5b5b00"), Mode.REUSE_SENSITIVE, Config()).cfg
    table = cfg.value_table
    k10, k20 = table.new_const(0x10), table.new_const(0x20)
    sym = table.new_sym("CALLER", ())
    a, b, c, shallow = BlockId(1, 0), _make_clone(cfg, 1), _make_clone(cfg, 1), _make_clone(cfg, 1)
    cfg.s_start[a] = (k10, k20, k10)
    cfg.s_start[b] = (k20, sym, k10)
    cfg.s_start[c] = (k10, k20, k20)
    cfg.s_start[shallow] = (k10, k20)
    # A walk taints only constant chain values: here the symbol at index 1
    # of b is the operand itself.
    update_reuse_context(cfg, b, sym)
    assert cfg.tainted == {}
    transfer_taint(cfg, a, [2, 0])
    transfer_taint(cfg, c, [1])
    assert cfg.tainted == {(1, 3): {0, 1, 2}}
    # Every clone of depth 3 reads the shared indices; the symbol at index 1
    # ends b's context, and the clone of depth 2 has none.
    assert cfg.reuse_contexts == {
        a: {0: 0x10, 1: 0x20, 2: 0x10},
        b: {0: 0x20},
        c: {0: 0x10, 1: 0x20, 2: 0x20},
    }
    transfer_taint(cfg, shallow, [1])
    assert cfg.reuse_contexts[shallow] == {1: 0x20}
    assert cfg.reuse_contexts[a] == {0: 0x10, 1: 0x20, 2: 0x10}
    with pytest.raises(TypeError):
        cfg.reuse_contexts[a] = {}

    # b accepts any arrival with 0x20 at index 0: its context ends before
    # the other two tainted indices.
    pred = BlockId(0, 0)
    cfg.s_end[pred] = (table.new_const(0x20), table.new_unknown("test"), k20)
    assert reuse_handler(cfg, pred, 1) == b
    # A mismatch at index 2 rules out a and c, one at index 0 rules out b:
    # a new clone, whose context reads the three shared indices at once.
    cfg.s_end[pred] = (k10, k20, table.new_const(0x30))
    made = reuse_handler(cfg, pred, 1)
    assert made == BlockId(1, 4)
    assert cfg.reuse_contexts[made] == {0: 0x10, 1: 0x20, 2: 0x30}


def test_backpropagation_walks_from_every_tainted_index():
    # x's tainted indices are 0 and 1; the symbol at 0 ends its context, yet
    # the constant at 1 still flowed in through a new predecessor p.
    cfg = _Recovery(bytes.fromhex("5b5b5b5b00"), Mode.REUSE_SENSITIVE, Config()).cfg
    table = cfg.value_table
    k = table.new_const(0x10)
    p, x = BlockId(1, 0), BlockId(2, 0)
    cfg.s_start[p] = (k,)
    cfg.s_start[x] = (table.new_sym("CALLER", ()), k)
    transfer_taint(cfg, x, [0, 1])
    assert x not in cfg.reuse_contexts
    cfg.add_edge(p, x, EdgeKind.JUMP)
    backpropagate_context(cfg, p, x)
    assert cfg.tainted[(1, 1)] == {0}
    assert cfg.reuse_contexts[p] == {0: 0x10}


def test_walk_reaches_a_predecessor_added_after_it():
    # x was walked before p became its predecessor: the next walk from x
    # must reach p rather than skip x as already walked.
    cfg = _Recovery(bytes.fromhex("5b5b5b5b00"), Mode.REUSE_SENSITIVE, Config()).cfg
    table = cfg.value_table
    k = table.new_const(0x10)
    p, x = BlockId(1, 0), BlockId(2, 0)
    cfg.set_entry_stack(p, (k,))
    cfg.set_entry_stack(x, (k,))
    update_reuse_context(cfg, x, k)
    assert cfg.tainted == {(2, 1): {0}}
    assert cfg._walked == {x: {k}}
    cfg.add_edge(p, x, EdgeKind.JUMP)
    assert cfg._walked == {}
    update_reuse_context(cfg, x, k)
    assert cfg.tainted[(1, 1)] == {0}
    assert cfg.reuse_contexts[p] == {0: 0x10}
    # A second edge from a source that already is a predecessor reaches
    # nothing new: the walked items stay.
    cfg.add_edge(p, x, EdgeKind.FALLTHROUGH)
    assert cfg._walked == {x: {k}, p: {k}}


def test_walk_rereads_an_entry_stack_changed_after_it():
    # p held no copy of k when the walk from x passed it; once p's entry
    # stack holds k, the next walk from x must taint it there.
    cfg = _Recovery(bytes.fromhex("5b5b5b5b00"), Mode.REUSE_SENSITIVE, Config()).cfg
    table = cfg.value_table
    k = table.new_const(0x10)
    p, x = BlockId(1, 0), BlockId(2, 0)
    cfg.set_entry_stack(p, (table.new_unknown("test"),))
    cfg.set_entry_stack(x, (k,))
    cfg.add_edge(p, x, EdgeKind.JUMP)
    update_reuse_context(cfg, x, k)
    assert cfg.tainted == {(2, 1): {0}}
    assert cfg._walked == {x: {k}, p: {k}}
    cfg.set_entry_stack(p, (k,))
    assert cfg._walked == {}
    update_reuse_context(cfg, x, k)
    assert cfg.tainted[(1, 1)] == {0}
    assert cfg.reuse_contexts[p] == {0: 0x10}


def test_built_graph_keeps_no_chain_memo(monkeypatch):
    seen = {}
    finalize = _Recovery._finalize

    def recording_finalize(self):
        seen["origins"] = len(self.cfg._origins)
        seen["walked"] = len(self.cfg._walked)
        finalize(self)

    monkeypatch.setattr(_Recovery, "_finalize", recording_finalize)
    cfg = build_cfg(stress_fixture(3000, 0))
    assert seen["origins"] > 0 and seen["walked"] > 0
    assert cfg._origins == {}
    assert cfg._walked == {}
    assert cfg.tainted and cfg.reuse_contexts
