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

Random code is not compared with the reference.  On random programs the
two rules part.  The pairwise transfer copies contexts between clones of
different entry depths, and on a few inputs it builds a different graph or
raises a different error.  The reference also taints only constant chain
values and ends a context at its first non-constant entry, where the
library taints every chain value and compares every tainted index.
Random code is pinned instead by a digest of the library's own outputs,
and the shared-return tests at the end check it against concrete traces.

A second reference, `ref_walk`, is the library walk as it was before its
leaf items (a value without `args` while the table holds no phi) got a
loop of their own over clones only.  Its body is kept word for word.
Random draws are built once with each walk, and everything the walk
writes must agree: the tainted indices, the contexts, the export and every
`transfer_taint` call, in order.
"""

import hashlib
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixtures import CALLER_ENV, halting_loop, random_program, shared_returns
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
from reusecfg.corpus import Assembler, Pattern, PatternSpec, generate, interpret
from reusecfg.emulator import CONST, PHI, trace_origin
from reusecfg.metrics import polymorphic_jump_targets, trace_coverage

# ---------------------------------------------------------------------------
# Reference: per-clone contexts and the pairwise transfer fixpoint
# ---------------------------------------------------------------------------


def ref_update_reuse_context(cfg, block, jump_target_value):
    table = cfg.value_table
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
        chain = trace_origin(root, table)
        found = {}
        for idx, entry in enumerate(s_start):
            if entry in chain:
                found.setdefault(entry, []).append(idx)
            value = table.get(entry)
            if value.kind == PHI:
                for member in value.args:
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


def ref_backpropagate_context(cfg, succ):
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


def ref_reuse_handler(cfg, s_end, target_offset):
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


# Two programs on which the reference differs.  On the first only in
# contexts: it gives clone 0x2_1, entered at depth 2, the context of 0x2_0,
# entered at depth 1, though nothing is tainted at depth 2.  On the second
# in the exported graph.
DIVERGENT = [
    "60025b60026002018156",
    "576004805b91909160048091575660045681600433600460048001015090600490",
]

# Sensitive JSON+TAC export and contexts, or the error, of `DIVERGENT` and
# 2,000 seeded random programs.  Pinned again when a stack underflow came to
# halt the emulation: the 627 programs that never underflow kept their
# outcome byte for byte; of the 1,375 that do, 31 clone explosions became
# graphs, 50 graphs lost clones, and 1,294 kept their blocks but lost the
# edges, TAC or warnings that followed an underflow.
RANDOM_BYTES_SHA256 = "b750f203acac3879dcbff2b51cd3c28076d82c11092d2ecd9b355dfb853684ae"


def random_bytes_digest():
    rng = random.Random(5)
    codes = [bytes.fromhex(x) for x in DIVERGENT] + [random_program(rng) for _ in range(2000)]
    h = hashlib.sha256()
    limits = Config(clone_budget_per_offset=16)
    for code in codes:
        try:
            cfg = build_cfg(code, Mode.REUSE_SENSITIVE, limits)
        except AnalysisError as exc:
            data = f"{type(exc).__name__}: {exc}".encode()
        else:
            contexts = sorted((b, sorted(ctx.items())) for b, ctx in cfg.reuse_contexts.items())
            data = export(cfg, "json", emit_tac=True) + repr(contexts).encode()
        h.update(f"{code.hex()} {len(data)}\n".encode())
        h.update(data)
    return h.hexdigest()


def test_random_bytes_match_pinned_digest():
    assert random_bytes_digest() == RANDOM_BYTES_SHA256


# ---------------------------------------------------------------------------
# Reference: the walk before leaf items got a loop of their own
# ---------------------------------------------------------------------------


def ref_walk(cfg, block, jump_target_value):
    walked = cfg._walked
    seen = walked.get(block)
    if seen is not None and jump_target_value in seen:
        return  # walked already: the loop below would skip it at once
    table = cfg.value_table
    values = table.values
    s_start = cfg.s_start
    # The walk appends no value, so no phi appears while it runs.
    leaf_scan = not table.has_phi
    # (clone, value id) pairs whose def-use chain is matched against that
    # clone's S_start.
    work: list[tuple[BlockId, int]] = [(block, jump_target_value)]
    while work:
        clone, root = work.pop()
        seen = walked.get(clone)
        if seen is None:
            walked[clone] = {root}
        elif root in seen:
            continue
        else:
            seen.add(root)
        stack = s_start[clone]
        value = values[root]
        if leaf_scan and not value.args:
            # The chain is `root` alone and no entry is a phi: `root` sits
            # only where its own id does.
            if root not in stack:
                continue
            idx = stack.index(root)
            positions = [idx]
            for _ in range(stack.count(root) - 1):
                idx = stack.index(root, idx + 1)
                positions.append(idx)
            tainted = cfg.tainted.get((clone.offset, len(stack)))
            if tainted is None or not tainted.issuperset(positions):
                transfer_taint(cfg, clone, positions)
            for pred in cfg.pred.get(clone, ()):
                work.append((pred, root))
            continue
        chain = trace_origin(root, table)
        # One pass over S_start: chain value -> its positions, ascending.  A
        # phi entry holds each of its members too.
        found: dict[int, list[int]] = {}
        for idx, entry in enumerate(stack):
            if entry in chain:
                found.setdefault(entry, []).append(idx)
            value = values[entry]
            if value.kind == PHI:
                for member in value.args:
                    if member in chain:
                        found.setdefault(member, []).append(idx)
        if not found:
            continue  # not pre-pushed relative to this clone
        preds = cfg.pred.get(clone, ())
        for vid, positions in found.items():
            transfer_taint(cfg, clone, positions)
            # The value flowed in from every predecessor stack that still
            # holds it (or computed it): keep walking toward its push.
            for pred in preds:
                work.append((pred, vid))


def build_with_walk(code, cap, walk):
    """The sensitive build of `code` at re-emulation cap `cap` with `walk`
    as `update_reuse_context`: its graph or error, and the arguments of
    every `transfer_taint` call in order."""
    taint = reusecfg.cfg.transfer_taint
    calls = []

    def recording(cfg, block, indices):
        calls.append((block, list(indices)))
        taint(cfg, block, indices)

    limits = Config(clone_budget_per_offset=16, reemulation_cap=cap)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reusecfg.cfg, "update_reuse_context", walk)
        patch.setattr(reusecfg.cfg, "transfer_taint", recording)
        # `ref_walk` calls this module's name.
        patch.setattr(sys.modules[__name__], "transfer_taint", recording)
        cfg, error = outcome(lambda: build_cfg(code, Mode.REUSE_SENSITIVE, limits))
    return cfg, error, calls


# Draws on which the table makes a phi, so that walks also take the chain
# branch and match phi members: the first builds, the second ends in a
# clone explosion after 125 phi positions were tainted.
@example(shared_returns, 8, 64)
@example(random_program, 1849, 1)
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([random_program, shared_returns, halting_loop]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 64]),
)
def test_walk_matches_the_reference_walk(program, seed, cap):
    code = program(random.Random(seed))
    cfg, error, calls = build_with_walk(code, cap, update_reuse_context)
    ref_cfg, ref_error, ref_calls = build_with_walk(code, cap, ref_walk)
    assert (error, calls) == (ref_error, ref_calls)
    if error is not None:
        return
    assert cfg.tainted == ref_cfg.tainted
    assert dict(cfg.reuse_contexts) == dict(ref_cfg.reuse_contexts)
    assert export(cfg, "json", emit_tac=True) == export(ref_cfg, "json", emit_tac=True)


def test_leaf_walk_goes_depth_first_through_the_last_predecessor_first():
    # x has predecessors p1 and then p2, and p2 has q; each holds the
    # operand k.  The walk taints them in the reference's LIFO order.
    orders = []
    for walk in (update_reuse_context, ref_walk):
        cfg = _Recovery(bytes.fromhex("5b5b5b5b00"), Mode.REUSE_SENSITIVE, Config()).cfg
        k = cfg.value_table.new_const(0x10)
        q, p1, x, p2 = (BlockId(offset, 0) for offset in range(4))
        for block in (q, p1, x, p2):
            cfg.s_start[block] = (k,)
        for src, dst in ((p1, x), (p2, x), (q, p2)):
            cfg.add_edge(src, dst, EdgeKind.JUMP)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            for module in (reusecfg.cfg, sys.modules[__name__]):
                patch.setattr(module, "transfer_taint", lambda c, b, i: calls.append((b, i)))
            walk(cfg, x, k)
        orders.append(calls)
    assert orders[0] == orders[1] == [(x, [0]), (p2, [0]), (q, [0]), (p1, [0])]


def test_reference_walk_pins_take_the_chain_branch_after_a_phi():
    # The pinned draws above would stop exercising the chain branch if the
    # table stopped making phis on them.
    for program, seed, cap in ((shared_returns, 8, 64), (random_program, 1849, 1)):
        phi_walks = []
        chain = reusecfg.cfg.trace_origin

        def recording(vid, table):
            phi_walks.append(table.has_phi)
            return chain(vid, table)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reusecfg.cfg, "trace_origin", recording)
            build_with_walk(program(random.Random(seed)), cap, update_reuse_context)
        assert any(phi_walks), (program.__name__, seed)


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
    # A walk taints every chain value it finds, constant or not: here the
    # symbol at index 1 of b is the operand itself.
    update_reuse_context(cfg, b, sym)
    assert cfg.tainted == {(1, 3): {1}}
    transfer_taint(cfg, a, [2, 0])
    transfer_taint(cfg, c, [1])
    assert cfg.tainted == {(1, 3): {0, 1, 2}}
    # Every clone of depth 3 reads the shared indices; b's context skips
    # the symbol at index 1, and the clone of depth 2 has none.
    assert cfg.reuse_contexts == {
        a: {0: 0x10, 1: 0x20, 2: 0x10},
        b: {0: 0x20, 2: 0x10},
        c: {0: 0x10, 1: 0x20, 2: 0x20},
    }
    transfer_taint(cfg, shallow, [1])
    assert cfg.reuse_contexts[shallow] == {1: 0x20}
    assert cfg.reuse_contexts[a] == {0: 0x10, 1: 0x20, 2: 0x10}
    with pytest.raises(TypeError):
        cfg.reuse_contexts[a] = {}

    # b accepts an arrival with b's constants at 0 and 2 and a non-constant
    # at 1, whatever non-constant it is.
    assert reuse_handler(cfg, (table.new_const(0x20), table.new_unknown(), k10), 1) == b
    # A mismatch at index 2 rules out a and c, one at index 0 rules out b:
    # a new clone, whose context reads the three shared indices at once.
    made = reuse_handler(cfg, (k10, k20, table.new_const(0x30)), 1)
    assert made == BlockId(1, 4)
    assert cfg.reuse_contexts[made] == {0: 0x10, 1: 0x20, 2: 0x30}
    # A constant where b holds the symbol rules b out too.
    assert reuse_handler(cfg, (table.new_const(0x20), k20, k10), 1) == BlockId(1, 5)


def _leaf_walk_setup():
    """A clone x whose entry stack holds a pre-pushed constant k at 0 and,
    DUPed, at 2, and a predecessor p that pushed k."""
    cfg = _Recovery(bytes.fromhex("5b5b5b5b00"), Mode.REUSE_SENSITIVE, Config()).cfg
    table = cfg.value_table
    k, other = table.new_const(0x10), table.new_const(0x20)
    p, x = BlockId(1, 0), BlockId(2, 0)
    cfg.s_start[p] = (k,)
    cfg.s_start[x] = (k, other, k)
    cfg.add_edge(p, x, EdgeKind.JUMP)
    return cfg, k, p, x


def test_leaf_operand_walk_taints_each_of_its_positions():
    # The operand has no `args` and the table has made no phi: the walk
    # finds it by scanning the entry stack for its id alone.
    cfg, k, p, x = _leaf_walk_setup()
    assert not cfg.value_table.has_phi
    update_reuse_context(cfg, x, k)
    assert cfg.tainted == {(2, 3): {0, 2}, (1, 1): {0}}
    assert cfg.reuse_contexts == {p: {0: 0x10}, x: {0: 0x10, 2: 0x10}}


def test_leaf_operand_walk_taints_a_phi_that_holds_it():
    # Once the table holds a phi, an entry can hold the operand as a member:
    # the phi's position is tainted too.
    cfg, k, p, x = _leaf_walk_setup()
    table = cfg.value_table
    phi = table.new_phi((k, table.new_const(0x30)))
    assert table.has_phi
    cfg.s_start[x] += (phi,)
    update_reuse_context(cfg, x, k)
    assert cfg.tainted == {(2, 4): {0, 2, 3}, (1, 1): {0}}
    # The phi at 3 is not a constant: x's context skips it.
    assert cfg.reuse_contexts == {p: {0: 0x10}, x: {0: 0x10, 2: 0x10}}


def test_backpropagation_walks_from_every_tainted_index():
    # x's tainted indices are 0 and 1; its context skips the symbol at 0,
    # and the constant at 1 flowed in through a new predecessor p.
    cfg = _Recovery(bytes.fromhex("5b5b5b5b00"), Mode.REUSE_SENSITIVE, Config()).cfg
    table = cfg.value_table
    k = table.new_const(0x10)
    p, x = BlockId(1, 0), BlockId(2, 0)
    cfg.s_start[p] = (k,)
    cfg.s_start[x] = (table.new_sym("CALLER", ()), k)
    transfer_taint(cfg, x, [0, 1])
    assert cfg.reuse_contexts == {x: {1: 0x10}}
    cfg.add_edge(p, x, EdgeKind.JUMP)
    backpropagate_context(cfg, x)
    assert cfg.tainted[(1, 1)] == {0}
    assert cfg.reuse_contexts[p] == {0: 0x10}


def test_walk_reaches_a_predecessor_added_after_it():
    # x was walked before p became its predecessor: the next walk from x
    # must reach p rather than skip x as already walked.
    cfg = _Recovery(bytes.fromhex("5b5b5b5b00"), Mode.REUSE_SENSITIVE, Config()).cfg
    table = cfg.value_table
    k = table.new_const(0x10)
    p, x = BlockId(1, 0), BlockId(2, 0)
    cfg.s_start[p] = (k,)
    cfg.s_start[x] = (k,)
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


def test_walk_reads_an_entry_stack_changed_after_it():
    # x was walked for k while its entry stack did not hold k.  A join then
    # puts k in x's stack through an edge that already exists, so no
    # predecessor is added: the join itself must empty the walk set, or the
    # next walk from x would skip x and miss k.
    recovery = _Recovery(bytes.fromhex("5b5b5b5b00"), Mode.REUSE_SENSITIVE, Config())
    cfg = recovery.cfg
    table = cfg.value_table
    k = table.new_const(0x10)
    x = BlockId(2, 0)
    cfg.s_start[x] = (table.new_sym("CALLER", ()),)
    update_reuse_context(cfg, x, k)
    assert cfg.tainted == {}
    assert cfg._walked == {x: {k}}
    recovery._merge_into((k,), x)
    assert cfg._walked == {}
    update_reuse_context(cfg, x, k)
    assert cfg.tainted == {(2, 1): {0}}


def test_built_graph_keeps_no_chain_memo(monkeypatch):
    seen = {}
    finalize = _Recovery._finalize

    def recording_finalize(self):
        seen["walked"] = len(self.cfg._walked)
        finalize(self)

    monkeypatch.setattr(_Recovery, "_finalize", recording_finalize)
    cfg = build_cfg(stress_fixture(3000, 0))
    assert seen["walked"] > 0
    assert cfg._walked == {}
    assert cfg.tainted and cfg.reuse_contexts


def test_candidate_is_compared_past_a_non_constant_entry():
    # Indices 0 and 1 are tainted and the candidate's entry holds a symbol
    # at 0: its context is {1: 0x10}.  An arrival with a constant at 0 or
    # another constant at 1 gets a new clone; one with a non-constant at 0
    # and 0x10 at 1 matches.
    cfg = _Recovery(bytes.fromhex("5b5b5b5b00"), Mode.REUSE_SENSITIVE, Config()).cfg
    table = cfg.value_table
    cand = BlockId(1, 0)
    k10 = table.new_const(0x10)
    cfg.s_start[cand] = (table.new_sym("CALLER", ()), k10)
    transfer_taint(cfg, cand, [0, 1])
    assert reuse_handler(cfg, (table.new_unknown(), table.new_const(0x20)), 1) == BlockId(1, 1)
    assert reuse_handler(cfg, (table.new_const(0x99), k10), 1) == BlockId(1, 2)
    assert reuse_handler(cfg, (table.new_unknown(), table.new_const(0x10)), 1) == cand


def folded_return_program():
    """Two call sites push distinct return labels and jump to a shared `f`;
    `f` jumps to a shared `g`, which returns through `PUSH1 0; ADD; JUMP`:
    its jump operand is a constant folded from the pre-pushed label."""
    asm = Assembler()
    asm.push_label("ret1")
    asm.push_label("f")
    asm.op("JUMP")
    asm.label("ret1")
    asm.op("JUMPDEST")
    asm.push_label("ret2")
    asm.push_label("f")
    asm.op("JUMP")
    asm.label("ret2")
    asm.op("JUMPDEST")
    asm.op("STOP")
    asm.label("f")
    asm.op("JUMPDEST")
    asm.push_label("g")
    asm.op("JUMP")
    asm.label("g")
    asm.op("JUMPDEST")
    asm.push(0)
    asm.op("ADD")
    asm.op("JUMP")
    return asm.assemble()


def test_operand_folded_in_block_from_a_pre_pushed_value_is_walked():
    # The folded operand is new to g's emulation but has operands: its
    # walk must still taint the return label in f and g.
    code = folded_return_program()
    assert code.hex() == "610007610011565b61000f610011565b005b610016565b60000156"
    cfg = build_cfg(code)
    assert sorted(str(b) for b in cfg.blocks if b.clone) == ["0x11_1", "0x16_1"]
    assert polymorphic_jump_targets(cfg) == []
    assert list(cfg.diagnostics) == []


def count_walks(monkeypatch, code):
    calls = []
    walk = reusecfg.cfg.update_reuse_context

    def counting(cfg, block, jump_target_value):
        calls.append(block)
        walk(cfg, block, jump_target_value)

    monkeypatch.setattr(reusecfg.cfg, "update_reuse_context", counting)
    build_cfg(code)
    return len(calls)


def test_operand_pushed_in_block_is_not_walked(monkeypatch):
    # PUSH1 3; JUMP; JUMPDEST; STOP: the operand is a push of the jumping
    # block itself, which no entry stack holds.
    assert count_walks(monkeypatch, bytes.fromhex("6003565b00")) == 0
    assert count_walks(monkeypatch, folded_return_program()) >= 1


# ---------------------------------------------------------------------------
# Shared returns: coverage of every concrete trace
# ---------------------------------------------------------------------------


def covers_every_trace(code):
    cfg = build_cfg(code)
    covered, total, _ = trace_coverage(cfg, interpret(code, 8, CALLER_ENV))
    return covered == total > 0 and polymorphic_jump_targets(cfg) == []


# Two call sites of F: JUMPDEST; JUMP at 0x18, one pushing CALLER and one
# its return label 0x1a, dispatched in both orders.  When the CALLER site
# comes first, F's jump is left unresolved; only a walk of that operand
# taints F's index 0, so that the other site gets its own clone.
@pytest.mark.parametrize(
    "code",
    [
        "600061000a57610010565b33610018565b61001a610018565b565b00",
        "60006100105761000a565b33610018565b61001a610018565b565b00",
    ],
)
def test_unresolved_jump_operand_is_walked(code):
    assert covers_every_trace(bytes.fromhex(code))


# Three call sites of F (0x2d) in the `shared_returns` shape: one pushes
# the label 0x33 under T's label (0x2f), one CALLER under T's label and one
# CALLER under its own return label 0x31.  F's clone for the second site
# holds CALLER at index 0; if its context ended there, the third site
# would join it, and F's two return labels would merge into one operand.
SHARED_RETURNS_53 = bytes.fromhex(
    "600061001057600061001b57610024565b61003361002f61002d565b3361002f61002d565b"
    "3361003161002d565b565b565b005b00"
)


def test_non_constant_entry_does_not_end_the_context():
    assert covers_every_trace(SHARED_RETURNS_53)
    assert len(interpret(SHARED_RETURNS_53, 8, CALLER_ENV)) == 3


def test_shared_returns_cover_every_trace():
    for i in range(200):
        assert covers_every_trace(shared_returns(random.Random(i))), i
