"""The reuse-context step against a full-recomputation oracle.

`oracle_update_reuse_context` and `oracle_transfer_taint` are the plain
versions of the two steps: the walk rescans each entry stack once per chain
value and recomputes every chain, and the transfer re-checks every clone
pair of the offset on each call.  The library versions settle only what
changed; they must leave the same contexts and the same diagnostics, in the
same order, after any sequence of calls and hand edits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from reusecfg import stress_fixture
from reusecfg.bytecode import BlockId
from reusecfg.cfg import (
    Config,
    EdgeKind,
    Mode,
    _make_clone,
    _Recovery,
    build_cfg,
    transfer_taint,
    update_reuse_context,
)
from reusecfg.emulator import CONST, PHI, StackState, ValueTable, trace_origin

# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def oracle_update_reuse_context(cfg, block, jump_target_value, value_table):
    table = value_table
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
        preds = cfg.predecessors(clone)
        for vid in sorted(trace_origin(root, table)):
            positions = []
            for idx, entry in enumerate(s_start.entries):
                if entry == vid:
                    positions.append(idx)
                elif table.get(entry).kind == PHI and vid in table.get(entry).members:
                    positions.append(idx)
            if not positions:
                continue
            value = table.get(vid)
            if value.kind == CONST:
                ctx = cfg.reuse_contexts.setdefault(clone, {})
                added = False
                for idx in positions:
                    if ctx.get(idx) != value.const:
                        ctx[idx] = value.const
                        added = True
                if added:
                    touched_offsets.append(clone.offset)
            for pred in preds:
                work.append((pred, vid))

    for offset in dict.fromkeys(touched_offsets):
        oracle_transfer_taint(cfg, offset)


def oracle_transfer_taint(cfg, offset):
    clones = [c for c in cfg.clones_at(offset) if cfg.s_start.get(c) is not None]
    if len(clones) < 2:
        return
    table = cfg.value_table
    changed = True
    while changed:
        changed = False
        for a in clones:
            ctx_a = cfg.reuse_contexts.get(a)
            if not ctx_a:
                continue
            for b in clones:
                if a == b:
                    continue
                s_b = cfg.s_start[b]
                ctx_b = cfg.reuse_contexts.setdefault(b, {})
                for idx in sorted(ctx_a):
                    if idx >= len(s_b.entries):
                        cfg.add_diagnostic(
                            "info",
                            f"reuse-context index {idx} out of range for {b}",
                            offset,
                        )
                        continue
                    value_b = table.get(s_b.entries[idx])
                    if value_b.kind != CONST:
                        break
                    if idx not in ctx_b:
                        ctx_b[idx] = value_b.const
                        changed = True
                    if ctx_b[idx] != ctx_a[idx]:
                        break
    for c in clones:
        if not cfg.reuse_contexts.get(c):
            cfg.reuse_contexts.pop(c, None)


# ---------------------------------------------------------------------------
# Random clone states
# ---------------------------------------------------------------------------

# Four JUMPDESTs (the last followed by STOP): originals at offsets 0..3.
CODE = bytes.fromhex("5b5b5b5b00")
OFFSETS = (0, 1, 2, 3)
# Few distinct constants, so equal constants under different ids are common.
CONSTS = (0x10, 0x20, 0x30)


class Twin:
    """The same hand-built graph twice: one driven by the oracle, one by the
    library.  Both share one value table; every edit goes to both."""

    def __init__(self) -> None:
        self.table = ValueTable()
        self.old = _Recovery(CODE, Mode.REUSE_SENSITIVE, Config()).cfg
        self.new = _Recovery(CODE, Mode.REUSE_SENSITIVE, Config()).cfg
        self.old.value_table = self.new.value_table = self.table
        # Every stack object each block has held, to put one back later.
        self.held: dict[BlockId, list[StackState]] = {}

    @property
    def cfgs(self):
        return (self.old, self.new)

    def blocks(self) -> list[BlockId]:
        return list(self.new.blocks)

    def check(self) -> None:
        assert self.new.reuse_contexts == self.old.reuse_contexts
        assert list(self.new.diagnostics) == list(self.old.diagnostics)

    def walk(self, block: BlockId, vid: int) -> None:
        oracle_update_reuse_context(self.old, block, vid, self.table)
        update_reuse_context(self.new, block, vid, self.table)
        self.check()

    def transfer(self, offset: int) -> None:
        oracle_transfer_taint(self.old, offset)
        transfer_taint(self.new, offset)
        self.check()

    def clone(self, offset: int) -> BlockId:
        made = {_make_clone(cfg, offset) for cfg in self.cfgs}
        assert len(made) == 1
        return made.pop()

    def set_start(self, block: BlockId, stack: StackState | None) -> None:
        if stack is not None:
            self.held.setdefault(block, []).append(stack)
        for cfg in self.cfgs:
            if stack is None:
                cfg.s_start.pop(block, None)
            else:
                cfg.s_start[block] = stack

    def set_context(self, block: BlockId, ctx: dict[int, int] | None) -> None:
        for cfg in self.cfgs:
            if ctx is None:
                cfg.reuse_contexts.pop(block, None)
            else:
                cfg.reuse_contexts[block] = dict(ctx)

    def add_edge(self, src: BlockId, dst: BlockId, kind: EdgeKind) -> None:
        for cfg in self.cfgs:
            cfg.add_edge(src, dst, kind)


def draw_value(draw, table: ValueTable) -> int:
    """Append one value: a push, a folded constant, a symbol, a phi or an
    unknown, over values already in the table."""
    some = st.lists(st.integers(0, len(table) - 1), min_size=1, max_size=3)
    kind = draw(st.sampled_from(["const", "folded", "sym", "phi", "unknown"]))
    if kind == "const":
        return table.new_const(draw(st.sampled_from(CONSTS)))
    if kind == "folded":
        return table.new_const(draw(st.sampled_from(CONSTS)), tuple(draw(some)))
    if kind == "sym":
        return table.new_sym("ADD", tuple(draw(some)))
    if kind == "phi":
        return table.make_phi(draw(some))
    return table.new_unknown("test")


def draw_stack(draw, table: ValueTable) -> StackState | None:
    if draw(st.integers(0, 4)) == 0:
        return None
    # Mostly the seeded pushes, so that clones share constant positions.
    entry = st.one_of(st.integers(0, 2 * len(CONSTS) - 1), st.integers(0, len(table) - 1))
    return StackState(tuple(draw(st.lists(entry, max_size=5))))


def draw_context(draw) -> dict[int, int] | None:
    if draw(st.booleans()):
        return None
    return draw(st.dictionaries(st.integers(0, 5), st.sampled_from(CONSTS), max_size=3))


def build_twin(draw) -> Twin:
    twin = Twin()
    table = twin.table
    for const in CONSTS + CONSTS:
        table.new_const(const)
    for _ in range(draw(st.integers(0, 8))):
        draw_value(draw, table)
    for offset in OFFSETS:
        for _ in range(draw(st.integers(0, 3))):
            twin.clone(offset)
    for block in twin.blocks():
        twin.set_start(block, draw_stack(draw, table))
        twin.set_context(block, draw_context(draw))
    blocks = st.sampled_from(twin.blocks())
    for _ in range(draw(st.integers(0, 10))):
        twin.add_edge(draw(blocks), draw(blocks), draw(st.sampled_from(list(EdgeKind))))
    return twin


OPS = [
    "walk", "walk", "transfer", "transfer", "stack", "same-stack", "restore",
    "context", "clone", "edge", "value",
]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_matches_oracle_under_random_edits(data):
    draw = data.draw
    twin = build_twin(draw)
    table = twin.table
    for _ in range(draw(st.integers(1, 16))):
        op = draw(st.sampled_from(OPS))
        block = draw(st.sampled_from(twin.blocks()))
        if op == "walk":
            twin.walk(block, draw(st.integers(0, len(table) - 1)))
        elif op == "transfer":
            twin.transfer(draw(st.sampled_from(OFFSETS)))
        elif op == "stack":
            twin.set_start(block, draw_stack(draw, table))
        elif op == "same-stack":
            # An equal stack in a new object: must settle to the same result.
            old = twin.new.s_start.get(block)
            if old is not None:
                twin.set_start(block, StackState(old.entries))
        elif op == "restore":
            # A stack object the block held before, possibly after it left
            # the offset's clone set: its old record must not count.
            if block in twin.held:
                twin.set_start(block, draw(st.sampled_from(twin.held[block])))
        elif op == "context":
            twin.set_context(block, draw_context(draw))
        elif op == "clone":
            made = twin.clone(draw(st.sampled_from(OFFSETS)))
            twin.set_start(made, draw_stack(draw, table))
        elif op == "edge":
            twin.add_edge(block, draw(st.sampled_from(twin.blocks())), EdgeKind.JUMP)
        else:
            draw_value(draw, table)
    for offset in OFFSETS:
        twin.transfer(offset)


def test_phi_position_takes_the_last_chain_constant():
    # A jump operand folded from two pushes, both of which reach the block
    # through one phi entry: the chain is handled in ascending id order, so
    # the constant made last is the one the context keeps, whatever its value.
    for first, second in ((0x10, 0x20), (0x20, 0x10)):
        twin = Twin()
        table = twin.table
        a = table.new_const(first)
        b = table.new_const(second)
        phi = table.make_phi([a, b])
        operand = table.new_const(0x30, (a, b))
        block = BlockId(1, 0)
        twin.set_start(block, StackState((phi,)))
        twin.walk(block, operand)
        assert twin.new.reuse_contexts == {block: {0: second}}


def test_clone_that_leaves_and_returns_is_settled_again():
    # Three clones of 0x1 share key 0; the first also holds key 1, out of
    # range for the one-entry stacks of the others.  While the first has no
    # entry stack, the second's grows to two entries, so once the first is
    # back with its old stack, key 1 reaches the second.
    twin = Twin()
    table = twin.table
    first, second, third = BlockId(1, 0), twin.clone(1), twin.clone(1)
    first_stack = StackState((table.new_const(0x10), table.new_const(0x11)))
    twin.set_start(first, first_stack)
    twin.set_start(second, StackState((table.new_const(0x10),)))
    twin.set_start(third, StackState((table.new_const(0x10),)))
    twin.set_context(first, {0: 0x10, 1: 0x11})
    twin.transfer(1)
    twin.set_start(first, None)
    twin.set_start(second, StackState((table.new_const(0x10), table.new_const(0x14))))
    twin.transfer(1)
    twin.set_start(first, first_stack)
    twin.transfer(1)
    assert twin.new.reuse_contexts[second] == {0: 0x10, 1: 0x14}


def test_built_graph_keeps_no_recovery_cache(monkeypatch):
    seen = {}
    finalize = _Recovery._finalize

    def recording_finalize(self):
        seen["settled"] = len(self.cfg._settled)
        seen["origins"] = len(self.cfg._origins)
        finalize(self)

    monkeypatch.setattr(_Recovery, "_finalize", recording_finalize)
    cfg = build_cfg(stress_fixture(3000, 0))
    assert seen["settled"] > 0 and seen["origins"] > 0
    assert cfg._settled == {}
    assert cfg._origins == {}
