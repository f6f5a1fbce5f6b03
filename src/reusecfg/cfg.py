"""Reuse-sensitive control-flow graph recovery.

Compilers shrink deployed bytecode by letting unrelated execution paths
share identical basic blocks; the shared block's jump operand is pushed by
each predecessor rather than next to the jump.  A context-blind traversal
merges those paths into fake joins and fake loops.  Recovery here taints
the entry-stack positions of pre-pushed jump operands, found by walking
each resolved jump operand's def-use chain back through the predecessor
chain to the push that introduced it.  The positions belong to a block's
offset and entry depth, and each clone's "reuse context" is derived from
them: the constants its entry stack holds there.  A successor candidate is
accepted only when the incoming stack holds the same constants; otherwise
the block is cloned, and the clone shares the tainted positions at once.
The result gives every usage context its own node, with genuine joins and
loops preserved.

The reuse-insensitive mode of the same traversal (no taints, no clones,
all resolvable targets connected) serves as the comparison baseline.
"""

from __future__ import annotations

import enum
import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from .bytecode import (
    BasicBlock,
    BlockId,
    JUMPDEST,
    STACK_LIMIT,
    disassemble,
    identify_blocks,
)
from .emulator import (
    CONST,
    PHI,
    Stack,
    TacOp,
    ValueTable,
    emulate_block,
    prepare_stack,
    trace_origin,
)
from .graph import collapsed_successors, dfs


class Mode(enum.Enum):
    REUSE_SENSITIVE = "reuse-sensitive"
    REUSE_INSENSITIVE = "reuse-insensitive"


class EdgeKind(enum.Enum):
    JUMP = "jump"
    FALLTHROUGH = "fallthrough"


@dataclass(frozen=True)
class Config:
    """Recovery limits and defaults shared by the library and the CLI."""

    clone_budget_per_offset: int = 512
    total_block_budget: int = 100_000
    reemulation_cap: int = 64

    def __post_init__(self) -> None:
        for name in ("clone_budget_per_offset", "total_block_budget", "reemulation_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


class AnalysisError(Exception):
    """Recovery could not produce a graph for this input."""


class EmptyBytecodeError(AnalysisError, ValueError):
    """No bytes to recover from.  Also a `ValueError`, which `disassemble`
    raises for the same input and which earlier releases let escape."""


class CloneBudgetError(AnalysisError):
    def __init__(self, offset: int, message: str | None = None) -> None:
        super().__init__(message or f"clone explosion at offset 0x{offset:x}")
        self.offset = offset


@dataclass(frozen=True)
class Edge:
    src: BlockId
    dst: BlockId
    kind: EdgeKind


class EdgeView:
    """Read-only view of every edge of a `Cfg`, grouped by source, each
    group in insertion order.  Sized without listing the edges."""

    __slots__ = ("_succ",)

    def __init__(self, succ: dict[BlockId, dict[tuple[BlockId, EdgeKind], Edge]]) -> None:
        self._succ = succ

    def __len__(self) -> int:
        return sum(map(len, self._succ.values()))

    def __iter__(self) -> Iterator[Edge]:
        for out in self._succ.values():
            yield from out.values()


@dataclass
class Cfg:
    """Recovered control-flow graph plus per-clone analysis state.

    `succ` is the one edge store: per source block, its out-edges keyed by
    (destination, kind) in insertion order.  A JUMPI whose target is the
    next block has both a JUMP and a FALLTHROUGH edge to it.  `pred` mirrors
    it per destination as an ordered set: each source with any edge to it,
    in the order of its first edge.  Only `add_edge` and `remove_out_edges`
    write either; a source's edges are only ever removed all at once.
    `s_start` holds each visited clone's entry stack; only `set_entry_stack`
    writes it, and `_finalize` drops the stacks of dropped clones.

    `tainted` holds the tainted entry-stack indices per (offset, entry
    depth); only `transfer_taint` adds to it.  A clone's reuse context is
    derived from its offset's set at its current depth: the constants of its
    entry stack at those indices, in ascending order, up to the first index
    whose entry is not a constant.  `reuse_contexts` maps every clone with a
    non-empty context to it.

    `_clones` lists each offset's clones past the original in index order;
    only `_make_clone` adds to it and `_finalize` drops from it.  `_origins`
    memoizes def-use chains for `update_reuse_context` while the graph is
    being recovered.  `_walked` is the set of (clone, value id) items that
    `update_reuse_context` walked, kept as each clone's set of value ids.
    `add_edge` empties it when a walked clone gains a predecessor, and
    `set_entry_stack` when a walked clone gets a new entry stack.  Dropping
    edges needs no emptying: taints only grow, and a walk over fewer
    predecessors finds a subset of what the earlier one found.  `_finalize`
    empties both.
    """

    mode: Mode
    entry: BlockId
    limits: Config = field(default_factory=Config)
    blocks: dict[BlockId, BasicBlock] = field(default_factory=dict)
    succ: dict[BlockId, dict[tuple[BlockId, EdgeKind], Edge]] = field(default_factory=dict)
    pred: dict[BlockId, dict[BlockId, None]] = field(default_factory=dict)
    tainted: dict[tuple[int, int], set[int]] = field(default_factory=dict)
    # Insertion-ordered set of (severity, message, offset).
    diagnostics: dict[tuple[str, str, int], None] = field(default_factory=dict)
    value_table: ValueTable = field(default_factory=ValueTable)
    s_start: dict[BlockId, Stack] = field(default_factory=dict)
    s_end: dict[BlockId, Stack] = field(default_factory=dict)
    tac: dict[BlockId, list[TacOp]] = field(default_factory=dict)
    end_block_clones: set[BlockId] = field(default_factory=set)
    _clones: dict[int, list[BlockId]] = field(default_factory=dict, init=False, repr=False)
    _origins: dict[int, set[int]] = field(default_factory=dict, init=False, repr=False)
    _walked: dict[BlockId, set[int]] = field(default_factory=dict, init=False, repr=False)

    @property
    def edges(self) -> EdgeView:
        return EdgeView(self.succ)

    @property
    def reuse_contexts(self) -> Mapping[BlockId, dict[int, int]]:
        contexts = {}
        for block in self.s_start:
            ctx = _context(self, block)
            if ctx:
                contexts[block] = ctx
        return MappingProxyType(contexts)

    def add_diagnostic(self, severity: str, message: str, offset: int = -1) -> None:
        self.diagnostics[(severity, message, offset)] = None

    def has_edge(self, src: BlockId, dst: BlockId, kind: EdgeKind) -> bool:
        return src in self.succ and (dst, kind) in self.succ[src]

    def add_edge(self, src: BlockId, dst: BlockId, kind: EdgeKind) -> bool:
        out = self.succ.setdefault(src, {})
        if (dst, kind) in out:
            return False
        out[(dst, kind)] = Edge(src, dst, kind)
        preds = self.pred.setdefault(dst, {})
        if src not in preds:
            preds[src] = None
            if dst in self._walked:
                self._walked.clear()  # a walk through dst would now reach src
        return True

    def set_entry_stack(self, block: BlockId, stack: Stack) -> None:
        self.s_start[block] = stack
        if block in self._walked:
            self._walked.clear()  # a walk through block would now match anew

    def remove_out_edges(self, src: BlockId) -> None:
        for dst, _ in self.succ.pop(src, ()):
            self.pred[dst].pop(src, None)

    def predecessors(self, block: BlockId) -> list[BlockId]:
        return list(self.pred.get(block, ()))

    def successors(self, block: BlockId) -> list[tuple[BlockId, EdgeKind]]:
        return list(self.succ.get(block, ()))

    def clones_at(self, offset: int) -> list[BlockId]:
        original = BlockId(offset, 0)
        if original not in self.blocks:
            return []
        return [original, *self._clones.get(offset, ())]

    def jump_successors(self, block: BlockId) -> list[BlockId]:
        return [dst for dst, kind in self.succ.get(block, ()) if kind is EdgeKind.JUMP]


def _context(cfg: Cfg, block: BlockId) -> dict[int, int]:
    """`block`'s reuse context, derived as described on `Cfg`."""
    s_start = cfg.s_start.get(block)
    if s_start is None:
        return {}
    table = cfg.value_table
    ctx: dict[int, int] = {}
    for idx in sorted(cfg.tainted.get((block.offset, len(s_start)), ())):
        value = table.get(s_start[idx])
        if value.kind != CONST:
            break  # not a constant: the context ends here
        ctx[idx] = value.const
    return ctx


def _check_entry_depth(stack: Stack, offset: int) -> None:
    # No execution enters a block with more items than the EVM stack holds;
    # a loop that deepens the stack on each turn ends here.
    if len(stack) > STACK_LIMIT:
        raise AnalysisError(f"entry stack deeper than {STACK_LIMIT} at offset 0x{offset:x}")


# ---------------------------------------------------------------------------
# Public per-step operations (used by the recovery loop, callable directly)
# ---------------------------------------------------------------------------

def update_reuse_context(cfg: Cfg, block: BlockId, jump_target_value: int) -> None:
    """Taint the entry-stack positions feeding `block`'s jump operand.

    The operand's def-use chain is walked back to the pushes that introduced
    it: every constant chain value found in a clone's entry stack taints its
    positions there (see `transfer_taint`), and the walk continues into each
    predecessor, re-expanding the chain there, until the block that pushed
    the value is reached.  If the operand was pushed inside `block` itself,
    nothing is tainted.  Each root's chain is kept in `cfg._origins`:
    values never change once made.

    Every walk of a recovery shares `cfg._walked`, the (clone, value id)
    items walked since a walked clone last gained a predecessor or a new
    entry stack (see `Cfg`).  An item reads only its clone's entry stack and
    predecessors, immutable values and the taints it adds to, which only
    grow; so an item found there has already tainted all that it and every
    item behind it can, and the walk skips it with its whole upstream tree.
    """
    table = cfg.value_table
    origins = cfg._origins
    walked = cfg._walked
    # (clone, value id) pairs whose def-use chain is matched against that
    # clone's S_start.
    work: list[tuple[BlockId, int]] = [(block, jump_target_value)]
    while work:
        clone, root = work.pop()
        seen = walked.setdefault(clone, set())
        if root in seen:
            continue
        seen.add(root)
        s_start = cfg.s_start.get(clone)
        if s_start is None:
            continue
        chain = origins.get(root)
        if chain is None:
            chain = origins[root] = trace_origin(root, table)
        # One pass over S_start: chain value -> its positions, ascending.  A
        # phi entry holds each of its members too.
        found: dict[int, list[int]] = {}
        for idx, entry in enumerate(s_start):
            if entry in chain:
                found.setdefault(entry, []).append(idx)
            value = table.get(entry)
            if value.kind == PHI:
                for member in value.members:
                    if member in chain:
                        found.setdefault(member, []).append(idx)
        if not found:
            continue  # not pre-pushed relative to this clone
        preds = cfg.pred.get(clone, ())
        for vid, positions in found.items():
            if table.get(vid).kind == CONST:
                transfer_taint(cfg, clone, positions)
            # The value flowed in from every predecessor stack that still
            # holds it (or computed it): keep walking toward its push.
            for pred in preds:
                work.append((pred, vid))


def backpropagate_context(cfg: Cfg, pred: BlockId, succ: BlockId) -> None:
    """Extend an existing successor context backwards through a new edge.

    When a block with tainted entries gains a predecessor, the values at the
    tainted positions flowed through that predecessor too: the walk runs
    again from every tainted index of `succ`'s offset and entry depth, in
    ascending order, and taints the predecessor's entry stack wherever it
    still holds them.  A new predecessor of a walked clone empties
    `cfg._walked` (see `Cfg`), so these walks reach `pred`; items behind it
    that were walked since are skipped (see `update_reuse_context`).
    """
    s_start = cfg.s_start.get(succ)
    if s_start is None:
        return
    indices = cfg.tainted.get((succ.offset, len(s_start)))
    if not indices:
        return
    for idx in sorted(indices):
        update_reuse_context(cfg, succ, s_start[idx])


def transfer_taint(cfg: Cfg, block: BlockId, indices: Iterable[int]) -> None:
    """Taint `indices` for every clone of `block`'s offset and entry depth.

    Identical instructions move the stack identically, so clones of one
    offset that enter with the same depth keep their pre-pushed operands at
    the same positions: the tainted positions belong to `(offset, depth)`,
    not to one clone, and every clone's context is derived from them (see
    `Cfg`).  Adding to the shared set is the whole transfer: no clone holds
    a copy that would need to be kept in sync.
    """
    key = (block.offset, len(cfg.s_start[block]))
    cfg.tainted.setdefault(key, set()).update(indices)


def reuse_handler(cfg: Cfg, b_c: BlockId, target_offset: int) -> BlockId:
    """Select a non-reused clone of `target_offset` for `b_c`, cloning when
    every existing candidate's reuse context disagrees with b_c's exit
    stack.  Candidates are tried in clone-index order; an unvisited original
    is claimed as-is.  A candidate whose entry stack depth differs cannot be
    the same usage context and is skipped.  A candidate matches when the
    exit stack holds the same constant at each index of its context, that
    is, at its tainted indices up to its first non-constant entry.
    """
    s_end = cfg.s_end[b_c]
    table = cfg.value_table
    for cand in cfg.clones_at(target_offset):
        cand_start = cfg.s_start.get(cand)
        if cand_start is None:
            return cand  # first visit claims the original
        if len(cand_start) != len(s_end):
            continue
        for idx, expected in _context(cfg, cand).items():
            have = table.get(s_end[idx])
            if have.kind != CONST or have.const != expected:
                break
        else:
            return cand
    _check_entry_depth(s_end, target_offset)
    clone = _make_clone(cfg, target_offset)
    # The clone starts from the connecting block's exit stack; the tainted
    # indices of its offset and depth already tell the next arrival apart.
    cfg.set_entry_stack(clone, s_end)
    return clone


def handle_end_block(cfg: Cfg, b_c: BlockId, end_offset: int) -> BlockId:
    """Per-predecessor clone for transaction-ending blocks.

    End blocks never expose a jump operand, so reuse cannot be told from a
    genuine shared exit; cloning per predecessor keeps every end block at
    in-degree one at the cost of some redundant clones.
    """
    original = BlockId(end_offset, 0)
    preds = cfg.pred.get(original, ())
    if b_c in preds:
        return original
    if not preds and cfg.s_start.get(original) is None:
        return original
    for cand in cfg.clones_at(end_offset)[1:]:
        if b_c in cfg.pred.get(cand, ()):
            return cand
    clone = _make_clone(cfg, end_offset)
    cfg.end_block_clones.add(clone)
    return clone


def _make_clone(cfg: Cfg, offset: int) -> BlockId:
    clones = cfg.clones_at(offset)
    if len(clones) >= cfg.limits.clone_budget_per_offset:
        raise CloneBudgetError(offset)
    if len(cfg.blocks) >= cfg.limits.total_block_budget:
        raise CloneBudgetError(offset, "total block budget exceeded")
    original = cfg.blocks[BlockId(offset, 0)]
    clone = original.with_clone(clones[-1].clone + 1)
    cfg.blocks[clone.id] = clone
    cfg._clones.setdefault(offset, []).append(clone.id)
    return clone.id


# ---------------------------------------------------------------------------
# Recovery driver
# ---------------------------------------------------------------------------

class _Recovery:
    def __init__(self, code: bytes, mode: Mode, limits: Config) -> None:
        instructions = disassemble(code)
        self.cfg = Cfg(mode=mode, entry=BlockId(0, 0), limits=limits)
        for b in identify_blocks(instructions):
            self.cfg.blocks[b.id] = b
        for ins in instructions:
            if ins.truncated:
                self.cfg.add_diagnostic(
                    "warning", f"truncated push payload at offset 0x{ins.offset:x}", ins.offset
                )
        self.dirty: set[BlockId] = set()
        self.emulation_count: dict[BlockId, int] = {}

    # -- stack bookkeeping ---------------------------------------------------

    def _merge_into(self, pred: BlockId, succ: BlockId) -> None:
        cfg = self.cfg
        merged, changed, diags = prepare_stack(
            cfg.s_end[pred], cfg.s_start.get(succ), cfg.value_table
        )
        for severity, message, _ in diags:
            cfg.add_diagnostic(severity, message, succ.offset)
        if not changed:
            return
        _check_entry_depth(merged, succ.offset)
        if self.emulation_count.get(succ, 0) >= cfg.limits.reemulation_cap:
            merged = self._widen(succ, merged)
        cfg.set_entry_stack(succ, merged)
        self.dirty.add(succ)

    def _widen(self, block: BlockId, merged: Stack) -> Stack:
        """Past the re-emulation cap, still-changing positions widen to
        unknown so the fixpoint is forced.  `prepare_stack` keeps unknown
        entries, so a changed position never held one before."""
        old = self.cfg.s_start.get(block)
        if old is None or len(old) != len(merged):
            return merged
        new_unknown = self.cfg.value_table.new_unknown
        return tuple(a if a == b else new_unknown("widened") for a, b in zip(old, merged))

    # -- successor resolution --------------------------------------------------

    def _jump_targets(self, value_id: int, offset_hint: int) -> list[int]:
        """Resolve a jump operand to concrete target offsets.

        Sensitive mode requires a constant; the baseline mode additionally
        fans a phi out to each constant alternative, which is what lets the
        shared block connect to all of its return sites there.
        """
        table = self.cfg.value_table
        value = table.get(value_id)
        if value.kind == CONST:
            return [value.const]
        if self.cfg.mode is Mode.REUSE_INSENSITIVE and value.kind == PHI:
            consts = [
                table.get(m).const
                for m in value.members
                if table.get(m).kind == CONST
            ]
            if consts:
                return sorted(dict.fromkeys(consts))
        self.cfg.add_diagnostic(
            "warning", f"unresolved jump at offset 0x{offset_hint:x}", offset_hint
        )
        return []

    def _select_successor(self, b_c: BlockId, original: BasicBlock) -> BlockId:
        cfg = self.cfg
        if cfg.mode is Mode.REUSE_INSENSITIVE:
            return original.id
        if original.halts:
            return handle_end_block(cfg, b_c, original.start_offset)
        return reuse_handler(cfg, b_c, original.start_offset)

    # -- main loop -------------------------------------------------------------

    def run(self) -> Cfg:
        cfg = self.cfg
        entry = cfg.entry
        if entry not in cfg.blocks:
            raise AnalysisError("no block at offset 0x0")
        cfg.set_entry_stack(entry, ())
        self.dirty.add(entry)
        worklist: list[tuple[BlockId | None, BlockId]] = [(None, entry)]
        while worklist:
            pred, cur = worklist.pop()
            if pred is not None and pred not in cfg.pred.get(cur, ()):
                continue  # stale item: the edge was dropped by a re-emulation
            if cur not in self.dirty:
                continue
            self.dirty.discard(cur)
            self._emulate(cur, worklist)
        self._finalize()
        return cfg

    def _emulate(self, cur: BlockId, worklist: list) -> None:
        cfg = self.cfg
        block = cfg.blocks[cur]
        sensitive = cfg.mode is Mode.REUSE_SENSITIVE
        if sensitive:
            # Drop the out-edges: this emulation derives them again.
            cfg.remove_out_edges(cur)
        result = emulate_block(block, cfg.s_start[cur], cfg.value_table)
        for severity, message, off in result.diagnostics:
            cfg.add_diagnostic(severity, message, off)
        cfg.s_end[cur] = result.s_end
        cfg.tac[cur] = result.tac
        self.emulation_count[cur] = self.emulation_count.get(cur, 0) + 1

        pending: list[tuple[BlockId | None, BlockId]] = []
        if result.jump is not None:
            for target in self._jump_targets(result.jump, cur.offset):
                original = cfg.blocks.get(BlockId(target, 0))
                if original is None or original.instructions[0].opcode != JUMPDEST:
                    cfg.add_diagnostic(
                        "warning",
                        f"invalid jump target 0x{target:x} at offset 0x{cur.offset:x}",
                        cur.offset,
                    )
                    continue
                if sensitive:
                    update_reuse_context(cfg, cur, result.jump)
                self._connect(cur, original, EdgeKind.JUMP, pending)
        offset = block.fallthrough_offset
        # Running off the end of the code halts like STOP.
        original = None if offset is None else cfg.blocks.get(BlockId(offset, 0))
        if original is not None:
            self._connect(cur, original, EdgeKind.FALLTHROUGH, pending)
        # LIFO worklist: queue the fallthrough arm first so the jump arm is
        # explored first and each path completes before its siblings.
        for item in reversed(pending):
            worklist.append(item)

    def _connect(
        self,
        cur: BlockId,
        original: BasicBlock,
        kind: EdgeKind,
        pending: list,
    ) -> None:
        cfg = self.cfg
        succ = self._select_successor(cur, original)
        new_edge = cfg.add_edge(cur, succ, kind)
        self._merge_into(cur, succ)
        if cfg.mode is Mode.REUSE_SENSITIVE and new_edge:
            backpropagate_context(cfg, cur, succ)
        if succ in self.dirty or self.emulation_count.get(succ, 0) == 0:
            self.dirty.add(succ)
            pending.append((cur, succ))

    def _finalize(self) -> None:
        """Mark never-visited originals as data, drop orphaned clones and
        empty the recovery-time caches."""
        cfg = self.cfg
        postorder, _ = dfs(collapsed_successors(cfg), [cfg.entry])
        reachable = set(postorder)
        for block_id, block in list(cfg.blocks.items()):
            if block_id.clone == 0:
                block.is_data = cfg.s_start.get(block_id) is None
            elif block_id not in reachable:
                del cfg.blocks[block_id]
                cfg.s_start.pop(block_id, None)
                cfg.s_end.pop(block_id, None)
                cfg.tac.pop(block_id, None)
                cfg.end_block_clones.discard(block_id)
        for extra in cfg._clones.values():
            extra[:] = [c for c in extra if c in cfg.blocks]
        cfg._origins.clear()
        cfg._walked.clear()
        # Only unreachable blocks can have edges to or from a dropped clone:
        # dropped clones lose all their edges, unreachable originals keep
        # the ones between kept blocks.
        for src in [b for b in cfg.succ if b not in reachable]:
            out = cfg.successors(src)
            kept = [(dst, kind) for dst, kind in out if src in cfg.blocks and dst in cfg.blocks]
            if len(kept) == len(out):
                continue
            cfg.remove_out_edges(src)
            for dst, kind in kept:
                cfg.add_edge(src, dst, kind)


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause CPython's cyclic garbage collector for the enclosed work.

    Recovery and export allocate many small containers and make no
    reference cycles, so every collection their allocations trigger scans
    a growing heap and frees nothing.  The collector's state on entry is
    restored on exit, also when the work raises: if the caller had already
    turned it off, it stays off.  The collector is global to the process,
    so another thread's collections wait for at most the enclosed work.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def build_cfg(
    code: bytes,
    mode: Mode = Mode.REUSE_SENSITIVE,
    limits: Config | None = None,
) -> Cfg:
    """Recover the CFG of `code` starting at offset 0 with an empty stack.

    Empty `code` raises `EmptyBytecodeError`.  Recovery runs with CPython's
    cyclic garbage collector paused and restores its state on return or
    error; other threads' collections wait until then (see
    `_collector_paused`).
    """
    if not code:
        raise EmptyBytecodeError("empty bytecode")
    with _collector_paused():
        return _Recovery(code, mode, limits or Config()).run()


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def _listed_blocks(
    cfg: Cfg, render: Callable[[list[str]], str]
) -> Iterator[tuple[BasicBlock, str]]:
    """Blocks in id order, each with `render` of its instruction listing.
    Clones share their original's instructions and sort next to it, so
    each offset's listing is rendered once."""
    offset = None
    listing = ""
    for block_id in sorted(cfg.blocks):
        block = cfg.blocks[block_id]
        if block_id.offset != offset:
            offset = block_id.offset
            listing = render([ins.listing_line() for ins in block.instructions])
        yield block, listing


def _sorted_edges(cfg: Cfg) -> list[Edge]:
    return sorted(cfg.edges, key=lambda e: (e.src, e.dst, e.kind.value))


def export(cfg: Cfg, format: str = "json", emit_tac: bool = False) -> bytes:
    """Serialize a built CFG; byte-identical for identical inputs.

    Like `build_cfg`, runs with the cyclic garbage collector paused and
    restores its state on return or error.
    """
    if format not in ("json", "dot"):
        raise ValueError(f"unknown export format: {format}")
    with _collector_paused():
        if format == "json":
            return _export_json(cfg, emit_tac)
        return _export_dot(cfg, emit_tac)


def _json_layout(brackets: str, items: list[str], indent: str) -> str:
    """`items`, each already JSON, inside `brackets` ("[]" or "{}"), laid
    out as `json.dumps(indent=2)` lays out a container whose closing
    bracket sits at `indent`."""
    if not items:
        return brackets
    inner = "\n  " + indent
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent + brackets[1]


def _export_json(cfg: Cfg, emit_tac: bool) -> bytes:
    """Write exactly `json.dumps(doc, indent=2) + "\n"` in one pass, where
    `doc` is the document the fields below describe; `doc` itself is never
    built.  Strings are quoted as `json.dumps` quotes them."""
    q = encode_basestring_ascii
    table = cfg.value_table
    blocks = []
    for block, listing in _listed_blocks(
        cfg, lambda lines: _json_layout("[]", [q(line) for line in lines], "      ")
    ):
        fields = [
            f'"id": {q(str(block.id))}',
            f'"offset": {block.start_offset}',
            f'"clone": {block.id.clone}',
            f'"instructions": {listing}',
            f'"terminator": {q(block.terminator.value)}',
            f'"is_data": {"true" if block.is_data else "false"}',
        ]
        if emit_tac and block.id in cfg.tac:
            tac = [q(op.render(table)) for op in cfg.tac[block.id]]
            fields.append(f'"tac": {_json_layout("[]", tac, "      ")}')
        blocks.append(_json_layout("{}", fields, "    "))
    edges = [
        _json_layout(
            "{}",
            [f'"from": {q(str(e.src))}', f'"to": {q(str(e.dst))}', f'"kind": {q(e.kind.value)}'],
            "    ",
        )
        for e in _sorted_edges(cfg)
    ]
    diagnostics = [
        _json_layout("{}", [f'"severity": {q(s)}', f'"message": {q(m)}', f'"offset": {o}'], "    ")
        for s, m, o in cfg.diagnostics
    ]
    members = [
        f'"entry": {q(str(cfg.entry))}',
        f'"blocks": {_json_layout("[]", blocks, "  ")}',
        f'"edges": {_json_layout("[]", edges, "  ")}',
        f'"diagnostics": {_json_layout("[]", diagnostics, "  ")}',
    ]
    return (_json_layout("{}", members, "") + "\n").encode()


def _dot_label_lines(lines: list[str]) -> str:
    return "\\l".join(line.replace('"', '\\"') for line in lines)


def _export_dot(cfg: Cfg, emit_tac: bool) -> bytes:
    lines = ["digraph cfg {", "  node [shape=box, fontname=monospace];"]
    for block, listing in _listed_blocks(cfg, _dot_label_lines):
        body = listing
        if emit_tac and block.id in cfg.tac:
            tac = [op.render(cfg.value_table) for op in cfg.tac[block.id]]
            body += "\\l" + _dot_label_lines(["--", *tac])
        attrs = f'label="{block.start_offset:#x}_{block.id.clone}\\l{body}\\l"'
        if block.is_data:
            attrs += ", style=dotted"
        lines.append(f'  "{block.id}" [{attrs}];')
    for e in _sorted_edges(cfg):
        style = "solid" if e.kind is EdgeKind.JUMP else "dashed"
        lines.append(f'  "{e.src}" -> "{e.dst}" [style={style}];')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode()
