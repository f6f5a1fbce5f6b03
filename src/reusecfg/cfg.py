"""Reuse-sensitive control-flow graph recovery.

Compilers shrink deployed bytecode by letting unrelated execution paths
share identical basic blocks; the shared block's jump operand is pushed by
each predecessor rather than next to the jump.  A context-blind traversal
merges those paths into fake joins and fake loops.  Recovery here taints
the entry-stack positions of pre-pushed jump operands, found by walking
each pre-pushed jump operand's def-use chain, resolved or not, back through
the predecessor chain to the push that introduced it; every chain value
found in an entry stack taints, constant or not.  The positions belong to
a block's offset and entry depth, and each clone's "reuse context" is
derived from them: the constants its entry stack holds there.  A successor
candidate is accepted only when the incoming stack has the same context:
the same constant, or no constant, at every tainted position; otherwise
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
from itertools import groupby
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, TypeVar

from .bytecode import (
    BasicBlock,
    BlockId,
    JUMPDEST,
    STACK_LIMIT,
    _new,
    disassemble,
    identify_blocks,
)
from .emulator import (
    CONST,
    PHI,
    Stack,
    Value,
    ValueTable,
    emulate_block,
    prepare_stack,
    tac_templates,
    trace_origin,
)


class Mode(enum.Enum):
    REUSE_SENSITIVE = "reuse-sensitive"
    REUSE_INSENSITIVE = "reuse-insensitive"


class EdgeKind(enum.Enum):
    JUMP = "jump"
    FALLTHROUGH = "fallthrough"

    # Members compare by identity; hash them the same way, in C, rather
    # than through `Enum.__hash__` (a Python frame per edge-key lookup).
    __hash__ = object.__hash__


# Reading a member off an enum class runs `EnumType.__getattr__`'s lookup
# hook under CPython 3.11 (about 0.1 µs a read, four times a plain class
# attribute); the per-edge code reads these module names instead.
_JUMP, _FALLTHROUGH = EdgeKind.JUMP, EdgeKind.FALLTHROUGH
# A destination's kinds after its first edge: one shared tuple per kind.
_ONE_KIND = {_JUMP: (_JUMP,), _FALLTHROUGH: (_FALLTHROUGH,)}


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


class Edge(NamedTuple):
    """One directed edge.  An immutable named tuple, like `BlockId`."""

    src: BlockId
    dst: BlockId
    kind: EdgeKind


@dataclass
class Cfg:
    """Recovered control-flow graph plus per-clone analysis state.

    A `Cfg` is made from its `mode`, `entry` and `limits` alone; every
    other field starts empty, and recovery fills it.  `blocks` holds the
    decoded blocks and their clones, all immutable (see `BasicBlock`);
    what recovery learns about a block lives here, by id.

    `succ` is the one edge store: per source block, its out-edges keyed by
    destination, each mapped to a tuple of their kinds (a shared one-kind
    tuple; only a JUMPI whose target is the next block has two).  So
    `succ[src]` is `src`'s successor list with parallel edges collapsed,
    and every DFS walks it in place (see `reusecfg.graph`).  Per source,
    destinations come in order of their first edge and each destination's
    kinds in the order they were added; `successors` and `edges` list the
    edges so, and `edges` builds its list from `succ` on each read.  `pred`
    mirrors the store per destination as a list: each source with any edge
    to it, once, in the order of its first edge.  Whether `src` already
    feeds `dst` is `dst in succ[src]`, at any degree, so `pred` holds no
    per-block set.  Only `add_edge` and `remove_out_edges` write these
    two; a source's edges are only ever removed all at once, and
    recovery removes none: a re-emulation keeps its block's out-edges.
    `s_start` holds each visited clone's entry stack, assigned by
    `_Recovery.run`, `_merge_into` and `reuse_handler`.  Every block but the
    entry gets its stack in `_Recovery._connect`, along with an edge in from
    a reached block, so after recovery a block has a stack exactly when the
    entry reaches it; one without is the exports' `is_data`.  No exit stack
    is kept: each emulation hands its own to its successors (`_connect`).
    `tac_ids` holds each emulated clone's last emulation's value ids (see
    `EmulationResult`); recovery itself never reads them.  A clone whose
    emulation a stack underflow halted has none, and no out-edge: entry
    stacks only deepen, so a clone that halts never emulated to its end
    before.  The detectors
    read a block's TAC as `tac_ops(blocks[b], tac_ids[b])`, and `export`
    fills its TAC templates from them directly.

    `tainted` holds the tainted entry-stack indices per (offset, entry
    depth); only `transfer_taint` adds to it.  A clone's reuse context is
    derived from its offset's set at its current depth: the constants of its
    entry stack at those indices; an index whose entry is not a constant is
    left out, and the indices after it still count.  `reuse_contexts` maps
    every clone with a non-empty context to it.

    `blocks` is keyed by `BlockId`, a named tuple, so the plain tuple
    `(offset, 0)` finds the original at `offset` without building a
    `BlockId`; the key it finds is the block's `id`.  `_clones` lists the
    original and clones of each offset that has a clone, in index order,
    made with the offset's first clone; only `_make_clone` writes it.  No
    def-use chain is kept.  `_walked` is the set of (clone, value id) items
    that `update_reuse_context` walked, kept as each clone's set of value
    ids.  Two triggers empty it: `add_edge`, when a walked clone gains a
    predecessor, and `_Recovery._merge_into`, when a join changes a walked
    clone's entry stack.  A re-emulation keeps its out-edges, so a join can
    change an entry stack through an edge that already exists.  Dropping
    edges needs no emptying: taints only grow, and a walk over fewer
    predecessors finds a subset of what the earlier one found.  A jump
    operand that its block's emulation pushed is never walked (see
    `_Recovery._emulate`), so its item is never in `_walked`: it has
    nothing behind it, and no entry stack holds it.  `_finalize` empties
    it.
    """

    mode: Mode
    entry: BlockId
    limits: Config = field(default_factory=Config)
    blocks: dict[BlockId, BasicBlock] = field(default_factory=dict, init=False)
    succ: dict[BlockId, dict[BlockId, tuple[EdgeKind, ...]]] = field(
        default_factory=dict, init=False
    )
    pred: dict[BlockId, list[BlockId]] = field(default_factory=dict, init=False)
    tainted: dict[tuple[int, int], set[int]] = field(default_factory=dict, init=False)
    # Insertion-ordered set of (severity, message, offset).
    diagnostics: dict[tuple[str, str, int], None] = field(default_factory=dict, init=False)
    value_table: ValueTable = field(default_factory=ValueTable, init=False)
    s_start: dict[BlockId, Stack] = field(default_factory=dict, init=False)
    tac_ids: dict[BlockId, tuple[int, ...]] = field(default_factory=dict, init=False)
    _clones: dict[int, list[BlockId]] = field(default_factory=dict, init=False, repr=False)
    _walked: dict[BlockId, set[int]] = field(default_factory=dict, init=False, repr=False)

    @property
    def edges(self) -> list[Edge]:
        """Every edge, in the order `Cfg` states, built from `succ` on each read."""
        return [
            _new(Edge, (src, dst, kind))
            for src, out in self.succ.items()
            for dst, kinds in out.items()
            for kind in kinds
        ]

    @property
    def end_block_clones(self) -> set[BlockId]:
        """The clones of halting blocks, which `handle_end_block` makes; built on each read."""
        blocks = self.blocks
        return {c for off, cs in self._clones.items() if blocks[(off, 0)].halts for c in cs[1:]}

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
        return kind in self.succ.get(src, {}).get(dst, ())

    def add_edge(self, src: BlockId, dst: BlockId, kind: EdgeKind) -> bool:
        out = self.succ.get(src)
        if out is None:
            out = self.succ[src] = {}
        kinds = out.get(dst, ())
        if kind in kinds:
            return False
        out[dst] = kinds + (kind,) if kinds else _ONE_KIND[kind]
        if kinds:
            return True  # src already is a predecessor of dst
        preds = self.pred.get(dst)
        if preds is None:
            self.pred[dst] = [src]
        else:
            preds.append(src)
        if dst in self._walked:
            self._walked.clear()  # a walk through dst would now reach src
        return True

    def remove_out_edges(self, src: BlockId) -> None:
        """Drop every out-edge of `src`.  Recovery never calls this."""
        pred = self.pred
        for dst in self.succ.pop(src, {}):
            pred[dst].remove(src)

    def predecessors(self, block: BlockId) -> list[BlockId]:
        return list(self.pred.get(block, ()))

    def successors(self, block: BlockId) -> list[tuple[BlockId, EdgeKind]]:
        return [(dst, kind) for dst, kinds in self.succ.get(block, {}).items() for kind in kinds]

    def clones_at(self, offset: int) -> list[BlockId]:
        """The original at `offset` and its clones, in index order, or an
        empty list when no block starts there.  For an offset with a clone
        this is the stored list itself (see `Cfg`): callers read it and
        never change it."""
        clones = self._clones.get(offset)
        if clones is not None:
            return clones
        original = self.blocks.get((offset, 0))
        return [] if original is None else [original.id]

    def jump_successors(self, block: BlockId) -> list[BlockId]:
        return [dst for dst, kinds in self.succ.get(block, {}).items() if _JUMP in kinds]


def _context(cfg: Cfg, block: BlockId) -> dict[int, int]:
    """`block`'s reuse context (see `Cfg`); `block` has an entry stack."""
    s_start = cfg.s_start[block]
    values = cfg.value_table.values
    ctx: dict[int, int] = {}
    for idx in sorted(cfg.tainted.get((block.offset, len(s_start)), ())):
        value = values[s_start[idx]]
        if value.kind == CONST:
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
    it: every chain value found in a clone's entry stack, constant or not,
    taints its positions there (see `transfer_taint`), and the walk
    continues into each predecessor, re-expanding the chain there, until
    the block that pushed the value is reached.  If the operand was pushed
    inside `block` itself, nothing is tainted; recovery does not call this
    at all for an operand that is a push of the emulation that used it,
    whose chain is itself.  Any other operand is walked once per emulation,
    whether or not the jump resolves: one folded from pre-pushed values,
    and one that is no constant at all.  No chain is
    kept.  A walked value without `args` is its own chain, and while the
    table has made no phi (`ValueTable.has_phi`) no entry holds it as a
    member.  This leaf case is the common one: every walk item of a
    `stress_fixture` build takes it.  Its walk never changes its root, so
    it runs a loop of its own whose work list holds clones only, in the
    order the general loop would pop them.
    Each clone's positions are found by scanning its entry stack for the
    id in C (`count`, then `index`), and `transfer_taint` runs only when
    one of them is not tainted yet (one position: a single `in` test).
    Any other walked item's chain comes from `trace_origin` anew and is
    matched entry by entry, phi members too.

    Every walk of a recovery shares `cfg._walked`, the (clone, value id)
    items walked since a walked clone last gained a predecessor or a new
    entry stack (the two triggers; see `Cfg`).  An item reads only its
    clone's entry stack and predecessors, immutable values and the taints
    it adds to, which only grow; so an item found there has already
    tainted all that it and every item behind it can, and the walk skips
    it with its whole upstream tree.
    Every walked clone has an entry stack: it is `block`, just emulated, or
    a predecessor, which has an out-edge and so was emulated.
    """
    walked = cfg._walked
    seen = walked.get(block)
    if seen is not None and jump_target_value in seen:
        return  # walked already: the loop below would skip it at once
    table = cfg.value_table
    values = table.values
    s_start = cfg.s_start
    tainted = cfg.tainted
    preds_of = cfg.pred
    # The walk appends no value, so no phi appears while it runs.
    leaf_scan = not table.has_phi
    # (clone, value id) pairs whose def-use chain is matched against that
    # clone's S_start.
    work: list[tuple[BlockId, int]] = [(block, jump_target_value)]
    while work:
        clone, root = work.pop()
        if leaf_scan and not values[root].args:
            # The chain is `root` alone and no entry is a phi: `root` sits
            # only where its own id does.  Every item behind this one walks
            # the same root, so the work list holds clones only.  It is
            # popped LIFO, as `work` is, and empties before `work` is popped
            # again: the items run in the order they would there.
            clones = [clone]
            while clones:
                clone = clones.pop()
                seen = walked.get(clone)
                if seen is None:
                    walked[clone] = {root}
                elif root in seen:
                    continue
                else:
                    seen.add(root)
                stack = s_start[clone]
                count = stack.count(root)
                if not count:
                    continue
                idx = stack.index(root)
                done = tainted.get((clone.offset, len(stack)))
                if count == 1:
                    if done is None or idx not in done:
                        transfer_taint(cfg, clone, [idx])
                else:
                    positions = [idx]
                    for _ in range(count - 1):
                        idx = stack.index(root, idx + 1)
                        positions.append(idx)
                    if done is None or not done.issuperset(positions):
                        transfer_taint(cfg, clone, positions)
                clones += preds_of.get(clone, ())
            continue
        seen = walked.get(clone)
        if seen is None:
            walked[clone] = {root}
        elif root in seen:
            continue
        else:
            seen.add(root)
        stack = s_start[clone]
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


def backpropagate_context(cfg: Cfg, succ: BlockId) -> None:
    """Extend an existing successor context backwards through an edge that
    `_Recovery._connect` just added or found in place.

    When a block with tainted entries gains a predecessor, the values at the
    tainted positions flowed through that predecessor too: the walk runs
    again from every tainted index of `succ`'s offset and entry depth, in
    ascending order, and taints the new predecessor's entry stack wherever
    it still holds them.  A new predecessor of a walked clone empties
    `cfg._walked` (see `Cfg`), so these walks reach it;
    items behind it that were walked since are skipped (see
    `update_reuse_context`).  The join just gave `succ` its entry stack.
    `sorted` also snapshots the indices: a walk from `succ` can taint its
    own offset and depth.
    """
    s_start = cfg.s_start[succ]
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
    tainted = cfg.tainted.get(key)
    if tainted is None:
        cfg.tainted[key] = set(indices)
    else:
        tainted.update(indices)


def reuse_handler(cfg: Cfg, s_end: Stack, target_offset: int) -> BlockId:
    """Select a non-reused clone of `target_offset` for an arrival stack
    `s_end`, cloning when every existing candidate's reuse context disagrees
    with it.  Candidates are tried in clone-index order; an unvisited
    original is claimed as-is.  A candidate whose entry stack depth differs
    cannot be the same usage context and is skipped.  A candidate matches
    when both stacks have the same `const` at every tainted index of the
    offset and depth.  A non-constant's is None, so it matches only another
    non-constant: the arrival's reuse context equals the candidate's.

    Every candidate compared has the arrival stack's depth, so one set of
    tainted indices serves them all, and each candidate's entries are read
    in place; no context dict is built.
    """
    depth = len(s_end)
    values = cfg.value_table.values
    indices = cfg.tainted.get((target_offset, depth), ())
    for cand in cfg.clones_at(target_offset):
        cand_start = cfg.s_start.get(cand)
        if cand_start is None:
            return cand  # first visit claims the original
        if len(cand_start) != depth:
            continue
        for idx in indices:
            # Only constants carry `const`: None equals only None.
            if values[s_end[idx]].const != values[cand_start[idx]].const:
                break
        else:
            return cand
    _check_entry_depth(s_end, target_offset)
    clone = _make_clone(cfg, target_offset)
    # The clone starts from the arrival stack; the tainted indices of its
    # offset and depth already tell the next arrival apart.
    cfg.s_start[clone] = s_end
    return clone


def handle_end_block(cfg: Cfg, b_c: BlockId, end_offset: int) -> BlockId:
    """Per-predecessor clone for transaction-ending blocks.

    End blocks never expose a jump operand, so reuse cannot be told from a
    genuine shared exit; cloning per predecessor keeps every end block at
    in-degree one at the cost of some redundant clones.  The first candidate
    without an entry stack is claimed: it was never visited, so it has no
    predecessor yet.  Otherwise `b_c` keeps the candidate it feeds: a
    re-emulation keeps its out-edges.  Its exit depth never changes, so the
    clone's joins keep one depth.
    """
    fed = cfg.succ.get(b_c, ())
    for cand in cfg.clones_at(end_offset):
        if cand not in cfg.s_start or cand in fed:
            return cand
    return _make_clone(cfg, end_offset)


def _make_clone(cfg: Cfg, offset: int) -> BlockId:
    clones = cfg._clones[offset] = cfg.clones_at(offset)
    if len(clones) >= cfg.limits.clone_budget_per_offset:
        raise CloneBudgetError(offset)
    if len(cfg.blocks) >= cfg.limits.total_block_budget:
        raise CloneBudgetError(offset, "total block budget exceeded")
    original = cfg.blocks[(offset, 0)]
    clone = _new(BlockId, (offset, clones[-1].clone + 1))
    cfg.blocks[clone] = _new(BasicBlock, (clone, original.instructions, original.terminator))
    clones.append(clone)
    return clone


# ---------------------------------------------------------------------------
# Recovery driver
# ---------------------------------------------------------------------------

class _Recovery:
    """One worklist traversal from the entry block.  `clean` holds the
    blocks emulated from their current entry stack: `run` skips a popped
    block in it and adds a block just before emulating it, `_merge_into`
    removes a block whose entry stack it changes, and `_connect` queues
    every successor not in it, a clone whose entry stack `reuse_handler`
    preset too.  So the worklist holds blocks alone: a popped block that is
    clean was emulated since it was queued.  Recovery only adds edges, in
    both modes: a re-emulation keeps its block's out-edges and adds any new
    ones, so no block is ever left unreachable.
    `emulation_count` is read only against `reemulation_cap`.
    """

    def __init__(self, code: bytes, mode: Mode, limits: Config) -> None:
        instructions = disassemble(code)
        self.cfg = Cfg(mode=mode, entry=BlockId(0, 0), limits=limits)
        self.sensitive = self.cfg.mode is Mode.REUSE_SENSITIVE
        for b in identify_blocks(instructions):
            self.cfg.blocks[b.id] = b
        # Only a push whose payload runs past the end of the code is
        # truncated, so only the last instruction can be.
        last = instructions[-1]
        if last.truncated:
            self.cfg.add_diagnostic(
                "warning", f"truncated push payload at offset 0x{last.offset:x}", last.offset
            )
        self.clean: set[BlockId] = set()
        self.emulation_count: dict[BlockId, int] = {}

    # -- stack bookkeeping ---------------------------------------------------

    def _merge_into(self, incoming: Stack, succ: BlockId) -> None:
        """Join `incoming` into `succ`'s entry stack.  An equal stack skips
        the join; otherwise the join changed nothing exactly when
        `prepare_stack` hands back the existing stack object itself."""
        cfg = self.cfg
        existing = cfg.s_start.get(succ)
        if existing == incoming:
            return  # the join would keep `existing`
        if existing is not None and len(existing) != len(incoming):
            cfg.add_diagnostic("warning", "irregular stack depth at join", succ.offset)
        merged = prepare_stack(incoming, existing, cfg.value_table)
        if merged is existing:
            return
        _check_entry_depth(merged, succ.offset)
        if self.emulation_count.get(succ, 0) >= cfg.limits.reemulation_cap:
            merged = self._widen(succ, merged)
        cfg.s_start[succ] = merged
        self.clean.discard(succ)
        if succ in cfg._walked:
            cfg._walked.clear()  # a walk through succ read its old entry stack

    def _widen(self, block: BlockId, merged: Stack) -> Stack:
        """Past the re-emulation cap, still-changing positions widen to
        unknown so the fixpoint is forced.  `prepare_stack` keeps unknown
        entries, so a changed position never held one before.  A block past
        the cap has been emulated, so it has an entry stack."""
        old = self.cfg.s_start[block]
        if len(old) != len(merged):
            return merged
        new_unknown = self.cfg.value_table.new_unknown
        return tuple(a if a == b else new_unknown() for a, b in zip(old, merged))

    # -- successor resolution --------------------------------------------------

    def _jump_targets(self, value: Value, offset_hint: int) -> list[int]:
        """Resolve a jump operand that is not a constant to concrete target
        offsets; `_emulate` resolves a constant itself.

        Sensitive mode resolves only constants, so here it reports the jump
        as unresolved; the baseline mode fans a phi out to each constant
        alternative, which is what lets the shared block connect to all of
        its return sites there.
        """
        if not self.sensitive and value.kind == PHI:
            values = self.cfg.value_table.values
            consts = [values[m].const for m in value.args if values[m].kind == CONST]
            if consts:
                return sorted(dict.fromkeys(consts))
        self.cfg.add_diagnostic(
            "warning", f"unresolved jump at offset 0x{offset_hint:x}", offset_hint
        )
        return []

    # -- main loop -------------------------------------------------------------

    def run(self) -> Cfg:
        cfg = self.cfg
        cfg.s_start[cfg.entry] = ()
        worklist = [cfg.entry]
        while worklist:
            cur = worklist.pop()
            if cur in self.clean:
                continue
            self.clean.add(cur)
            self._emulate(cur, worklist)
        self._finalize()
        return cfg

    def _emulate(self, cur: BlockId, worklist: list[BlockId]) -> None:
        cfg = self.cfg
        block = cfg.blocks[cur]
        sensitive = self.sensitive
        table = cfg.value_table
        made_from = len(table.values)
        result = emulate_block(block, cfg.s_start[cur], table)
        for severity, message, off in result.diagnostics:
            cfg.add_diagnostic(severity, message, off)
        self.emulation_count[cur] = self.emulation_count.get(cur, 0) + 1
        if result.s_end is None:
            return  # a stack underflow halted it: no TAC, no successor
        cfg.tac_ids[cur] = result.tac_ids

        pending: list[BlockId] = []
        jump = result.jump
        if jump is not None:
            value = table.values[jump]
            # An operand this emulation pushed (a new value with no operands)
            # is its own def-use chain and in no entry stack: its walk would
            # taint nothing.  Any other is walked, resolved or not.
            if sensitive and (jump < made_from or value.args):
                update_reuse_context(cfg, cur, jump)
            if value.kind == CONST:
                targets = [value.const]
            else:
                targets = self._jump_targets(value, cur.offset)
            for target in targets:
                original = cfg.blocks.get((target, 0))
                if original is None or original.instructions[0].opcode != JUMPDEST:
                    cfg.add_diagnostic(
                        "warning",
                        f"invalid jump target 0x{target:x} at offset 0x{cur.offset:x}",
                        cur.offset,
                    )
                    continue
                self._connect(cur, result.s_end, original, _JUMP, pending)
        offset = block.fallthrough_offset
        # Running off the end of the code halts like STOP.
        original = None if offset is None else cfg.blocks.get((offset, 0))
        if original is not None:
            self._connect(cur, result.s_end, original, _FALLTHROUGH, pending)
        # LIFO worklist: queue the fallthrough arm first so the jump arm is
        # explored first and each path completes before its siblings.
        worklist.extend(reversed(pending))

    def _connect(
        self, cur: BlockId, s_end: Stack, original: BasicBlock, kind: EdgeKind, pending: list
    ) -> None:
        """Connect `cur`, which exits with `s_end`, to a clone of `original`,
        and walk the successor's context back through the edge.  A
        re-emulation of `cur` finds the edge in place when it picks the
        successor its earlier emulation picked."""
        cfg = self.cfg
        if not self.sensitive:
            succ = original.id
        elif original.halts:
            succ = handle_end_block(cfg, cur, original.id.offset)
        else:
            succ = reuse_handler(cfg, s_end, original.id.offset)
        cfg.add_edge(cur, succ, kind)
        self._merge_into(s_end, succ)
        if self.sensitive:
            backpropagate_context(cfg, succ)
        if succ not in self.clean:
            pending.append(succ)

    def _finalize(self) -> None:
        """Empty the walk set (`Cfg._walked`) and the value table's join
        memo, which only recovery reads.  Nothing needs sweeping: every
        block but the entry gets an edge in from a reached block when it
        first gets an entry stack, and recovery removes no edge, so every
        block with an entry stack is reached.
        """
        self.cfg._walked.clear()
        self.cfg.value_table._joins.clear()


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause CPython's cyclic garbage collector for the enclosed work.

    Recovery and export allocate many small containers and make no
    reference cycles, so every collection their allocations trigger scans
    a growing heap and frees nothing.  The collector's state on entry is
    restored on exit, also when the work raises: if the caller had already
    turned it off, it stays off.  The collector is global to the process,
    so another thread's collections wait for at most the enclosed work.

    Everything the work allocated stays counted in generation 0, so the
    first allocation after exit runs one young-generation pass over it,
    which frees nothing of the work's.  That pass is kept on purpose:
    resetting the counts on exit (say, `gc.freeze(); gc.unfreeze()`) saves
    it but restarts the count on every call, so a caller that builds in a
    loop never reaches a collection again and the cycles it makes between
    builds are never freed.  After 600 in-process `poly` runs on a 3 kB
    fixture, the process held 19 thousand tracked objects at 19 MB peak
    RSS with the pass, and 252 thousand at 54 MB without it.
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

class _OperandTexts(dict):
    """Value id -> its TAC operand text, by `ValueTable.render` (`0x…` for
    a constant, `v<id>` otherwise), rendered on first use and kept for one
    export.  It holds only ids that some exported op reads, not a table over
    every value."""

    __slots__ = ("_render",)

    def __init__(self, table: ValueTable) -> None:
        super().__init__()
        self._render = table.render

    def __missing__(self, vid: int) -> str:
        text = self[vid] = self._render(vid)
        return text


def _picker(positions: list[int]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """A C-level getter of the items at `positions` as a tuple.  `itemgetter`
    returns one position's item bare, so that position is named twice."""
    if len(positions) == 1:
        positions = positions * 2
    return itemgetter(*positions) if positions else lambda ids: ()


_Static = TypeVar("_Static")


def _block_fields(
    cfg: Cfg,
    emit_tac: bool,
    static: Callable[[BasicBlock], _Static],
    tac_layout: Callable[[list[str]], str],
    names: dict[BlockId, str],
) -> Iterator[tuple[_Static, str, int, bool, str]]:
    """Per block in id order: `static` of its offset's original, its id's
    string (also put in `names`), its clone index, whether it has an entry
    stack, and its TAC text, or "" without `emit_tac` or TAC.

    Clones share their original's instructions and sort next to it, so
    `static` and the TAC template, `tac_layout` of the offset's TAC line
    templates (see `tac_templates`), are made once per offset.  Per clone
    only the template's value ids are filled, each operand's text read
    from one cache.
    """
    operand_text = _OperandTexts(cfg.value_table).__getitem__
    tac_ids = cfg.tac_ids if emit_tac else {}
    s_start = cfg.s_start
    for offset, group in groupby(sorted(cfg.blocks), itemgetter(0)):
        block = cfg.blocks[(offset, 0)]  # the group's original
        text = static(block)
        if emit_tac:
            lines, positions = tac_templates(block)
            template = tac_layout(lines)
            pick = _picker(positions)
        prefix = f"0x{offset:x}_"
        for block_id in group:
            clone = block_id.clone
            name = names[block_id] = prefix + str(clone)
            ids = tac_ids.get(block_id)
            tac = "" if ids is None else template.format(ids, tuple(map(operand_text, pick(ids))))
            yield text, name, clone, block_id in s_start, tac


# Each tuple of kinds that one source can hold toward one destination,
# mapped to its kinds in the exports' order: by value.
_BY_VALUE = {
    kinds: tuple(sorted(kinds, key=lambda kind: kind.value))
    for kinds in ((_JUMP,), (_FALLTHROUGH,), (_JUMP, _FALLTHROUGH), (_FALLTHROUGH, _JUMP))
}


def _edge_texts(
    cfg: Cfg, names: dict[BlockId, str], head: str, tails: dict[EdgeKind, str]
) -> list[str]:
    """Each edge's text, by (source, destination) and then kind value, read
    off `Cfg.succ` in place: `head % <source name>`, the destination's
    name, then `tails[kind]`."""
    texts: list[str] = []
    for src, out in sorted(cfg.succ.items()):
        src_head = head % names[src]
        for dst, kinds in sorted(out.items()):
            dst_head = src_head + names[dst]
            for kind in _BY_VALUE[kinds]:
                texts.append(dst_head + tails[kind])
    return texts


def export(cfg: Cfg, format: str = "json", emit_tac: bool = False) -> bytes:
    """Serialize a built CFG; byte-identical for identical inputs.

    Per offset, once, the exporters render a block's static text (offset,
    instruction listing, terminator) and, with `emit_tac`, its TAC lines
    as templates built from the instructions alone (see `tac_templates`).
    Per clone they fill only the id, the clone index, `is_data` (DOT: the
    dotted style) and the TAC's value ids; each operand's text is rendered
    once per export.  The TAC text equals `TacOp.render` of each op of
    `tac_ops(cfg.blocks[b], cfg.tac_ids[b])`, which stays the reference.
    Each block id's string is made once, and edges are listed from
    `Cfg.succ` in (source, destination, kind value) order without building
    `Edge` records.

    Like `build_cfg`, runs with the cyclic garbage collector paused and
    restores its state on return or error.
    """
    if format not in ("json", "dot"):
        raise ValueError(f"unknown export format: {format}")
    with _collector_paused():
        if format == "json":
            return _export_json(cfg, emit_tac)
        return _export_dot(cfg, emit_tac)


def _json_list(items: list[str], indent: str) -> str:
    """`items`, each already JSON, as `json.dumps(indent=2)` lays out a
    list whose closing bracket sits at `indent`."""
    if not items:
        return "[]"
    inner = "\n  " + indent
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _json_static(block: BasicBlock) -> tuple[str, str]:
    """A JSON block's text between its id and clone index, and between its
    clone index and `is_data`'s value."""
    q = encode_basestring_ascii
    listing = _json_list([q(ins.listing_line()) for ins in block.instructions], "      ")
    return (
        f',\n      "offset": {block.id.offset},\n      "clone": ',
        f',\n      "instructions": {listing},\n      "terminator": {q(block.terminator.value)}'
        ',\n      "is_data": ',
    )


def _json_tac(lines: list[str]) -> str:
    return ',\n      "tac": ' + _json_list([f'"{line}"' for line in lines], "      ")


_JSON_TAILS = {kind: f'",\n      "kind": "{kind.value}"\n    }}' for kind in EdgeKind}


def _export_json(cfg: Cfg, emit_tac: bool) -> bytes:
    """Write exactly `json.dumps(doc, indent=2) + "\n"` in one pass, where
    `doc` is the document the fields below describe; `doc` itself is never
    built.  Strings are quoted as `json.dumps` quotes them."""
    q = encode_basestring_ascii
    names: dict[BlockId, str] = {}
    blocks = [
        f'{{\n      "id": "{name}"{to_clone}{clone}{to_data}{"false" if entered else "true"}{tac}\n    }}'
        for (to_clone, to_data), name, clone, entered, tac in _block_fields(
            cfg, emit_tac, _json_static, _json_tac, names
        )
    ]
    edges = _edge_texts(cfg, names, '{\n      "from": "%s",\n      "to": "', _JSON_TAILS)
    diagnostics = [
        '{\n      "severity": %s,\n      "message": %s,\n      "offset": %d\n    }'
        % (q(severity), q(message), offset)
        for severity, message, offset in cfg.diagnostics
    ]
    return "".join([
        '{\n  "entry": ', q(str(cfg.entry)),
        ',\n  "blocks": ', _json_list(blocks, "  "),
        ',\n  "edges": ', _json_list(edges, "  "),
        ',\n  "diagnostics": ', _json_list(diagnostics, "  "),
        "\n}\n",
    ]).encode()


def _dot_label_lines(lines: list[str]) -> str:
    return "\\l".join(line.replace('"', '\\"') for line in lines)


_DOT_TAILS = {_JUMP: '" [style=solid];', _FALLTHROUGH: '" [style=dashed];'}


def _export_dot(cfg: Cfg, emit_tac: bool) -> bytes:
    names: dict[BlockId, str] = {}
    blocks = [
        f'  "{name}" [label="{name}\\l{listing}{tac}\\l"{"" if entered else ", style=dotted"}];'
        for listing, name, _, entered, tac in _block_fields(
            cfg,
            emit_tac,
            lambda block: _dot_label_lines([ins.listing_line() for ins in block.instructions]),
            lambda lines: "\\l--\\l" + "\\l".join(lines),
            names,
        )
    ]
    edges = _edge_texts(cfg, names, '  "%s" -> "', _DOT_TAILS)
    return "\n".join(
        ["digraph cfg {", "  node [shape=box, fontname=monospace];", *blocks, *edges, "}\n"]
    ).encode()
