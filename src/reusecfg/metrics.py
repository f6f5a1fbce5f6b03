"""Precision instruments over recovered CFGs.

Path counting treats each loop body as a single traversal: back edges found
by a depth-first search from the entry are removed, then entry-to-sink
paths of the remaining DAG are counted with dynamic programming in
arbitrary-precision integers (context-blind graphs explode geometrically).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bytecode import BlockId
from .cfg import AnalysisError, Cfg
from .graph import dfs


@dataclass(frozen=True)
class Trace:
    """Block start offsets visited by one concrete execution."""

    offsets: tuple[int, ...]


@dataclass(frozen=True)
class PathReport:
    path_count: int
    back_edges_removed: int


def count_paths(cfg: Cfg) -> PathReport:
    """Entry-to-sink path count after removing DFS back edges."""
    if cfg.entry not in cfg.blocks:
        raise AnalysisError("entry block missing from CFG")
    succ = cfg.succ
    postorder, back_edges = dfs(succ, [cfg.entry])
    order = postorder[::-1]  # topological over the back-edge-free reachable subgraph

    reachable = set(order)
    npaths: dict[BlockId, int] = {b: 0 for b in reachable}
    npaths[cfg.entry] = 1
    total = 0
    for node in order:
        ways = npaths[node]  # >= 1: a tree edge from an earlier node reaches it
        succs = [s for s in succ.get(node, ()) if (node, s) not in back_edges]
        if not succs:
            total += ways  # sink: halting terminator or unresolved transfer
            continue
        for s in succs:
            npaths[s] += ways
    return PathReport(path_count=total, back_edges_removed=len(back_edges))


def polymorphic_jump_targets(cfg: Cfg) -> list[tuple[BlockId, frozenset[BlockId]]]:
    """Blocks whose non-fallthrough edges reach more than one target."""
    out = []
    for block_id in sorted(cfg.blocks):
        targets = frozenset(cfg.jump_successors(block_id))
        if len(targets) > 1:
            out.append((block_id, targets))
    return out


def trace_coverage(
    cfg: Cfg, traces: list
) -> tuple[int, int, list]:
    """How many traces correspond to a walk in the CFG.

    A trace is covered when stepping a frontier of clone candidates through
    its offsets never empties; clones collapse to offsets.  Prefix-walk
    semantics: a covered trace need not end at a terminator block.
    """
    succ = cfg.succ
    covered = 0
    uncovered = []
    for trace in traces:
        offsets = list(trace.offsets)
        ok = bool(offsets) and offsets[0] == cfg.entry.offset
        frontier = {cfg.entry}
        for offset in offsets[1:]:
            if not ok:
                break
            frontier = {
                nxt
                for b in frontier
                for nxt in succ.get(b, ())
                if nxt.offset == offset
            }
            if not frontier:
                ok = False
        if ok:
            covered += 1
        else:
            uncovered.append(trace)
    return covered, len(traces), uncovered
