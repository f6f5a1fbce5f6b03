"""Depth-first search over recovered graphs.

The one DFS of the package.  Recovery's reachability sweep, path counting
and the detectors' ordering queries share it, so they agree on which edges
close a loop; trace coverage walks the same collapsed successor lists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .bytecode import BlockId

if TYPE_CHECKING:
    from .cfg import Cfg

Adjacency = dict[BlockId, list[BlockId]]


def collapsed_successors(cfg: Cfg) -> Adjacency:
    """Successor lists for every block in edge-insertion order, parallel
    edges (a JUMP and a FALLTHROUGH to one block) collapsed."""
    adj: Adjacency = {b: [] for b in cfg.blocks}
    for src, out in cfg.succ.items():
        dsts = adj[src]
        for dst, _ in out:
            if dst not in dsts:
                dsts.append(dst)
    return adj


def dfs(adj: Adjacency, roots: Iterable[BlockId]) -> tuple[list[BlockId], set[tuple[BlockId, BlockId]]]:
    """Iterative DFS from each still-unvisited root in turn.

    Returns the postorder of every visited node and the back edges: the
    edges into a node that is still on the DFS stack.  Removing them leaves
    the visited subgraph acyclic, and the reversed postorder is then a
    topological order of it.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(adj, WHITE)
    back: set[tuple[BlockId, BlockId]] = set()
    postorder: list[BlockId] = []
    for root in roots:
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        stack = [(root, 0)]
        while stack:
            node, idx = stack[-1]
            succs = adj[node]
            if idx < len(succs):
                stack[-1] = (node, idx + 1)
                nxt = succs[idx]
                if color[nxt] == GRAY:
                    back.add((node, nxt))
                elif color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, 0))
            else:
                color[node] = BLACK
                postorder.append(node)
                stack.pop()
    return postorder, back


def dag_reachability(adj: Adjacency, roots: Iterable[BlockId]) -> dict[BlockId, set[BlockId]]:
    """Forward reachability of every node over the graph with the back edges
    of a DFS from `roots` removed."""
    postorder, back = dfs(adj, roots)
    reach: dict[BlockId, set[BlockId]] = {b: set() for b in adj}
    for node in postorder:  # successors done first
        acc = reach[node]
        for s in adj[node]:
            if (node, s) in back:
                continue
            acc.add(s)
            acc |= reach[s]
    return reach
