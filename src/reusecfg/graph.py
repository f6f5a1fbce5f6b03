"""Depth-first search over recovered graphs.

The one DFS of the package.  Path counting and the detectors' ordering
queries share it, so they agree on which edges close a loop.  Each walks
`Cfg.succ` in place: per source, its out-edges keyed by destination, so
iterating a source's entry yields each successor once, in order of its
first edge.  Any mapping from a node to an iterable of successors will
do; a node missing from it is a sink.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .bytecode import BlockId


def dfs(
    adj: Mapping[BlockId, Iterable[BlockId]], roots: Iterable[BlockId]
) -> tuple[list[BlockId], set[tuple[BlockId, BlockId]]]:
    """Iterative DFS from each still-unvisited root in turn.

    Returns the postorder of every visited node and the back edges: the
    edges into a node that is still on the DFS stack.  Removing them leaves
    the visited subgraph acyclic, and the reversed postorder is then a
    topological order of it.
    """
    on_stack: dict[BlockId, bool] = {}  # every visited node: still on the stack?
    back: set[tuple[BlockId, BlockId]] = set()
    postorder: list[BlockId] = []
    for root in roots:
        if root in on_stack:
            continue
        on_stack[root] = True
        stack = [(root, iter(adj.get(root, ())))]
        while stack:
            node, succs = stack[-1]
            for nxt in succs:
                state = on_stack.get(nxt)
                if state is None:
                    on_stack[nxt] = True
                    stack.append((nxt, iter(adj.get(nxt, ()))))
                    break
                if state:
                    back.add((node, nxt))
            else:
                on_stack[node] = False
                postorder.append(node)
                stack.pop()
    return postorder, back


def dag_reachability(
    adj: Mapping[BlockId, Iterable[BlockId]], roots: Iterable[BlockId]
) -> dict[BlockId, set[BlockId]]:
    """Forward reachability of every node visited from `roots`, over the
    graph with the back edges of a DFS from `roots` removed."""
    postorder, back = dfs(adj, roots)
    reach: dict[BlockId, set[BlockId]] = {}
    for node in postorder:  # successors done first
        acc = reach[node] = set()
        for s in adj.get(node, ()):
            if (node, s) in back:
                continue
            acc.add(s)
            acc |= reach[s]
    return reach
