"""The edge store of `Cfg` and the DFS in `reusecfg.graph`."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixtures import shared_callee
from reusecfg.bytecode import BlockId
from reusecfg.cfg import Cfg, EdgeKind, Mode, build_cfg
from reusecfg.graph import dag_reachability, dfs
from reusecfg.metrics import count_paths

NODES = [BlockId(offset, clone) for offset in (0, 3, 7) for clone in (0, 1)]
KINDS = list(EdgeKind)


def test_jumpi_to_next_block_keeps_both_edges():
    # PUSH1 0; PUSH1 5; JUMPI; JUMPDEST; STOP: the jump target is also the
    # fallthrough block, so one source has two edges to one destination.
    code = bytes.fromhex("60006005575b00")
    src, dst = BlockId(0, 0), BlockId(5, 0)
    for mode in Mode:
        cfg = build_cfg(code, mode)
        assert cfg.has_edge(src, dst, EdgeKind.JUMP)
        assert cfg.has_edge(src, dst, EdgeKind.FALLTHROUGH)
        assert sorted(kind.value for _, kind in cfg.successors(src)) == ["fallthrough", "jump"]
        assert len(cfg.edges) == 2
        assert cfg.predecessors(dst) == [src]
        assert cfg.jump_successors(src) == [dst]
        assert count_paths(cfg).path_count == 1


def test_cfg_is_made_from_mode_entry_and_limits_only():
    # Recovery fills every other field; none can be passed in.
    with pytest.raises(TypeError):
        Cfg(mode=Mode.REUSE_SENSITIVE, entry=BlockId(0, 0), blocks={})


class ListModel:
    """Edge semantics of a plain insertion-ordered list of edges."""

    def __init__(self) -> None:
        self.edges: list[tuple[BlockId, BlockId, EdgeKind]] = []

    def add_edge(self, src, dst, kind) -> bool:
        if (src, dst, kind) in self.edges:
            return False
        self.edges.append((src, dst, kind))
        return True

    def remove_out_edges(self, src) -> None:
        self.edges = [e for e in self.edges if e[0] != src]

    def grouped(self) -> list[tuple[BlockId, BlockId, EdgeKind]]:
        """The edges grouped by source, groups in order of their first edge;
        within a group, by destination in order of its first edge, and each
        destination's edges in the order they were added."""
        first_src: dict[BlockId, int] = {}
        first_dst: dict[tuple[BlockId, BlockId], int] = {}
        for i, (src, dst, _) in enumerate(self.edges):
            first_src.setdefault(src, i)
            first_dst.setdefault((src, dst), i)
        return sorted(self.edges, key=lambda e: (first_src[e[0]], first_dst[e[:2]]))


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(NODES), st.sampled_from(NODES), st.sampled_from(KINDS)),
        st.tuples(st.just("remove"), st.sampled_from(NODES)),
    ),
    max_size=40,
)


S, A, B = NODES[:3]
JUMP, FALL = EdgeKind.JUMP, EdgeKind.FALLTHROUGH


@settings(max_examples=300, deadline=None)
@given(_ops)
# A destination's later kind stays with its first edge, ahead of a
# destination first reached in between.
@example([("add", S, A, JUMP), ("add", S, B, JUMP), ("add", S, A, FALL)])
# A FALLTHROUGH, then a JUMP, to one destination: two edges, one predecessor.
@example([("add", S, A, FALL), ("add", S, A, JUMP), ("add", S, A, JUMP)])
@example([("add", S, A, FALL), ("add", S, A, JUMP), ("remove", S)])
def test_edge_store_matches_list_model(ops):
    cfg = Cfg(mode=Mode.REUSE_SENSITIVE, entry=NODES[0])
    model = ListModel()
    for op in ops:
        if op[0] == "add":
            assert cfg.add_edge(*op[1:]) == model.add_edge(*op[1:])
        else:
            cfg.remove_out_edges(op[1])
            model.remove_out_edges(op[1])
        assert len(cfg.edges) == len(model.edges)
    grouped = model.grouped()
    assert [(e.src, e.dst, e.kind) for e in cfg.edges] == grouped
    for node in NODES:
        assert cfg.successors(node) == [(d, k) for s, d, k in grouped if s == node]
        assert cfg.jump_successors(node) == [
            d for s, d, k in grouped if s == node and k is EdgeKind.JUMP
        ]
        assert cfg.predecessors(node) == list(
            dict.fromkeys(s for s, d, _ in model.edges if d == node)
        )
        for dst in NODES:
            for kind in KINDS:
                assert cfg.has_edge(node, dst, kind) == ((node, dst, kind) in model.edges)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_high_degree_edge_store(mode):
    # 256 calls of one function F.  Baseline recovery gives F in-degree 65
    # and out-degree 64: its entry stack widens at `reemulation_cap`, after
    # which its return is unresolved.  Sensitive recovery gives each call
    # its own clone of F.
    code, f = shared_callee(256)
    cfg = build_cfg(code, mode)
    returns = [BlockId(8 * i + 7, 0) for i in range(256)]
    sites = [BlockId(0, 0)] + returns[:-1]
    jump = EdgeKind.JUMP
    if mode is Mode.REUSE_INSENSITIVE:
        callee = BlockId(f, 0)
        calls, rets = 65, 64
        assert cfg.predecessors(callee) == sites[:calls]
        assert cfg.successors(callee) == [(ret, jump) for ret in returns[:rets]]
        assert all(cfg.has_edge(site, callee, jump) for site in sites[:calls])
        assert all(cfg.has_edge(callee, ret, jump) for ret in returns[:rets])
        assert not cfg.has_edge(sites[calls], callee, jump)
        assert not cfg.has_edge(callee, returns[rets], jump)
        assert all(cfg.predecessors(ret) == [callee] for ret in returns[:rets])
        # Dropping one caller keeps the others in first-edge order, and a
        # re-added edge puts its source last.
        cfg.remove_out_edges(sites[30])
        assert cfg.predecessors(callee) == sites[:30] + sites[31:calls]
        assert cfg.add_edge(sites[30], callee, jump)
        assert cfg.predecessors(callee) == sites[:30] + sites[31:calls] + [sites[30]]
        cfg.remove_out_edges(callee)
        assert all(cfg.predecessors(ret) == [] for ret in returns[:rets])
    else:
        clones = cfg.clones_at(f)
        assert len(clones) == 256
        for site, clone, ret in zip(sites, clones, returns):
            assert cfg.predecessors(clone) == [site]
            assert cfg.has_edge(site, clone, jump) and cfg.has_edge(clone, ret, jump)
            assert cfg.successors(clone) == [(ret, jump)]
            assert cfg.predecessors(ret) == [clone]


_graphs = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
    )
)


@settings(max_examples=300, deadline=None)
@given(_graphs)
def test_dfs_agrees_with_networkx(graph):
    nx = pytest.importorskip("networkx")
    n, pairs = graph
    nodes = [BlockId(i, 0) for i in range(n)]
    adj = {b: [] for b in nodes}
    for a, b in pairs:
        if nodes[b] not in adj[nodes[a]]:
            adj[nodes[a]].append(nodes[b])
    g = nx.DiGraph()
    g.add_nodes_from(nodes)
    g.add_edges_from((a, b) for a, succs in adj.items() for b in succs)

    postorder, back = dfs(adj, [nodes[0]])
    assert sorted(postorder) == sorted({nodes[0]} | nx.descendants(g, nodes[0]))
    assert back <= set(g.edges)

    postorder, back = dfs(adj, nodes)
    assert sorted(postorder) == nodes
    dag = g.copy()
    dag.remove_edges_from(back)
    assert nx.is_directed_acyclic_graph(dag)
    position = {b: i for i, b in enumerate(reversed(postorder))}
    assert all(position[a] < position[b] for a, b in dag.edges)

    reach = dag_reachability(adj, nodes)
    assert reach == {b: nx.descendants(dag, b) for b in nodes}

    # The shape of `Cfg.succ`: successors as dict keys, sinks absent.
    store = {a: dict.fromkeys(succs) for a, succs in adj.items() if succs}
    for roots in ([nodes[0]], nodes):
        assert dfs(store, roots) == dfs(adj, roots)
        assert dag_reachability(store, roots) == dag_reachability(adj, roots)
