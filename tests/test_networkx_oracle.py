"""The node table checked against networkx on random directed graphs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from askgraph.interaction import InteractionGraph, node_table, reciprocity

nx = pytest.importorskip("networkx")


@st.composite
def weighted_digraphs(draw):
    """Graphs of 1-20 nodes, no self-loops, each edge with at least one like."""
    n = draw(st.integers(1, 20))
    nodes = tuple(f"n{i:02d}" for i in range(n))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=60)) if pairs else set()
    weights = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda w: sum(w) > 0)
    edges = {pair: draw(weights) for pair in sorted(chosen)}
    return InteractionGraph(nodes=nodes, edges=edges, top_k=15)


def nx_component(graph, slot):
    """networkx digraph of one component: weight slot 0, 1, or None for both."""
    d = nx.DiGraph()
    d.add_nodes_from(graph.nodes)
    for (i, j), w in graph.edges.items():
        weight = sum(w) if slot is None else w[slot]
        if weight:
            d.add_edge(i, j, weight=weight)
    return d


@settings(max_examples=100, deadline=None)
@given(weighted_digraphs())
def test_node_table_matches_networkx(graph):
    t = node_table(graph)
    undirected = nx_component(graph, None).to_undirected()

    local = nx.clustering(undirected)
    for u in graph.nodes:
        assert t.local_clustering[u] == pytest.approx(local[u], abs=1e-12)
        assert t.degree[u] == undirected.degree(u)
    assert t.mean_local_clustering == pytest.approx(nx.average_clustering(undirected), abs=1e-12)
    assert t.global_clustering == pytest.approx(nx.transitivity(undirected), abs=1e-12)

    for counts, slot in ((t.neg, 0), (t.nonneg, 1), (t.merged, None)):
        d = nx_component(graph, slot)
        for u in graph.nodes:
            assert counts.in_deg[u] == d.in_degree(u, weight="weight")
            assert counts.out_deg[u] == d.out_degree(u, weight="weight")
            assert counts.out_edges[u] == d.out_degree(u)
        if d.number_of_edges():
            assert reciprocity(counts) == pytest.approx(nx.reciprocity(d), abs=1e-12)
        else:
            with pytest.raises(ValueError):
                reciprocity(counts)


def hub_digraph(rng):
    """130-300 nodes: sparse random edges plus a few hubs at random ids, so
    that ranking nodes by degree reorders them, and the triangle kernel
    spans several row blocks."""
    n = rng.randint(130, 300)
    nodes = tuple(f"n{i:03d}" for i in range(n))
    pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)}
    for hub in rng.sample(range(n), 4):
        for v in rng.sample(range(n), rng.randint(n // 5, n // 2)):
            pairs.add((hub, v) if rng.random() < 0.5 else (v, hub))
    edges = {
        (nodes[a], nodes[b]): rng.choice(((1, 0), (0, 2), (3, 1)))
        for a, b in sorted(pairs)
        if a != b
    }
    return InteractionGraph(nodes=nodes, edges=edges, top_k=15)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_node_table_matches_networkx_on_hub_graphs(seed):
    import random

    graph = hub_digraph(random.Random(seed))
    t = node_table(graph)
    undirected = nx_component(graph, None).to_undirected()
    degrees = [undirected.degree(u) for u in graph.nodes]
    assert degrees != sorted(degrees)  # the kernel reorders the nodes

    local = nx.clustering(undirected)
    triangles = nx.triangles(undirected)
    for u in graph.nodes:
        assert t.degree[u] == undirected.degree(u)
        assert t.local_clustering[u] == pytest.approx(local[u], abs=1e-12)
    assert t.closed_triples == sum(triangles.values())
    assert t.global_clustering == pytest.approx(nx.transitivity(undirected), abs=1e-12)
    for counts, slot in ((t.neg, 0), (t.nonneg, 1), (t.merged, None)):
        d = nx_component(graph, slot)
        for u in graph.nodes:
            assert counts.in_deg[u] == d.in_degree(u, weight="weight")
            assert counts.out_deg[u] == d.out_degree(u, weight="weight")
            assert counts.out_edges[u] == d.out_degree(u)
        assert reciprocity(counts) == pytest.approx(nx.reciprocity(d), abs=1e-12)
