"""The node table and the word layer checked against networkx on random
graphs."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from askgraph.corpus import Graph
from askgraph.interaction import node_table, reciprocity
from askgraph.wordgraph import eigenvector_centrality, project_words
from helpers import csr, edge_map, like_graph, to_scipy

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
    return like_graph(nodes=nodes, edges=edges)


def nx_component(graph, slot):
    """networkx digraph of one component: weight slot 0, 1, or None for both."""
    d = nx.DiGraph()
    d.add_nodes_from(graph.nodes)
    for (i, j), w in edge_map(graph).items():
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
    for i, u in enumerate(graph.nodes):
        assert t.local_clustering[i] == pytest.approx(local[u], abs=1e-12)
        assert t.degree[i] == undirected.degree(u)
    assert t.mean_local_clustering == pytest.approx(nx.average_clustering(undirected), abs=1e-12)
    assert t.global_clustering == pytest.approx(nx.transitivity(undirected), abs=1e-12)

    for counts, slot in ((t.neg, 0), (t.nonneg, 1), (t.merged, None)):
        d = nx_component(graph, slot)
        for i, u in enumerate(graph.nodes):
            assert counts.in_deg[i] == d.in_degree(u, weight="weight")
            assert counts.out_deg[i] == d.out_degree(u, weight="weight")
            assert counts.out_edges[i] == d.out_degree(u)
        if d.number_of_edges():
            assert reciprocity(counts) == pytest.approx(nx.reciprocity(d), abs=1e-12)
        else:
            with pytest.raises(ValueError):
                reciprocity(counts)


def hub_digraph(rng):
    """130-300 nodes: sparse random edges plus a few hubs at random ids, so
    that ranking nodes by degree reorders them. Each fits one row block of
    the triangle kernel; `test_triangle_blocks.py` reruns them in many."""
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
    return like_graph(nodes=nodes, edges=edges)


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
    for i, u in enumerate(graph.nodes):
        assert t.degree[i] == undirected.degree(u)
        assert t.local_clustering[i] == pytest.approx(local[u], abs=1e-12)
    assert t.closed_triples == sum(triangles.values())
    assert t.global_clustering == pytest.approx(nx.transitivity(undirected), abs=1e-12)
    for counts, slot in ((t.neg, 0), (t.nonneg, 1), (t.merged, None)):
        d = nx_component(graph, slot)
        for i, u in enumerate(graph.nodes):
            assert counts.in_deg[i] == d.in_degree(u, weight="weight")
            assert counts.out_deg[i] == d.out_degree(u, weight="weight")
            assert counts.out_edges[i] == d.out_degree(u)
        assert reciprocity(counts) == pytest.approx(nx.reciprocity(d), abs=1e-12)


@st.composite
def bipartite_graphs(draw):
    """1-12 words by 1-10 users, each word on any set of users."""
    words = tuple(f"w{i:02d}" for i in range(draw(st.integers(1, 12))))
    n_users = draw(st.integers(1, 10))
    links = draw(st.sets(st.tuples(st.integers(0, len(words) - 1),
                                   st.integers(0, n_users - 1))))
    rows, cols = zip(*sorted(links)) if links else ((), ())
    incidence = csr(sp.csr_matrix(
        (np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(len(words), n_users)
    ))
    return Graph(nodes=words, adjacency=incidence)


def nx_bipartite(bipartite):
    """Words are named by their strings, users by their column numbers."""
    b = nx.Graph()
    b.add_nodes_from(bipartite.nodes)
    b.add_nodes_from(range(bipartite.adjacency.shape[1]))
    coo = to_scipy(bipartite.adjacency).tocoo()
    b.add_edges_from((bipartite.nodes[i], int(j)) for i, j in zip(coo.row, coo.col))
    return b


def nx_word_graph(graph):
    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    coo = sp.triu(to_scipy(graph.adjacency), 1).tocoo()
    g.add_weighted_edges_from(
        (graph.nodes[i], graph.nodes[j], int(w)) for i, j, w in zip(coo.row, coo.col, coo.data)
    )
    return g


@settings(max_examples=100, deadline=None)
@given(bipartite_graphs())
def test_projection_matches_networkx(bipartite):
    graph = project_words(bipartite)
    expected = nx.bipartite.weighted_projected_graph(nx_bipartite(bipartite), bipartite.nodes)
    dense = to_scipy(graph.adjacency).toarray()
    for i, a in enumerate(graph.nodes):
        for j, b in enumerate(graph.nodes):
            weight = expected[a][b]["weight"] if expected.has_edge(a, b) else 0
            assert dense[i, j] == weight


# two word pairs on two users: tied dominant components, both kept
TIED = Graph(
    nodes=("w00", "w01", "w02", "w03"),
    adjacency=csr(np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.int64)),
)


@settings(max_examples=100, deadline=None)
@given(bipartite_graphs())
@example(TIED)
def test_centrality_matches_networkx_on_dominant_components(bipartite):
    graph = project_words(bipartite)
    scores = eigenvector_centrality(graph)
    g = nx_word_graph(graph)
    components = [c for c in nx.connected_components(g) if len(c) > 1]
    # a component's dominant eigenvalue, from a dense symmetric solver
    spectral = [
        np.linalg.eigvalsh(nx.to_numpy_array(g.subgraph(c), weight="weight"))[-1]
        for c in components
    ]
    top = max(spectral, default=0.0)
    expected = dict.fromkeys(graph.nodes, 0.0)
    for component, eigenvalue in zip(components, spectral):
        if eigenvalue < top * (1 - 1e-9):
            continue
        if len(component) == 2:
            # ARPACK cannot solve a 2 x 2 system; a single edge scores 1 at both ends
            vector = dict.fromkeys(component, 1.0)
        else:
            vector = nx.eigenvector_centrality_numpy(g.subgraph(component), weight="weight")
        peak = max(vector.values())
        expected.update((u, x / peak) for u, x in vector.items())
    assert list(scores) == list(graph.nodes)
    for u in graph.nodes:
        assert scores[u] == pytest.approx(expected[u], abs=1e-7)


def labelled_graph(n, edges, names):
    """The word graph of an abstract weighted graph on 0..n-1 whose node v is
    named names[v]: nodes are sorted by name, as `build_bipartite` sorts them."""
    order = sorted(range(n), key=names.__getitem__)
    position = {v: k for k, v in enumerate(order)}
    rows = [position[a] for a, b in edges] + [position[b] for a, b in edges]
    cols = [position[b] for a, b in edges] + [position[a] for a, b in edges]
    weights = list(edges.values()) * 2
    adjacency = csr(sp.csr_matrix(
        (np.array(weights, dtype=np.int64), (rows, cols)), shape=(n, n)
    ))
    return Graph(nodes=tuple(names[v] for v in order), adjacency=adjacency)


@st.composite
def renamed_graphs(draw):
    """A weighted graph on 1-15 nodes under two bijective namings."""
    n = draw(st.integers(1, 15))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
    edges = draw(st.dictionaries(pair, st.integers(1, 4), max_size=40)) if n > 1 else {}
    name = st.text("abcdefghij", min_size=1, max_size=4)
    names = draw(st.lists(name, min_size=n, max_size=n, unique=True))
    renamed = draw(st.lists(name, min_size=n, max_size=n, unique=True))
    return n, edges, names, renamed


@settings(max_examples=150, deadline=None)
@given(renamed_graphs())
def test_centrality_invariant_under_relabelling(case):
    n, edges, names, renamed = case
    tol = 1e-10
    scores = eigenvector_centrality(labelled_graph(n, edges, names), tol=tol)
    scores_renamed = eigenvector_centrality(labelled_graph(n, edges, renamed), tol=tol)
    for v in range(n):
        assert scores_renamed[renamed[v]] == pytest.approx(scores[names[v]], abs=tol)
