import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from askgraph.corpus import CSR, Graph
from askgraph.wordgraph import (
    ConvergenceError,
    build_bipartite,
    component_roots,
    cooccurrence_distribution,
    eigenvector_centrality,
    project_words,
    select_top_words,
    word_neighborhood,
)
from helpers import (
    csr, from_records, reference_eigenvector_centrality, to_scipy, vocab_word_set,
)


def profile_with(owner, *texts):
    return {"owner": owner, "questions": [{"text": t} for t in texts]}


def bipartite_from_dense(matrix):
    matrix = np.asarray(matrix, dtype=np.int64)
    words = tuple(f"w{i}" for i in range(matrix.shape[0]))
    return Graph(nodes=words, adjacency=csr(matrix))


def graph_from_edges(nodes, edges):
    index = {n: i for i, n in enumerate(nodes)}
    dense = np.zeros((len(nodes), len(nodes)), dtype=np.int64)
    for a, b, w in edges:
        dense[index[a], index[b]] = w
        dense[index[b], index[a]] = w
    return Graph(nodes=tuple(nodes), adjacency=csr(dense))


def naive_projection(dense):
    """Triple-loop B @ B.T with zero diagonal, the independent oracle."""
    n_rows, n_cols = dense.shape
    out = np.zeros((n_rows, n_rows), dtype=np.int64)
    for i in range(n_rows):
        for j in range(n_rows):
            if i == j:
                continue
            for k in range(n_cols):
                out[i, j] += dense[i, k] * dense[j, k]
    return out


class TestBuildBipartite:
    LEX = frozenset({"ugly", "fat", "hate"})

    def test_hand_construction(self):
        corp = from_records([
            profile_with("u1", "ugly fat"),
            profile_with("u2", "ugly"),
        ], self.LEX)
        bip = build_bipartite(corp, self.LEX)
        dense = to_scipy(bip.adjacency).toarray()
        row = {w: dense[i] for i, w in enumerate(bip.nodes)}
        assert bip.adjacency.shape == (3, len(corp.owners))
        u = {name: corp.owners.index(name) for name in ("u1", "u2")}
        assert row["ugly"][u["u1"]] == 1 and row["ugly"][u["u2"]] == 1
        assert row["fat"][u["u1"]] == 1 and row["fat"][u["u2"]] == 0
        assert (row["hate"] == 0).all()

    def test_empty_corpus(self):
        bip = build_bipartite(from_records([], self.LEX), self.LEX)
        assert to_scipy(bip.adjacency).nnz == 0
        assert len(bip.nodes) == 3

    def test_incidence_is_binary(self):
        corp = from_records([profile_with("u1", "ugly ugly ugly ugly ugly")], self.LEX)
        bip = build_bipartite(corp, self.LEX)
        assert to_scipy(bip.adjacency).max() == 1


class TestProjections:
    def test_shared_profile_weight(self):
        bip = bipartite_from_dense([[1, 1, 0], [0, 1, 1]])
        wg = project_words(bip)
        dense = to_scipy(wg.adjacency).toarray()
        assert dense[0, 1] == 1 and dense[1, 0] == 1
        assert dense[0, 0] == 0 and dense[1, 1] == 0

    def test_all_zero(self):
        bip = bipartite_from_dense(np.zeros((3, 4)))
        assert to_scipy(project_words(bip).adjacency).nnz == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**63 - 1))
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((12, 17)) < 0.3).astype(np.int64)
        wg = project_words(bipartite_from_dense(dense))
        np.testing.assert_array_equal(to_scipy(wg.adjacency).toarray(), naive_projection(dense))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**63 - 1))
    def test_symmetry_and_bound(self, seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((10, 14)) < 0.4).astype(np.int64)
        adj = to_scipy(project_words(bipartite_from_dense(dense)).adjacency).toarray()
        np.testing.assert_array_equal(adj, adj.T)
        row_sums = dense.sum(axis=1)
        for i in range(10):
            for j in range(10):
                if i != j:
                    assert adj[i, j] <= min(row_sums[i], row_sums[j])


def least_node_of_component(adjacency):
    """Each node's least node index in its component, from scipy's csgraph:
    the oracle of `component_roots`, imported in tests only."""
    n = adjacency.shape[0]
    n_comp, labels = connected_components(adjacency, directed=False)
    least = np.full(n_comp, n)
    np.minimum.at(least, labels, np.arange(n))
    return least[labels]


class TestComponentRoots:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**63 - 1))
    def test_random_undirected_graphs_partition_as_csgraph_does(self, seed):
        """0-60 nodes, sparse enough to leave isolated nodes, with a self loop
        now and then. A stored zero is an edge, and so is an entry stored on
        one side of the diagonal only, as they are to csgraph."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 61))
        rows, cols = np.triu_indices(n)
        keep = rng.random(len(rows)) < rng.uniform(0.0, 0.1)
        rows, cols = rows[keep], cols[keep]
        weights = rng.integers(0, 3, size=len(rows))  # 0: an explicit zero
        mirror = (rows != cols) & (rng.random(len(rows)) < 0.9)
        adjacency = sp.csr_matrix(
            (np.concatenate([weights, weights[mirror]]),
             (np.concatenate([rows, cols[mirror]]), np.concatenate([cols, rows[mirror]]))),
            shape=(n, n),
        )
        assert adjacency.nnz == len(rows) + np.count_nonzero(mirror)
        np.testing.assert_array_equal(
            component_roots(csr(adjacency)), least_node_of_component(adjacency))

    def test_shuffled_path_is_one_component(self):
        n = 5000
        path = np.random.default_rng(5).permutation(n)
        ones = np.ones(n - 1, dtype=np.int64)
        adjacency = sp.csr_matrix((ones, (path[:-1], path[1:])), shape=(n, n))
        adjacency = (adjacency + adjacency.T).tocsr()
        roots = component_roots(csr(adjacency))
        np.testing.assert_array_equal(roots, least_node_of_component(adjacency))
        assert not roots.any()


@st.composite
def component_graphs(draw):
    """0-40 nodes in components of 1-12, the nodes numbered in a random
    order so that components interleave. A component is a random spanning
    tree plus extra edges, symmetric, weighted 0-9 (0 is an explicit zero),
    and an extra edge may be a self-loop, so a one-node component is an
    isolated node or a self-loop alone."""
    n = draw(st.integers(0, 40))
    numbers = draw(st.permutations(range(n)))
    weights = st.integers(0, 9)
    entries = {}
    start = 0
    while start < n:
        size = draw(st.integers(1, min(12, n - start)))
        members = numbers[start:start + size]
        pairs = [(members[k], members[draw(st.integers(0, k - 1))]) for k in range(1, size)]
        member = st.sampled_from(members)
        pairs += draw(st.lists(st.tuples(member, member), max_size=2 * size))
        for a, b in pairs:
            entries[a, b] = entries[b, a] = draw(weights)
        start += size
    keys = sorted(a * n + b for a, b in entries)
    data = np.array([entries[divmod(k, n)] for k in keys], dtype=np.int64)
    return Graph(tuple(f"w{i:02d}" for i in range(n)),
                 CSR.from_keys(np.array(keys, dtype=np.int64), (n, n), data))


def centrality_outcome(centrality, graph, tol, max_iter):
    """Each score as its float's hex, or the ConvergenceError's iterations
    and the hex of its residual: equal outcomes are equal to the bit."""
    try:
        scores = centrality(graph, tol=tol, max_iter=max_iter)
    except ConvergenceError as exc:
        return exc.iterations, exc.residual.hex()
    return {node: score.hex() for node, score in scores.items()}


class TestEigenvectorCentrality:
    @settings(max_examples=300, deadline=None)
    @given(component_graphs(), st.sampled_from([1e-6, 1e-10, 1e-12]),
           st.one_of(st.just(10000), st.integers(1, 40)))
    def test_matches_the_per_component_iteration_exactly(self, graph, tol, max_iter):
        """Components of different sizes and weights stop at different
        steps; each keeps its own scale, its own stopping step and its own
        eigenvalue, so every score, or the error, is the reference's."""
        assert (centrality_outcome(eigenvector_centrality, graph, tol, max_iter)
                == centrality_outcome(reference_eigenvector_centrality, graph, tol, max_iter))

    @pytest.mark.parametrize("edges", [
        # {a, c} stops at step 1, the path b-d-e does not
        [("a", "c", 1), ("b", "d", 1), ("d", "e", 1)],
        # neither the path a-c-e nor the path b-d-f-g stops
        [("a", "c", 1), ("c", "e", 1), ("b", "d", 1), ("d", "f", 1), ("f", "g", 1)],
    ], ids=["second-moves", "both-move"])
    def test_unconverged_error_names_the_least_moving_component(self, edges):
        """After two steps a path of three has moved by 5/7 - 2/3 = 1/21 and
        a path of four by 2/3 - 5/8 = 1/24: the error carries the residual of
        the least-node component still moving, as the reference raises it."""
        g = graph_from_edges(sorted({x for a, b, _ in edges for x in (a, b)}), edges)
        with pytest.raises(ConvergenceError) as info:
            eigenvector_centrality(g, max_iter=2)
        assert info.value.iterations == 2
        assert info.value.residual == pytest.approx(1 / 21)
        assert (centrality_outcome(eigenvector_centrality, g, 1e-10, 2)
                == centrality_outcome(reference_eigenvector_centrality, g, 1e-10, 2))

    def test_self_loops_alone_score_zero(self):
        """A node whose only entry is a self-loop is a one-node component;
        with no larger component, every score is 0."""
        g = Graph(("a", "b"), csr(np.diag([3, 0])))
        assert eigenvector_centrality(g) == {"a": 0.0, "b": 0.0}

    def test_path_of_three_closed_form(self):
        g = graph_from_edges(["a", "b", "c"], [("a", "b", 1), ("b", "c", 1)])
        scores = eigenvector_centrality(g, tol=1e-12)
        assert scores["b"] == pytest.approx(1.0)
        assert scores["a"] == pytest.approx(0.70711, abs=1e-5)
        assert scores["c"] == pytest.approx(0.70711, abs=1e-5)

    def test_single_edge(self):
        g = graph_from_edges(["a", "b"], [("a", "b", 1)])
        scores = eigenvector_centrality(g)
        assert scores["a"] == pytest.approx(1.0)
        assert scores["b"] == pytest.approx(1.0)

    def test_scale_invariance(self):
        edges = [("a", "b", 2), ("b", "c", 3), ("a", "c", 1), ("c", "d", 5)]
        g1 = graph_from_edges("abcd", edges)
        g7 = graph_from_edges("abcd", [(a, b, 7 * w) for a, b, w in edges])
        s1 = eigenvector_centrality(g1)
        s7 = eigenvector_centrality(g7)
        for node in "abcd":
            assert abs(s1[node] - s7[node]) <= 1e-9

    def test_zero_edge_graph_scores_zero(self):
        g = graph_from_edges(["a", "b"], [])
        assert eigenvector_centrality(g) == {"a": 0.0, "b": 0.0}

    def test_isolated_node_is_exactly_zero(self):
        g = graph_from_edges(["a", "b", "c"], [("a", "b", 1)])
        assert eigenvector_centrality(g)["c"] == 0.0

    def test_non_dominant_component_zeroed(self):
        # triangle dominates a single edge
        g = graph_from_edges(
            "abcde",
            [("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("d", "e", 1)],
        )
        scores = eigenvector_centrality(g)
        assert scores["a"] == pytest.approx(1.0)
        assert scores["d"] == 0.0 and scores["e"] == 0.0

    def test_invalid_params(self):
        g = graph_from_edges(["a", "b"], [("a", "b", 1)])
        with pytest.raises(ValueError):
            eigenvector_centrality(g, tol=0)
        with pytest.raises(ValueError):
            eigenvector_centrality(g, max_iter=0)

    def test_unconverged_iteration_raises(self):
        # from the uniform start, (A + I) v on a path of three is [2, 3, 2]:
        # after rescaling, the ends moved by 1/3
        g = graph_from_edges(["a", "b", "c"], [("a", "b", 1), ("b", "c", 1)])
        with pytest.raises(ConvergenceError, match="after 1 iterations") as info:
            eigenvector_centrality(g, max_iter=1)
        assert info.value.iterations == 1
        assert info.value.residual == pytest.approx(1 / 3)


class TestSelectTopWords:
    def test_strict_threshold(self):
        scores = {"a": 1.0, "b": 0.6, "c": 0.5, "d": 0.0}
        assert select_top_words(scores, threshold=0.5, cap=80) == ("a", "b")

    def test_cap_applied_after_threshold(self):
        scores = {f"w{i:03d}": 0.6 + i * 1e-4 for i in range(200)}
        ws = select_top_words(scores, threshold=0.5, cap=80)
        assert len(ws) == 80
        assert ws[0] == "w199"

    def test_cap_monotonicity(self):
        scores = {f"w{i}": 0.6 + i * 0.001 for i in range(30)}
        small = select_top_words(scores, cap=10)
        large = select_top_words(scores, cap=20)
        assert large[:10] == small

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_raises(self, cap):
        scores = {f"w{i}": 0.6 + i * 0.001 for i in range(30)}
        with pytest.raises(ValueError, match="cap must be >= 1"):
            select_top_words(scores, cap=cap)

    def test_ties_broken_lexicographically(self):
        scores = {"b": 0.9, "a": 0.9, "c": 1.0}
        assert select_top_words(scores) == ("c", "a", "b")

    def test_empty_result_raises(self):
        with pytest.raises(ValueError, match="threshold"):
            select_top_words({"a": 0.2})


class TestWordNeighborhood:
    def test_triangle_returns_two_edges(self):
        g = graph_from_edges("abc", [("a", "b", 2), ("b", "c", 1), ("a", "c", 3)])
        scores = eigenvector_centrality(g)
        records = word_neighborhood(g, "a", scores)
        assert [(n, w) for n, w, _ in records] == [("c", 3), ("b", 2)]

    def test_isolated_core_empty(self):
        g = graph_from_edges("abc", [("a", "b", 1)])
        assert word_neighborhood(g, "c", eigenvector_centrality(g)) == []

    def test_missing_core_raises(self):
        g = graph_from_edges("ab", [("a", "b", 1)])
        with pytest.raises(ValueError, match="^node 'zzz' not in graph$"):
            word_neighborhood(g, "zzz", eigenvector_centrality(g))


class TestCooccurrenceDistribution:
    WS = vocab_word_set(["ugly", "hate", "cut"])

    def test_single_profile(self):
        corp = from_records([profile_with("a", "cut ugly ugly hate")], self.WS)
        d = dict(cooccurrence_distribution(corp, "cut", self.WS))
        assert d["ugly"] == 2.0 and d["hate"] == 1.0

    def test_average_over_matching_profiles(self):
        corp = from_records([
            profile_with("a", "cut ugly ugly"),
            profile_with("b", "cut plain"),
            profile_with("c", "ugly ugly ugly"),  # no core, excluded
        ], self.WS)
        # 2 ugly over the 2 profiles that hold "cut"
        assert dict(cooccurrence_distribution(corp, "cut", self.WS))["ugly"] == 1.0

    def test_union_is_weighted_mean(self):
        set_a = [profile_with("a", "cut ugly")]
        set_b = [
            profile_with("b", "cut hate hate"),
            profile_with("c", "cut"),
        ]
        va, vb, vu = (
            cooccurrence_distribution(from_records(records, self.WS), "cut", self.WS)
            for records in (set_a, set_b, [*set_a, *set_b]))
        # set_a has 1 profile holding "cut" and set_b 2
        for (w, mu), (_, ma), (_, mb) in zip(vu, va, vb):
            assert mu == pytest.approx((ma * 1 + mb * 2) / 3)

    def test_core_outside_the_tagged_vocabulary(self):
        """A core the corpus holds no counts of fails, naming the word: it
        never reads as a word no profile holds."""
        records = [profile_with("a", "cut ugly ugly"), profile_with("b", "hate")]
        with pytest.raises(ValueError, match=r"no counts of \['cut'\]$"):
            cooccurrence_distribution(from_records(records, {"ugly", "hate"}), "cut",
                                      vocab_word_set(["ugly", "hate"]))
        vec = cooccurrence_distribution(from_records(records, self.WS), "cut", self.WS)
        assert dict(vec)["ugly"] == 2.0  # 2 ugly over the 1 profile holding "cut"

    def test_no_matching_profile_raises(self):
        corp = from_records([profile_with("a", "nothing here")], self.WS)
        with pytest.raises(ValueError, match="no profile"):
            cooccurrence_distribution(corp, "cut", self.WS)
