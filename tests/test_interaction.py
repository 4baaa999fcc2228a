import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from askgraph.cli import main
from askgraph.corpus import load_corpus, tokenize
from askgraph.interaction import (
    build_interaction_graph,
    ccdf,
    compute_metrics,
    degree_ratio_cdf,
    likes_answers_correlation,
    mean_local_clustering_vs_degree,
    mean_reciprocity_by_outdegree,
    node_table,
    top_overlaps,
)
from helpers import (
    SimpleView,
    brute_force_reciprocity,
    checked_records,
    edge_map,
    edge_rows,
    from_records,
    graph_from_pairs,
    like_graph,
    neg_reciprocity,
    triple_enumeration_oracle,
    vocab_word_set,
)

NEG_WS = vocab_word_set(["ugly", "hate"])


def corpus_of(profiles):
    return from_records(profiles, NEG_WS)


def profile(owner, questions, fully_sampled=True):
    qs = [{"text": t, "likers": list(likers)} for t, likers in questions]
    return {"owner": owner, "fully_sampled": fully_sampled, "questions": qs}


def by_id(t, column):
    """A node-table column as {node id: value}."""
    return dict(zip(t.nodes, column.tolist()))


def digraph(edges, nodes=None):
    """A graph whose negative component carries the given scalar weights."""
    node_set = nodes or sorted({n for e in edges for n in e})
    return like_graph(
        nodes=tuple(node_set), edges={e: (w, 0) for e, w in edges.items()}
    )


class TestBuildInteractionGraph:
    def test_negative_like_single_edge(self):
        corp = corpus_of([
            profile("u1", []),
            profile("u2", [("you ugly", ["u1"])]),
        ])
        g = build_interaction_graph(corp, NEG_WS)
        assert edge_map(g) == {("u1", "u2"): (1, 0)}

    def test_mixed_likes_accumulate(self):
        corp = corpus_of([
            profile("u1", []),
            profile("u2", [
                ("ugly one", ["u1"]),
                ("hate you", ["u1"]),
                ("fine", ["u1"]),
                ("ok", ["u1"]),
                ("sure", ["u1"]),
            ]),
        ])
        g = build_interaction_graph(corp, NEG_WS)
        assert edge_map(g) == {("u1", "u2"): (2, 3)}

    def test_frontier_liker_ignored(self):
        corp = corpus_of([
            profile("u2", [("you ugly", ["ghost"])]),
        ])
        g = build_interaction_graph(corp, NEG_WS)
        assert edge_map(g) == {}

    def test_not_fully_sampled_liker_ignored(self):
        corp = corpus_of([
            profile("u1", [], fully_sampled=False),
            profile("u2", [("you ugly", ["u1"])]),
        ])
        assert edge_map(build_interaction_graph(corp, NEG_WS)) == {}
        assert "u1" not in build_interaction_graph(corp, NEG_WS).nodes

    def test_self_like_excluded(self):
        corp = corpus_of([profile("u1", [("ugly", ["u1"])])])
        assert edge_map(build_interaction_graph(corp, NEG_WS)) == {}

    def test_top_k_cut(self):
        # the single negative question has the fewest likes, so top_k=2 drops it
        corp = corpus_of([
            profile("u1", []),
            profile("u2", [
                ("fine a", ["u1", "x", "y"]),
                ("fine b", ["u1", "x"]),
                ("ugly", ["u1"]),
            ]),
            profile("x", []),
            profile("y", []),
        ])
        g = build_interaction_graph(corp, NEG_WS, top_k=2)
        assert edge_map(g)[("u1", "u2")] == (0, 2)

    def test_top_k_takes_the_most_liked_of_records_in_any_order(self):
        # stored with the one-like question first: the constructor sorts
        corp = corpus_of([
            {"owner": "a", "questions": [
                {"text": "fine", "likers": ["b"], "like_count": 1},
                {"text": "fine too", "likers": ["c", "b"], "like_count": 2},
            ]},
            {"owner": "b"},
            {"owner": "c"},
        ])
        g = build_interaction_graph(corp, NEG_WS, top_k=1)
        assert edge_map(g) == {("b", "a"): (0, 1), ("c", "a"): (0, 1)}

    @pytest.mark.parametrize("top_k", [0, -3])
    def test_top_k_below_one_raises(self, top_k):
        corp = corpus_of([profile("u1", []), profile("u2", [("ugly", ["u1"])])])
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            build_interaction_graph(corp, NEG_WS, top_k=top_k)

    def test_edge_codes_do_not_overflow_int32(self):
        # 46,400² exceeds 2³¹: the one like, between the two highest ids,
        # has the largest edge code
        ids = [f"u{i:05d}" for i in range(46_400)]
        profiles = [profile(u, []) for u in ids[:-2]]
        profiles += [profile(ids[-2], [("fine", [ids[-1]])]), profile(ids[-1], [])]
        g = build_interaction_graph(corpus_of(profiles), NEG_WS)
        assert edge_rows(g) == [(ids[-1], ids[-2], 0, 1)]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_reference_builder(self, data):
        # ids whose string order differs from their numeric order, and
        # likers that are owners, frontier stubs or absent from the corpus
        owners = data.draw(st.lists(st.sampled_from(USER_POOL), unique=True, max_size=7))
        likers = st.lists(st.sampled_from(USER_POOL + ("ghost",)), unique=True, max_size=5)
        questions = st.lists(st.tuples(st.sampled_from(TEXTS), likers), max_size=6)
        records = [
            profile(u, data.draw(questions), fully_sampled=data.draw(st.booleans()))
            for u in owners
        ]
        top_k = data.draw(st.integers(1, 4))
        g = build_interaction_graph(corpus_of(records), NEG_WS, top_k=top_k)
        nodes, edges = reference_build(checked_records(records), NEG_WS, top_k)
        assert g.nodes == nodes
        assert list(edge_map(g).items()) == list(edges.items())
        assert g.adjacency.data.shape == (len(edges), 2)


USER_POOL = ("u1", "u2", "u10", "u9", "a", "B")
TEXTS = ("ugly one", "I hate it", "fine", "ok then", "")


def reference_build(records, neg_words, top_k):
    """The like graph of checked profile records as plain dicts: sorted
    node ids, and the edge weights keyed (liker, owner) in sorted key
    order."""
    profiles = {p["owner"]: p for p in records}
    nodes = tuple(sorted(u for u, p in profiles.items() if p["fully_sampled"]))
    edges = {}
    for j in nodes:
        for question in profiles[j]["questions"][:top_k]:
            slot = 0 if any(w in neg_words for w in tokenize(question["text"])) else 1
            for i in question.get("likers", []):
                if i != j and i in nodes:
                    edges.setdefault((i, j), [0, 0])[slot] += 1
    return nodes, {e: tuple(w) for e, w in sorted(edges.items())}


class TestInteractionGraphFromEdges:
    def test_edges_read_back_in_index_order(self):
        g = like_graph(
            nodes=("b", "a", "c"), edges={("c", "a"): (1, 2), ("b", "c"): (0, 1)}
        )
        assert list(edge_map(g).items()) == [(("b", "c"), (0, 1)), (("c", "a"), (1, 2))]
        assert g.adjacency.indptr.tolist() == [0, 1, 1, 2]
        assert g.adjacency.indices.tolist() == [2, 1]

    def test_edges_view_is_read_only(self):
        g = digraph({("a", "b"): 1})
        with pytest.raises(TypeError):
            edge_map(g)[("b", "a")] = (1, 0)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loops"):
            digraph({("a", "a"): 1})

    def test_unknown_node_rejected(self):
        with pytest.raises(KeyError):
            digraph({("a", "z"): 1}, nodes=["a", "b"])


class TestSplitGraph:
    """The neg/nonneg split of each edge, as the node table counts it."""

    def test_componentwise(self):
        corp = corpus_of([
            profile("u1", []),
            profile("u2", [("ugly a", ["u1"]), ("ugly b", ["u1"]), ("ok", ["u1"])]),
            profile("u3", [("clean", ["u1"])]),
        ])
        t = node_table(build_interaction_graph(corp, NEG_WS))
        assert by_id(t, t.neg.out_edges) == {"u1": 1, "u2": 0, "u3": 0}
        assert by_id(t, t.neg.in_deg) == {"u1": 0, "u2": 2, "u3": 0}
        assert by_id(t, t.nonneg.out_edges) == {"u1": 2, "u2": 0, "u3": 0}
        assert by_id(t, t.nonneg.in_deg) == {"u1": 0, "u2": 1, "u3": 1}

    def test_merge_round_trip(self):
        # neg + nonneg degree sums equal the merged component's
        corp = corpus_of([
            profile("u1", []),
            profile("u2", [("ugly", ["u1"]), ("ok", ["u1"])]),
            profile("u3", [("hate", ["u2"])]),
        ])
        t = node_table(build_interaction_graph(corp, NEG_WS))
        for i in range(len(t.nodes)):
            assert t.neg.in_deg[i] + t.nonneg.in_deg[i] == t.merged.in_deg[i]
            assert t.neg.out_deg[i] + t.nonneg.out_deg[i] == t.merged.out_deg[i]

    def test_weight_sums_preserved(self):
        g_edges = {("a", "b"): (2, 3), ("b", "c"): (0, 4), ("c", "a"): (5, 0)}
        t = node_table(like_graph(nodes=("a", "b", "c"), edges=g_edges))
        total = sum(t.neg.out_deg.tolist()) + sum(t.nonneg.out_deg.tolist())
        assert total == sum(a + b for a, b in g_edges.values())


class TestDegrees:
    def test_star_weighted_in_degree(self):
        corp = corpus_of([
            profile("hub", [("ugly one", ["a", "b", "c"]), ("ugly two", ["a", "b", "c"])]),
            profile("a", []), profile("b", []), profile("c", []),
        ])
        t = node_table(build_interaction_graph(corp, NEG_WS))
        assert by_id(t, t.neg.in_deg)["hub"] == 6

    def test_empty_graph_all_zero(self):
        t = node_table(digraph({}, nodes=["a", "b"]))
        assert all(v == 0 for v in t.neg.out_deg.tolist())

    def test_flow_conservation(self):
        t = node_table(digraph({("a", "b"): 3, ("b", "c"): 2, ("c", "a"): 7}))
        assert sum(t.neg.in_deg.tolist()) == sum(t.neg.out_deg.tolist())


class TestCcdf:
    def test_hand_example(self):
        assert ccdf([1, 2, 2, 3]) == [(1, 1.0), (2, 0.75), (3, 0.25)]

    def test_all_equal(self):
        assert ccdf([5, 5, 5]) == [(5, 1.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ccdf([])

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=100))
    def test_monotone_and_starts_at_one(self, values):
        curve = ccdf(values)
        assert curve[0][1] == 1.0
        fracs = [f for _, f in curve]
        assert fracs == sorted(fracs, reverse=True)


class TestReciprocity:
    def test_two_cycle(self):
        assert neg_reciprocity(digraph({("a", "b"): 1, ("b", "a"): 1})) == 1.0

    def test_single_edge(self):
        assert neg_reciprocity(digraph({("a", "b"): 1})) == 0.0

    def test_two_thirds(self):
        g = digraph({("a", "b"): 1, ("b", "a"): 1, ("a", "c"): 1})
        assert neg_reciprocity(g) == pytest.approx(2 / 3)

    def test_zero_edges_rejected(self):
        with pytest.raises(ValueError):
            neg_reciprocity(digraph({}, nodes=["a"]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32))
    def test_matches_ordered_pair_brute_force(self, seed):
        import random
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(rng.randint(2, 20))]
        edges = {}
        for i in nodes:
            for j in nodes:
                if i != j and rng.random() < 0.2:
                    edges[(i, j)] = rng.randint(1, 5)
        if not edges:
            edges[(nodes[0], nodes[1])] = 1
        g = digraph(edges, nodes=nodes)
        assert neg_reciprocity(g) == brute_force_reciprocity(g)


class TestReciprocityByOutdegree:
    def test_two_cycle_single_bin(self):
        t = node_table(digraph({("a", "b"): 1, ("b", "a"): 1}))
        assert mean_reciprocity_by_outdegree(t.neg) == [(1, 2, 1.0, 2)]

    def test_hand_counts(self):
        t = node_table(digraph({("a", "b"): 1, ("a", "c"): 1, ("b", "a"): 1}))
        per = by_id(t, t.neg.node_reciprocity)
        assert per["a"] == 0.5 and per["b"] == 1.0

    def test_zero_outdegree_excluded(self):
        t = node_table(digraph({("a", "b"): 1}))
        rows = mean_reciprocity_by_outdegree(t.neg)
        assert sum(n for _, _, _, n in rows) == 1  # only node a binned


class TestTopOverlap:
    def test_identical_rankings(self):
        vals = np.array([float(i) for i in range(10)])
        for x in (1, 10, 50, 100):
            assert top_overlaps(vals, vals.copy(), (x,)) == [100.0]

    def test_anti_correlated(self):
        n = 100
        in_deg = np.array([float(i) for i in range(n)])
        out_deg = np.array([float(n - i) for i in range(n)])
        assert top_overlaps(in_deg, out_deg, (10,)) == [0.0]

    def test_full_sets_always_100(self):
        in_deg = np.array([1.0, 5.0, 0.0])  # a, b, c
        out_deg = np.array([9.0, 0.0, 2.0])
        assert top_overlaps(in_deg, out_deg, (100,)) == [100.0]

    def test_empty_rejected(self):
        empty = np.array([])
        with pytest.raises(ValueError):
            top_overlaps(empty, empty, (10,))


class TestDegreeRatioCdf:
    def test_all_balanced(self):
        deg = np.array([float(i + 1) for i in range(5)])
        curve, within = degree_ratio_cdf(deg, deg)
        assert within == 1.0
        assert curve == [(1.0, 1.0)]

    def test_ratio_outside_band(self):
        out_deg = np.array([4.0])
        in_deg = np.array([2.0])
        _, within = degree_ratio_cdf(out_deg, in_deg)
        assert within == 0.0

    def test_matches_sort_oracle(self):
        import random
        rng = random.Random(7)
        out_vals = np.array([float(rng.randint(0, 10)) for i in range(10)])
        in_vals = np.array([float(rng.randint(0, 10)) for i in range(10)])
        curve, _ = degree_ratio_cdf(out_vals, in_vals)
        ratios = sorted(
            o / i for o, i in zip(out_vals.tolist(), in_vals.tolist()) if i > 0
        )
        for r, frac in curve:
            assert frac == pytest.approx(sum(1 for x in ratios if x <= r) / len(ratios))

    def test_no_positive_in_degree_rejected(self):
        zero = np.array([0.0])
        out = np.array([1.0])
        with pytest.raises(ValueError):
            degree_ratio_cdf(out, zero)


class TestToSimple:
    """The binarized undirected view: a<->b is one undirected edge."""

    def test_single_direction(self):
        t = node_table(graph_from_pairs([("a", "b")]))
        assert by_id(t, t.degree) == {"a": 1, "b": 1}

    def test_bidirectional_merges(self):
        t = node_table(graph_from_pairs([("a", "b"), ("b", "a")]))
        assert by_id(t, t.degree) == {"a": 1, "b": 1}

    def test_edge_count_bound(self):
        g = graph_from_pairs([("a", "b"), ("b", "a"), ("a", "c"), ("c", "b")])
        assert sum(node_table(g).degree.tolist()) // 2 <= len(edge_map(g))


class TestClustering:
    def test_triangle(self):
        t = node_table(graph_from_pairs([("a", "b"), ("b", "c"), ("a", "c")]))
        assert t.global_clustering == 1.0
        assert t.mean_local_clustering == 1.0

    def test_k4_minus_edge(self):
        pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
        t = node_table(graph_from_pairs(pairs))
        assert t.mean_local_clustering == pytest.approx(5 / 6, abs=1e-12)

    def test_path_of_three(self):
        t = node_table(graph_from_pairs([("a", "b"), ("b", "c")]))
        assert t.global_clustering == 0.0
        assert t.mean_local_clustering == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32))
    def test_matches_triple_enumeration(self, seed):
        import random
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(rng.randint(3, 25))]
        pairs = [
            (a, b)
            for i, a in enumerate(nodes)
            for b in nodes[i + 1:]
            if rng.random() < 0.25
        ]
        g = graph_from_pairs(pairs, nodes=nodes)
        t = node_table(g)
        g_oracle, ml_oracle = triple_enumeration_oracle(SimpleView(g))
        assert t.global_clustering == pytest.approx(g_oracle, abs=1e-12)
        assert t.mean_local_clustering == pytest.approx(ml_oracle, abs=1e-12)


class TestClusteringVsDegree:
    def test_triangle_single_point(self):
        t = node_table(graph_from_pairs([("a", "b"), ("b", "c"), ("a", "c")]))
        assert mean_local_clustering_vs_degree(t) == [(2, 1.0)]

    def test_star(self):
        pairs = [("hub", f"l{i}") for i in range(4)]
        t = node_table(graph_from_pairs(pairs))
        assert mean_local_clustering_vs_degree(t) == [(1, 0.0), (4, 0.0)]


def reference_reductions(t):
    """The per-id loops the array reductions replaced, over dict views of
    the node table: the distinct-value CDF loops, the group-by-mean loops
    and the set intersections of the top-x% overlap."""
    in_deg, out_deg = by_id(t, t.merged.in_deg), by_id(t, t.merged.out_deg)
    degree, local = by_id(t, t.degree), by_id(t, t.local_clustering)
    out_edges, recip = by_id(t, t.neg.out_edges), by_id(t, t.neg.node_reciprocity)

    ordered = sorted(v for v in by_id(t, t.neg.in_deg).values() if v > 0)
    ccdf_curve, i = [], 0
    while i < len(ordered):
        ccdf_curve.append((ordered[i], (len(ordered) - i) / len(ordered)))
        i += ordered.count(ordered[i])

    ratios = sorted(out_deg[u] / in_deg[u] for u in in_deg if in_deg[u] > 0)
    ratio_curve = [(r, sum(x <= r for x in ratios) / len(ratios)) for r in sorted(set(ratios))]
    within = sum(1 for r in ratios if 0.8 <= r <= 1.25) / len(ratios)

    bins, groups = {}, {}
    for u in t.nodes:
        if out_edges[u]:
            bins.setdefault(out_edges[u].bit_length() - 1, []).append(recip[u])
        groups.setdefault(degree[u], []).append(local[u])
    by_outdeg = [(1 << b, 2 << b, sum(v) / len(v), len(v)) for b, v in sorted(bins.items())]
    by_degree = [(d, sum(v) / len(v)) for d, v in sorted(groups.items())]

    by_in = sorted(t.nodes, key=in_deg.__getitem__, reverse=True)
    by_out = sorted(t.nodes, key=out_deg.__getitem__, reverse=True)
    sizes = [math.ceil(x / 100 * len(t.nodes)) for x in (1, 2, 5, 10, 20, 50, 100)]
    overlaps = [100.0 * len(set(by_in[:m]) & set(by_out[:m])) / m for m in sizes]
    return ccdf_curve, (ratio_curve, within), by_outdeg, by_degree, overlaps


class TestReductionsMatchLoops:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32))
    def test_equal_to_the_bit(self, seed):
        """Equal, not close: each reduction adds the same floats in the
        same order as the loop it replaced."""
        import random
        rng = random.Random(seed)
        n = rng.randint(2, 90)
        nodes = [f"n{i:02d}" for i in range(n)]
        density = rng.uniform(0.02, 0.3)
        edges = {
            (a, b): (rng.randint(0, 2), rng.randint(1, 3))
            for a in nodes for b in nodes if a != b and rng.random() < density
        }
        edges.setdefault((nodes[0], nodes[1]), (1, 1))
        t = node_table(like_graph(nodes=tuple(nodes), edges=edges))
        positive = t.neg.in_deg[t.neg.in_deg > 0]
        assert reference_reductions(t) == (
            ccdf(positive) if len(positive) else [],
            degree_ratio_cdf(t.merged.out_deg, t.merged.in_deg),
            mean_reciprocity_by_outdegree(t.neg),
            mean_local_clustering_vs_degree(t),
            top_overlaps(t.merged.in_deg, t.merged.out_deg, (1, 2, 5, 10, 20, 50, 100)),
        )


class TestNodeTableAtScale:
    def test_past_46340_nodes(self):
        """46,400² exceeds 2³¹: a reciprocated pair and a triangle among the
        highest ids (and the highest degree ranks) are exact only if every
        edge and rank-pair key is formed in int64. So is the pair of the
        lowest and the highest id, whose pair key 0 * n + 46,399 fits in
        int32 but whose reverse code 46,399 * n does not."""
        nodes = tuple(f"n{i:05d}" for i in range(46_400))
        a, b, c, low = nodes[-1], nodes[-2], nodes[-3], nodes[0]
        edges = {(a, b): (1, 0), (b, a): (0, 2), (b, c): (1, 1), (c, a): (2, 0), (low, a): (0, 1),
                 (a, low): (1, 0)}
        t = node_table(like_graph(nodes, edges))
        assert by_id(t, t.degree) == {**dict.fromkeys(nodes, 0), a: 3, b: 2, c: 2, low: 1}
        # a <-> b and low <-> a are reciprocated only in the merged component
        assert {u: r for u, r in by_id(t, t.merged.recip_out).items() if r} == {
            a: 2, b: 1, low: 1
        }
        assert {u: r for u, r in by_id(t, t.merged.node_reciprocity).items() if r} == {
            a: 1.0, b: 0.5, low: 1.0
        }
        assert not t.neg.recip_out.any() and not t.nonneg.recip_out.any()
        assert {u: x for u, x in by_id(t, t.local_clustering).items() if x} == {
            a: 2 / 6, b: 1.0, c: 1.0
        }
        assert (t.closed_triples, t.connected_triples) == (3, 5)

    @pytest.fixture(scope="class")
    def transient(self, tmp_path_factory):
        """`node_table`'s traced peak above where it starts, over the like
        graph of synth n=2000 (seed 1, the scale recipe; 57,219 edges), in
        multiples of the bytes of the graph's own arrays. Those are the
        adjacency's int64 `indptr`, int32 `indices` and (E, 2) int64
        weights, about 20 bytes an edge."""
        tmp_path = tmp_path_factory.mktemp("scale")
        recipe = ["--seed", "1", "--n-users", "2000", "--questions", "11-18",
                  "--like-rate", "2.0", "--mix", "HN:.1,HP:.2,PN:.2,OTHR:.5"]
        assert main(["synth", *recipe, "--out", str(tmp_path)]) == 0
        corpus = tmp_path / "corpus.jsonl"
        assert main(["graph", "--corpus", str(corpus), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "interaction_edges.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        edges = {(i, j): (int(neg), int(nonneg)) for i, j, neg, nonneg in rows}
        g = like_graph(load_corpus(corpus, ()).owners, edges)
        assert len(g.adjacency.indices) == 57_219
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            node_table(g)
            transient = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        adjacency = g.adjacency
        return transient / (
            adjacency.indptr.nbytes + adjacency.indices.nbytes + adjacency.data.nbytes)

    def test_transient_memory_under_two_and_a_half_graphs(self, transient):
        assert transient <= 2.5

    def test_transient_memory_under_1_45_graphs(self, transient):
        """The linked pairs are sorted once, no per-edge source array lives
        through the triangle kernel, and the pairs are gone before the
        per-component counts: 1.36 graphs. A sort of every edge's code with
        its reverse's, and a source array held through the kernel, read
        1.54."""
        assert transient <= 1.45


class TestLikesAnswersCorrelation:
    def records(self, counts_likes):
        return [
            {"owner": f"u{i}",
             "questions": [{"text": f"q{j}", "like_count": likes_per_q} for j in range(n_q)]}
            for i, (n_q, likes_per_q) in enumerate(counts_likes)
        ]

    def make_corpus(self, counts_likes):
        return from_records(self.records(counts_likes))

    def test_perfectly_linear(self):
        corp = self.make_corpus([(2, 3), (5, 3), (10, 3), (60, 3), (70, 3), (80, 3)])
        below, above = likes_answers_correlation(corp)
        assert below == pytest.approx(1.0)
        assert above == pytest.approx(1.0)

    def test_constant_side_undefined(self):
        corp = self.make_corpus([(2, 0), (5, 0), (60, 1), (80, 2)])
        below, above = likes_answers_correlation(corp)
        assert below is None
        assert above is not None

    def test_too_few_profiles_undefined(self):
        corp = self.make_corpus([(2, 1)])
        below, above = likes_answers_correlation(corp)
        assert below is None and above is None

    def test_frontier_stubs_left_out(self):
        corp = self.make_corpus([(2, 3), (5, 3)])
        stub = {"owner": "s", "fully_sampled": False, "questions": []}
        with_stub = from_records([*self.records([(2, 3), (5, 3)]), stub])
        assert likes_answers_correlation(with_stub) == likes_answers_correlation(corp)


class TestComputeMetrics:
    def test_full_report_on_small_corpus(self):
        corp = corpus_of([
            profile("u1", [("ok a", ["u2", "u3"]), ("ugly", ["u2"])]),
            profile("u2", [("fine", ["u1"]), ("hate this", ["u1", "u3"])]),
            profile("u3", [("nice", ["u1"])]),
        ])
        g = build_interaction_graph(corp, NEG_WS)
        report = compute_metrics(corp, node_table(g))
        assert 0.0 <= report.mean_reciprocity <= 1.0
        for curve in report.ccdf_curves.values():
            assert curve[0][1] == 1.0
            fracs = [f for _, f in curve]
            assert fracs == sorted(fracs, reverse=True)
        assert report.overlap_curve[-1] == (100, 100.0)
        assert 0.0 <= report.within_20pct <= 1.0
