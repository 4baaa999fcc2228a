"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The per-criterion lines print outside pytest's capture, so any `pytest`
invocation shows them. Expected values come from independent oracles (triple
loops, dense power iteration, brute-force enumeration) in this module and
in `helpers`.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from askgraph.cli import main as cli_main
from askgraph.corpus import Graph
from askgraph.interaction import (
    ccdf,
    node_table,
    top_overlaps,
)
from askgraph.segmentation import GROUPS
from askgraph.synth import GenParams, generate_corpus, snowball_sample
from askgraph.wordgraph import (
    eigenvector_centrality,
    project_words,
)
from helpers import (
    SimpleView,
    brute_force_reciprocity,
    classify_counts,
    corpus_records,
    csr,
    crawl_order,
    frontier,
    graph_from_pairs,
    like_graph,
    neg_reciprocity,
    saved_crawl,
    tagged,
    to_scipy,
    triple_enumeration_oracle,
    vocab_word_set,
)

DATA = Path(__file__).parent / "data"
_SUITE_START = time.monotonic()


@contextmanager
def criterion(number: int, title: str, capfd):
    """Print the pass/fail line outside pytest's capture so it always shows."""
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    with capfd.disabled():
        print(f"ACCEPTANCE {number} ({title}): PASS")


# --- criterion 1: projection oracle ---------------------------------------

def triple_loop_projection(dense):
    rows, cols = len(dense), len(dense[0])
    out = [[0] * rows for _ in range(rows)]
    for i in range(rows):
        for j in range(rows):
            if i == j:
                continue
            acc = 0
            for k in range(cols):
                acc += dense[i][k] * dense[j][k]
            out[i][j] = acc
    return out


def test_criterion_1_projection_oracle(capfd):
    with criterion(1, "projection oracle", capfd):
        rng = random.Random(101)
        start = time.monotonic()
        for _ in range(100):
            n_words = rng.randint(2, 50)
            n_users = rng.randint(2, 80)
            dense = [
                [1 if rng.random() < 0.25 else 0 for _ in range(n_users)]
                for _ in range(n_words)
            ]
            bip = Graph(
                nodes=tuple(f"w{i}" for i in range(n_words)),
                adjacency=csr(np.array(dense, dtype=np.int64)),
            )
            produced = to_scipy(project_words(bip).adjacency).toarray()
            expected = np.array(triple_loop_projection(dense), dtype=np.int64)
            assert (produced == expected).all()
        assert time.monotonic() - start < 5.0


# --- criterion 2: centrality oracle ---------------------------------------

def dense_power_iteration_oracle(adjacency, tol=1e-12, max_iter=100000):
    """Independent dense oracle: same shift-by-identity iteration scheme,
    plain numpy arrays, no sparsity or component decomposition."""
    a = np.asarray(adjacency, dtype=float) + np.eye(len(adjacency))
    v = np.ones(len(a))
    for _ in range(max_iter):
        w = a @ v
        w /= w.max()
        if np.max(np.abs(w - v)) < tol:
            return w
        v = w
    raise AssertionError("oracle did not converge")


def random_connected_graph(rng, max_nodes=100):
    n = rng.randint(3, max_nodes)
    dense = np.zeros((n, n), dtype=np.int64)
    order = list(range(n))
    rng.shuffle(order)
    for idx in range(1, n):  # random spanning tree guarantees connectivity
        a, b = order[idx], order[rng.randrange(idx)]
        dense[a, b] = dense[b, a] = rng.randint(1, 5)
    for _ in range(n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            dense[a, b] = dense[b, a] = rng.randint(1, 5)
    return dense


def graph_from_dense(dense):
    return Graph(
        nodes=tuple(f"n{i}" for i in range(len(dense))),
        adjacency=csr(dense),
    )


def test_criterion_2_centrality_oracle(capfd):
    with criterion(2, "centrality oracle", capfd):
        rng = random.Random(202)
        for _ in range(50):
            dense = random_connected_graph(rng)
            graph = graph_from_dense(dense)
            scores = eigenvector_centrality(graph, tol=1e-12)
            expected = dense_power_iteration_oracle(dense)
            produced = np.array([scores[n] for n in graph.nodes])
            assert np.max(np.abs(produced - expected)) <= 1e-6

        p3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        scores = eigenvector_centrality(graph_from_dense(p3), tol=1e-12)
        assert scores["n0"] == pytest.approx(0.70711, abs=1e-5)
        assert scores["n1"] == pytest.approx(1.0, abs=1e-5)
        assert scores["n2"] == pytest.approx(0.70711, abs=1e-5)

        dense = random_connected_graph(rng, max_nodes=40)
        s1 = eigenvector_centrality(graph_from_dense(dense))
        s7 = eigenvector_centrality(graph_from_dense(dense * 7))
        diff = max(abs(s1[n] - s7[n]) for n in s1)
        assert diff <= 1e-9


# --- criterion 3: reciprocity oracle --------------------------------------

def neg_graph(nodes, edges):
    """A graph whose negative component carries the given scalar weights."""
    return like_graph(nodes=nodes, edges={e: (w, 0) for e, w in edges.items()})


def test_criterion_3_reciprocity_oracle(capfd):
    with criterion(3, "reciprocity oracle", capfd):
        rng = random.Random(303)
        for _ in range(100):
            n = rng.randint(2, 50)
            nodes = tuple(f"n{i}" for i in range(n))
            edges = {
                (a, b): rng.randint(1, 4)
                for a in nodes
                for b in nodes
                if a != b and rng.random() < 0.15
            }
            if not edges:
                edges[(nodes[0], nodes[1])] = 1
            g = neg_graph(nodes, edges)
            assert neg_reciprocity(g) == brute_force_reciprocity(g)

        two_cycle = neg_graph(("a", "b"), {("a", "b"): 1, ("b", "a"): 1})
        assert neg_reciprocity(two_cycle) == 1.0
        single = neg_graph(("a", "b"), {("a", "b"): 1})
        assert neg_reciprocity(single) == 0.0
        mixed = neg_graph(
            ("a", "b", "c"), {("a", "b"): 1, ("b", "a"): 1, ("a", "c"): 1}
        )
        assert neg_reciprocity(mixed) == pytest.approx(2 / 3)


# --- criterion 4: clustering oracle ---------------------------------------

def test_criterion_4_clustering_oracle(capfd):
    with criterion(4, "clustering oracle", capfd):
        tri = node_table(graph_from_pairs([("a", "b"), ("b", "c"), ("a", "c")], "abc"))
        assert tri.global_clustering == 1.0 and tri.mean_local_clustering == 1.0

        k4_minus = graph_from_pairs(
            [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")], "abcd"
        )
        assert node_table(k4_minus).mean_local_clustering == pytest.approx(5 / 6, abs=1e-12)

        rng = random.Random(404)
        for _ in range(50):
            n = rng.randint(3, 100)
            nodes = [f"n{i}" for i in range(n)]
            pairs = [
                (nodes[i], nodes[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 3.0 / n
            ]
            g = graph_from_pairs(pairs, nodes)
            t = node_table(g)
            global_oracle, mean_local_oracle = triple_enumeration_oracle(SimpleView(g))
            assert t.global_clustering == pytest.approx(global_oracle, abs=1e-12)
            assert t.mean_local_clustering == pytest.approx(mean_local_oracle, abs=1e-12)


# --- criterion 5: segmentation decision table -----------------------------

def test_criterion_5_segmentation_decision_table(capfd):
    with criterion(5, "segmentation decision table", capfd):
        cases = [
            (3, 0, "HN"), (3, 5, "PN"), (0, 11, "HP"), (1, 2, "OTHR"),
            (3, 11, "PN"), (3, 3, "OTHR"), (2, 0, "OTHR"), (5, 0, "HN"),
        ]
        neg, pos, expected = zip(*cases)
        assert classify_counts(neg, pos) == list(expected)

        pairs = [(neg, pos) for neg in range(13) for pos in range(13)]
        labels = classify_counts(*zip(*pairs))
        for (neg, pos), label in zip(pairs, labels):
            assert label in GROUPS
            matches = []
            if neg >= 3 and pos == 0:
                matches.append("HN")
            if neg >= 3 and pos > 4:
                matches.append("PN")
            if pos > 10:
                matches.append("HP")
            expected = matches[0] if matches else "OTHR"
            assert label == expected, (neg, pos)


# --- criterion 6: planted-structure recovery ------------------------------

def test_criterion_6_planted_structure_recovery(capfd):
    with criterion(6, "planted-structure recovery", capfd):
        start = time.monotonic()
        params = GenParams(
            n_users=1000,
            group_mix={"HN": 0.1, "HP": 0.2, "PN": 0.2, "OTHR": 0.5},
            questions_per_user=(11, 18),
            like_rate=1.5,
            neg_vocab=("ugly", "hate", "stupid", "fat", "loser"),
            pos_vocab=("nice", "sweet", "lovely", "cool", "great"),
            rng_seed=600,
        )
        corp, planted = generate_corpus(params)
        neg_ws = vocab_word_set(params.neg_vocab)
        pos_ws = vocab_word_set(params.pos_vocab)
        from askgraph.corpus import content_table
        from askgraph.segmentation import classify_corpus

        predicted = classify_corpus(content_table(tagged(corp, neg_ws + pos_ws), neg_ws, pos_ws))
        assert predicted.tolist() == planted.tolist()  # zero label errors
        counts = dict(zip(GROUPS, np.bincount(planted, minlength=len(GROUPS)).tolist()))
        assert counts == {"HN": 100, "HP": 200, "PN": 200, "OTHR": 500}
        assert time.monotonic() - start < 10.0


# --- criterion 7: snowball properties -------------------------------------

def profiles(corpus):
    return {record["owner"]: record for record in corpus_records(corpus)}


def ground_truth_out_edges(profiles, liker):
    return {
        p["owner"]
        for p in profiles.values()
        for q in p["questions"]
        if liker in q["likers"]
    }


def test_criterion_7_snowball_properties(capfd, tmp_path):
    with criterion(7, "snowball properties", capfd):
        rng = random.Random(707)
        for trial in range(20):
            n = rng.randint(20, 300)
            params = GenParams(
                n_users=n,
                group_mix={"OTHR": 1.0},
                questions_per_user=(2, 6),
                like_rate=1.0,
                neg_vocab=("ugly",),
                pos_vocab=("nice",),
                rng_seed=7000 + trial,
            )
            gt, _ = generate_corpus(params)
            candidates = [u for u, likes in zip(gt.owners, gt.total_likes) if likes > 0]
            seeds = rng.sample(candidates, min(2, len(candidates)))
            budget = rng.choice([3, n // 2, n])
            sampled = snowball_sample(gt, seeds, budget)
            gt_profiles = profiles(gt)
            sample_profiles = {record["owner"]: record for record in
                               saved_crawl(gt, sampled, tmp_path / f"sample_{trial}.jsonl")}

            for node in crawl_order(gt, sampled):
                assert [q["likers"] for q in sample_profiles[node]["questions"]] == [
                    q["likers"] for q in gt_profiles[node]["questions"]
                ]
                crawled = set(crawl_order(gt, sampled))
                sample_out = {
                    p["owner"]
                    for p in sample_profiles.values()
                    if p["fully_sampled"]
                    for q in p["questions"]
                    if node in q["likers"]
                }
                assert sample_out <= ground_truth_out_edges(gt_profiles, node)

            if budget >= n:
                assert frontier(gt, sampled) == frozenset()


# --- criterion 8: metric shape properties ---------------------------------

def test_criterion_8_metric_shapes(capfd):
    with criterion(8, "metric shape properties", capfd):
        rng = random.Random(808)
        for trial in range(10):
            params = GenParams(
                n_users=rng.randint(20, 80),
                group_mix={"HN": 0.2, "HP": 0.2, "PN": 0.2, "OTHR": 0.4},
                questions_per_user=(11, 16),
                like_rate=2.0,
                neg_vocab=("ugly", "hate"),
                pos_vocab=("nice", "sweet"),
                rng_seed=8000 + trial,
            )
            corp, _ = generate_corpus(params)
            from askgraph.interaction import build_interaction_graph

            neg_ws = vocab_word_set(("ugly", "hate"))
            graph = build_interaction_graph(tagged(corp, neg_ws), neg_ws)
            t = node_table(graph)

            for i in range(len(graph.nodes)):  # neg + nonneg degree sums equal merged
                assert t.neg.in_deg[i] + t.nonneg.in_deg[i] == t.merged.in_deg[i]
                assert t.neg.out_deg[i] + t.nonneg.out_deg[i] == t.merged.out_deg[i]

            for counts in (t.neg, t.nonneg):
                in_sum = sum(counts.in_deg.tolist())
                out_sum = sum(counts.out_deg.tolist())
                assert in_sum == out_sum
                values = [v for v in counts.in_deg.tolist() if v > 0]
                if values:
                    curve = ccdf(values)
                    assert curve[0][1] == 1.0
                    fracs = [f for _, f in curve]
                    assert fracs == sorted(fracs, reverse=True)

            assert top_overlaps(t.merged.in_deg, t.merged.out_deg, (100,)) == [100.0]


# --- criterion 9: end-to-end determinism ----------------------------------

def test_criterion_9_end_to_end_determinism(tmp_path, capfd):
    with criterion(9, "end-to-end determinism", capfd):
        golden = DATA / "golden"
        outs = [tmp_path / "run1", tmp_path / "run2"]
        for out in outs:
            rc = cli_main([
                "pipeline",
                "--corpus", str(DATA / "demo_corpus.jsonl"),
                "--labels", str(DATA / "demo_labels_cutting.txt"),
                "--out", str(out),
            ])
            assert rc == 0
        names = sorted(p.name for p in golden.iterdir())
        for out in outs:
            assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            run1 = (outs[0] / name).read_bytes()
            run2 = (outs[1] / name).read_bytes()
            assert run1 == run2, f"{name} differs between runs"
            assert run1 == (golden / name).read_bytes(), f"{name} differs from golden"
        assert time.monotonic() - _SUITE_START < 60.0, "acceptance suite exceeded 60 s"
