"""Like-based directed interaction graph and its metric battery.

Edges carry a weight vector (n_neg, n_nonneg): liker i -> profile owner j,
counting how many of j's top-k most-liked questions that i liked are
negative vs non-negative with respect to the selected negative word set.
Only fully-sampled users participate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .corpus import Corpus, tag_corpus
from .wordgraph import WordSet


# The metric battery's fixed parameters: the top-x% points of the in/out
# overlap curve, and the answered-question count that splits the
# likes/answers correlation.
OVERLAP_POINTS = (1, 2, 5, 10, 20, 50, 100)
LIKES_SPLIT = 50


@dataclass(frozen=True)
class InteractionGraph:
    """The like graph: sorted node ids, and the edges keyed (src, dst) and
    stored in sorted key order, which is the order they are written in."""

    nodes: tuple[str, ...]
    edges: dict[tuple[str, str], tuple[int, int]]  # (src, dst) -> (n_neg, n_nonneg)
    top_k: int


@dataclass(frozen=True)
class EdgeCounts:
    """Per-node counts over one component of the graph: the negative
    weights, the non-negative weights, or their sum (merged). An edge
    belongs to a component when its weight there is positive."""

    in_deg: dict[str, int]  # weighted
    out_deg: dict[str, int]  # weighted
    out_edges: dict[str, int]  # unweighted
    recip_out: dict[str, int]  # out-edges whose reverse is in the component
    node_reciprocity: dict[str, float]  # recip_out / out_edges, 0 without out-edges


@dataclass(frozen=True)
class NodeTable:
    """Every per-node graph fact the metric battery and the group rows read.

    Built once per graph by `node_table`; metrics and group means are
    reductions over it."""

    nodes: tuple[str, ...]
    neg: EdgeCounts
    nonneg: EdgeCounts
    merged: EdgeCounts
    degree: dict[str, int]  # undirected, binarized
    local_clustering: dict[str, float]
    closed_triples: int  # triangles counted once per corner
    connected_triples: int

    @property
    def global_clustering(self) -> float:
        """Transitivity: 3 * triangles / connected triples."""
        return self.closed_triples / self.connected_triples if self.connected_triples else 0.0

    @property
    def mean_local_clustering(self) -> float:
        n = len(self.nodes)
        return sum(self.local_clustering.values()) / n if n else 0.0


@dataclass(frozen=True)
class MetricsReport:
    mean_reciprocity: float
    neg_reciprocity: float
    nonneg_reciprocity: float
    ccdf_curves: dict[str, list[tuple[float, float]]]
    overlap_curve: list[tuple[float, float]]  # (x percent, overlap percent)
    ratio_cdf: list[tuple[float, float]]
    within_20pct: float
    clustering_global: float
    clustering_mean_local: float
    clustering_vs_degree: list[tuple[int, float]]
    recip_vs_outdeg: dict[str, list[tuple[int, int, float, int]]]
    likes_answers_corr_below: Optional[float]
    likes_answers_corr_above: Optional[float]


def build_interaction_graph(
    corpus: Corpus, neg_words: WordSet, top_k: int = 15
) -> InteractionGraph:
    """Build the directed like graph over fully-sampled users.

    For each fully-sampled profile j, only the top_k most-liked questions
    contribute. Self-likes and likers without a fully-sampled profile in the
    corpus are skipped.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    nodes = tuple(sorted(p.owner for p in corpus if p.fully_sampled))
    node_set = set(nodes)
    hits = tag_corpus(corpus, neg_words.words).hits
    edges: dict[tuple[str, str], list[int]] = {}
    for j in nodes:
        for question, words in zip(corpus[j].questions[:top_k], hits[j]):
            slot = 0 if any(w in neg_words for w in words) else 1
            for i in question.likers:
                if i == j or i not in node_set:
                    continue
                weight = edges.setdefault((i, j), [0, 0])
                weight[slot] += 1
    return InteractionGraph(
        nodes=nodes,
        edges={k: (v[0], v[1]) for k, v in sorted(edges.items())},
        top_k=top_k,
    )


def node_table(graph: InteractionGraph) -> NodeTable:
    """One pass over the edges and one triangle scan give every per-node
    fact: per component weighted in/out-degree, out-edge and reciprocated
    out-edge counts and per-node reciprocity, then undirected degree and
    local clustering with the global triple counts."""
    nodes = graph.nodes
    edges = graph.edges
    # per component (neg, nonneg, merged): in_deg, out_deg, out_edges, recip_out
    columns = [[dict.fromkeys(nodes, 0) for _ in range(4)] for _ in range(3)]
    neighbors: dict[str, set[str]] = {u: set() for u in nodes}
    for (i, j), weights in edges.items():
        neighbors[i].add(j)
        neighbors[j].add(i)
        back = edges.get((j, i), (0, 0))
        for (in_deg, out_deg, out_edges, recip_out), w, w_back in zip(
            columns, (*weights, sum(weights)), (*back, sum(back))
        ):
            if w:
                in_deg[j] += w
                out_deg[i] += w
                out_edges[i] += 1
                recip_out[i] += w_back > 0
    neg, nonneg, merged = (
        EdgeCounts(
            in_deg=in_deg,
            out_deg=out_deg,
            out_edges=out_edges,
            recip_out=recip_out,
            node_reciprocity={
                u: (recip_out[u] / out_edges[u]) if out_edges[u] else 0.0 for u in nodes
            },
        )
        for in_deg, out_deg, out_edges, recip_out in columns
    )
    local, closed, connected = clustering(neighbors)
    return NodeTable(
        nodes=nodes,
        neg=neg,
        nonneg=nonneg,
        merged=merged,
        degree={u: len(neighbors[u]) for u in nodes},
        local_clustering=local,
        closed_triples=closed,
        connected_triples=connected,
    )


def clustering(neighbors: dict[str, set[str]]) -> tuple[dict[str, float], int, int]:
    """The triangle scan over an undirected neighbor map (no self-loops).

    Returns local clustering per node (0 when degree < 2), the closed-triple
    count (each triangle once per corner) and the connected-triple count.
    """
    per_node: dict[str, float] = {}
    closed_triples = 0
    total_triples = 0
    for u, nbrs in neighbors.items():
        k = len(nbrs)
        if k < 2:
            per_node[u] = 0.0
            continue
        # each link between two neighbors of u is seen from both of its ends
        links = sum(len(nbrs & neighbors[v]) for v in nbrs) // 2
        per_node[u] = 2.0 * links / (k * (k - 1))
        closed_triples += links
        total_triples += k * (k - 1) // 2
    return per_node, closed_triples, total_triples


def ccdf(values: list[float]) -> list[tuple[float, float]]:
    """Points (k, fraction of values >= k) for each distinct k ascending.

    The first point is always (min, 1.0) and the curve is monotone
    non-increasing.
    """
    if not values:
        raise ValueError("ccdf requires a non-empty value list")
    n = len(values)
    ordered = sorted(values)
    curve: list[tuple[float, float]] = []
    i = 0
    while i < n:
        k = ordered[i]
        curve.append((k, (n - i) / n))
        while i < n and ordered[i] == k:
            i += 1
    return curve


def reciprocity(counts: EdgeCounts) -> float:
    """Fraction of a component's edges whose reverse is also in it."""
    n_edges = sum(counts.out_edges.values())
    if not n_edges:
        raise ValueError("reciprocity is undefined for a zero-edge graph")
    return sum(counts.recip_out.values()) / n_edges


def mean_reciprocity_by_outdegree(counts: EdgeCounts) -> list[tuple[int, int, float, int]]:
    """Bin nodes by unweighted out-degree into powers-of-2 bins [1,2),[2,4),...
    and average per-node reciprocity in each bin.

    Returns rows (bin_lo, bin_hi, mean_reciprocity, n_nodes); empty bins and
    out-degree-0 nodes are omitted.
    """
    bins: dict[int, list[float]] = {}
    for u, d in counts.out_edges.items():
        if d < 1:
            continue
        bins.setdefault(d.bit_length() - 1, []).append(counts.node_reciprocity[u])
    return [
        (1 << b, 1 << (b + 1), sum(vals) / len(vals), len(vals))
        for b, vals in sorted(bins.items())
    ]


def top_overlap(in_deg: dict[str, int], out_deg: dict[str, int], x: float) -> float:
    """Percentage of common users among the top x% by in-degree and the top
    x% by out-degree (set size ceil(x% * N), ties by UserId ascending)."""
    if not (0 < x <= 100):
        raise ValueError("x must be in (0, 100]")
    nodes = sorted(in_deg)
    if not nodes:
        raise ValueError("empty node set")
    if set(out_deg) != set(in_deg):
        raise ValueError("in- and out-degree vectors cover different node sets")
    m = math.ceil(x / 100 * len(nodes))
    top_in = set(sorted(nodes, key=lambda u: (-in_deg[u], u))[:m])
    top_out = set(sorted(nodes, key=lambda u: (-out_deg[u], u))[:m])
    return 100.0 * len(top_in & top_out) / m


def degree_ratio_cdf(
    out_deg: dict[str, int], in_deg: dict[str, int]
) -> tuple[list[tuple[float, float]], float]:
    """CDF of out-degree/in-degree over nodes with positive in-degree, plus
    the fraction of those nodes with ratio inside the multiplicative band
    [0.8, 1.25]."""
    ratios = sorted(out_deg[u] / in_deg[u] for u in in_deg if in_deg[u] > 0)
    if not ratios:
        raise ValueError("no node with positive in-degree")
    n = len(ratios)
    curve: list[tuple[float, float]] = []
    i = 0
    while i < n:
        r = ratios[i]
        while i < n and ratios[i] == r:
            i += 1
        curve.append((r, i / n))
    within = sum(1 for r in ratios if 0.8 <= r <= 1.25) / n
    return curve, within


def mean_local_clustering_vs_degree(table: NodeTable) -> list[tuple[int, float]]:
    """Average local clustering over nodes grouped by degree, ascending."""
    groups: dict[int, list[float]] = {}
    for u in table.nodes:
        groups.setdefault(table.degree[u], []).append(table.local_clustering[u])
    return [(d, sum(vals) / len(vals)) for d, vals in sorted(groups.items())]


def _pearson(xs: list[float], ys: list[float]) -> Optional[float]:
    n = len(xs)
    if n < 2:
        return None
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


def likes_answers_correlation(
    corpus: Corpus, split: int = LIKES_SPLIT
) -> tuple[Optional[float], Optional[float]]:
    """Pearson correlation of (answered questions, total likes) per fully
    sampled profile, computed separately below and at-or-above the
    question-count split.

    A side with fewer than 2 profiles or zero variance yields None.
    """
    below_x: list[float] = []
    below_y: list[float] = []
    above_x: list[float] = []
    above_y: list[float] = []
    for profile in corpus:
        if not profile.fully_sampled:
            continue
        n_q = len(profile.questions)
        likes = profile.total_likes
        if n_q < split:
            below_x.append(n_q)
            below_y.append(likes)
        else:
            above_x.append(n_q)
            above_y.append(likes)
    return _pearson(below_x, below_y), _pearson(above_x, above_y)


def compute_metrics(corpus: Corpus, table: NodeTable) -> MetricsReport:
    """Full metric battery: reductions over a graph's node table."""

    def safe_recip(counts: EdgeCounts) -> float:
        return reciprocity(counts) if any(counts.out_edges.values()) else 0.0

    ccdf_curves: dict[str, list[tuple[float, float]]] = {}
    for name, counts in (("neg", table.neg), ("nonneg", table.nonneg)):
        for direction, deg in (("in", counts.in_deg), ("out", counts.out_deg)):
            positive = [v for v in deg.values() if v > 0]
            if positive:
                ccdf_curves[f"{name}_{direction}"] = ccdf(positive)

    in_deg = table.merged.in_deg
    out_deg = table.merged.out_deg
    overlap_curve = (
        [(x, top_overlap(in_deg, out_deg, x)) for x in OVERLAP_POINTS] if table.nodes else []
    )
    try:
        ratio_cdf, within = degree_ratio_cdf(out_deg, in_deg)
    except ValueError:
        ratio_cdf, within = [], 0.0

    corr_below, corr_above = likes_answers_correlation(corpus)
    return MetricsReport(
        mean_reciprocity=safe_recip(table.merged),
        neg_reciprocity=safe_recip(table.neg),
        nonneg_reciprocity=safe_recip(table.nonneg),
        ccdf_curves=ccdf_curves,
        overlap_curve=overlap_curve,
        ratio_cdf=ratio_cdf,
        within_20pct=within,
        clustering_global=table.global_clustering,
        clustering_mean_local=table.mean_local_clustering,
        clustering_vs_degree=mean_local_clustering_vs_degree(table),
        recip_vs_outdeg={
            "neg": mean_reciprocity_by_outdegree(table.neg),
            "nonneg": mean_reciprocity_by_outdegree(table.nonneg),
        },
        likes_answers_corr_below=corr_below,
        likes_answers_corr_above=corr_above,
    )
