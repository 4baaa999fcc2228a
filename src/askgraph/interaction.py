"""Like-based directed interaction graph and its metric battery.

Edges carry a weight vector (n_neg, n_nonneg): liker i -> profile owner j,
counting how many of j's top-k most-liked questions that i liked are
negative vs non-negative with respect to the selected negative word set.
Only fully-sampled users participate. The graph is a `Graph` over the
sorted node ids: edge i -> j is entry (i, j) of its adjacency, whose `data`
row is the edge's weights. Its entries run in (src, dst) index order, which
for sorted ids is their string-key order and the order they are written in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Collection, Optional, Sequence

import numpy as np

from .corpus import CSR, Corpus, Graph, row_blocks, run_starts, wedge_budget


# The metric battery's fixed parameters: the top-x% points of the in/out
# overlap curve, and the answered-question count that splits the
# likes/answers correlation.
OVERLAP_POINTS = (1, 2, 5, 10, 20, 50, 100)
LIKES_SPLIT = 50


@dataclass(frozen=True)
class EdgeCounts:
    """Per-node counts over one component of the graph: the negative
    weights, the non-negative weights, or their sum (merged). An edge
    belongs to a component when its weight there is positive. Each column
    is an array aligned with `NodeTable.nodes`."""

    in_deg: np.ndarray  # weighted
    out_deg: np.ndarray  # weighted
    out_edges: np.ndarray  # unweighted
    recip_out: np.ndarray  # out-edges whose reverse is in the component
    node_reciprocity: np.ndarray  # recip_out / out_edges, 0 without out-edges


@dataclass(frozen=True)
class NodeTable:
    """Every per-node graph fact the metric battery and the group rows read,
    as arrays aligned with the sorted node ids.

    Built once per graph by `node_table`; metrics and group means are
    reductions over it. A mean reduces `.tolist()` of a column with `sum`,
    so it adds Python floats left to right in sorted-id order."""

    nodes: tuple[str, ...]
    neg: EdgeCounts
    nonneg: EdgeCounts
    merged: EdgeCounts
    degree: np.ndarray  # undirected, binarized
    local_clustering: np.ndarray
    closed_triples: int  # triangles counted once per corner
    connected_triples: int

    @property
    def global_clustering(self) -> float:
        """Transitivity: 3 * triangles / connected triples."""
        return self.closed_triples / self.connected_triples if self.connected_triples else 0.0

    @property
    def mean_local_clustering(self) -> float:
        n = len(self.nodes)
        return sum(self.local_clustering.tolist()) / n if n else 0.0


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
    corpus: Corpus, neg_words: Collection[str], top_k: int = 15
) -> Graph:
    """Build the directed like graph over fully-sampled users.

    For each fully-sampled profile j, only the top_k most-liked questions
    contribute. Self-likes and likers without a fully-sampled profile in the
    corpus are skipped.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    sampled = corpus.sampled
    nodes = tuple(compress(corpus.owners, sampled))
    node = np.cumsum(sampled, dtype=np.int64) - 1  # each sampled owner's node index
    rows = np.arange(len(corpus.owner))
    # each sampled profile's first top_k rows, its most-liked questions
    top = sampled[corpus.owner] & (rows - corpus.first_row[corpus.owner] < top_k)
    # one entry per like: its question row, liker and owner; a liker without
    # a profile (a stranger) reads the False padded onto `sampled`
    row = np.repeat(rows, np.diff(corpus.liker_ptr))
    liker, owner = corpus.liker, corpus.owner[row]
    keep = top[row] & np.pad(sampled, (0, len(corpus.strangers)))[liker] & (liker != owner)
    nonneg = (corpus.word_counts(neg_words) == 0)[row[keep]]
    # int64 codes: n * n overflows int32 past 46,340 nodes
    codes, edge_of_like = np.unique(
        node[liker[keep]] * len(nodes) + node[owner[keep]], return_inverse=True
    )
    weights = np.bincount(2 * edge_of_like + nonneg, minlength=2 * len(codes)).reshape(-1, 2)
    return Graph(nodes, CSR.from_keys(codes, (len(nodes), len(nodes)), weights))


def node_table(graph: Graph) -> NodeTable:
    """One sort of the linked pairs and one triangle kernel give every
    per-node fact: undirected degree and local clustering with the global
    triple counts, then per component weighted in/out-degree, out-edge and
    reciprocated out-edge counts and per-node reciprocity."""
    nodes = graph.nodes
    n = len(nodes)
    adjacency = graph.adjacency
    dst, weights = adjacency.indices, adjacency.data
    # each edge's pair as lesser * n + greater, sorted, so a mutual pair's
    # key occurs twice; int64 keys: n * n overflows int32 past 46,340 nodes
    pairs = adjacency.entry_rows()
    greater = np.maximum(pairs, dst)
    np.minimum(pairs, dst, out=pairs)
    pairs *= n
    pairs += greater
    del greater
    pairs.sort()
    once = run_starts(pairs)
    mutual = pairs[~once]
    pairs = pairs[once]
    del once
    # binary undirected degree: a mutual pair is one undirected edge
    degree = np.bincount(pairs // n, minlength=n) + np.bincount(pairs % n, minlength=n)
    local, closed, connected = clustering(pairs, degree)
    del pairs
    # each mutual pair's edge from lesser to greater and back, by their codes
    src = adjacency.entry_rows()
    codes = src * n + dst
    edge = np.searchsorted(codes, mutual)
    back = np.searchsorted(codes, mutual % n * n + mutual // n)
    del codes, mutual

    def counts(present: np.ndarray, in_deg: np.ndarray, out_deg: np.ndarray) -> EdgeCounts:
        out_edges = np.bincount(src[present], minlength=n)
        both = present[edge] & present[back]  # the pairs mutual in the component
        recip_out = np.bincount(src[np.concatenate((edge[both], back[both]))], minlength=n)
        return EdgeCounts(
            in_deg=in_deg,
            out_deg=out_deg,
            out_edges=out_edges,
            recip_out=recip_out,
            node_reciprocity=np.divide(recip_out, out_edges, out=np.zeros(n), where=out_edges > 0),
        )

    def weighted(ends: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.bincount(ends, weights=w, minlength=n).astype(np.int64)

    neg, nonneg = (
        counts(w > 0, weighted(dst, w), weighted(src, w)) for w in (weights[:, 0], weights[:, 1])
    )
    # the weights are like counts, so an edge is in the merged component
    # when it is in either, and its merged degrees are their sums
    merged = counts(
        (weights[:, 0] > 0) | (weights[:, 1] > 0),
        neg.in_deg + nonneg.in_deg,
        neg.out_deg + nonneg.out_deg,
    )
    return NodeTable(
        nodes=nodes,
        neg=neg,
        nonneg=nonneg,
        merged=merged,
        degree=degree,
        local_clustering=local,
        closed_triples=closed,
        connected_triples=connected,
    )


def clustering(pairs: np.ndarray, degree: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Triangle counts over the undirected graph whose edges are the
    distinct int64 keys `pairs`, each lesser * n + greater for a pair of
    distinct nodes, with node degrees `degree`.

    Returns local clustering per node (0 when degree < 2), the closed-triple
    count (each triangle once per corner) and the connected-triple count.

    Nodes are ranked by (degree, index) and each edge is kept once, from its
    lower- to its higher-ranked end: the upper-triangular 0/1 matrix L in
    rank order. Every triangle a < b < c is then one wedge a -> b -> c of
    L (L[a, b] and L[b, c] set) closed by L[a, c], and that wedge names all
    three of its corners. Ranking by degree keeps the rows of L, and so the
    wedges, few. The wedges run in blocks of rows of L: a block marks its
    rows' entries (a, b) in a reused bool marker, at (a - lo) * n + b, reads
    the marker at (a - lo) * n + c for each of its wedges, and clears it. A
    block holds at most `wedge_budget(n)` wedges and a marker of 16 bytes a
    wedge. This is the row-blocked masked product of Wolf et al., "Fast
    Linear Algebra-Based Triangle Counting with KokkosKernels" (HPEC 2017),
    with the mask held dense per block.
    """
    n = len(degree)
    rank = np.empty(n, dtype=np.int32)
    rank[np.argsort(degree, kind="stable")] = np.arange(n, dtype=np.int32)
    upper = _upper(rank, pairs)
    wedges = wedge_budget(n)  # and a bool marker of 16 bytes a wedge
    blocks = list(row_blocks(upper.reach(upper), wedges, 16 * wedges // max(n, 1)))
    marker = np.zeros(max((hi - lo for lo, hi in blocks), default=0) * n, dtype=bool)
    links = np.zeros(n, dtype=np.int64)  # the triangles at each rank
    for lo, hi in blocks:
        cells, entries, per_entry = upper.wedges(upper, lo, hi)
        marker[entries] = True
        closed = np.flatnonzero(marker[cells])
        marker[entries] = False
        entry = entries[np.searchsorted(np.cumsum(per_entry), closed, side="right")]
        for corner in (entry // n + lo, entry % n, cells[closed] % n):
            np.add.at(links, corner, 1)
    links = links[rank]
    triples = degree.astype(np.int64) * (degree - 1)  # twice the connected triples at a node
    local = np.divide(2.0 * links, triples, out=np.zeros(n), where=triples > 0)
    return local, int(links.sum()), int(triples.sum()) // 2


def _upper(rank: np.ndarray, pairs: np.ndarray) -> CSR:
    """The upper-triangular 0/1 matrix over the ranks, with an entry at the
    ranks of each pair lesser * n + greater of `pairs`."""
    n = len(rank)
    a, b = rank[pairs // n], rank[pairs % n]
    # int64 keys: n * n overflows int32 past 46,340 nodes
    keys = np.minimum(a, b, dtype=np.int64)
    keys *= n
    keys += np.maximum(a, b, out=a)
    del a, b
    keys.sort()
    return CSR.from_keys(keys, (n, n), np.ones(len(keys), dtype=bool))


def _cumulative_counts(values: np.ndarray) -> tuple[list, list[int]]:
    """The distinct values ascending, each with the number of values at or
    below it."""
    distinct, counts = np.unique(values, return_counts=True)
    return distinct.tolist(), np.cumsum(counts).tolist()


def ccdf(values: np.ndarray) -> list[tuple[float, float]]:
    """Points (k, fraction of values >= k) for each distinct k ascending.

    The first point is always (min, 1.0) and the curve is monotone
    non-increasing.
    """
    if not len(values):
        raise ValueError("ccdf requires a non-empty value list")
    distinct, at_or_below = _cumulative_counts(values)
    n = at_or_below[-1]
    return [(k, (n - below) / n) for k, below in zip(distinct, [0, *at_or_below[:-1]])]


def _group_means(keys: np.ndarray, values: np.ndarray) -> tuple[list, list[float], list[int]]:
    """The distinct keys ascending, each with the mean of its values and
    their number. `bincount` adds each group's values in input order, as
    `sum` over them would."""
    distinct, group = np.unique(keys, return_inverse=True)
    sizes = np.bincount(group, minlength=len(distinct))
    sums = np.bincount(group, weights=values, minlength=len(distinct))
    return distinct.tolist(), (sums / sizes).tolist(), sizes.tolist()


def reciprocity(counts: EdgeCounts) -> float:
    """Fraction of a component's edges whose reverse is also in it."""
    n_edges = int(counts.out_edges.sum())
    if not n_edges:
        raise ValueError("reciprocity is undefined for a zero-edge graph")
    return int(counts.recip_out.sum()) / n_edges


def mean_reciprocity_by_outdegree(counts: EdgeCounts) -> list[tuple[int, int, float, int]]:
    """Bin nodes by unweighted out-degree into powers-of-2 bins [1,2),[2,4),...
    and average per-node reciprocity in each bin.

    Returns rows (bin_lo, bin_hi, mean_reciprocity, n_nodes); empty bins and
    out-degree-0 nodes are omitted.
    """
    has_out = counts.out_edges > 0
    # d = m·2^e with m in [0.5, 1), exactly, so e - 1 = floor(log2 d)
    bins = np.frexp(counts.out_edges[has_out])[1] - 1
    return [
        (1 << b, 1 << (b + 1), mean, size)
        for b, mean, size in zip(*_group_means(bins, counts.node_reciprocity[has_out]))
    ]


def top_overlaps(in_deg: np.ndarray, out_deg: np.ndarray, points: Sequence[float]) -> list[float]:
    """Percentage of common users among the top x% by in-degree and the top
    x% by out-degree, for each x in `points` (set size ceil(x% * N), ties by
    UserId ascending: the degrees are aligned with the sorted ids)."""
    if not all(0 < x <= 100 for x in points):
        raise ValueError("x must be in (0, 100]")
    n = len(in_deg)
    if not n:
        raise ValueError("empty node set")

    def rank(deg: np.ndarray) -> np.ndarray:
        # a stable sort of the sorted ids, descending by degree, breaks ties by id
        return np.argsort(np.argsort(-deg, kind="stable"))

    # a node is in both top-m sets exactly when m exceeds both its ranks
    in_both = np.sort(np.maximum(rank(in_deg), rank(out_deg)))
    sizes = [math.ceil(x / 100 * n) for x in points]
    return [100.0 * int(np.searchsorted(in_both, m)) / m for m in sizes]


def degree_ratio_cdf(
    out_deg: np.ndarray, in_deg: np.ndarray
) -> tuple[list[tuple[float, float]], float]:
    """CDF of out-degree/in-degree over nodes with positive in-degree, plus
    the fraction of those nodes with ratio inside the multiplicative band
    [0.8, 1.25]."""
    has_in = in_deg > 0
    if not has_in.any():
        raise ValueError("no node with positive in-degree")
    ratios = out_deg[has_in] / in_deg[has_in]
    n = len(ratios)
    distinct, at_or_below = _cumulative_counts(ratios)
    within = np.count_nonzero((0.8 <= ratios) & (ratios <= 1.25)) / n
    return [(r, count / n) for r, count in zip(distinct, at_or_below)], within


def mean_local_clustering_vs_degree(table: NodeTable) -> list[tuple[int, float]]:
    """Average local clustering over nodes grouped by degree, ascending."""
    degrees, means, _ = _group_means(table.degree, table.local_clustering)
    return list(zip(degrees, means))


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


def likes_answers_correlation(corpus: Corpus) -> tuple[Optional[float], Optional[float]]:
    """Pearson correlation of (answered questions, total likes) per fully
    sampled profile in owner order, computed separately below and
    at-or-above the question-count split.

    A side with fewer than 2 profiles or zero variance yields None.
    """
    answers = corpus.n_rows[corpus.sampled]
    likes = corpus.total_likes[corpus.sampled]
    below = answers < LIKES_SPLIT
    return (
        _pearson(answers[below].tolist(), likes[below].tolist()),
        _pearson(answers[~below].tolist(), likes[~below].tolist()),
    )


def compute_metrics(corpus: Corpus, table: NodeTable) -> MetricsReport:
    """Full metric battery: reductions over a graph's node table."""

    def safe_recip(counts: EdgeCounts) -> float:
        return reciprocity(counts) if counts.out_edges.any() else 0.0

    ccdf_curves: dict[str, list[tuple[float, float]]] = {}
    for name, counts in (("neg", table.neg), ("nonneg", table.nonneg)):
        for direction, deg in (("in", counts.in_deg), ("out", counts.out_deg)):
            positive = deg[deg > 0]
            if len(positive):
                ccdf_curves[f"{name}_{direction}"] = ccdf(positive)

    in_deg = table.merged.in_deg
    out_deg = table.merged.out_deg
    overlap_curve = (
        list(zip(OVERLAP_POINTS, top_overlaps(in_deg, out_deg, OVERLAP_POINTS)))
        if table.nodes
        else []
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
