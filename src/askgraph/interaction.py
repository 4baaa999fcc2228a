"""Like-based directed interaction graph and its metric battery.

Edges carry a weight vector (n_neg, n_nonneg): liker i -> profile owner j,
counting how many of j's top-k most-liked questions that i liked are
negative vs non-negative with respect to the selected negative word set.
Only fully-sampled users participate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus, tag_corpus
from .wordgraph import WordSet


# The metric battery's fixed parameters: the top-x% points of the in/out
# overlap curve, and the answered-question count that splits the
# likes/answers correlation.
OVERLAP_POINTS = (1, 2, 5, 10, 20, 50, 100)
LIKES_SPLIT = 50


class InteractionGraph:
    """The like graph over sorted node ids, as int edge arrays.

    Edge e runs from `nodes[src[e]]` to `nodes[dst[e]]` and carries
    `weights[e] = (n_neg, n_nonneg)`. Edges are stored sorted by
    (src, dst) index, which for sorted ids is their string-key order and the
    order they are written in.

    `InteractionGraph(nodes, {(src_id, dst_id): (n_neg, n_nonneg)}, top_k)`
    builds one from an edge mapping; `edges` reads it back as one."""

    def __init__(
        self,
        nodes: Sequence[str],
        edges: Mapping[tuple[str, str], tuple[int, int]],
        top_k: int,
    ):
        index = {u: k for k, u in enumerate(nodes)}
        pairs = np.array([(index[i], index[j]) for i, j in edges], dtype=np.int64).reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise ValueError("the like graph has no self-loops")
        codes = pairs[:, 0] * len(index) + pairs[:, 1]
        weights = np.array(list(edges.values()), dtype=np.int64).reshape(-1, 2)
        order = np.argsort(codes)  # the codes are distinct
        self._set(tuple(nodes), codes[order], weights[order], top_k)

    @classmethod
    def _from_codes(cls, nodes, codes, weights, top_k) -> "InteractionGraph":
        graph = cls.__new__(cls)
        graph._set(nodes, codes, weights, top_k)
        return graph

    def _set(self, nodes, codes, weights, top_k) -> None:
        self.nodes: tuple[str, ...] = nodes
        self.src, self.dst = np.divmod(codes, max(len(nodes), 1))
        self.weights: np.ndarray = weights  # (E, 2): n_neg, n_nonneg
        self.top_k = top_k

    def edge_rows(self) -> Iterator[tuple[str, str, int, int]]:
        """(src_id, dst_id, n_neg, n_nonneg) per edge, in stored order."""
        names = self.nodes
        return zip(
            [names[i] for i in self.src.tolist()],
            [names[j] for j in self.dst.tolist()],
            *self.weights.T.tolist(),
        )

    @cached_property
    def edges(self) -> Mapping[tuple[str, str], tuple[int, int]]:
        """Read-only `{(src_id, dst_id): (n_neg, n_nonneg)}` in stored order."""
        return MappingProxyType({(i, j): (neg, nonneg) for i, j, neg, nonneg in self.edge_rows()})


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
    corpus: Corpus, neg_words: WordSet, top_k: int = 15
) -> InteractionGraph:
    """Build the directed like graph over fully-sampled users.

    For each fully-sampled profile j, only the top_k most-liked questions
    contribute. Self-likes and likers without a fully-sampled profile in the
    corpus are skipped.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    tagged = tag_corpus(corpus, neg_words.words)
    sampled = np.array([corpus[u].fully_sampled for u in tagged.owners], dtype=bool)
    nodes = tuple(compress(tagged.owners, sampled))
    index = {u: k for k, u in enumerate(nodes)}
    top = [corpus[u].questions[:top_k] for u in nodes]
    # the tagged rows of the same questions: each profile's first top_k
    first_row = np.searchsorted(tagged.owner, tagged.owner)
    top_rows = sampled[tagged.owner] & (np.arange(len(tagged.owner)) - first_row < top_k)
    questions = list(chain.from_iterable(top))
    n_likers = np.array([len(q.likers) for q in questions], dtype=np.int64)
    # one entry per like: liker index (-1 without a fully sampled profile),
    # owner index and whether the question is non-negative
    likers = np.fromiter(
        map(index.get, chain.from_iterable(q.likers for q in questions), repeat(-1)),
        dtype=np.int64,
        count=int(n_likers.sum()),
    )
    n_questions = np.array([len(qs) for qs in top], dtype=np.int64)
    owners = np.repeat(np.repeat(np.arange(len(nodes)), n_questions), n_likers)
    nonneg = np.repeat(tagged.word_counts(neg_words)[top_rows] == 0, n_likers)
    keep = (likers >= 0) & (likers != owners)
    codes, edge_of_like = np.unique(likers[keep] * len(nodes) + owners[keep], return_inverse=True)
    weights = np.bincount(2 * edge_of_like + nonneg[keep], minlength=2 * len(codes)).reshape(-1, 2)
    return InteractionGraph._from_codes(nodes, codes, weights, top_k)


def node_table(graph: InteractionGraph) -> NodeTable:
    """Counts over the edge arrays and one triangle kernel give every
    per-node fact: per component weighted in/out-degree, out-edge and
    reciprocated out-edge counts and per-node reciprocity, then undirected
    degree and local clustering with the global triple counts."""
    nodes = graph.nodes
    n = len(nodes)
    src, dst, weights = graph.src, graph.dst, graph.weights
    # the reverse of each edge, found among the sorted edge codes (a miss
    # past the last code is clamped, then fails the equality test)
    codes = src * n + dst
    reverse = dst * n + src
    back = np.searchsorted(codes, reverse)
    back[back == len(codes)] = 0
    back_weights = np.where((codes[back] == reverse)[:, None], weights[back], 0)

    def counts(w: np.ndarray, w_back: np.ndarray) -> EdgeCounts:
        present = w > 0
        out_edges = np.bincount(src[present], minlength=n)
        recip_out = np.bincount(src[present & (w_back > 0)], minlength=n)
        return EdgeCounts(
            in_deg=np.bincount(dst, weights=w, minlength=n).astype(np.int64),
            out_deg=np.bincount(src, weights=w, minlength=n).astype(np.int64),
            out_edges=out_edges,
            recip_out=recip_out,
            node_reciprocity=np.divide(recip_out, out_edges, out=np.zeros(n), where=out_edges > 0),
        )

    neg, nonneg, merged = (
        counts(w, w_back)
        for w, w_back in zip(
            (*weights.T, weights.sum(axis=1)), (*back_weights.T, back_weights.sum(axis=1))
        )
    )
    # binary undirected adjacency: a reciprocated pair is one undirected edge
    adjacency = sp.csr_matrix(
        (np.ones(2 * len(src), dtype=np.int64), (np.r_[src, dst], np.r_[dst, src])),
        shape=(n, n),
    )
    adjacency.data[:] = 1
    local, closed, connected = clustering(adjacency)
    return NodeTable(
        nodes=nodes,
        neg=neg,
        nonneg=nonneg,
        merged=merged,
        degree=np.diff(adjacency.indptr),
        local_clustering=local,
        closed_triples=closed,
        connected_triples=connected,
    )


# Rows per block of the triangle kernel's sparse products, which bounds the
# memory their intermediate wedge counts take.
_BLOCK_ROWS = 64


def _row_sums(m: sp.spmatrix) -> np.ndarray:
    return np.asarray(m.sum(axis=1)).ravel()


def clustering(adjacency: sp.csr_matrix) -> tuple[np.ndarray, int, int]:
    """Triangle counts over a binary undirected CSR adjacency (symmetric,
    canonical, no self-loops).

    Returns local clustering per node (0 when degree < 2), the closed-triple
    count (each triangle once per corner) and the connected-triple count.

    Nodes are ranked by (degree, index) and each edge is kept once, from its
    lower- to its higher-ranked end: `L = triu(S, 1)` in rank order. Every
    triangle a < b < c is then one entry of `M = (L @ L) ∘ L` at (a, c) and
    one of `(Lᵀ @ L) ∘ L` at (b, c), so a node's link count (the triangles
    through it) is `rowsum(M) + colsum(M) + rowsum((Lᵀ @ L) ∘ L)`. Ranking by
    degree keeps the rows of L, and so the wedges the products enumerate,
    short.
    """
    n = adjacency.shape[0]
    degree = np.diff(adjacency.indptr)
    order = np.argsort(degree, kind="stable")
    upper = sp.triu(adjacency[order][:, order], 1, format="csr")
    upper_t = upper.T.tocsr()
    links = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        rows = upper[block]
        closing = (rows @ upper).multiply(rows)  # lowest corner in the block
        links[block] += _row_sums(closing)
        links += np.asarray(closing.sum(axis=0)).ravel()
        links[block] += _row_sums((upper_t[block] @ upper).multiply(rows))  # middle corner
    links[order] = links.copy()
    pairs = degree.astype(np.int64) * (degree - 1)
    local = np.divide(2.0 * links, pairs, out=np.zeros(n), where=pairs > 0)
    return local, int(links.sum()), int(pairs.sum()) // 2


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


def likes_answers_correlation(
    corpus: Corpus, split: int = LIKES_SPLIT
) -> tuple[Optional[float], Optional[float]]:
    """Pearson correlation of (answered questions, total likes) per fully
    sampled profile in owner order, computed separately below and
    at-or-above the question-count split.

    A side with fewer than 2 profiles or zero variance yields None.
    """
    below_x: list[float] = []
    below_y: list[float] = []
    above_x: list[float] = []
    above_y: list[float] = []
    for owner in sorted(corpus.profiles):
        profile = corpus[owner]
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
