"""Test-only constructors, views and oracles of askgraph's types: a like
graph built from and read back as an edge mapping, a plain vocabulary as a
word set, a group row by name, a crawl's crawl order and frontier, and the
brute-force reciprocity and clustering oracles of the node table."""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from askgraph.corpus import Corpus
from askgraph.interaction import InteractionGraph, node_table, reciprocity
from askgraph.segmentation import GroupRow


def like_graph(
    nodes: Sequence[str], edges: Mapping[tuple[str, str], tuple[int, int]]
) -> InteractionGraph:
    """The like graph over `nodes` with `{(src_id, dst_id): (n_neg, n_nonneg)}`."""
    index = {u: k for k, u in enumerate(nodes)}
    pairs = np.array([(index[i], index[j]) for i, j in edges], dtype=np.int64).reshape(-1, 2)
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise ValueError("the like graph has no self-loops")
    codes = pairs[:, 0] * len(index) + pairs[:, 1]
    weights = np.array(list(edges.values()), dtype=np.int64).reshape(-1, 2)
    order = np.argsort(codes)  # the codes are distinct
    return InteractionGraph(tuple(nodes), codes[order], weights[order])


def edge_map(graph: InteractionGraph) -> Mapping[tuple[str, str], tuple[int, int]]:
    """Read-only `{(src_id, dst_id): (n_neg, n_nonneg)}` in stored order."""
    return MappingProxyType({(i, j): (neg, nonneg) for i, j, neg, nonneg in graph.edge_rows()})


def graph_from_pairs(pairs, nodes=None) -> InteractionGraph:
    """One negative edge per pair, in the given direction; the nodes are
    those of the pairs, sorted, unless given."""
    node_set = nodes or sorted({n for p in pairs for n in p})
    return like_graph(nodes=tuple(node_set), edges={p: (1, 0) for p in pairs})


def vocab_word_set(words: tuple[str, ...] | list[str]) -> tuple[str, ...]:
    """A plain vocabulary as a word set: its words sorted, as equal scores
    order them."""
    return tuple(sorted(set(words)))


def group_row(rows: Sequence[GroupRow], name: str) -> GroupRow:
    for row in rows:
        if row.name == name:
            return row
    raise KeyError(name)


def crawl_order(sample: Corpus) -> tuple[str, ...]:
    """A crawl's crawled profiles, in crawl order."""
    return tuple(sample.owners[k] for k in sample.order.tolist() if sample.sampled[k])


def frontier(sample: Corpus) -> frozenset[str]:
    """A crawl's frontier: its profiles that were not crawled."""
    return frozenset(sample.owners[k] for k in np.flatnonzero(~sample.sampled).tolist())


def neg_reciprocity(g: InteractionGraph) -> float:
    return reciprocity(node_table(g).neg)


def brute_force_reciprocity(g: InteractionGraph) -> float:
    """The share of edges whose reverse is an edge, over ordered node pairs."""
    count = recip = 0
    edges = edge_map(g)
    for i in g.nodes:
        for j in g.nodes:
            if (i, j) in edges:
                count += 1
                if (j, i) in edges:
                    recip += 1
    return recip / count


class SimpleView:
    """Undirected neighbor sets of a graph, as the oracle reads them."""

    def __init__(self, graph):
        self.nodes = graph.nodes
        self.neighbors = {n: set() for n in graph.nodes}
        for a, b in edge_map(graph):
            self.neighbors[a].add(b)
            self.neighbors[b].add(a)


def triple_enumeration_oracle(simple: SimpleView) -> tuple[float, float]:
    """Global and mean local clustering by enumerating unordered node triples."""
    nodes = list(simple.nodes)
    triangles = triples = 0
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            for k in range(j + 1, len(nodes)):
                a, b, c = nodes[i], nodes[j], nodes[k]
                n_edges = (
                    (b in simple.neighbors[a])
                    + (c in simple.neighbors[b])
                    + (c in simple.neighbors[a])
                )
                if n_edges == 3:
                    triangles += 1
                    triples += 3
                elif n_edges == 2:
                    triples += 1
    global_c = 3 * triangles / triples if triples else 0.0
    locals_ = []
    for u in nodes:
        nbrs = list(simple.neighbors[u])
        deg = len(nbrs)
        if deg < 2:
            locals_.append(0.0)
            continue
        links = sum(
            1
            for x in range(deg)
            for y in range(x + 1, deg)
            if nbrs[y] in simple.neighbors[nbrs[x]]
        )
        locals_.append(2 * links / (deg * (deg - 1)))
    return global_c, sum(locals_) / len(nodes)
