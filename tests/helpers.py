"""Test-only constructors and views of askgraph's types: a like graph built
from and read back as an edge mapping, a plain vocabulary as a word set, and
a group report's row by name."""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from askgraph.interaction import InteractionGraph
from askgraph.segmentation import GroupReport, GroupRow
from askgraph.wordgraph import WordSet


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


def vocab_word_set(words: tuple[str, ...] | list[str], polarity: str) -> WordSet:
    """A plain vocabulary as a WordSet with unit scores."""
    ordered = tuple(sorted(set(words)))
    return WordSet(polarity=polarity, words=ordered, scores={w: 1.0 for w in ordered})


def group_row(report: GroupReport, name: str) -> GroupRow:
    for row in report.rows:
        if row.name == name:
            return row
    raise KeyError(name)
