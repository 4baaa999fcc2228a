"""Word/user bipartite graph, its word projection, and centrality-based
word selection.

The incidence matrix is binary at profile granularity: a word is linked to
a user if it appears in at least one question on that user's profile, so
projected edge weights count shared profiles. A word set is the tuple of
its selected words, whose scores stay in the centrality dict.
"""

from __future__ import annotations

from typing import Collection

import numpy as np

from .corpus import CSR, Corpus, Graph, distinct, offsets, row_blocks, wedge_budget


class ConvergenceError(RuntimeError):
    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"power iteration did not converge after {iterations} iterations "
            f"(residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


def build_bipartite(corpus: Corpus, lexicon: Collection[str]) -> Graph:
    """B[w][u] = 1 iff word w (from the lexicon) occurs in any question on
    u's profile: the sorted words over int64 entries, all 1, whose columns
    are the corpus's owners. Words never observed keep all-zero rows."""
    words = tuple(sorted(lexicon))
    columns = corpus.columns(words)
    rows, found, _ = corpus.counts.entries(columns)
    n = len(corpus.owners)
    # one key per (word, profile) pair, however many of its questions hold the word
    keys = distinct(np.searchsorted(columns, found) * n + corpus.owner[rows])
    return Graph(words, CSR.from_keys(keys, (len(words), n), np.ones(len(keys), dtype=np.int64)))


def project_words(bipartite: Graph) -> Graph:
    """Word-word projection: weights count profiles sharing both words, in a
    symmetric int64 matrix with no diagonal entry.

    Each entry (w, u) of the incidence meets every word w' of profile u: a
    wedge w -> u -> w'. In blocks of rows, a `bincount` of the wedges'
    (w, w') cells counts each pair's profiles, and its nonzero cells off
    the diagonal are the block's entries, in row-major order."""
    incidence = bipartite.adjacency
    n = len(bipartite.nodes)
    profiles = incidence.transpose()  # each profile's words
    keys, weights = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    wedges = wedge_budget(incidence.shape[1])  # and int64 counts of 16 bytes a wedge
    for lo, hi in row_blocks(incidence.reach(profiles), wedges, 2 * wedges // max(n, 1)):
        shared = np.bincount(incidence.wedges(profiles, lo, hi)[0], minlength=(hi - lo) * n)
        shared[np.arange(hi - lo) * (n + 1) + lo] = 0  # no self-loop
        cells = np.flatnonzero(shared)
        keys.append(cells + lo * n)
        weights.append(shared[cells])
    return Graph(bipartite.nodes,
                 CSR.from_keys(np.concatenate(keys), (n, n), np.concatenate(weights)))


def component_roots(adjacency: CSR) -> np.ndarray:
    """Each node's least node index in its connected component, reading the
    adjacency's stored structure as undirected edges (an explicit zero is an
    edge).

    Each round hooks every root onto the least root an edge offers it, then
    shortcuts pointers until every node points at a root, and rounds repeat
    until no edge joins two roots. Hooking whole trees, not single labels,
    keeps a long path to a few rounds where label propagation would take
    one per node.
    """
    u, v = adjacency.entry_rows(), adjacency.indices
    roots = np.arange(adjacency.shape[0])
    while True:
        ru, rv = roots[u], roots[v]
        cross = ru != rv
        if not cross.any():
            return roots
        # an edge inside one tree stays inside it, so later rounds skip it
        u, v, ru, rv = u[cross], v[cross], ru[cross], rv[cross]
        # pointers only ever move to a lesser index, so no cycle forms
        np.minimum.at(roots, ru, rv)
        np.minimum.at(roots, rv, ru)
        while True:
            hop = roots[roots]
            if np.array_equal(hop, roots):
                break
            roots = hop


def eigenvector_centrality(
    graph: Graph, tol: float = 1e-10, max_iter: int = 10000
) -> dict[str, float]:
    """Power iteration from a uniform start vector; returns each node's
    score, in node order.

    All components iterate at once, each rescaled to max entry 1 and
    stopped on its own, so scores never mix across components; only those
    whose dominant eigenvalue attains the global maximum keep nonzero scores
    (ties within 1e-12 relative all survive), and one-node components score
    exactly 0. ConvergenceError reports the unconverged one of least node.
    """
    if not tol > 0:  # NaN included
        raise ValueError("tol must be positive")
    if tol == float("inf"):
        raise ValueError("tol must be finite")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    adjacency, n = graph.adjacency, len(graph.nodes)
    if n == 0 or not len(adjacency.indices):
        return dict.fromkeys(graph.nodes, 0.0)

    # components numbered in order of least node; `order` groups their
    # nodes, so a per-component maximum is a `reduceat` at `starts`
    roots = component_roots(adjacency)
    component = np.cumsum(roots == np.arange(n))[roots] - 1
    sizes = np.bincount(component)
    order = np.argsort(component, kind="stable")
    starts = offsets(sizes)[:-1]
    # iterate on A + I: same eigenvectors, but strictly dominant Perron
    # eigenvalue, so bipartite components (spectrum symmetric about 0)
    # cannot oscillate. Row i's diagonal entry goes before its columns
    # above i, so the entries stay in row-major order and each row sums
    # its terms in the order a component of its own would.
    rows, cols = adjacency.entry_rows(), adjacency.indices
    at = adjacency.indptr[:-1] + np.bincount(rows[cols < rows], minlength=n)
    rows = np.insert(rows, at, np.arange(n))
    cols = np.insert(cols, at, np.arange(n))
    weights = np.insert(adjacency.data.astype(np.float64), at, 1.0)
    terms = np.empty(len(cols))  # each entry's weight times its column's value
    v = np.ones(n)
    eigenvalue = np.zeros(len(sizes))
    moving = sizes > 1  # a one-node component is not iterated
    for _ in range(max_iter):
        np.take(v, cols, out=terms, mode="clip")  # unlike "raise", unbuffered
        terms *= weights
        w = np.bincount(rows, weights=terms, minlength=n)
        top = np.maximum.reduceat(w[order], starts)
        updated = moving[component]
        np.divide(w, top[component], out=w, where=updated)
        residual = np.maximum.reduceat(np.abs(w - v)[order], starts)
        np.copyto(eigenvalue, top, where=moving)
        np.copyto(v, w, where=updated)
        moving &= ~(residual < tol)  # a NaN residual keeps its component moving
        if not moving.any():
            break
    else:
        raise ConvergenceError(max_iter, float(residual[moving][0]))

    iterated = sizes > 1
    kept = iterated & (eigenvalue >= eigenvalue[iterated].max(initial=-np.inf) * (1.0 - 1e-12))
    values = np.zeros(n)
    np.divide(v, np.maximum.reduceat(v[order], starts)[component], out=values,
              where=kept[component])
    return dict(zip(graph.nodes, values.tolist()))


def select_top_words(
    scores: dict[str, float], threshold: float = 0.5, cap: int = 80
) -> tuple[str, ...]:
    """The word set: words with score strictly above threshold, at most `cap`
    of them, ordered by descending score with lexicographic tie-break."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    if np.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    candidates = [(w, s) for w, s in scores.items() if s > threshold]
    candidates.sort(key=lambda ws: (-ws[1], ws[0]))
    selected = candidates[:cap]
    if not selected:
        raise ValueError(
            f"no words with centrality > {threshold}; threshold too high for this corpus"
        )
    return tuple(w for w, _ in selected)


def word_neighborhood(
    graph: Graph, core: str, scores: dict[str, float]
) -> list[tuple[str, int, float]]:
    """Edges incident to `core`: (neighbor, shared-profile weight, neighbor
    centrality), sorted by descending weight then neighbor name."""
    i = graph.node_index(core)
    row = slice(*graph.adjacency.indptr[i:i + 2])
    records = [
        (graph.nodes[j], w, scores.get(graph.nodes[j], 0.0))
        for j, w in zip(graph.adjacency.indices[row].tolist(), graph.adjacency.data[row].tolist())
    ]
    records.sort(key=lambda r: (-r[1], r[0]))
    return records


def cooccurrence_distribution(
    corpus: Corpus, core: str, word_set: tuple[str, ...]
) -> tuple[tuple[str, float], ...]:
    """Mean occurrence count of each selected word over profiles whose
    question tokens contain `core`, as (word, mean) entries. Entry order
    follows the word set's order so the x-axis is constant across plots."""
    if not word_set:
        raise ValueError("word set is empty")
    columns = corpus.columns(word_set)
    matching = corpus.per_profile(corpus.word_counts([core])) > 0
    n_matching = int(matching.sum())
    if n_matching == 0:
        raise ValueError(f"no profile contains the word {core!r}")
    rows, found, counts = corpus.counts.entries(columns)
    totals = np.bincount(found, weights=counts * matching[corpus.owner[rows]],
                         minlength=len(corpus.vocab))
    return tuple(zip(word_set, (totals[columns] / n_matching).tolist()))
