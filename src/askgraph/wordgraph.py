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

from .corpus import CSR, Graph, TaggedCorpus, distinct, row_blocks, wedge_budget


class ConvergenceError(RuntimeError):
    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"power iteration did not converge after {iterations} iterations "
            f"(residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


def build_bipartite(corpus: TaggedCorpus, lexicon: Collection[str]) -> Graph:
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
    """Power iteration from a uniform start vector, rescaled to max entry 1;
    returns each node's score, in node order.

    Iteration runs per connected component so scores never mix across
    components; only components whose dominant eigenvalue attains the global
    maximum keep nonzero scores (ties within 1e-12 relative all survive).
    Isolated nodes and zero-edge graphs score exactly 0.
    """
    if not tol > 0:  # NaN included
        raise ValueError("tol must be positive")
    if tol == float("inf"):
        raise ValueError("tol must be finite")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    n = len(graph.nodes)
    values = np.zeros(n)
    if n == 0 or not len(graph.adjacency.indices):
        return dict.fromkeys(graph.nodes, 0.0)

    # one ascending node list per component, in order of least node
    roots = component_roots(graph.adjacency)
    order = np.argsort(roots, kind="stable")
    components = np.split(order, np.flatnonzero(np.diff(roots[order])) + 1)
    local = np.empty(n, dtype=np.int64)  # each node's index in its component
    results: list[tuple[float, np.ndarray, np.ndarray]] = []  # (eigenvalue, idx, vector)
    for idx in components:
        if len(idx) == 1:
            continue  # isolated node (zero diagonal => no self loop)
        m = len(idx)
        local[idx] = np.arange(m)
        sub = graph.adjacency.take(idx)
        rows, cols = sub.entry_rows(), local[sub.indices]  # a component holds its neighbours
        # iterate on A + I: same eigenvectors, but strictly dominant Perron
        # eigenvalue, so bipartite components (spectrum symmetric about 0)
        # cannot oscillate. Row i's diagonal entry goes before its columns
        # above i, so the entries stay in row-major order.
        at = sub.indptr[:-1] + np.bincount(rows[cols < rows], minlength=m)
        rows = np.insert(rows, at, np.arange(m))
        cols = np.insert(cols, at, np.arange(m))
        weights = np.insert(sub.data.astype(np.float64), at, 1.0)
        del sub, at
        terms = np.empty(len(cols))  # each entry's weight times its column's value
        v = np.ones(m)
        eigenvalue = 0.0
        residual = np.inf
        for _ in range(max_iter):
            np.take(v, cols, out=terms, mode="clip")  # unlike "raise", unbuffered
            terms *= weights
            w = np.bincount(rows, weights=terms, minlength=m)
            eigenvalue = float(w.max())
            w /= eigenvalue
            residual = float(np.max(np.abs(w - v)))
            v = w
            if residual < tol:
                break
        else:
            raise ConvergenceError(max_iter, residual)
        results.append((eigenvalue, idx, v))

    if results:
        top = max(r[0] for r in results)
        for eigenvalue, idx, v in results:
            if eigenvalue >= top * (1.0 - 1e-12):
                values[idx] = v / v.max()
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
    row = graph.adjacency.take([i])
    records = [
        (graph.nodes[j], w, scores.get(graph.nodes[j], 0.0))
        for j, w in zip(row.indices.tolist(), row.data.tolist())
    ]
    records.sort(key=lambda r: (-r[1], r[0]))
    return records


def cooccurrence_distribution(
    corpus: TaggedCorpus, core: str, word_set: tuple[str, ...]
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
