"""Word/user bipartite graph, its word projection, and centrality-based
word selection.

The incidence matrix is binary at profile granularity: a word is linked to
a user if it appears in at least one question on that user's profile, so
projected edge weights count shared profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .corpus import Corpus, Lexicon, tag_corpus


class ConvergenceError(RuntimeError):
    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"power iteration did not converge after {iterations} iterations "
            f"(residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class BipartiteGraph:
    """Binary word x user incidence matrix (rows words, cols users)."""

    words: tuple[str, ...]
    users: tuple[str, ...]
    incidence: sp.csr_matrix  # shape (len(words), len(users)), dtype int64, entries {0,1}


@dataclass(frozen=True)
class OneModeGraph:
    """Symmetric integer-weighted projection with zero diagonal."""

    nodes: tuple[str, ...]
    adjacency: sp.csr_matrix  # square, symmetric, int64, zero diagonal

    def node_index(self, name: str) -> int:
        try:
            return self.nodes.index(name)
        except ValueError:
            raise KeyError(f"node {name!r} not in graph") from None


@dataclass(frozen=True)
class WordSet:
    polarity: str
    words: tuple[str, ...]  # descending score, ties lexicographic
    scores: dict[str, float]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.scores

    def __iter__(self):
        return iter(self.words)


@dataclass(frozen=True)
class FrequencyVector:
    core: str
    entries: tuple[tuple[str, float], ...]  # fixed to the WordSet order
    n_profiles: int


def build_bipartite(corpus: Corpus, lexicon: Lexicon) -> BipartiteGraph:
    """B[w][u] = 1 iff word w (from the lexicon) occurs in any question on
    u's profile. Words never observed keep all-zero rows."""
    tagged = tag_corpus(corpus, lexicon.words)
    words = tuple(sorted(lexicon.words))
    found = tagged.counts[:, np.searchsorted(tagged.vocab, words)].tocoo()
    incidence = sp.csr_matrix(
        (np.ones(found.nnz, dtype=np.int64), (found.col, tagged.owner[found.row])),
        shape=(len(words), len(tagged.owners)),
    )
    incidence.data[:] = 1  # the conversion summed the questions sharing a word
    return BipartiteGraph(words=words, users=tagged.owners, incidence=incidence)


def project_words(bipartite: BipartiteGraph) -> OneModeGraph:
    """Word-word projection: weights count profiles sharing both words."""
    incidence = bipartite.incidence
    adjacency = (incidence @ incidence.T).tocsr()
    adjacency.setdiag(0)
    adjacency.eliminate_zeros()
    return OneModeGraph(nodes=bipartite.words, adjacency=adjacency)


def eigenvector_centrality(
    graph: OneModeGraph, tol: float = 1e-10, max_iter: int = 10000
) -> dict[str, float]:
    """Power iteration from a uniform start vector, rescaled to max entry 1;
    returns each node's score, in node order.

    Iteration runs per connected component so scores never mix across
    components; only components whose dominant eigenvalue attains the global
    maximum keep nonzero scores (ties within 1e-12 relative all survive).
    Isolated nodes and zero-edge graphs score exactly 0.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    n = len(graph.nodes)
    values = np.zeros(n)
    if n == 0 or graph.adjacency.nnz == 0:
        return dict.fromkeys(graph.nodes, 0.0)

    n_comp, labels = connected_components(graph.adjacency, directed=False)
    results: list[tuple[float, np.ndarray, np.ndarray]] = []  # (eigenvalue, idx, vector)
    for comp in range(n_comp):
        idx = np.flatnonzero(labels == comp)
        if len(idx) == 1:
            continue  # isolated node (zero diagonal => no self loop)
        sub = graph.adjacency[np.ix_(idx, idx)].tocsr().astype(np.float64)
        # iterate on A + I: same eigenvectors, but strictly dominant Perron
        # eigenvalue, so bipartite components (spectrum symmetric about 0)
        # cannot oscillate
        sub = (sub + sp.identity(len(idx), format="csr")).tocsr()
        v = np.ones(len(idx))
        eigenvalue = 0.0
        residual = np.inf
        for _ in range(max_iter):
            w = sub @ v
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
    scores: dict[str, float], polarity: str, threshold: float = 0.5, cap: int = 80
) -> WordSet:
    """Keep words with score strictly above threshold, at most `cap` of them,
    ordered by descending score with lexicographic tie-break."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    candidates = [(w, s) for w, s in scores.items() if s > threshold]
    candidates.sort(key=lambda ws: (-ws[1], ws[0]))
    selected = candidates[:cap]
    if not selected:
        raise ValueError(
            f"no words with centrality > {threshold}; threshold too high for this corpus"
        )
    return WordSet(
        polarity=polarity,
        words=tuple(w for w, _ in selected),
        scores={w: s for w, s in selected},
    )


def word_neighborhood(
    graph: OneModeGraph, core: str, scores: dict[str, float]
) -> list[tuple[str, int, float]]:
    """Edges incident to `core`: (neighbor, shared-profile weight, neighbor
    centrality), sorted by descending weight then neighbor name."""
    i = graph.node_index(core)
    row = graph.adjacency.getrow(i)
    records = [
        (graph.nodes[j], int(w), scores.get(graph.nodes[j], 0.0))
        for j, w in zip(row.indices, row.data)
    ]
    records.sort(key=lambda r: (-r[1], r[0]))
    return records


def cooccurrence_distribution(corpus: Corpus, core: str, word_set: WordSet) -> FrequencyVector:
    """Mean occurrence count of each selected word over profiles whose
    question tokens contain `core`. Entry order follows the WordSet order so
    the x-axis is constant across plots."""
    if len(word_set) == 0:
        raise ValueError("word set is empty")
    tagged = tag_corpus(corpus, {core, *word_set.words})
    matching = tagged.per_profile(tagged.word_counts({core})) > 0
    n_matching = int(matching.sum())
    if n_matching == 0:
        raise ValueError(f"no profile contains the word {core!r}")
    totals = tagged.counts.T @ matching[tagged.owner].astype(np.int64)
    columns = np.searchsorted(tagged.vocab, word_set.words)
    entries = tuple(zip(word_set.words, (totals[columns] / n_matching).tolist()))
    return FrequencyVector(core=core, entries=entries, n_profiles=n_matching)
