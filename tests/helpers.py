"""Test-only constructors, views and oracles of askgraph's types: a sparse
matrix converted to and from scipy's, which the tests use as an oracle, a
like graph built as a `Graph` from an edge mapping and read back from its
adjacency's entries as edge rows or a mapping, a plain vocabulary as a word
set, the segmentation rule as a scalar oracle and the array rule over plain
counts, a group row by name, a crawl's crawl order, frontier and written
records, a corpus's profile records, the scalar synthetic generator and its
sampler, the brute-force reciprocity and clustering oracles of the node
table, the record checks of the corpus parse as one loop over each
question, and the per-component power iteration that word centrality
matches exactly."""

from __future__ import annotations

import json
from bisect import insort
from itertools import repeat
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from askgraph import synth
from askgraph.corpus import (
    CSR, ContentTable, Corpus, CorpusFormatError, Graph, TaggedCorpus, flat_ranges, offsets,
    save_corpus,
)
from askgraph.interaction import node_table, reciprocity
from askgraph.segmentation import GROUPS, GroupRow, classify_corpus
from askgraph.synth import GenParams, SplitMix64
from askgraph.wordgraph import ConvergenceError, component_roots


def to_scipy(m: CSR) -> sp.csr_matrix:
    """`m` as a scipy CSR matrix over the same entries, in the same order:
    its format checks and `has_canonical_format` read `m` as it is."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def csr(m) -> CSR:
    """A scipy sparse matrix, or a dense array, as a CSR holding the entries
    scipy's CSR form of it stores, in its order, explicit zeros included."""
    m = sp.csr_matrix(m)
    return CSR(m.indptr.astype(np.int64), m.indices.astype(np.int32), m.data, m.shape)


def like_graph(
    nodes: Sequence[str], edges: Mapping[tuple[str, str], tuple[int, int]]
) -> Graph:
    """The like graph over `nodes` with `{(src_id, dst_id): (n_neg, n_nonneg)}`:
    entry (src, dst) of its adjacency holds the row (n_neg, n_nonneg)."""
    index = {u: k for k, u in enumerate(nodes)}
    pairs = np.array([(index[i], index[j]) for i, j in edges], dtype=np.int64).reshape(-1, 2)
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise ValueError("the like graph has no self-loops")
    codes = pairs[:, 0] * len(index) + pairs[:, 1]
    weights = np.array(list(edges.values()), dtype=np.int64).reshape(-1, 2)
    order = np.argsort(codes)  # the codes are distinct
    n = len(index)
    return Graph(tuple(nodes), CSR.from_keys(codes[order], (n, n), weights[order]))


def edge_rows(graph: Graph) -> list[tuple[str, str, int, int]]:
    """(src_id, dst_id, n_neg, n_nonneg) per stored entry, in stored order:
    the rows of `interaction_edges.csv`."""
    names, adjacency = graph.nodes, graph.adjacency
    return [(names[i], names[j], neg, nonneg) for i, j, (neg, nonneg) in zip(
        adjacency.entry_rows().tolist(), adjacency.indices.tolist(), adjacency.data.tolist())]


def edge_map(graph: Graph) -> Mapping[tuple[str, str], tuple[int, int]]:
    """Read-only `{(src_id, dst_id): (n_neg, n_nonneg)}` in stored order."""
    return MappingProxyType({(i, j): (neg, nonneg) for i, j, neg, nonneg in edge_rows(graph)})


def graph_from_pairs(pairs, nodes=None) -> Graph:
    """One negative edge per pair, in the given direction; the nodes are
    those of the pairs, sorted, unless given."""
    node_set = nodes or sorted({n for p in pairs for n in p})
    return like_graph(nodes=tuple(node_set), edges={p: (1, 0) for p in pairs})


def vocab_word_set(words: tuple[str, ...] | list[str]) -> tuple[str, ...]:
    """A plain vocabulary as a word set: its words sorted, as equal scores
    order them."""
    return tuple(sorted(set(words)))


def classify_user(n_neg_questions: int, n_pos_questions: int) -> str:
    """The segmentation rule as a scalar if-chain, the oracle of
    `classify_corpus`: the precedence HN -> PN -> HP -> OTHR."""
    neg, pos = n_neg_questions, n_pos_questions
    if neg >= 3 and pos == 0:
        return "HN"
    if neg >= 3 and pos > 4:
        return "PN"
    if pos > 10:
        return "HP"
    return "OTHR"


def classify_counts(neg: Sequence[int], pos: Sequence[int]) -> list[str]:
    """`classify_corpus` over users with these negative and positive
    question counts, as group names."""
    zeros = np.zeros(len(neg), dtype=np.int64)
    table = ContentTable(tuple(f"u{i:05d}" for i in range(len(neg))), zeros, zeros,
                         np.array(neg, dtype=np.int64), np.array(pos, dtype=np.int64),
                         zeros, zeros)
    return [GROUPS[k] for k in classify_corpus(table).tolist()]


def checked_records(records: Iterable[object]) -> list[dict]:
    """The corpus parse's record checks as one loop over each question, the
    oracle of `load_corpus`: the first fault raises CorpusFormatError with
    the message and 1-based line the loader gives. Otherwise each profile as
    `corpus_records` reads it back: defaults filled in and questions by
    descending like count, ties in file order."""
    seen: set[str] = set()
    profiles = []
    for line_no, obj in enumerate(records, start=1):
        if not isinstance(obj, dict):
            raise CorpusFormatError(line_no, "profile record must be an object")
        owner = obj.get("owner")
        if not isinstance(owner, str) or not owner:
            raise CorpusFormatError(line_no, "missing or empty 'owner'")
        if owner in seen:
            raise CorpusFormatError(line_no, f"duplicate owner id {owner!r}")
        questions = obj.get("questions", [])
        if not isinstance(questions, list):
            raise CorpusFormatError(line_no, "'questions' must be an array")
        fully_sampled = obj.get("fully_sampled", True)
        if not isinstance(fully_sampled, bool):
            raise CorpusFormatError(line_no, "'fully_sampled' must be true or false")
        read = []
        for question in questions:
            if not isinstance(question, dict) or "text" not in question:
                raise CorpusFormatError(
                    line_no, "question record must be an object with a 'text' field"
                )
            text = question["text"]
            if not isinstance(text, str):
                raise CorpusFormatError(line_no, "question text must be a string")
            listed = question.get("likers")
            likers = () if listed is None else listed
            if listed is not None:
                if not isinstance(likers, list) or not all(map(isinstance, likers, repeat(str))):
                    raise CorpusFormatError(line_no, "likers must be an array of strings")
                if len(set(likers)) != len(likers):
                    raise CorpusFormatError(line_no, "duplicate liker ids on one question")
            likes = question.get("like_count", len(likers))
            if not isinstance(likes, int) or isinstance(likes, bool) or likes < 0:
                raise CorpusFormatError(line_no, "like_count must be a nonnegative integer")
            answer = question.get("answer", "")
            if not isinstance(answer, str):
                raise CorpusFormatError(line_no, "answer must be a string")
            if listed is not None and likes != len(likers):
                raise CorpusFormatError(
                    line_no, f"like_count {likes} does not match {len(likers)} likers"
                )
            read.append({"text": text, "answer": answer, "likers": list(likers),
                         "like_count": likes})
            if likes and not likers:
                del read[-1]["likers"]
        if sum(q["like_count"] for q in read) >= 1 << 63:
            raise CorpusFormatError(line_no, "like counts sum past the int64 range")
        seen.add(owner)
        read.sort(key=lambda q: -q["like_count"])
        profiles.append({"owner": owner, "fully_sampled": fully_sampled, "questions": read})
    return profiles


def group_row(rows: Sequence[GroupRow], name: str) -> GroupRow:
    for row in rows:
        if row.name == name:
            return row
    raise KeyError(name)


def crawl_order(ground_truth: Corpus, sample: tuple[np.ndarray, np.ndarray]) -> tuple[str, ...]:
    """A crawl's crawled profiles, in crawl order: `snowball_sample`'s first
    array read as ids of the ground truth."""
    return tuple(ground_truth.owners[k] for k in sample[0].tolist())


def frontier(ground_truth: Corpus, sample: tuple[np.ndarray, np.ndarray]) -> frozenset[str]:
    """A crawl's frontier: its profiles that were not crawled, read off
    `snowball_sample`'s second array."""
    return frozenset(ground_truth.owners[k] for k in sample[1].tolist())


def saved_crawl(ground_truth: Corpus, sample: tuple[np.ndarray, np.ndarray],
                path: str | Path) -> list[dict]:
    """The profile records `save_corpus` writes to `path` for a crawl of
    `ground_truth`, in file order."""
    save_corpus(ground_truth, path, *sample)
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


def corpus_records(corpus: Corpus) -> Iterator[dict]:
    """Each profile as a corpus file record, in `order`: the objects whose
    `json.dumps(..., ensure_ascii=False, separators=(",", ":"))` are the
    lines `save_corpus` writes."""
    ids = corpus.owners + corpus.strangers
    first, n_rows = corpus.first_row.tolist(), corpus.n_rows.tolist()
    texts, answers, likes = corpus.texts, corpus.answers, corpus.like_count.tolist()
    ptr, liker = corpus.liker_ptr.tolist(), corpus.liker.tolist()
    sampled = corpus.sampled.tolist()
    for k in corpus.order.tolist():
        questions = []
        for r in range(first[k], first[k] + n_rows[k]):
            question = {"text": texts[r], "answer": answers[r],
                        "likers": [ids[i] for i in liker[ptr[r]:ptr[r + 1]]],
                        "like_count": likes[r]}
            if likes[r] and ptr[r] == ptr[r + 1]:
                # a count read without liker ids: an empty list would contradict it
                del question["likers"]
            questions.append(question)
        yield {"owner": ids[k], "fully_sampled": sampled[k], "questions": questions}


def tagged(corpus: Corpus, vocab: Iterable[str]) -> TaggedCorpus:
    """A text corpus, such as `generate_corpus` gives, parsed from its
    records over `vocab`, as `load_corpus(path, vocab)` parses its file."""
    return Corpus.from_records(corpus_records(corpus), vocab)


def sample(rng: SplitMix64, population: Sequence, k: int, skip: int | None = None) -> list:
    """k distinct elements, order of draw preserved, leaving out the element
    at index `skip` if one is given.

    Each draw is the position among the elements still available, as if
    they were copied into a list and popped; it is mapped to its index by
    stepping past the sorted indices already taken. O(k^2)."""
    taken = [] if skip is None else [skip]
    if k > len(population) - len(taken):
        raise ValueError("sample larger than population")
    out = []
    for _ in range(k):
        idx = rng.randbelow(len(population) - len(taken))
        for t in taken:
            if t > idx:
                break
            idx += 1
        insort(taken, idx)
        out.append(population[idx])
    return out


def _make_text(vocab: tuple[str, ...], filler: tuple[str, ...], rng: SplitMix64) -> str:
    words = [filler[rng.randbelow(len(filler))] for _ in range(rng.randint(2, 5))]
    for _ in range(rng.randint(1, 2)):
        words.append(vocab[rng.randbelow(len(vocab))])
    return " ".join(words)


def _neutral_text(filler: tuple[str, ...], rng: SplitMix64) -> str:
    return " ".join(filler[rng.randbelow(len(filler))] for _ in range(rng.randint(3, 6)))


def scalar_corpus(params: GenParams) -> tuple[Corpus, dict[str, str]]:
    """`generate_corpus` as one scalar loop: every draw through `randbelow`,
    in draw order, and each user's questions then put in the corpus's row
    order."""
    params.validate()
    rng = SplitMix64(params.rng_seed)
    counts = synth.quota_counts(params.group_mix, params.n_users)
    labels: dict[str, str] = {}
    user_ids = [f"u{i:05d}" for i in range(params.n_users)]
    i = 0
    for group in GROUPS:
        for _ in range(counts[group]):
            labels[user_ids[i]] = group
            i += 1

    vocab_taboo = set(params.neg_vocab) | set(params.pos_vocab)
    filler = tuple(w for w in synth._FILLER if w not in vocab_taboo)
    lo, hi = params.questions_per_user
    max_likes = max(0, round(2 * params.like_rate))

    texts, n_rows, like_count, liker_code = [], [], [], []
    population = range(params.n_users)
    n_others = params.n_users - 1
    for pos, owner in enumerate(user_ids):
        label = labels[owner]
        n_q = max(rng.randint(lo, hi), synth._MIN_QUESTIONS[label])
        n_neg, n_pos = synth._question_counts(label, n_q, rng)
        drawn = (
            [_make_text(params.neg_vocab, filler, rng) for _ in range(n_neg)]
            + [_make_text(params.pos_vocab, filler, rng) for _ in range(n_pos)]
            + [_neutral_text(filler, rng) for _ in range(n_q - n_neg - n_pos)]
        )
        likes = []
        for _ in range(n_q):
            n_likes = rng.randint(0, max_likes) if max_likes and n_others else 0
            likes.append(sample(rng, population, min(n_likes, n_others), skip=pos))
        # by descending like count, ties in draw order, as `_corpus_rows` orders them
        for q in sorted(range(n_q), key=lambda q: -len(likes[q])):
            texts.append(drawn[q])
            like_count.append(len(likes[q]))
            liker_code += likes[q]
        n_rows.append(n_q)
    corpus = Corpus.from_rows(user_ids, population, [True] * len(population),
                              np.repeat(population, n_rows), texts, [""] * len(texts),
                              like_count, like_count, liker_code)
    return corpus, labels


def neg_reciprocity(g: Graph) -> float:
    return reciprocity(node_table(g).neg)


def brute_force_reciprocity(g: Graph) -> float:
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


def take_rows(m: CSR, rows: np.ndarray) -> CSR:
    """The matrix of `rows` of `m`, in that order."""
    lengths = np.diff(m.indptr)[rows]
    at = flat_ranges(m.indptr[rows], lengths)
    return CSR(offsets(lengths), m.indices[at], m.data[at], (len(rows), m.shape[1]))


def reference_eigenvector_centrality(
    graph: Graph, tol: float = 1e-10, max_iter: int = 10000
) -> dict[str, float]:
    """The per-component power iteration: each component cut out of the
    graph, renumbered and iterated alone, in order of least node. The exact
    oracle of `wordgraph.eigenvector_centrality`."""
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
        sub = take_rows(graph.adjacency, idx)
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
