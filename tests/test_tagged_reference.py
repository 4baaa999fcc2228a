"""Every text analysis reduced from the tagged count matrix equals the
per-question string-hit loops it replaced, kept here as references."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from askgraph.corpus import (
    Corpus,
    CorpusStats,
    Lexicon,
    Profile,
    Question,
    content_table,
    corpus_stats,
    tag_corpus,
    tokenize,
)
from askgraph.interaction import build_interaction_graph
from askgraph.synth import vocab_word_set
from askgraph.wordgraph import build_bipartite, cooccurrence_distribution

NEG = Lexicon("negative", frozenset({"ugly", "fat", "hate", "cool"}))
POS = Lexicon("positive", frozenset({"nice", "sweet", "cool"}))  # "cool" is in both
WORDS = sorted(NEG.words | POS.words | {"day", "movie"})
NEG_WS = vocab_word_set(["ugly", "fat", "cool"], "negative")
POS_WS = vocab_word_set(["nice", "cool", "day"], "positive")
USERS = ["u0", "u1", "u2", "u3", "u4", "u5"]


# --- the string-hit references --------------------------------------------

def reference_hits(corpus, vocab):
    """The tokens of each question that are in `vocab`, in occurrence order."""
    return {
        p.owner: tuple(tuple(t for t in tokenize(q.text) if t in vocab) for q in p.questions)
        for p in corpus
    }


def hit_counts(hits, neg, pos):
    n_neg_q = n_pos_q = n_neg_w = n_pos_w = 0
    for words in hits:
        neg_w = sum(w in neg for w in words)
        pos_w = sum(w in pos for w in words)
        n_neg_q += neg_w > 0
        n_pos_q += pos_w > 0
        n_neg_w += neg_w
        n_pos_w += pos_w
    return n_neg_q, n_pos_q, n_neg_w, n_pos_w


def reference_content(corpus, neg, pos):
    hits = reference_hits(corpus, {*neg, *pos})
    return {
        u: (corpus[u].total_likes, len(hits[u]), *hit_counts(hits[u], neg, pos))
        for u in sorted(corpus.profiles) if corpus[u].fully_sampled
    }


def reference_corpus_stats(corpus, neg, pos):
    rows = list(reference_content(corpus, neg, pos).values())
    n = len(rows)
    return CorpusStats(
        avg_answers_per_user=sum(r[1] for r in rows) / n,
        avg_neg_questions=sum(r[2] for r in rows) / n,
        avg_pos_questions=sum(r[3] for r in rows) / n,
        avg_neg_words=sum(r[4] for r in rows) / n,
        avg_pos_words=sum(r[5] for r in rows) / n,
        pct_users_with_neg_q=100.0 * sum(r[2] >= 1 for r in rows) / n,
        pct_users_with_3plus_neg_q=100.0 * sum(r[2] >= 3 for r in rows) / n,
        pct_users_with_pos_q=100.0 * sum(r[3] >= 1 for r in rows) / n,
    )


def reference_incidence(corpus, lexicon):
    hits = reference_hits(corpus, lexicon.words)
    return {(w, u) for u, questions in hits.items() for q in questions for w in q}


def reference_cooccurrence(corpus, core, word_set):
    tracked = set(word_set.words)
    totals = {w: 0 for w in word_set.words}
    n_matching = 0
    for profile_hits in reference_hits(corpus, {core, *tracked}).values():
        counts = {w: 0 for w in word_set.words}
        has_core = False
        for question in profile_hits:
            for word in question:
                if word == core:
                    has_core = True
                if word in tracked:
                    counts[word] += 1
        if has_core:
            n_matching += 1
            for w, c in counts.items():
                totals[w] += c
    if n_matching == 0:
        return None
    return tuple((w, totals[w] / n_matching) for w in word_set.words), n_matching


def reference_weights(corpus, neg_words, top_k):
    users = {p.owner for p in corpus if p.fully_sampled}
    hits = reference_hits(corpus, neg_words.words)
    weights = {}
    for owner in sorted(users):
        for q, words in zip(corpus[owner].questions[:top_k], hits[owner][:top_k]):
            nonneg = not any(w in neg_words for w in words)
            for liker in q.likers:
                if liker in users and liker != owner:
                    weights.setdefault((liker, owner), [0, 0])[nonneg] += 1
    return {edge: tuple(w) for edge, w in sorted(weights.items())}


# --- random corpora -------------------------------------------------------

_SPELLINGS = st.sampled_from(WORDS + ["ugly's", "f*t", "ni_ce", "ÜGLY", "x"]).flatmap(
    lambda w: st.sampled_from([w, w.upper(), w.capitalize()])
)
_SEPARATORS = st.sampled_from([" ", ", ", "!", "... ", " - ", "\n", "?"])
_TEXTS = st.lists(st.tuples(_SPELLINGS, _SEPARATORS), max_size=8).map(
    lambda parts: "".join(w + s for w, s in parts)
)
_QUESTIONS = st.lists(
    st.tuples(_TEXTS, st.lists(st.sampled_from(USERS + ["ghost"]), unique=True, max_size=4)),
    max_size=6,
)


@st.composite
def corpora(draw):
    owners = draw(st.lists(st.sampled_from(USERS), min_size=1, unique=True))
    profiles = {}
    for owner in owners:
        questions = tuple(
            Question(text=t, likers=tuple(likers), like_count=len(likers))
            for t, likers in draw(_QUESTIONS)
        )
        # frontier stubs usually have no questions, but may
        profiles[owner] = Profile(owner, questions, fully_sampled=draw(st.booleans()))
    # owners in drawn order, not sorted: the matrix rows must not depend on it
    return Corpus(profiles)


def tagged_or_plain(corpus, pretag):
    """The corpus itself, or tagged over a superset of every vocabulary, so
    consumers also reduce a matrix with columns they do not read."""
    return tag_corpus(corpus, [*WORDS, "zzz"]) if pretag else corpus


# --- the properties -------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(corpora())
def test_counts_rows_are_the_string_hits(corpus):
    tagged = tag_corpus(corpus, WORDS)
    hits = reference_hits(corpus, set(WORDS))
    assert tagged.vocab == tuple(WORDS)
    assert tagged.owners == tuple(sorted(corpus.profiles))
    rows = [(k, words) for k, u in enumerate(tagged.owners) for words in hits[u]]
    assert tagged.owner.tolist() == [k for k, _ in rows]
    counts = tagged.counts
    assert counts.dtype == np.int64 and counts.shape == (len(rows), len(WORDS))
    # canonical: sorted columns and no duplicate entries in any row
    assert counts.has_canonical_format
    for r, (_, words) in enumerate(rows):
        row = Counter(words)
        start, end = counts.indptr[r], counts.indptr[r + 1]
        assert counts.indices[start:end].tolist() == sorted(WORDS.index(w) for w in row)
        assert counts.data[start:end].tolist() == [row[w] for w in sorted(row)]


@settings(max_examples=100, deadline=None)
@given(corpora(), st.booleans())
def test_content_table_and_corpus_stats_match_hit_counts(corpus, pretag):
    for neg, pos in ((NEG, POS), (NEG_WS, POS_WS)):
        table = content_table(tagged_or_plain(corpus, pretag), neg, pos)
        expected = reference_content(corpus, neg, pos)
        assert table.users == tuple(expected)
        columns = (table.total_likes, table.n_answers, table.n_neg_questions,
                   table.n_pos_questions, table.n_neg_words, table.n_pos_words)
        assert all(c.dtype == np.int64 for c in columns)
        assert [tuple(r) for r in zip(*(c.tolist() for c in columns))] == list(expected.values())
    if any(p.fully_sampled for p in corpus):
        stats = corpus_stats(tagged_or_plain(corpus, pretag), NEG, POS)
        assert stats == reference_corpus_stats(corpus, NEG, POS)
    else:
        with pytest.raises(ValueError, match="fully sampled"):
            corpus_stats(tagged_or_plain(corpus, pretag), NEG, POS)


@settings(max_examples=100, deadline=None)
@given(corpora(), st.booleans())
def test_bipartite_incidence_matches_string_hits(corpus, pretag):
    for lexicon in (NEG, POS):
        b = build_bipartite(tagged_or_plain(corpus, pretag), lexicon)
        assert b.words == tuple(sorted(lexicon.words))
        assert b.users == tuple(sorted(corpus.profiles))
        b.incidence.check_format(full_check=True)
        assert b.incidence.dtype == np.int64 and b.incidence.has_canonical_format
        dense = b.incidence.toarray()
        assert set(dense.ravel().tolist()) <= {0, 1}
        linked = {(b.words[i], b.users[j]) for i, j in zip(*np.nonzero(dense))}
        assert linked == reference_incidence(corpus, lexicon)


@settings(max_examples=100, deadline=None)
@given(corpora(), st.booleans(), st.sampled_from(WORDS + ["zzz"]))
def test_cooccurrence_matches_the_profile_loop(corpus, pretag, core):
    for word_set in (NEG_WS, POS_WS):
        expected = reference_cooccurrence(corpus, core, word_set)
        if expected is None:
            with pytest.raises(ValueError, match="no profile contains"):
                cooccurrence_distribution(tagged_or_plain(corpus, pretag), core, word_set)
            continue
        vector = cooccurrence_distribution(tagged_or_plain(corpus, pretag), core, word_set)
        assert (vector.entries, vector.n_profiles) == expected
        assert all(type(v) is float for _, v in vector.entries)


@settings(max_examples=100, deadline=None)
@given(corpora(), st.booleans(), st.integers(1, 4))
def test_interaction_weights_match_the_question_loop(corpus, pretag, top_k):
    graph = build_interaction_graph(tagged_or_plain(corpus, pretag), NEG_WS, top_k=top_k)
    assert graph.nodes == tuple(sorted(p.owner for p in corpus if p.fully_sampled))
    assert dict(graph.edges) == reference_weights(corpus, NEG_WS, top_k)
