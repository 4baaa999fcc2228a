"""The corpus columns equal the ones the object model built, and every
analysis reduced from them equals the per-question and per-profile loops it
replaced, kept here as references over plain profile records."""

import dataclasses
import json
import tempfile
from collections import Counter
from itertools import chain, repeat
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from askgraph import interaction
from askgraph.corpus import (
    CorpusFile,
    CorpusStats,
    content_table,
    corpus_stats,
    load_corpus,
    tokenize,
)
from askgraph.interaction import (
    _pearson,
    build_interaction_graph,
    compute_metrics,
    likes_answers_correlation,
    node_table,
)
from askgraph.segmentation import (
    GROUPS,
    GroupRow,
    LabelFile,
    classify_corpus,
    group_report,
    labeled_report,
)
from askgraph.synth import GenParams, snowball_sample
from askgraph.wordgraph import build_bipartite, cooccurrence_distribution
from helpers import (
    checked_records, classify_user, crawl_lines, crawl_order, edge_map, edge_rows, file_records,
    from_records, frontier, rewritten, synthetic, to_scipy, vocab_word_set, write_lines,
)

NEG = frozenset({"ugly", "fat", "hate", "cool"})
POS = frozenset({"nice", "sweet", "cool"})  # "cool" is in both
WORDS = sorted(NEG | POS | {"day", "movie"})
NEG_WS = vocab_word_set(["ugly", "fat", "cool"])
POS_WS = vocab_word_set(["nice", "cool", "day"])
USERS = ["u0", "u1", "u2", "u3", "u4", "u5"]


# --- the object-model references ------------------------------------------

def like_count(question):
    return question.get("like_count", len(question.get("likers", [])))


def normalized(records):
    """Each profile record by owner, its questions by descending like count
    with ties in record order, as the object model stored them."""
    return {
        r["owner"]: {
            "fully_sampled": r.get("fully_sampled", True),
            "questions": sorted(r.get("questions", []), key=lambda q: -like_count(q)),
        }
        for r in records
    }


def reference_columns(records):
    """The columns built from the object model: rows profile by profile in
    record order, each profile's first row (0 if it has none) and row count
    in sorted owner order, likers as positions in `owners` or -1."""
    profiles = normalized(records)
    owners = tuple(sorted(profiles))
    position = {u: k for k, u in enumerate(owners)}
    in_order = [r["owner"] for r in records]
    n_rows = [len(profiles[u]["questions"]) for u in in_order]
    first_row = dict(zip(in_order, np.cumsum([0, *n_rows]).tolist()))
    questions = [q for u in in_order for q in profiles[u]["questions"]]
    likers = [q.get("likers", []) for q in questions]
    liker_ptr = np.cumsum([0, *map(len, likers)], dtype=np.int64)
    positions = map(position.get, chain.from_iterable(likers), repeat(-1))
    return dict(
        owners=owners,
        first_row=[first_row[u] if profiles[u]["questions"] else 0 for u in owners],
        n_rows=[len(profiles[u]["questions"]) for u in owners],
        owner=[position[u] for u, n in zip(in_order, n_rows) for _ in range(n)],
        sampled=[profiles[u]["fully_sampled"] for u in owners],
        total_likes=[sum(like_count(q) for q in profiles[u]["questions"]) for u in owners],
        liker_ptr=liker_ptr.tolist(),
        liker=np.fromiter(positions, np.int32, int(liker_ptr[-1])).tolist(),
        liker_ids=list(chain.from_iterable(likers)),
        like_count=[like_count(q) for q in questions],
    )


def corpus_columns(corpus):
    """The same columns read from a `Corpus`: a stranger's index reads -1."""
    n = len(corpus.owners)
    assert corpus.owner.dtype == np.int64 and corpus.like_count.dtype == np.int64
    assert corpus.sampled.dtype == bool and corpus.total_likes.dtype == np.int64
    assert corpus.first_row.dtype == np.int64 and corpus.n_rows.dtype == np.int64
    assert corpus.liker.dtype == np.int32 and corpus.liker_ptr.dtype == np.int64
    assert list(corpus.strangers) == sorted(corpus.strangers)
    assert not set(corpus.strangers) & set(corpus.owners)
    ids = corpus.owners + corpus.strangers
    return dict(
        owners=corpus.owners,
        first_row=corpus.first_row.tolist(),
        n_rows=corpus.n_rows.tolist(),
        owner=corpus.owner.tolist(),
        sampled=corpus.sampled.tolist(),
        total_likes=corpus.total_likes.tolist(),
        liker_ptr=corpus.liker_ptr.tolist(),
        liker=np.where(corpus.liker < n, corpus.liker, -1).tolist(),
        liker_ids=[ids[i] for i in corpus.liker.tolist()],
        like_count=corpus.like_count.tolist(),
    )


# --- the string-hit references --------------------------------------------

def reference_hits(profiles, vocab):
    """The tokens of each question that are in `vocab`, in occurrence order."""
    return {
        u: tuple(tuple(t for t in tokenize(q["text"]) if t in vocab) for q in p["questions"])
        for u, p in profiles.items()
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


def reference_content(profiles, neg, pos):
    hits = reference_hits(profiles, {*neg, *pos})
    return {
        u: (sum(like_count(q) for q in profiles[u]["questions"]), len(hits[u]),
            *hit_counts(hits[u], neg, pos))
        for u in sorted(profiles) if profiles[u]["fully_sampled"]
    }


def reference_corpus_stats(profiles, neg, pos):
    rows = list(reference_content(profiles, neg, pos).values())
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


def reference_incidence(profiles, lexicon):
    hits = reference_hits(profiles, lexicon)
    return {(w, u) for u, questions in hits.items() for q in questions for w in q}


def reference_cooccurrence(profiles, core, word_set):
    tracked = set(word_set)
    totals = {w: 0 for w in word_set}
    n_matching = 0
    for profile_hits in reference_hits(profiles, {core, *tracked}).values():
        counts = {w: 0 for w in word_set}
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
    return tuple((w, totals[w] / n_matching) for w in word_set)


def reference_weights(profiles, neg_words, top_k):
    users = {u for u, p in profiles.items() if p["fully_sampled"]}
    hits = reference_hits(profiles, neg_words)
    weights = {}
    for owner in sorted(users):
        for q, words in zip(profiles[owner]["questions"][:top_k], hits[owner][:top_k]):
            nonneg = not any(w in neg_words for w in words)
            for liker in q.get("likers", []):
                if liker in users and liker != owner:
                    weights.setdefault((liker, owner), [0, 0])[nonneg] += 1
    return {edge: tuple(w) for edge, w in sorted(weights.items())}


def reference_likes_answers_correlation(profiles, split=50):
    below_x, below_y, above_x, above_y = [], [], [], []
    for owner in sorted(profiles):
        profile = profiles[owner]
        if not profile["fully_sampled"]:
            continue
        n_q = len(profile["questions"])
        likes = sum(like_count(q) for q in profile["questions"])
        if n_q < split:
            below_x.append(n_q)
            below_y.append(likes)
        else:
            above_x.append(n_q)
            above_y.append(likes)
    return _pearson(below_x, below_y), _pearson(above_x, above_y)


def reference_group_row(name, members, content, node, unresolved=()):
    """A group row over `members`, user by user: each mean is a Python sum
    in the members' order divided by their count, likes per answer a ratio
    of int sums, and an empty group's are None. `content` and `node` map a
    user to its `reference_content` row and its node-table values."""
    n = len(members)

    def mean(values):
        return sum(values) / n if n else None

    likes, answers, neg_q, pos_q, neg_w, pos_w = (
        [content[u][c] for u in members] for c in range(6))
    neg_recip, nonneg_recip, neg_in, nonneg_in, neg_out, nonneg_out, local = (
        [node[u][c] for u in members] for c in range(7))
    return GroupRow(
        name=name, count=n,
        mean_neg_reciprocity=mean(neg_recip), mean_nonneg_reciprocity=mean(nonneg_recip),
        mean_neg_in_degree=mean(neg_in), mean_nonneg_in_degree=mean(nonneg_in),
        mean_neg_out_degree=mean(neg_out), mean_nonneg_out_degree=mean(nonneg_out),
        mean_total_likes=mean(likes),
        likes_per_answer=sum(likes) / sum(answers) if sum(answers) else None,
        mean_local_clustering=mean(local), mean_answers=mean(answers),
        mean_neg_questions=mean(neg_q), mean_pos_questions=mean(pos_q),
        mean_neg_words=mean(neg_w), mean_pos_words=mean(pos_w),
        unresolved_ids=unresolved,
    )


def reference_labeled_row(label_file, content, node):
    ids = label_file.user_ids
    resolved = sorted(ids & content.keys())
    if not resolved:
        return f"label set {label_file.label!r} has no fully sampled users in the corpus"
    return reference_group_row(label_file.label, resolved, content, node,
                               tuple(sorted(ids - content.keys())))


# --- random corpora -------------------------------------------------------

_SPELLINGS = st.sampled_from(WORDS + ["ugly's", "f*t", "ni_ce", "ÜGLY", "x"]).flatmap(
    lambda w: st.sampled_from([w, w.upper(), w.capitalize()])
)
_SEPARATORS = st.sampled_from([" ", ", ", "!", "... ", " - ", "\n", "?"])
_TEXTS = st.lists(st.tuples(_SPELLINGS, _SEPARATORS), max_size=8).map(
    lambda parts: "".join(w + s for w, s in parts)
)
_QUESTIONS = st.lists(
    st.tuples(
        _TEXTS,
        st.lists(st.sampled_from(USERS + ["ghost"]), unique=True, max_size=4),
        st.one_of(st.none(), st.integers(1, 60)),
    ),
    max_size=6,
)


@st.composite
def corpora(draw):
    """Profile records: owners in drawn order, not sorted, and questions in
    any like-count order, since the rows must not depend on either."""
    owners = draw(st.lists(st.sampled_from(USERS), min_size=1, unique=True))
    records = []
    for owner in owners:
        # a like count without liker ids, as `load_corpus` accepts it, when
        # `unlisted` is drawn; "ghost" likes without a profile
        questions = [
            {"text": t, "likers": likers} if unlisted is None
            else {"text": t, "answer": t[::-1], "like_count": unlisted}
            for t, likers, unlisted in draw(_QUESTIONS)
        ]
        # frontier stubs usually have no questions, but may
        records.append({"owner": owner, "fully_sampled": draw(st.booleans()),
                        "questions": questions})
    return records


def tagged_over(records, vocab, superset):
    """The records parsed over `vocab`, or over a superset of every
    vocabulary, so consumers also reduce a matrix with columns they do not
    read."""
    return from_records(records, [*WORDS, "zzz"] if superset else vocab)


# --- the properties -------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(corpora())
def test_columns_match_the_object_built_reference(records):
    """The parse builds the columns the object model did; they survive a
    rewrite of the file by a crawl's second pass and a load, and the
    rewrite reads back as the checked records, texts and answers too."""
    expected = reference_columns(records)
    assert corpus_columns(from_records(records)) == expected
    with tempfile.TemporaryDirectory() as tmp:
        path, rewrite = Path(tmp) / "corpus.jsonl", Path(tmp) / "rewritten.jsonl"
        write_lines(path, map(json.dumps, records))
        write_lines(rewrite, rewritten(path))
        assert file_records(rewrite) == checked_records(records)
        assert corpus_columns(load_corpus(rewrite, ())) == expected


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**32), st.integers(1, 40), st.data())
def test_crawl_columns_match_the_object_built_reference(n_users, seed, budget, data):
    """A crawl is written as its profile records: the crawled ground truth
    records in crawl order, then a stub per frontier id, sorted; the crawl
    parses to the columns of those records."""
    truth, _, _ = synthetic(GenParams(
        n_users=n_users, group_mix={"OTHR": 1.0}, questions_per_user=(0, 4), like_rate=1.5,
        neg_vocab=("ugly",), pos_vocab=("nice",), rng_seed=seed,
    ))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "truth.jsonl"
        write_lines(path, map(json.dumps, truth))
        with CorpusFile(path) as held:
            gt = held.corpus
            liked = [u for u, likes in zip(gt.owners, gt.total_likes.tolist()) if likes]
            if not liked:
                return
            seeds = data.draw(st.lists(st.sampled_from(liked), min_size=1, max_size=3))
            sample = snowball_sample(gt, seeds, budget)
            written = list(held.lines(*sample))
    assert written == crawl_lines(truth, gt, sample)
    records = [json.loads(line) for line in written]
    assert [r["owner"] for r in records] == [*crawl_order(gt, sample),
                                             *sorted(frontier(gt, sample))]
    loaded = from_records(records)
    assert corpus_columns(loaded) == reference_columns(records)
    assert loaded.strangers == ()


@settings(max_examples=100, deadline=None)
@given(corpora())
def test_counts_rows_are_the_string_hits(records):
    tagged = from_records(records, WORDS)
    hits = reference_hits(normalized(records), set(WORDS))
    assert tagged.vocab == tuple(WORDS)
    assert tagged.owners == tuple(sorted(hits))
    # rows profile by profile in record order
    rows = [(tagged.owners.index(r["owner"]), words) for r in records
            for words in hits[r["owner"]]]
    assert tagged.owner.tolist() == [k for k, _ in rows]
    counts = to_scipy(tagged.counts)
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
def test_content_table_and_corpus_stats_match_hit_counts(records, superset):
    profiles = normalized(records)
    for neg, pos in ((NEG, POS), (NEG_WS, POS_WS)):
        table = content_table(tagged_over(records, {*neg, *pos}, superset), neg, pos)
        expected = reference_content(profiles, neg, pos)
        assert table.users == tuple(expected)
        columns = (table.total_likes, table.n_answers, table.n_neg_questions,
                   table.n_pos_questions, table.n_neg_words, table.n_pos_words)
        assert all(c.dtype == np.int64 for c in columns)
        assert [tuple(r) for r in zip(*(c.tolist() for c in columns))] == list(expected.values())
    if any(p["fully_sampled"] for p in profiles.values()):
        stats = corpus_stats(tagged_over(records, NEG | POS, superset), NEG, POS)
        assert stats == reference_corpus_stats(profiles, NEG, POS)
    else:
        with pytest.raises(ValueError, match="fully sampled"):
            corpus_stats(tagged_over(records, NEG | POS, superset), NEG, POS)


@settings(max_examples=100, deadline=None)
@given(corpora(), st.booleans())
def test_bipartite_incidence_matches_string_hits(records, superset):
    profiles = normalized(records)
    for lexicon in (NEG, POS):
        corpus = tagged_over(records, lexicon, superset)
        b = build_bipartite(corpus, lexicon)
        assert b.nodes == tuple(sorted(lexicon))
        assert corpus.owners == tuple(sorted(profiles))
        assert b.adjacency.shape == (len(lexicon), len(corpus.owners))
        incidence = to_scipy(b.adjacency)
        incidence.check_format(full_check=True)
        assert incidence.dtype == np.int64 and incidence.has_canonical_format
        dense = incidence.toarray()
        assert set(dense.ravel().tolist()) <= {0, 1}
        linked = {(b.nodes[i], corpus.owners[j]) for i, j in zip(*np.nonzero(dense))}
        assert linked == reference_incidence(profiles, lexicon)


@settings(max_examples=100, deadline=None)
@given(corpora(), st.booleans(), st.sampled_from(WORDS + ["zzz"]))
def test_cooccurrence_matches_the_profile_loop(records, superset, core):
    profiles = normalized(records)
    for word_set in (NEG_WS, POS_WS):
        corpus = tagged_over(records, {core, *word_set}, superset)
        expected = reference_cooccurrence(profiles, core, word_set)
        if expected is None:
            with pytest.raises(ValueError, match="no profile contains"):
                cooccurrence_distribution(corpus, core, word_set)
            continue
        entries = cooccurrence_distribution(corpus, core, word_set)
        assert entries == expected
        assert all(type(v) is float for _, v in entries)


@settings(max_examples=100, deadline=None)
@given(corpora(), st.booleans(), st.integers(1, 4))
def test_interaction_weights_match_the_question_loop(records, superset, top_k):
    profiles = normalized(records)
    graph = build_interaction_graph(tagged_over(records, NEG_WS, superset), NEG_WS, top_k=top_k)
    assert graph.nodes == tuple(sorted(u for u, p in profiles.items() if p["fully_sampled"]))
    assert dict(edge_map(graph)) == reference_weights(profiles, NEG_WS, top_k)


@settings(max_examples=100, deadline=None)
@given(corpora(), st.booleans(), st.integers(1, 6))
def test_like_columns_match_the_question_loops(records, superset, split):
    profiles = normalized(records)
    tagged = tagged_over(records, (), superset)
    owners = sorted(profiles)
    assert tagged.sampled.tolist() == [profiles[u]["fully_sampled"] for u in owners]
    assert tagged.total_likes.dtype == np.int64
    assert tagged.total_likes.tolist() == [
        sum(like_count(q) for q in profiles[u]["questions"]) for u in owners
    ]
    assert tagged.liker.dtype == np.int32 and tagged.liker_ptr.dtype == np.int64
    # a liker without a profile reads as -1
    liker = np.where(tagged.liker < len(owners), tagged.liker, -1)
    ptr = tagged.liker_ptr.tolist()
    assert [liker[a:b].tolist() for a, b in zip(ptr, ptr[1:])] == [
        [owners.index(v) if v in profiles else -1 for v in q.get("likers", [])]
        for r in records for q in profiles[r["owner"]]["questions"]
    ]
    # the drawn profiles hold a few questions each: a split of 1-6 puts
    # some on each side of it
    with mock.patch.object(interaction, "LIKES_SPLIT", split):
        assert likes_answers_correlation(tagged) == (
            reference_likes_answers_correlation(profiles, split)
        )


def outcome(fn, *args):
    """`fn(*args)`, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def columns(value):
    """A dataclass's fields, with arrays as lists so they compare by `==`."""
    return [
        v.tolist() if isinstance(v, np.ndarray) else v
        for v in (getattr(value, f.name) for f in dataclasses.fields(value))
    ]


@settings(max_examples=100, deadline=None)
@given(corpora(), st.sampled_from(WORDS + ["zzz"]), st.integers(1, 4))
def test_analyses_read_only_the_tagged_columns(records, core, top_k):
    """The analyses read only the counts of their own words: counts of
    words they do not read change nothing."""
    wide = from_records(records, [*WORDS, "zzz"])
    exact = from_records(records, {*NEG, *POS, *NEG_WS, *POS_WS, core})

    def results(c):
        graph = build_interaction_graph(c, NEG_WS, top_k=top_k)
        bipartite = build_bipartite(c, NEG)
        return [
            graph.nodes,
            edge_rows(graph),
            columns(content_table(c, NEG_WS, POS_WS)),
            outcome(corpus_stats, c, NEG, POS),
            compute_metrics(c, node_table(graph)),
            (bipartite.nodes, c.owners, to_scipy(bipartite.adjacency).toarray().tolist()),
            outcome(cooccurrence_distribution, c, core, POS_WS),
        ]

    assert results(wide) == results(exact)


# Two profiles that like each other's question, holding a word of each word
# set and lexicon, so every analysis below succeeds over all the words it reads.
GUARD_RECORDS = [
    {"owner": "a", "questions": [{"text": "ugly day cool hate", "likers": ["b"]}]},
    {"owner": "b", "questions": [{"text": "nice fat movie", "likers": ["a"]}]},
]


@pytest.mark.parametrize("analysis, words", [
    (lambda c: content_table(c, NEG_WS, POS_WS), {*NEG_WS, *POS_WS}),
    (lambda c: corpus_stats(c, NEG, POS), NEG | POS),
    (lambda c: build_bipartite(c, POS), POS),
    (lambda c: cooccurrence_distribution(c, "ugly", POS_WS), {"ugly", *POS_WS}),
    (lambda c: build_interaction_graph(c, NEG_WS), set(NEG_WS)),
], ids=["content_table", "corpus_stats", "build_bipartite", "cooccurrence_distribution",
        "build_interaction_graph"])
def test_a_word_outside_the_vocabulary_fails_by_name(analysis, words):
    """Each analysis reads its words' counts through one checked lookup:
    over a vocabulary missing any word it reads (a lexicon's, a word set's
    or the core word), it raises ValueError naming that word, and over no
    vocabulary it raises ValueError too. It never counts a word as absent."""
    analysis(from_records(GUARD_RECORDS, words))
    for missing in sorted(words):
        corpus = from_records(GUARD_RECORDS, words - {missing})
        with pytest.raises(ValueError, match=rf"^the corpus holds no counts of \['{missing}'\]$"):
            analysis(corpus)
    with pytest.raises(ValueError, match=r"^the corpus holds no counts of \['"):
        analysis(from_records(GUARD_RECORDS))


@settings(max_examples=100, deadline=None)
@given(corpora(), st.booleans(), st.integers(1, 4),
       st.lists(st.sets(st.sampled_from(USERS + ["ghost", "u 0", "u00"])), max_size=3))
def test_group_and_label_rows_match_the_user_loop(records, superset, top_k, label_sets):
    """Every field of every group and label row equals the per-user loop's:
    members by sorted id, stubs and unknown ids unresolved, empty groups
    null. The node-table values are read per user; `test_networkx_oracle`
    checks them."""
    profiles = normalized(records)
    corpus = tagged_over(records, {*NEG_WS, *POS_WS}, superset)
    content = content_table(corpus, NEG_WS, POS_WS)
    table = node_table(build_interaction_graph(corpus, NEG_WS, top_k=top_k))
    expected = reference_content(profiles, NEG_WS, POS_WS)
    columns = (table.neg.node_reciprocity, table.nonneg.node_reciprocity, table.neg.in_deg,
               table.nonneg.in_deg, table.neg.out_deg, table.nonneg.out_deg,
               table.local_clustering)
    node = dict(zip(table.nodes, zip(*(c.tolist() for c in columns))))
    assert list(node) == list(expected) == list(content.users)

    codes = classify_corpus(content)
    assert [GROUPS[k] for k in codes.tolist()] == [
        classify_user(row[2], row[3]) for row in expected.values()]
    assert group_report(codes, content, table) == tuple(
        reference_group_row(g, [u for u, row in expected.items()
                                if classify_user(row[2], row[3]) == g], expected, node)
        for g in GROUPS)
    for k, ids in enumerate(label_sets):
        label_file = LabelFile(f"set{k}", frozenset(ids))
        assert outcome(labeled_report, label_file, content, table) == (
            reference_labeled_row(label_file, expected, node))
