import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import askgraph.corpus as corpus_mod
from askgraph.corpus import (
    Corpus,
    CorpusFormatError,
    Lexicon,
    LexiconError,
    Profile,
    Question,
    corpus_stats,
    load_corpus,
    load_lexicon,
    save_corpus,
    tag_corpus,
    tokenize,
)
from askgraph.data import bundled_lexicon_path


def write_corpus_file(tmp_path, records, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return path


class TestTokenize:
    def test_basic_rules(self):
        assert tokenize("You're so FAT!") == ["you're", "so", "fat"]

    def test_empty(self):
        assert tokenize("") == []

    def test_separators(self):
        assert tokenize("a-b  c") == ["a", "b", "c"]

    def test_censored_forms_stay_whole(self):
        assert tokenize("f**k this s**t") == ["f**k", "this", "s**t"]

    @given(st.text(max_size=200))
    def test_idempotent_on_own_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


class TestLoadCorpus:
    def test_questions_sorted_by_likes(self, tmp_path):
        path = write_corpus_file(tmp_path, [{
            "owner": "alice",
            "fully_sampled": True,
            "questions": [
                {"text": "first", "likers": ["b"], "like_count": 1},
                {"text": "second", "likers": ["b", "c", "d"], "like_count": 3},
            ],
        }])
        corp = load_corpus(path)
        assert len(corp) == 1
        texts = [q.text for q in corp["alice"].questions]
        assert texts == ["second", "first"]

    def test_tie_keeps_input_order(self, tmp_path):
        path = write_corpus_file(tmp_path, [{
            "owner": "a",
            "questions": [
                {"text": "x", "likers": ["b"], "like_count": 1},
                {"text": "y", "likers": ["c"], "like_count": 1},
            ],
        }])
        assert [q.text for q in load_corpus(path)["a"].questions] == ["x", "y"]

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(load_corpus(path)) == 0

    def test_like_count_mismatch_reports_line(self, tmp_path):
        path = write_corpus_file(tmp_path, [
            {"owner": "a", "questions": []},
            {"owner": "b", "questions": [
                {"text": "hi", "likers": ["a", "c"], "like_count": 3},
            ]},
        ])
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(path)
        assert exc.value.line_no == 2

    def test_duplicate_owner_rejected(self, tmp_path):
        path = write_corpus_file(tmp_path, [
            {"owner": "a", "questions": []},
            {"owner": "a", "questions": []},
        ])
        with pytest.raises(CorpusFormatError, match="duplicate owner"):
            load_corpus(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"owner": "a", "questions": []}\nnot json\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(path)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("profile_fields,question_fields", [
        ({"fully_sampled": "false"}, {}),
        ({"fully_sampled": 0}, {}),
        ({}, {"answer": None}),
        ({}, {"answer": 3}),
        ({}, {"like_count": True, "likers": ["b"]}),
    ], ids=["sampled-string", "sampled-int", "answer-null", "answer-int", "likes-bool"])
    def test_mistyped_field_reports_line(self, tmp_path, profile_fields, question_fields):
        bad = {
            "owner": "b",
            "questions": [{"text": "hi", **question_fields}],
            **profile_fields,
        }
        path = write_corpus_file(tmp_path, [{"owner": "a", "questions": []}, bad])
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(path)
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("text", ["x \\ud800", "\\udfff", "\\ud83d\\ud83d"])
    def test_lone_surrogate_escape_reports_line(self, tmp_path, text):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"owner": "a", "questions": [{"text": "\\ud83d\\ude00 \\u00e9"}]}\n'
                        '{"owner": "b", "questions": [{"text": "%s"}]}\n' % text,
                        encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="lone surrogate") as exc:
            load_corpus(path)
        assert exc.value.line_no == 2

    def test_absent_optional_fields_take_defaults(self, tmp_path):
        path = write_corpus_file(tmp_path, [{"owner": "a", "questions": [{"text": "hi"}]}])
        profile = load_corpus(path)["a"]
        assert profile.fully_sampled is True
        assert profile.questions[0].answer == ""
        assert profile.questions[0].like_count == 0

    def test_save_load_round_trip_bytes(self, tmp_path):
        path = write_corpus_file(tmp_path, [{
            "owner": "a",
            "fully_sampled": False,
            "questions": [
                {"text": "hey", "answer": "yo", "likers": ["b"], "like_count": 1},
                {"text": "top", "likers": ["b", "c"], "like_count": 2},
            ],
        }])
        corp = load_corpus(path)
        first = tmp_path / "first.jsonl"
        save_corpus(corp, first)
        second = tmp_path / "second.jsonl"
        save_corpus(load_corpus(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_like_count_without_likers_round_trips(self, tmp_path):
        path = write_corpus_file(tmp_path, [{"owner": "a", "questions": [
            {"text": "hi", "like_count": 3},
        ]}])
        out = tmp_path / "saved.jsonl"
        save_corpus(load_corpus(path), out)
        assert load_corpus(out)["a"].questions == (Question("hi", (), 3),)


# Text that stresses the line format: line breaks JSON must escape, separators
# a reader might split on (U+2028, U+2029, U+0085), and edge whitespace.
_TRICKY = st.sampled_from("\r\n\u2028\u2029\x85 \t\ufeff")
_TEXT = st.one_of(
    st.text(max_size=10),
    st.tuples(st.text(max_size=5), _TRICKY, st.text(max_size=5)).map("".join),
)


@st.composite
def questions(draw):
    likers = draw(st.lists(_TEXT, unique=True, max_size=4))
    # a record may give like_count without likers; the loader keeps the count
    like_count = len(likers) if likers else draw(st.sampled_from([0, 0, 3]))
    return Question(text=draw(_TEXT), likers=tuple(likers), like_count=like_count,
                    answer=draw(_TEXT))


@st.composite
def corpora(draw):
    owners = draw(st.lists(_TEXT.filter(bool), unique=True, max_size=5))
    profiles = {}
    for owner in owners:
        qs = draw(st.lists(questions(), max_size=4))
        qs.sort(key=lambda q: -q.like_count)  # the order load_corpus normalizes to
        profiles[owner] = Profile(owner, tuple(qs), fully_sampled=draw(st.booleans()))
    return Corpus(profiles)


class TestSaveLoadRoundTrip:
    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("round_trip")

    @settings(max_examples=150, deadline=None)
    @given(corpora())
    def test_round_trip(self, out_dir, corpus):
        first, second = out_dir / "first.jsonl", out_dir / "second.jsonl"
        save_corpus(corpus, first)
        loaded = load_corpus(first)
        assert list(loaded.profiles.items()) == list(corpus.profiles.items())
        save_corpus(loaded, second)
        assert second.read_bytes() == first.read_bytes()


class TestLoadLexicon:
    def test_lowercase_dedup(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("Hate\nhate\nugly\n", encoding="utf-8")
        lex = load_lexicon(path, "negative")
        assert lex.words == frozenset({"hate", "ugly"})

    def test_comments_only_is_empty(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("# nothing here\n\n# nope\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="empty"):
            load_lexicon(path, "negative")

    def test_multiword_entry_rejected(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("ugly\nso bad\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="multi-word"):
            load_lexicon(path, "negative")

    @pytest.mark.parametrize("entry", ["bad-word", "İstanbul", "_x", "x."])
    def test_entry_that_is_not_one_token_rejected_with_line(self, tmp_path, entry):
        path = tmp_path / "lex.txt"
        path.write_text(f"# header\nugly\n{entry}\n", encoding="utf-8")
        with pytest.raises(LexiconError, match=f"^line 3: entry {entry!r} is not a single"):
            load_lexicon(path, "negative")

    @pytest.mark.parametrize("polarity", ["negative", "positive"])
    def test_bundled_lexicon_size_matches_file(self, polarity):
        path = bundled_lexicon_path(polarity)
        lex = load_lexicon(path, polarity)
        expected = {
            line.strip().lower()
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.startswith("#")
        }
        assert len(lex) == len(expected)
        assert len(lex) > 100


# Lexicon entries: plain words, and text mixing the characters that join
# tokens (' and *), split them (- _ .), or change under lowercasing (U+0130
# lowercases to "i" plus a combining dot, which splits a token).
def row_counts(tagged):
    """Each question's tagged words with their occurrence counts, by row."""
    return [
        Counter(dict(zip([tagged.vocab[j] for j in row.indices], row.data.tolist())))
        for row in tagged.counts
    ]


_ENTRIES = st.one_of(
    st.from_regex(r"[a-zA-Z0-9'*]{1,6}", fullmatch=True),
    st.text(st.one_of(st.sampled_from("aZ9'*-_.İΣé\u0301"), st.characters(exclude_categories=["Cs"])),
            min_size=1, max_size=6),
).filter(lambda e: not e.startswith("#") and not any(c.isspace() for c in e))
# Punctuation and whitespace around an entry in a question; ' and * are
# token characters, so they are not punctuation here.
_GAP = st.text(st.characters(categories=["P", "Z"], exclude_characters="'*"), max_size=3)


class TestLexiconEntriesMatchTokens:
    @pytest.fixture(scope="class")
    def lex_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("lexicon")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ENTRIES, min_size=1, max_size=4), _GAP, _GAP)
    def test_accepted_entries_are_tagged_and_rejected_ones_name_their_line(
        self, lex_dir, entries, before, after
    ):
        """An entry is accepted exactly when `tag_corpus` finds it, as written
        in the file, in a question that is that entry inside punctuation."""

        def found(entry):
            corp = Corpus({"u": Profile("u", (Question(before + entry + after),))})
            return row_counts(tag_corpus(corp, {entry.lower()})) == [{entry.lower(): 1}]

        path = lex_dir / "lex.txt"
        path.write_text("# header\n" + "\n".join(entries) + "\n", encoding="utf-8")
        try:
            lex = load_lexicon(path, "negative")
        except LexiconError as exc:
            bad = int(re.match(r"line (\d+): ", str(exc)).group(1)) - 2
            assert all(found(e) for e in entries[:bad]) and not found(entries[bad])
        else:
            assert lex.words == {e.lower() for e in entries}
            assert all(found(e) for e in entries)


NEG = Lexicon("negative", frozenset({"ugly", "fat"}))
POS = Lexicon("positive", frozenset({"nice", "beautiful"}))


VOCAB = NEG.words | POS.words


def tag(question):
    """The tagged words of one question, with its negative/positive flags."""
    corp = Corpus({"a": Profile(owner="a", questions=(question,))})
    (words,) = row_counts(tag_corpus(corp, VOCAB))
    return words, any(w in NEG for w in words), any(w in POS for w in words)


class TestTagQuestion:
    """Tagging through `tag_corpus`, one question at a time."""

    def test_repeated_word_counts_occurrences(self):
        words, is_negative, is_positive = tag(Question("you are ugly ugly"))
        assert is_negative and not is_positive
        assert Counter({w: c for w, c in words.items() if w in NEG}) == {"ugly": 2}

    def test_positive_only(self):
        _, is_negative, is_positive = tag(Question("nice day"))
        assert not is_negative and is_positive

    def test_both_flags(self):
        _, is_negative, is_positive = tag(Question("fat but beautiful"))
        assert is_negative and is_positive

    def test_answer_never_scanned(self):
        _, is_negative, _ = tag(Question("hello there", answer="you ugly"))
        assert not is_negative


class TestTagCorpus:
    def test_rows_count_each_questions_words(self):
        corp = Corpus({"a": Profile(owner="a", questions=(
            Question("Fat and UGLY, so fat"), Question("plain"), Question("other"),
        ))})
        tagged = tag_corpus(corp, {"fat", "ugly"})
        assert row_counts(tagged) == [{"fat": 2, "ugly": 1}, {}, {}]
        assert tagged.counts.dtype == np.int64 and tagged.counts.has_canonical_format

    def test_tokenizes_each_question_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            corpus_mod, "tokenize", lambda text: calls.append(text) or tokenize(text)
        )
        corp = Corpus({
            "a": Profile(owner="a", questions=(Question("ugly"), Question("nice"))),
            "b": Profile(owner="b", questions=(Question("fat"),)),
        })
        tagged = tag_corpus(corp, VOCAB)
        assert sorted(calls) == ["fat", "nice", "ugly"]
        assert tagged.owners == ("a", "b") and tagged.owner.tolist() == [0, 0, 1]
        assert row_counts(tagged) == [{"ugly": 1}, {"nice": 1}, {"fat": 1}]

    def test_tagged_corpus_is_reused_for_a_smaller_vocabulary(self):
        corp = Corpus({"a": Profile(owner="a", questions=(Question("ugly nice"),))})
        tagged = tag_corpus(corp, VOCAB)
        assert tag_corpus(tagged, NEG.words) is tagged
        assert tagged["a"] is corp["a"] and len(tagged) == 1
        wider = tag_corpus(tagged, VOCAB | {"day"})
        assert wider is not tagged and wider.vocab == tuple(sorted(VOCAB | {"day"}))


def make_profile(owner, texts, likes_each=0):
    questions = tuple(
        Question(text=t, likers=tuple(f"l{i}_{k}" for k in range(likes_each)),
                 like_count=likes_each)
        for i, t in enumerate(texts)
    )
    return Profile(owner=owner, questions=questions)


class TestCorpusStats:
    def test_single_empty_profile(self):
        corp = Corpus({"a": make_profile("a", [])})
        stats = corpus_stats(corp, NEG, POS)
        assert stats.avg_answers_per_user == 0
        assert stats.avg_neg_questions == 0
        assert stats.pct_users_with_pos_q == 0

    def test_hand_counted_averages(self):
        corp = Corpus({
            "a": make_profile("a", ["you ugly", "so fat ugly"]),
            "b": make_profile("b", ["nice one"]),
        })
        stats = corpus_stats(corp, NEG, POS)
        assert stats.avg_neg_questions == 1.0
        assert stats.pct_users_with_neg_q == 50.0
        assert stats.avg_neg_words == 1.5  # 3 occurrences over 2 users
        assert stats.pct_users_with_pos_q == 50.0
        assert stats.avg_answers_per_user == 1.5

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_stats(Corpus({}), NEG, POS)

    def test_frontier_stubs_are_not_users(self):
        stub = Profile(owner="s", questions=(), fully_sampled=False)
        corp = Corpus({"a": make_profile("a", ["you ugly", "nice"]), "s": stub})
        stats = corpus_stats(corp, NEG, POS)
        assert stats.avg_answers_per_user == 2.0
        assert stats.pct_users_with_neg_q == 100.0
        with pytest.raises(ValueError):
            corpus_stats(Corpus({"s": stub}), NEG, POS)

    def test_neg_questions_bounded_by_answers(self):
        corp = Corpus({
            "a": make_profile("a", ["ugly fat ugly", "ugly", "hello"]),
        })
        stats = corpus_stats(corp, NEG, POS)
        assert stats.avg_neg_questions <= stats.avg_answers_per_user
