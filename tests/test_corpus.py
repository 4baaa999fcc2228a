import json
import os
import random
import re
import tracemalloc
from collections import Counter
from dataclasses import fields
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import askgraph.corpus as corpus_mod
from askgraph.cli import main
from askgraph.corpus import (
    _TOKEN_RE,
    CSR,
    Corpus,
    CorpusFile,
    CorpusFormatError,
    LexiconError,
    corpus_stats,
    load_corpus,
    load_lexicon,
    tokenize,
)
from askgraph.data import bundled_lexicon_path
from helpers import (
    checked_records, compact, crawl_lines, file_records, from_records, rewritten, to_scipy,
    write_lines,
)


def write_corpus_file(tmp_path, records, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return path


def shuffled_copy(path, name="shuffled.jsonl"):
    """A copy of a corpus file beside it, its profiles shuffled and each
    listing its questions by ascending like count, ties in file order."""
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    random.Random(5).shuffle(records)
    for record in records:
        record["questions"].sort(key=lambda q: q["like_count"])
    return write_corpus_file(path.parent, records, name)


def profiles(path):
    """The corpus file's profile records by owner, as a crawl's second pass
    writes them back."""
    return {record["owner"]: record for record in file_records(path)}


def columns(corpus, leave_out=()):
    """Every column of a corpus but those named in `leave_out`, each array
    as its dtype and values and `counts` as its shape and arrays, so that
    two corpora compare by `==`."""
    def plain(value):
        if isinstance(value, CSR):
            return value.shape, [plain(a) for a in (value.indptr, value.indices, value.data)]
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.tolist()
        return value

    return {f.name: plain(getattr(corpus, f.name)) for f in fields(Corpus)
            if f.name not in leave_out}


def format_error(path):
    """The CorpusFormatError that loading `path` raises: the same message
    and line whether the corpus is loaded over no vocabulary, over some
    words, or by a crawl's first pass over it."""
    errors = []
    for load in (lambda p: load_corpus(p, ()), lambda p: load_corpus(p, {"hi", "x", "ugly"}),
                 CorpusFile):
        with pytest.raises(CorpusFormatError) as exc:
            load(path)
        errors.append(exc.value)
    text = errors[0]
    for other in errors[1:]:
        assert (str(other), other.line_no) == (str(text), text.line_no)
    return text


def line_ends(path, end, name):
    """A copy of the corpus file at `path` beside it, each of its line ends
    replaced by `end`."""
    copy = path.with_name(name)
    copy.write_bytes(path.read_bytes().replace(b"\n", end))
    return copy


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

    def test_ascii_pairs_read_as_the_token_pattern(self):
        """Every pair of ASCII characters, alone and between token and
        non-token characters, splits as `_TOKEN_RE` splits it."""
        for a in map(chr, range(128)):
            for b in map(chr, range(128)):
                for text in (a + b, f"x{a}{b}y", f"'{a}*{b} "):
                    assert tokenize(text) == _TOKEN_RE.findall(text.lower()), repr(text)

    @settings(max_examples=300)
    @given(st.one_of(st.text(st.characters(max_codepoint=127), max_size=80),
                     st.text(st.sampled_from("aZ9_'* \t\x00-.\x7f"), max_size=40),
                     st.text(max_size=80)))
    def test_is_the_token_pattern_over_the_lowercased_text(self, text):
        """An ASCII text takes the byte translation and any other the
        pattern; both give the pattern's tokens of the lowercased text."""
        assert tokenize(text) == _TOKEN_RE.findall(text.lower())


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
        assert len(load_corpus(path, ())) == 1
        texts = [q["text"] for q in profiles(path)["alice"]["questions"]]
        assert texts == ["second", "first"]

    def test_tie_keeps_input_order(self, tmp_path):
        path = write_corpus_file(tmp_path, [{
            "owner": "a",
            "questions": [
                {"text": "x", "likers": ["b"], "like_count": 1},
                {"text": "y", "likers": ["c"], "like_count": 1},
            ],
        }])
        assert [q["text"] for q in profiles(path)["a"]["questions"]] == ["x", "y"]

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(load_corpus(path, ())) == 0

    def test_like_count_mismatch_reports_line(self, tmp_path):
        path = write_corpus_file(tmp_path, [
            {"owner": "a", "questions": []},
            {"owner": "b", "questions": [
                {"text": "hi", "likers": ["a", "c"], "like_count": 3},
            ]},
        ])
        assert format_error(path).line_no == 2

    def test_duplicate_owner_rejected(self, tmp_path):
        path = write_corpus_file(tmp_path, [
            {"owner": "a", "questions": []},
            {"owner": "a", "questions": []},
        ])
        assert "duplicate owner" in str(format_error(path))

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"owner": "a", "questions": []}\nnot json\n', encoding="utf-8")
        assert format_error(path).line_no == 2

    @pytest.mark.parametrize("line,message", [
        ('{"owner": "b"} {"owner": "c"}', "Extra data: line 1 column 16 (char 15)"),
        ('{"owner": "b"}]', "Extra data: line 1 column 15 (char 14)"),
        ('\ufeff{"owner": "b"}',
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        ('{"owner": "b", "questions": [', "Expecting value: line 1 column 30 (char 29)"),
        ('{"owner": "b" "questions": []}',
         "Expecting ',' delimiter: line 1 column 15 (char 14)"),
    ], ids=["extra-object", "extra-bracket", "bom-led", "truncated", "no-comma"])
    def test_invalid_json_reports_what_json_loads_reports(self, tmp_path, line, message):
        """A line is read by the decoder's scanner, but a line it does not
        read whole fails with the message `json.loads` gives, on its line."""
        path = tmp_path / "bad.jsonl"
        path.write_text('{"owner": "a"}\n\n' + line + "\n", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as loads:
            json.loads(line)
        assert str(loads.value) == message
        assert str(format_error(path)) == f"line 3: invalid JSON: {message}"

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_lines_end_as_text_mode_ends_them(self, tmp_path, end):
        """A file whose lines end in CRLF or a lone CR loads as the same
        file with LF ends, and a fault on line k is reported on line k."""
        assert main(["synth", "--seed", "3", "--n-users", "40", "--out", str(tmp_path)]) == 0
        path = tmp_path / "corpus.jsonl"
        copy = line_ends(path, end, "ends.jsonl")
        assert file_records(copy) == file_records(path)
        assert columns(load_corpus(copy, VOCAB)) == columns(load_corpus(path, VOCAB))
        lines = path.read_bytes().split(b"\n")
        lines[7] = lines[7].replace(b'"like_count":', b'"like_count":-', 1)
        path.write_bytes(b"\n".join(lines[:5] + [b""] + lines[5:]))  # the fault on line 9
        for faulty in (path, line_ends(path, end, "faulty.jsonl")):
            error = format_error(faulty)
            assert error.line_no == 9 and "like_count must be a nonnegative integer" in str(error)

    @pytest.mark.parametrize("profile_fields,question_fields", [
        ({"fully_sampled": "false"}, {}),
        ({"fully_sampled": 0}, {}),
        ({}, {"answer": None}),
        ({}, {"answer": 3}),
        ({}, {"like_count": True, "likers": ["b"]}),
        ({}, {"like_count": 2**63}),
    ], ids=["sampled-string", "sampled-int", "answer-null", "answer-int", "likes-bool",
            "likes-past-int64"])
    def test_mistyped_field_reports_line(self, tmp_path, profile_fields, question_fields):
        bad = {
            "owner": "b",
            "questions": [{"text": "hi", **question_fields}],
            **profile_fields,
        }
        path = write_corpus_file(tmp_path, [{"owner": "a", "questions": []}, bad])
        assert format_error(path).line_no == 2

    @pytest.mark.parametrize("text", ["x \\ud800", "\\udfff", "\\ud83d\\ud83d"])
    def test_lone_surrogate_escape_reports_line(self, tmp_path, text):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"owner": "a", "questions": [{"text": "\\ud83d\\ude00 \\u00e9"}]}\n'
                        '{"owner": "b", "questions": [{"text": "%s"}]}\n' % text,
                        encoding="utf-8")
        error = format_error(path)
        assert "lone surrogate" in str(error) and error.line_no == 2

    @pytest.mark.parametrize("bad, message", [
        (b"\xff", "byte 0xff in position 45: invalid start byte"),
        (b"\xed\xa0\x80", "byte 0xed in position 45: invalid continuation byte"),  # U+D800
    ], ids=["invalid-start", "encoded-surrogate"])
    def test_byte_that_is_not_utf8_reports_line(self, tmp_path, bad, message):
        """The error names the line and the byte's position in it, counted
        in bytes, not a position in the decoder's chunk, whatever ends the
        lines."""
        good = '{"owner": "u%03d", "questions": [{"text": "caf\u00e9 \U0001f600 hi"}]}\n'
        path = tmp_path / "bad.jsonl"
        data = ("".join(good % k for k in range(200)).encode("utf-8")
                + '{"owner": "b", "questions": [{"text": "caf\u00e9 '.encode("utf-8")
                + bad + b' hi"}]}\n')
        for end in (b"\n", b"\r\n", b"\r"):
            path.write_bytes(data.replace(b"\n", end))
            assert path.stat().st_size > 8192  # past the text reader's first chunk
            error = format_error(path)
            assert error.line_no == 201
            assert str(error) == f"line 201: 'utf-8' codec can't decode {message}"

    def test_like_total_past_int64_reports_line(self, tmp_path):
        half = {"text": "hi", "like_count": 2**62}
        path = write_corpus_file(tmp_path, [
            {"owner": "a", "questions": [half]},
            {"owner": "b", "questions": [half, half]},
        ])
        error = format_error(path)
        assert "sum past the int64 range" in str(error) and error.line_no == 2

    @pytest.mark.parametrize("likes", [[1, 0, 2**64], [2**62, 2**62 - 1, 1]],
                             ids=["2**64-after-valid-questions", "past-int64-on-the-last"])
    def test_like_total_past_int64_late_in_a_profile_reports_line(self, tmp_path, likes):
        questions = [{"text": "hi", "likers": ["a"] * n, "like_count": n} if n < 2 else
                     {"text": "hi", "like_count": n} for n in likes]
        path = write_corpus_file(tmp_path, [
            {"owner": "a", "questions": [{"text": "hi", "like_count": 2**62}]},
            {"owner": "b", "questions": questions},
        ])
        error = format_error(path)
        assert "sum past the int64 range" in str(error) and error.line_no == 2

    def test_question_that_is_a_mapping_but_no_object_is_rejected(self):
        """A record handed to the parse is read as JSON would give it: a
        question must be a dict, not any mapping."""
        question = MappingProxyType({"text": "hi", "answer": "", "likers": [], "like_count": 0})
        with pytest.raises(CorpusFormatError, match="^line 1: question record must be an object"):
            from_records([{"owner": "a", "questions": [question]}])

    def test_absent_optional_fields_take_defaults(self, tmp_path):
        path = write_corpus_file(tmp_path, [{"owner": "a", "questions": [{"text": "hi"}]}])
        profile = profiles(path)["a"]
        assert profile["fully_sampled"] is True
        assert profile["questions"][0]["answer"] == ""
        assert profile["questions"][0]["like_count"] == 0

    def test_save_load_round_trip_bytes(self, tmp_path):
        """A file rewritten from its second pass's lines is the JSON of its
        checked records, and a rewrite of that is the same bytes."""
        records = [{
            "owner": "a",
            "fully_sampled": False,
            "questions": [
                {"text": "hey", "answer": "yo", "likers": ["b"], "like_count": 1},
                {"text": "top", "likers": ["b", "c"], "like_count": 2},
            ],
        }]
        path = write_corpus_file(tmp_path, records)
        first = write_lines(tmp_path / "first.jsonl", rewritten(path))
        assert first.read_text(encoding="utf-8").splitlines() == list(
            map(compact, checked_records(records)))
        second = write_lines(tmp_path / "second.jsonl", rewritten(first))
        assert first.read_bytes() == second.read_bytes()

    def test_like_count_without_likers_round_trips(self, tmp_path):
        path = write_corpus_file(tmp_path, [{"owner": "a", "questions": [
            {"text": "hi", "like_count": 3},
        ]}])
        out = write_lines(tmp_path / "saved.jsonl", rewritten(path))
        assert profiles(out)["a"]["questions"] == [{"text": "hi", "answer": "", "like_count": 3}]
        assert load_corpus(out, ()).like_count.tolist() == [3]


    def test_rows_in_order_load_as_a_shuffled_copy(self, tmp_path):
        """A copy of a synth file with the profiles shuffled, each listing
        its questions by ascending like count (ties in file order), loads to
        the same profiles: the same per-owner columns, and the same lines
        when both are written back in owner order."""
        assert main(["synth", "--seed", "3", "--n-users", "150", "--out", str(tmp_path)]) == 0
        paths = tmp_path / "corpus.jsonl", shuffled_copy(tmp_path / "corpus.jsonl")
        in_order, shuffled = (load_corpus(path, ()) for path in paths)
        assert in_order.liker_ptr[-1] > 0 and len(set(in_order.like_count.tolist())) > 1
        assert not np.array_equal(shuffled.owner, in_order.owner)
        for column in ("owners", "strangers", "sampled", "total_likes", "n_rows"):
            expected, actual = getattr(in_order, column), getattr(shuffled, column)
            if isinstance(expected, np.ndarray):
                assert actual.dtype == expected.dtype, column
                assert np.array_equal(actual, expected), column
            else:
                assert actual == expected, column
        saved = []
        for path in paths:
            with CorpusFile(path) as held:
                saved.append(list(held.lines(np.arange(len(held.corpus)), np.arange(0))))
        assert saved[1] == saved[0]

    @pytest.mark.parametrize("checked", [False, True], ids=["bulk", "one-by-one"])
    def test_a_profile_loads_in_like_order(self, tmp_path, checked):
        """A profile whose like counts rise, (1, 3, 0, 3), loads as rows
        (3, 3, 1, 0), the two 3s in input order, each with its own text,
        answer, likers and word counts, over no vocabulary and over its
        words, and is written back so. A copy that leaves out the one empty
        answer is checked one question at a time, and loads to the same
        columns."""
        words = ("ugly", "nice", "cool", "fat")
        questions = [{"text": f"{w} q{k}", "answer": f"a{k}" if n else "",
                      "likers": [f"v{k}{j}" for j in range(n)], "like_count": n}
                     for k, (w, n) in enumerate(zip(words, (1, 3, 0, 3)))]
        if checked:
            del questions[2]["answer"]
        assert (corpus_mod._bulk_questions(questions) is None) == checked
        path = write_corpus_file(tmp_path, [{"owner": "a", "questions": questions}])
        rows = [1, 3, 0, 2]
        bare, tagged = load_corpus(path, ()), load_corpus(path, words)
        (written,) = file_records(path)
        assert [q["text"] for q in written["questions"]] == [f"{words[k]} q{k}" for k in rows]
        assert [q["answer"] for q in written["questions"]] == ["a1", "a3", "a0", ""]
        for corp in (bare, tagged):
            assert corp.like_count.tolist() == [3, 3, 1, 0]
            assert (corp.first_row.tolist(), corp.n_rows.tolist()) == ([0], [4])
            ids, ptr = corp.owners + corp.strangers, corp.liker_ptr.tolist()
            assert [[ids[i] for i in corp.liker[a:b].tolist()] for a, b in zip(ptr, ptr[1:])] == [
                [f"v{k}{j}" for j in range(len(questions[k]["likers"]))] for k in rows]
        assert tagged.counts.indptr.tolist() == [0, 1, 2, 3, 4]
        assert [tagged.vocab[i] for i in tagged.counts.indices.tolist()] == [
            words[k] for k in rows]


@st.composite
def row_inputs(draw):
    """`Corpus.from_rows` arguments, as (ids, owner codes in file order,
    sampled flags, rows), each row (owner code, like count, liker codes).
    The rows list each profile's rows together, by
    descending like count, as `from_rows` requires; the profiles come in
    sorted owner order in half the draws and in any order in the other
    half. Like counts of 0 to 2 make ties, within a profile and across a
    profile boundary; a profile may have no rows, and a corpus none at all."""
    ids = draw(st.lists(st.text("abc", min_size=1, max_size=3), max_size=6, unique=True))
    owner_code = draw(st.permutations(range(len(ids))))[:draw(st.integers(0, len(ids)))]
    sampled = [draw(st.booleans()) for _ in owner_code]
    in_order = (sorted(owner_code, key=ids.__getitem__) if draw(st.booleans())
                else draw(st.permutations(owner_code)))
    rows = []
    for code in in_order:
        for likes in sorted(draw(st.lists(st.integers(0, 2), max_size=4)), reverse=True):
            listed = draw(st.booleans()) or not likes  # a like count may come without likers
            likers = draw(st.lists(st.integers(0, len(ids) - 1), min_size=likes,
                                   max_size=likes)) if listed else []
            rows.append((code, likes, likers))
    return ids, owner_code, sampled, rows


def input_order_reference(ids, owner_code, sampled, rows):
    """The columns `from_rows` builds, by lists: the rows in the order
    given, and each profile's first row (0 if it has none) and row count."""
    ranked = (sorted(owner_code, key=ids.__getitem__)
              + sorted(set(range(len(ids))) - set(owner_code), key=ids.__getitem__))
    position = {code: i for i, code in enumerate(ranked)}
    owner = [position[row[0]] for row in rows]
    flags = [False] * len(owner_code)
    for code, flag in zip(owner_code, sampled):
        flags[position[code]] = flag
    profiles = range(len(owner_code))
    return dict(
        owners=tuple(ids[c] for c in ranked[:len(owner_code)]),
        strangers=tuple(ids[c] for c in ranked[len(owner_code):]),
        order=[position[c] for c in owner_code], sampled=flags,
        total_likes=[sum(row[1] for row, k in zip(rows, owner) if k == i) for i in profiles],
        first_row=[owner.index(i) if i in owner else 0 for i in profiles],
        n_rows=[owner.count(i) for i in profiles],
        owner=owner, like_count=[row[1] for row in rows],
        liker_ptr=np.cumsum([0] + [len(row[2]) for row in rows]).tolist(),
        liker=[position[c] for row in rows for c in row[2]],
    )


class TestFromRows:
    @settings(max_examples=300, deadline=None)
    @given(row_inputs(), st.sampled_from([np.int32, np.int64]))
    def test_columns_match_an_input_order_reference(self, inputs, liker_dtype):
        ids, owner_code, sampled, rows = inputs
        no_words = CSR(np.zeros(len(rows) + 1, dtype=np.int64), np.zeros(0, dtype=np.int32),
                       np.zeros(0, dtype=np.int64), (len(rows), 0))
        corp = Corpus.from_rows(
            ids, owner_code, sampled, [row[0] for row in rows], [row[1] for row in rows],
            [len(row[2]) for row in rows],
            np.array([c for row in rows for c in row[2]], dtype=liker_dtype), (), no_words)
        assert corp.vocab == () and corp.counts is no_words
        for name, expected in input_order_reference(*inputs).items():
            actual = getattr(corp, name)
            if isinstance(actual, np.ndarray):
                assert actual.dtype == (np.int32 if name == "liker" else
                                        bool if name == "sampled" else np.int64), name
                actual = actual.tolist()
            assert actual == expected, name


def traced(make):
    """What `make()` returns, and the memory it retains and its peak, in
    bytes above what was allocated when tracing started."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = make()
        now, peak = tracemalloc.get_traced_memory()
        return made, now - before, peak - before
    finally:
        tracemalloc.stop()


BUNDLED_VOCAB = load_lexicon(bundled_lexicon_path("negative")) | load_lexicon(
    bundled_lexicon_path("positive"))


class TestLoadedCorpusMemory:
    def test_tagged_load_retains_under_three_quarters_of_the_file_size(self, tmp_path):
        """Loading keeps no text, only columns: the synth corpus (n=2000,
        seed 1) loaded over the bundled lexicons retains less memory than
        three quarters of its file's bytes. A load that kept each question's
        text would retain more than the file."""
        assert main(["synth", "--seed", "1", "--n-users", "2000", "--out", str(tmp_path)]) == 0
        path = tmp_path / "corpus.jsonl"
        corp, retained, _ = traced(lambda: load_corpus(path, BUNDLED_VOCAB))
        assert len(corp) == 2000
        assert retained < 0.75 * path.stat().st_size

    @pytest.mark.parametrize("shuffled", [False, True], ids=["in-order", "shuffled"])
    def test_tagged_load_peaks_under_2_3_times_retained(self, tmp_path, shuffled):
        """The parse frees its id dict, its lists and its word ids before the
        columns are built, and no row is moved after: loading the synth
        corpus (n=2000, seed 1) over the bundled lexicons peaks under 2.3
        times what the corpus retains, also from a copy with its profiles
        shuffled and each profile's questions in ascending like order."""
        assert main(["synth", "--seed", "1", "--n-users", "2000", "--out", str(tmp_path)]) == 0
        path = tmp_path / "corpus.jsonl"
        path = shuffled_copy(path) if shuffled else path
        corp, retained, peak = traced(lambda: load_corpus(path, BUNDLED_VOCAB))
        assert len(corp) == 2000
        assert peak < 2.3 * retained


class TestStreamedMemory:
    def test_synth_peaks_under_1_6_times_the_file_it_writes(self, tmp_path):
        """`synth` writes each block of profiles as it draws the block's
        texts, and holds no corpus of text: writing the synth corpus
        (n=2000, seed 1, the defaults) peaks under 1.6 times the bytes of
        `corpus.jsonl`. A synth that drew every text before writing any
        would peak at about twice the file."""
        code, _, peak = traced(lambda: main(["synth", "--seed", "1", "--n-users", "2000",
                                             "--out", str(tmp_path)]))
        assert code == 0
        assert peak < 1.6 * (tmp_path / "corpus.jsonl").stat().st_size

    def test_crawl_sim_holds_no_text(self, tmp_path):
        """`crawl-sim` reads the ground truth's graph first and then the
        lines of the crawled profiles one at a time, so its peak does not
        grow with the ground truth's text: over a copy of the synth corpus
        (n=2000, seed 1) in which every question's text is 200 characters
        longer, about 5 MB more text, a crawl of 700 profiles peaks less
        than 1% of that text higher. A crawl that held the text would peak
        higher by more than all of it."""
        assert main(["synth", "--seed", "1", "--n-users", "2000", "--out", str(tmp_path)]) == 0
        path, padded = tmp_path / "corpus.jsonl", tmp_path / "padded.jsonl"
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        added = 0
        for question in (q for record in records for q in record["questions"]):
            question["text"] += " " + "x" * 199
            added += 200
        padded.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records),
                          encoding="utf-8")
        peaks = []
        for source in (path, padded):
            code, _, peak = traced(lambda: main([
                "crawl-sim", "--corpus", str(source), "--seeds", "u00001", "--budget", "700",
                "--seed", "1", "--out", str(tmp_path / source.stem)]))
            assert code == 0
            peaks.append(peak)
        assert added > 5 * 10**6
        assert peaks[1] - peaks[0] < added / 100


# Text that stresses the line format: line breaks JSON must escape, separators
# a reader might split on (U+2028, U+2029, U+0085), and edge whitespace.
_TRICKY = st.sampled_from("\r\n\u2028\u2029\x85 \t\ufeff")
_TEXT = st.one_of(
    st.text(max_size=10),
    st.tuples(st.text(max_size=5), _TRICKY, st.text(max_size=5)).map("".join),
)


@st.composite
def questions(draw, text=_TEXT):
    likers = draw(st.lists(_TEXT, unique=True, max_size=4))
    # a record may give like_count without likers; the loader keeps the count
    like_count = len(likers) if likers else draw(st.sampled_from([0, 0, 3]))
    question = {"text": draw(text), "answer": draw(_TEXT), "likers": likers,
                "like_count": like_count}
    if like_count and not likers:
        del question["likers"]  # as a crawl's second pass writes such a question back
    return question


@st.composite
def corpora(draw, text=_TEXT):
    """Profile records as a crawl's second pass writes them back, with
    unsorted owners and questions in the order the loader normalizes to,
    their texts drawn from `text`."""
    owners = draw(st.lists(_TEXT.filter(bool), unique=True, max_size=5))
    records = []
    for owner in owners:
        qs = draw(st.lists(questions(text), max_size=4))
        qs.sort(key=lambda q: -q["like_count"])  # the order load_corpus normalizes to
        records.append({"owner": owner, "fully_sampled": draw(st.booleans()), "questions": qs})
    return records


class TestSaveLoadRoundTrip:
    """A corpus file rewritten from the lines a crawl's second pass gives
    for all its profiles, in file order, which is how `crawl-sim` writes
    the profiles it crawls."""

    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("round_trip")

    @settings(max_examples=150, deadline=None)
    @given(corpora())
    def test_round_trip(self, out_dir, records):
        """A rewrite reads back to the records it was written from, and a
        rewrite of the rewrite is the same bytes."""
        assert checked_records(records) == records
        path = write_corpus_file(out_dir, records)
        first = write_lines(out_dir / "first.jsonl", rewritten(path))
        assert file_records(first) == records
        second = write_lines(out_dir / "second.jsonl", rewritten(first))
        assert second.read_bytes() == first.read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(corpora())
    def test_each_line_is_the_json_of_its_record(self, out_dir, records):
        """The second pass encodes from each profile's checked lists what
        `json.dumps` encodes from its record object."""
        path = write_corpus_file(out_dir, records, "lines.jsonl")
        assert rewritten(path) == list(map(compact, records))


def non_canonical(record, rng):
    """`record` as `json.dumps` writes it by default (ASCII only, with
    spaces after separators), with its keys and its questions, and each
    question's keys, in a drawn order."""
    questions = [dict(rng.sample(sorted(q.items()), len(q))) for q in record["questions"]]
    rng.shuffle(questions)
    items = [("owner", record["owner"]), ("fully_sampled", record["fully_sampled"]),
             ("questions", questions)]
    rng.shuffle(items)
    return json.dumps(dict(items))


class TestCorpusFile:
    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("corpus_file")

    def test_first_pass_is_the_text_load_without_text(self, tmp_path, monkeypatch):
        """The first pass tokenizes nothing and keeps the columns of a load
        over any vocabulary but the word counts: those of the load over no
        vocabulary."""
        assert main(["synth", "--seed", "3", "--n-users", "300", "--out", str(tmp_path)]) == 0
        path = tmp_path / "corpus.jsonl"
        calls = []
        monkeypatch.setattr(corpus_mod, "tokenize", lambda text: calls.append(text) or [])
        with CorpusFile(path) as held:
            first = held.corpus
        assert calls == []
        assert first.vocab == () and first.counts.shape == (len(first.like_count), 0)
        assert columns(first) == columns(load_corpus(path, ()))
        monkeypatch.undo()
        assert columns(first, ("vocab", "counts")) == columns(load_corpus(path, BUNDLED_VOCAB),
                                                              ("vocab", "counts"))

    @settings(max_examples=100, deadline=None)
    @given(corpora(), st.randoms(use_true_random=False))
    def test_second_pass_writes_what_save_corpus_writes(self, out_dir, records, rng):
        """Over a file whose keys and questions come in any order, whose
        strings are escaped as they need not be, and whose lines end in LF,
        CRLF or a lone CR with blank lines between, the second pass gives
        the compact JSON of the checked records in crawl order, then a stub
        per frontier profile, for any crawl order and frontier."""
        path = out_dir / "truth.jsonl"
        written = [non_canonical(record, rng) for record in records]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for line in written:
                fh.write(line + rng.choice(["\n", "\r\n", "\r", "\n \t\n"]))
        positions = list(range(len(records)))
        rng.shuffle(positions)
        cut = rng.randint(0, len(positions))
        crawl = np.array(positions[:cut], dtype=np.int64)
        stubs = np.array(sorted(positions[cut:]), dtype=np.int64)
        with CorpusFile(path) as held:
            lines = list(held.lines(crawl, stubs))
            assert lines == crawl_lines(map(json.loads, written), held.corpus, (crawl, stubs))

    @pytest.mark.parametrize("change", ["appended", "touched", "rewritten-as-it-was"])
    def test_a_file_changed_after_the_first_pass_fails_the_second(self, tmp_path, change):
        path = write_corpus_file(tmp_path, [make_profile("a", ["hi"], 1), make_profile("b", [])])
        before = path.stat()
        with CorpusFile(path) as held:
            if change == "appended":
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write("\n")
            elif change == "touched":
                os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
            else:
                data = path.read_bytes()
                with open(path, "r+b") as fh:  # the same bytes, in place
                    fh.write(data)
                os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
            lines = held.lines(np.array([0]), np.array([1]))
            with pytest.raises(ValueError, match="changed while it was read"):
                next(lines)

    def test_a_file_changed_during_the_second_pass_fails_it(self, tmp_path):
        path = write_corpus_file(tmp_path, [make_profile("a", ["hi"], 1), make_profile("b", [])])
        with CorpusFile(path) as held:
            lines = held.lines(np.array([0, 1]), np.array([], dtype=np.int64))
            next(lines)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("\n")
            with pytest.raises(ValueError, match="changed while it was read"):
                list(lines)

    def test_a_replaced_file_is_read_as_it_was_opened(self, tmp_path):
        """The file is held open: a file renamed over its path after the
        first pass is not the file the second pass reads."""
        records = [make_profile("a", ["hi"], 1), make_profile("b", [])]
        path = write_corpus_file(tmp_path, records)
        other = write_corpus_file(tmp_path, [make_profile("z", ["other"])], "other.jsonl")
        with CorpusFile(path) as held:
            os.replace(other, path)
            lines = list(held.lines(np.array([0, 1]), np.array([], dtype=np.int64)))
        assert lines == list(map(compact, checked_records(records)))


# Question text holding vocabulary words, in any case and next to other text.
_WORDS = ("ugly", "Fat", "nice", "f**k", "don't", "ÉTÉ")
_TAGGED_TEXT = st.lists(st.one_of(st.sampled_from(_WORDS), _TEXT), max_size=6).map(" ".join)
# Vocabularies of those words and of words no question holds.
_VOCABS = st.sets(st.sampled_from([w.lower() for w in _WORDS] + ["absent", "zzz"]))


class TestTaggedLoad:
    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("tagged_load")

    @settings(max_examples=150, deadline=None)
    @given(corpora(_TAGGED_TEXT), _VOCABS, st.randoms(use_true_random=False))
    def test_tagged_load_is_the_text_load_with_its_word_counts(
        self, out_dir, records, vocab, rng
    ):
        """Loading over `vocab` gives every column the load over no
        vocabulary gives but the counts, and as `counts` each question's
        tokens in `vocab`, counted, row by row in the order of the checked
        records, with owners and like counts in any order in the file."""
        for record in records:
            rng.shuffle(record["questions"])
        path = write_corpus_file(out_dir, records)
        bare, actual = load_corpus(path, ()), load_corpus(path, vocab)
        assert actual.vocab == tuple(sorted(vocab))
        assert columns(actual, ("vocab", "counts")) == columns(bare, ("vocab", "counts"))
        texts = [q["text"] for record in checked_records(records) for q in record["questions"]]
        counts = to_scipy(actual.counts)
        assert counts.shape == (len(texts), len(vocab))
        assert counts.dtype == np.int64 and counts.has_canonical_format
        assert row_counts(actual) == [Counter(t for t in tokenize(q) if t in vocab) for q in texts]

    @pytest.mark.parametrize("texts", [
        ["ΟΔΟΣ", "ΣΑΣ", "Σ", "ΑΣ'", "'ΣΑ", "ὈΔΥΣΣΕΎΣ."],
        ["snake_case ugly_fat", "été_ugly _fat_", "__"],
        ["f**k ''' *** 'ugly' **fat** don't'' ' *", "'*'*x*'*' **", "***", "'"],
        ["ugly\x00fat", "\x00", "nice\x00", "ΣΑΣ\x00ΣΑΣ", "fat"],
        ["Fat DOG", "ΟΔΟΣ fat", "nice", "😀 ugly", "ÉTÉ été", "plain", "İstanbul ugly"],
    ], ids=["final-sigma", "underscore", "quote-and-star-runs", "nul", "ascii-and-not"])
    def test_counts_are_the_token_pattern_s_tokens(self, tmp_path, monkeypatch, texts):
        """Each text's counts are the tokens `_TOKEN_RE` finds in it,
        lowercased, counted, over a vocabulary of all of them, and each text
        is tokenized once."""
        records = [make_profile(f"p{k}", texts[k:k + 3]) for k in range(0, len(texts), 3)]
        vocab = {t for text in texts for t in tokenize(text)}
        path = write_corpus_file(tmp_path, records)
        calls = []
        monkeypatch.setattr(
            corpus_mod, "tokenize", lambda text: calls.append(text) or tokenize(text)
        )
        tagged = load_corpus(path, vocab)
        assert sorted(calls) == sorted(texts)
        assert row_counts(tagged) == [Counter(_TOKEN_RE.findall(text.lower())) for text in texts]

    def test_corpus_without_text_is_tagged_over_its_vocabulary_only(self, tmp_path):
        path = write_corpus_file(tmp_path, [make_profile("a", ["ugly day", "nice"])])
        tagged = load_corpus(path, VOCAB)
        assert tagged.vocab == tuple(sorted(VOCAB))
        assert corpus_stats(tagged, NEG, POS).avg_neg_words == 1.0
        with pytest.raises(ValueError, match=r"^the corpus holds no counts of \['day'\]$"):
            corpus_stats(tagged, NEG, {"day"})


def _drop(record, key):
    return {k: v for k, v in record.items() if k != key}


# Faults a profile or a question can carry; some are not faults but shapes
# the per-question reading accepts (a count without likers, null likers,
# no answer, no like count, no sampling flag).
_PROFILE_FAULTS = {
    "not-an-object": lambda p: [p],
    "no-owner": lambda p: _drop(p, "owner"),
    "empty-owner": lambda p: {**p, "owner": ""},
    "int-owner": lambda p: {**p, "owner": 7},
    "questions-object": lambda p: {**p, "questions": {}},
    "sampled-int": lambda p: {**p, "fully_sampled": 1},
    "no-sampled": lambda p: _drop(p, "fully_sampled"),
}
_QUESTION_FAULTS = {
    "not-an-object": lambda q: [q],
    "no-text": lambda q: _drop(q, "text"),
    "int-text": lambda q: {**q, "text": 3},
    "string-likers": lambda q: {**q, "likers": "ab", "like_count": 2},
    "null-likers": lambda q: {**q, "likers": None},
    "int-liker": lambda q: {**q, "likers": [*(q.get("likers") or []), 1],
                            "like_count": len(q.get("likers") or []) + 1},
    "duplicate-liker": lambda q: {**q, "likers": ["d", *(q.get("likers") or []), "d"],
                                  "like_count": len(q.get("likers") or []) + 2},
    "bool-likes": lambda q: {**q, "like_count": True},
    "float-likes": lambda q: {**q, "like_count": float(q["like_count"])},
    "negative-likes": lambda q: {**_drop(q, "likers"), "like_count": -1},
    "likes-mismatch": lambda q: {**q, "like_count": q["like_count"] + 1},
    "count-without-likers": lambda q: {**_drop(q, "likers"), "like_count": 3},
    "likes-past-int64": lambda q: {**_drop(q, "likers"), "like_count": 2**62},
    "no-likes": lambda q: _drop(q, "like_count"),
    "no-answer": lambda q: _drop(q, "answer"),
    "null-answer": lambda q: {**q, "answer": None},
}


_FAULT_KINDS = [*(f"q:{k}" for k in _QUESTION_FAULTS), *_PROFILE_FAULTS, "duplicate-owner"]


@st.composite
def faulty_corpora(draw, first=None):
    """Profile records with a fault of kind `first` (none if None) and zero
    or one more of any kind from `_FAULT_KINDS`, each at a drawn profile and
    question: "q:" marks a `_QUESTION_FAULTS` kind."""
    records = draw(corpora())
    kinds = [first] if first else []
    for kind in kinds + draw(st.lists(st.sampled_from(_FAULT_KINDS), max_size=1)):
        p, q = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        if not records or not isinstance(records[p % len(records)], dict):
            continue
        p %= len(records)
        profile = records[p]
        if kind == "duplicate-owner":
            records.insert(p + 1, {"owner": profile.get("owner"), "questions": []})
        elif kind in _PROFILE_FAULTS:
            records[p] = _PROFILE_FAULTS[kind](profile)
        elif isinstance(profile.get("questions"), list):
            questions = profile["questions"] or [{"text": "hi", "likers": [], "like_count": 0}]
            q %= len(questions)
            if isinstance(questions[q], dict) and "like_count" in questions[q]:
                questions = [*questions[:q], _QUESTION_FAULTS[kind[2:]](questions[q]),
                             *questions[q + 1:]]
            records[p] = {**profile, "questions": questions}
    return records


class TestRecordChecks:
    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("record_checks")

    @staticmethod
    def assert_loads_as_the_question_loop(path, records):
        """The loads over no vocabulary and over `VOCAB`, from a file or
        from the records, and a crawl's first pass raise the error, with its
        line, of the first fault that the per-question loop finds, or read
        the records as that loop does: the second pass writes them back so,
        and the parse of the records has the columns of the file's."""
        try:
            expected = checked_records(records)
        except CorpusFormatError as exc:
            error = format_error(path)
            assert (str(error), error.line_no) == (str(exc), exc.line_no)
            for vocab in ((), VOCAB):
                with pytest.raises(CorpusFormatError) as direct:
                    from_records(records, vocab)
                assert (str(direct.value), direct.value.line_no) == (str(exc), exc.line_no)
        else:
            assert file_records(path) == expected
            assert columns(from_records(records)) == columns(load_corpus(path, ()))
            assert len(load_corpus(path, VOCAB)) == len(expected)

    @pytest.mark.parametrize("kind", [None, *_FAULT_KINDS])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_loads_reject_the_first_fault_the_question_loop_finds(self, out_dir, kind, data):
        records = data.draw(faulty_corpora(kind))
        self.assert_loads_as_the_question_loop(write_corpus_file(out_dir, records), records)

    @pytest.mark.parametrize("records", [
        [{"owner": "a", "questions": [{"text": "hi", "likers": [1], "like_count": 1},
                                      {"text": 2}]}],
        [{"owner": "a", "questions": [{"text": "hi", "likers": ["b"], "like_count": 1.0,
                                       "answer": None}]}],
        [{"owner": "a", "questions": []},
         {"owner": "b", "questions": [{"text": "hi", "like_count": 2**62},
                                      {"text": "x", "likers": ["c"], "like_count": 1},
                                      {"text": "y", "like_count": 2**62}]}],
    ], ids=["bad-liker-then-bad-text", "float-count-and-null-answer", "past-int64-in-bulk"])
    def test_first_fault_in_file_order_wins(self, tmp_path, records):
        self.assert_loads_as_the_question_loop(write_corpus_file(tmp_path, records), records)


class TestLoadLexicon:
    def test_lowercase_dedup(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("Hate\nhate\nugly\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex == frozenset({"hate", "ugly"})

    def test_comments_only_is_empty(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("# nothing here\n\n# nope\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="empty"):
            load_lexicon(path)

    def test_byte_that_is_not_utf8_rejected_with_line(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_bytes("# header\nugly\ncaf\u00e9\nna".encode("utf-8") + b"\xefve\n")
        with pytest.raises(LexiconError) as caught:
            load_lexicon(path)
        assert str(caught.value) == ("line 4: 'utf-8' codec can't decode byte 0xef in "
                                     "position 2: invalid continuation byte")

    def test_multiword_entry_rejected(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("ugly\nso bad\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="multi-word"):
            load_lexicon(path)

    @pytest.mark.parametrize("entry", ["bad-word", "İstanbul", "_x", "x."])
    def test_entry_that_is_not_one_token_rejected_with_line(self, tmp_path, entry):
        path = tmp_path / "lex.txt"
        path.write_text(f"# header\nugly\n{entry}\n", encoding="utf-8")
        with pytest.raises(LexiconError, match=f"^line 3: entry {entry!r} is not a single"):
            load_lexicon(path)

    @pytest.mark.parametrize("polarity", ["negative", "positive"])
    def test_bundled_lexicon_size_matches_file(self, polarity):
        path = bundled_lexicon_path(polarity)
        lex = load_lexicon(path)
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
        for row in to_scipy(tagged.counts)
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
        """An entry is accepted exactly when the parse counts it, as written
        in the file, in a question that is that entry inside punctuation."""

        def found(entry):
            question = {"text": before + entry + after}
            corp = from_records([{"owner": "u", "questions": [question]}], {entry.lower()})
            return row_counts(corp) == [{entry.lower(): 1}]

        path = lex_dir / "lex.txt"
        path.write_text("# header\n" + "\n".join(entries) + "\n", encoding="utf-8")
        try:
            lex = load_lexicon(path)
        except LexiconError as exc:
            bad = int(re.match(r"line (\d+): ", str(exc)).group(1)) - 2
            assert all(found(e) for e in entries[:bad]) and not found(entries[bad])
        else:
            assert lex == {e.lower() for e in entries}
            assert all(found(e) for e in entries)


NEG = frozenset({"ugly", "fat"})
POS = frozenset({"nice", "beautiful"})


VOCAB = NEG | POS


def tag(question):
    """The tagged words of one question record, with its negative/positive
    flags."""
    (words,) = row_counts(from_records([{"owner": "a", "questions": [question]}], VOCAB))
    return words, any(w in NEG for w in words), any(w in POS for w in words)


class TestTagQuestion:
    """Tagging by the parse, one question at a time."""

    def test_repeated_word_counts_occurrences(self):
        words, is_negative, is_positive = tag({"text": "you are ugly ugly"})
        assert is_negative and not is_positive
        assert Counter({w: c for w, c in words.items() if w in NEG}) == {"ugly": 2}

    def test_positive_only(self):
        _, is_negative, is_positive = tag({"text": "nice day"})
        assert not is_negative and is_positive

    def test_both_flags(self):
        _, is_negative, is_positive = tag({"text": "fat but beautiful"})
        assert is_negative and is_positive

    def test_answer_never_scanned(self):
        _, is_negative, _ = tag({"text": "hello there", "answer": "you ugly"})
        assert not is_negative


class TestTagCorpus:
    def test_rows_count_each_questions_words(self):
        records = [make_profile("a", ["Fat and UGLY, so fat", "plain", "other"])]
        tagged = from_records(records, {"fat", "ugly"})
        assert row_counts(tagged) == [{"fat": 2, "ugly": 1}, {}, {}]
        counts = to_scipy(tagged.counts)
        assert counts.dtype == np.int64 and counts.has_canonical_format

    def test_tokenizes_each_question_once(self, monkeypatch):
        """Every text is tokenized once, and an analysis of the tagged
        corpus tokenizes none."""
        calls = []
        monkeypatch.setattr(
            corpus_mod, "tokenize", lambda text: calls.append(text) or tokenize(text)
        )
        tagged = from_records([
            make_profile("a", ["ugly", "nice"]), make_profile("b", ["fat"]),
        ], VOCAB)
        corpus_stats(tagged, NEG, POS)
        assert sorted(calls) == ["fat", "nice", "ugly"]
        assert tagged.owners == ("a", "b") and tagged.owner.tolist() == [0, 0, 1]
        assert row_counts(tagged) == [{"ugly": 1}, {"nice": 1}, {"fat": 1}]

    def test_tagged_corpus_is_reused_for_a_smaller_vocabulary(self):
        """A corpus tagged over a vocabulary counts the words of any subset
        of it as a corpus tagged over that subset does."""
        records = [make_profile("a", ["ugly nice fat", "nice", "day ugly"])]
        wide = from_records(records, VOCAB | {"day"})
        narrow = from_records(records, NEG)
        assert wide.word_counts(NEG).tolist() == narrow.word_counts(NEG).tolist() == [2, 0, 1]
        assert corpus_stats(wide, NEG, set()) == corpus_stats(narrow, NEG, set())


def make_profile(owner, texts, likes_each=0, fully_sampled=True):
    questions = [
        {"text": t, "likers": [f"l{i}_{k}" for k in range(likes_each)]}
        for i, t in enumerate(texts)
    ]
    return {"owner": owner, "fully_sampled": fully_sampled, "questions": questions}


class TestCorpusStats:
    def test_single_empty_profile(self):
        corp = from_records([make_profile("a", [])], VOCAB)
        stats = corpus_stats(corp, NEG, POS)
        assert stats.avg_answers_per_user == 0
        assert stats.avg_neg_questions == 0
        assert stats.pct_users_with_pos_q == 0

    def test_hand_counted_averages(self):
        corp = from_records([
            make_profile("a", ["you ugly", "so fat ugly"]),
            make_profile("b", ["nice one"]),
        ], VOCAB)
        stats = corpus_stats(corp, NEG, POS)
        assert stats.avg_neg_questions == 1.0
        assert stats.pct_users_with_neg_q == 50.0
        assert stats.avg_neg_words == 1.5  # 3 occurrences over 2 users
        assert stats.pct_users_with_pos_q == 50.0
        assert stats.avg_answers_per_user == 1.5

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_stats(from_records([], VOCAB), NEG, POS)

    def test_frontier_stubs_are_not_users(self):
        stub = make_profile("s", [], fully_sampled=False)
        corp = from_records([make_profile("a", ["you ugly", "nice"]), stub], VOCAB)
        stats = corpus_stats(corp, NEG, POS)
        assert stats.avg_answers_per_user == 2.0
        assert stats.pct_users_with_neg_q == 100.0
        with pytest.raises(ValueError):
            corpus_stats(from_records([stub], VOCAB), NEG, POS)

    def test_neg_questions_bounded_by_answers(self):
        corp = from_records([
            make_profile("a", ["ugly fat ugly", "ugly", "hello"]),
        ], VOCAB)
        stats = corpus_stats(corp, NEG, POS)
        assert stats.avg_neg_questions <= stats.avg_answers_per_user
