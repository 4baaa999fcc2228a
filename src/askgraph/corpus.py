"""Corpus and lexicon loading, tokenization, and the tagged corpus.

The corpus file format is line-delimited JSON: one profile object per line
with fields ``owner`` (string), ``fully_sampled`` (bool) and ``questions``
(array of ``{text, answer, likers, like_count}``). A load keeps the file's
profile order, and puts each profile's questions in like_count-descending order.

A `Corpus` is columns, one entry per question and per profile, built once
by whatever builds the corpus: the record parse behind `load_corpus` (line
by line) and `Corpus.from_records`, and `generate_corpus`. `save_corpus` is
the one read-back: it writes each profile's line straight from the columns,
and a crawl as the given profiles of its ground truth. Every graph askgraph
builds from a corpus is a `Graph`: node names over a `CSR` matrix.

The parse checks each profile as soon as it is read: a profile in the
common shape by passes over all its questions at once, any other by the
checks one question at a time, which raise the first fault. Given a
vocabulary, it tokenizes each question once and keeps only its vocabulary
word counts, and no text: it is the one caller of `tokenize`, and its
`TaggedCorpus` is what every analysis reduces. A lexicon is the frozenset
of its words, and a run keys its two lexicons by polarity.
"""

from __future__ import annotations

import json
import os
import re
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, repeat
from json.encoder import encode_basestring
from operator import itemgetter, lt
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Sequence

import numpy as np


class CorpusFormatError(ValueError):
    """Raised for malformed corpus records; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class LexiconError(ValueError):
    pass


# Token characters: unicode alphanumerics plus apostrophe and asterisk.
# Asterisk is kept so censored forms like "f**k" survive as single tokens.
_TOKEN_RE = re.compile(r"[^\W_]+(?:['*][^\W_]*)*|['*]+[^\W_]*(?:['*][^\W_]*)*", re.UNICODE)


# An ASCII text's bytes as `_TOKEN_RE` reads them: A-Z lowercased, the token
# characters a-z, 0-9, ' and * kept, and every other byte a space, so that a
# whitespace split gives the pattern's tokens, each a maximal run of them
_ASCII_TOKENS = bytes(ord(c.lower()) if c.lower() in "abcdefghijklmnopqrstuvwxyz0123456789'*"
                      else 32 for c in map(chr, range(128))).ljust(256)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any character outside [alnum ' *]: an ASCII
    text by one byte translation, any other by `_TOKEN_RE`."""
    if text.isascii():
        return text.encode().translate(_ASCII_TOKENS).decode().split()
    return _TOKEN_RE.findall(text.lower())


def flat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i], starts[i] + 1, ..., starts[i] + lengths[i] - 1,
    one after another, as one int64 array: a running sum of steps of 1, but
    at each range's first value the step from the value before it. It sums
    in place, so no other array is as long as the result."""
    nonempty = lengths > 0
    starts, lengths = starts[nonempty], lengths[nonempty]
    ends = offsets(lengths)
    steps = np.ones(ends[-1], dtype=np.int64)
    steps[ends[:-1]] = np.diff(starts, prepend=0) - np.append(0, lengths[:-1] - 1)
    return np.cumsum(steps, out=steps)


def offsets(lengths: np.ndarray) -> np.ndarray:
    """Where each of consecutive ranges of `lengths` starts, and where the
    last ends: 0 and the running sums, as int64, summed in place."""
    ends = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=ends[1:])
    return ends


def run_starts(values: np.ndarray) -> np.ndarray:
    """A mask of where each run of equal values of an array starts."""
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a non-negative int array, as a plain
    `np.unique` gives them; that call imports `numpy.ma` in numpy 2.4, which
    askgraph does not need. They are read off a bincount when the largest
    value is below the array's length, since sorting a copy of a long array
    of small values costs more, else by a sort."""
    if len(values) and values.max() < len(values):
        return np.flatnonzero(np.bincount(values))
    values = np.sort(values)
    return values[run_starts(values)]


def row_blocks(reach: np.ndarray, wedges: int, rows: int) -> Iterator[tuple[int, int]]:
    """The row ranges [lo, hi) of a sparse product taken in blocks of rows,
    where rows lo..hi-1 enumerate `reach[hi] - reach[lo]` wedges: each block
    at least one row, and otherwise at most `wedges` wedges and `rows` rows."""
    lo = 0
    while lo < len(reach) - 1:
        hi = int(np.searchsorted(reach, reach[lo] + wedges, side="right")) - 1
        hi = max(min(hi, lo + rows), lo + 1)
        yield lo, hi
        lo = hi


def wedge_budget(n: int) -> int:
    """The most wedges of one row block of a product over n nodes or
    profiles: 4 a node, and at least 2**13. A block's index arrays take
    about 13 bytes a wedge, and its accumulator gets 16 bytes a wedge; a
    budget below a few wedges a node would save no memory and cost time."""
    return max(1 << 13, 4 * n)


@dataclass(frozen=True, eq=False)
class CSR:
    """A sparse matrix in compressed sparse row form, each row's columns
    ascending and distinct: row i holds `data[indptr[i]:indptr[i + 1]]` at
    columns `indices[indptr[i]:indptr[i + 1]]`. It carries only what
    askgraph reads of a sparse matrix; a row is read off `indptr`. A
    product over it is a `bincount` of its entries in row-major order, so a
    float sum adds each row's terms by ascending column, as a CSR
    matrix-vector product does, whatever other rows the matrix holds."""

    indptr: np.ndarray  # int64, one per row and one more
    indices: np.ndarray  # int32
    data: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_keys(cls, keys: np.ndarray, shape: tuple[int, int], data: np.ndarray) -> CSR:
        """The matrix holding `data[k]` at the k-th of the sorted, distinct
        int64 keys `row * shape[1] + column`."""
        indices = np.empty(len(keys), dtype=np.int32)  # no int64 copy of the remainders
        np.remainder(keys, shape[1], out=indices, casting="unsafe")
        return cls(np.searchsorted(keys, np.arange(shape[0] + 1) * shape[1]), indices, data, shape)

    def entry_rows(self) -> np.ndarray:
        """Each entry's row, in order."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def entries(self, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows, columns and values of the entries in `columns`, in
        row-major order."""
        picked = np.zeros(self.shape[1], dtype=bool)
        picked[columns] = True
        at = np.flatnonzero(picked[self.indices])
        return np.searchsorted(self.indptr, at, side="right") - 1, self.indices[at], self.data[at]

    def transpose(self) -> CSR:
        """The transpose; a stable sort keeps its rows' columns ascending."""
        order = np.argsort(self.indices, kind="stable")
        indptr = offsets(np.bincount(self.indices, minlength=self.shape[1]))
        rows = self.entry_rows()[order].astype(np.int32)
        return CSR(indptr, rows, self.data[order], self.shape[::-1])

    def reach(self, right: CSR) -> np.ndarray:
        """The wedges a -> b -> c of `self @ right` before each row a: an
        entry (a, b) starts one for each entry of row b of `right`."""
        wedges = np.diff(right.indptr)[self.indices]
        np.cumsum(wedges, out=wedges)
        reach = np.zeros(self.shape[0] + 1, dtype=np.int64)
        ends = self.indptr[1:]
        reach[1:][ends > 0] = wedges[ends[ends > 0] - 1]
        return reach

    def wedges(self, right: CSR, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The wedges a -> b -> c of `self @ right` that rows lo..hi-1 start,
        by entry (a, b) in row-major order, each as its cell (a - lo) * w + c
        of a block accumulator w = right.shape[1] wide. Also each entry's
        own cell (a - lo) * w + b, in the same grid when `right` is square,
        and the number of wedges it starts."""
        b = self.indices[self.indptr[lo]:self.indptr[hi]]
        per_entry = np.diff(right.indptr)[b]
        c = right.indices[flat_ranges(right.indptr[b], per_entry)]
        own = np.repeat(np.arange(hi - lo) * right.shape[1], np.diff(self.indptr[lo:hi + 1]))
        cells = np.repeat(own, per_entry)
        cells += c
        own += b
        return cells, own, per_entry


@dataclass(frozen=True, eq=False)
class Graph:
    """Named rows over a sparse matrix: row i of `adjacency` is `nodes[i]`.
    The like graph holds an (n_neg, n_nonneg) row of `data` per edge, a word
    graph its shared-profile counts, and a word x profile incidence a 1 at
    each of its words' profiles, whose columns are the corpus's owners."""

    nodes: tuple[str, ...]
    adjacency: CSR

    def node_index(self, name: str) -> int:
        try:
            return self.nodes.index(name)
        except ValueError:
            raise ValueError(f"node {name!r} not in graph") from None


@dataclass(frozen=True, eq=False)
class Corpus:
    """Profiles and their questions as columns.

    `owners` are the profile owners, sorted. A user is an owner whose
    `sampled` flag is set (frontier stubs are not users), and `total_likes`
    sums each owner's `like_count`s, which may exceed its listed likers.
    `order` lists the owners' positions in the order `save_corpus` writes
    them: file order for a loaded corpus, generation order for a synthetic
    one.

    Row r is a question of profile `owners[owner[r]]`, in the order the
    corpus was built in (file order, or sorted owner order for a synthetic
    one): profile k's rows are the `n_rows[k]` from `first_row[k]`, by
    descending `like_count`, ties in input order. Row r's likers are
    `liker[liker_ptr[r]:liker_ptr[r + 1]]`, each an index into `owners`
    followed by `strangers`, the sorted liker ids without a profile.
    Answers are stored, never analyzed. A corpus loaded with a vocabulary
    is a `TaggedCorpus` whose `texts` and `answers` are None."""

    owners: tuple[str, ...]
    strangers: tuple[str, ...]
    order: np.ndarray  # int64, per owner
    sampled: np.ndarray  # bool, per owner
    total_likes: np.ndarray  # int64, per owner
    first_row: np.ndarray  # int64, per owner
    n_rows: np.ndarray  # int64, per owner
    owner: np.ndarray  # int64, per row
    texts: tuple[str, ...] | None
    answers: tuple[str, ...] | None
    like_count: np.ndarray  # int64, per row
    liker_ptr: np.ndarray  # int64, per row plus one
    liker: np.ndarray  # int32

    def __len__(self) -> int:
        return len(self.owners)

    @classmethod
    def from_records(cls, records: Iterable[object], vocab: Iterable[str] | None = None) -> Corpus:
        """A corpus of profile records as the corpus file holds them, in
        that order, as `load_corpus` parses them: given a `vocab`, the
        `TaggedCorpus` over it. A malformed record raises CorpusFormatError
        with its 1-based position as the line."""
        return _parse_records(enumerate(records, start=1), vocab)

    @classmethod
    def from_rows(cls, ids: list[str], owner_code: Sequence[int], sampled: Sequence[bool],
                  row_code: Sequence[int], texts: Sequence[str] | None,
                  answers: Sequence[str] | None, like_count: Sequence[int],
                  n_likers: Sequence[int], liker_code: Sequence[int],
                  tags: tuple[tuple[str, ...], CSR] | None = None) -> Corpus:
        """A corpus of profiles in save order (owner code, an index into `ids`,
        and sampling flag) and of question rows (owner code, text, answer,
        like count, number of likers), the likers' codes in `liker_code`.
        The rows are kept in the order given, which must list each profile's
        rows together, by descending like count: the record parse and
        `generate_corpus` give them so.

        `tags`, a vocabulary and the rows' counts over it, makes the result
        the `TaggedCorpus` of those counts; texts and answers are then None,
        and the corpus holds no text."""
        owner_code = np.asarray(owner_code, dtype=np.int64)
        by_id = ids.__getitem__
        ranked = (sorted(owner_code.tolist(), key=by_id)
                  + sorted(set(range(len(ids))) - set(owner_code.tolist()), key=by_id))
        position = np.empty(len(ids), dtype=np.int64)
        position[ranked] = np.arange(len(ids))
        order = position[owner_code]
        owner = position[np.asarray(row_code, dtype=np.int64)]
        n = len(order)
        flags = np.zeros(n, dtype=bool)
        flags[order] = np.asarray(sampled, dtype=bool)
        # each profile's rows are one run of `owner`; a profile without rows starts at 0
        starts = np.flatnonzero(run_starts(owner))
        first_row = np.zeros(n, dtype=np.int64)
        first_row[owner[starts]] = starts
        n_rows = np.bincount(owner, minlength=n)
        like_count = np.asarray(like_count, dtype=np.int64)
        likes = offsets(like_count)
        columns = dict(
            owners=tuple(ids[c] for c in ranked[:n]), strangers=tuple(ids[c] for c in ranked[n:]),
            order=order, sampled=flags, total_likes=likes[first_row + n_rows] - likes[first_row],
            first_row=first_row, n_rows=n_rows, owner=owner, like_count=like_count,
            liker_ptr=offsets(n_likers), liker=position.astype(np.int32)[liker_code],
        )
        if tags is None:
            return cls(**columns, texts=tuple(texts), answers=tuple(answers))
        vocab, counts = tags
        return TaggedCorpus(**columns, texts=None, answers=None, vocab=vocab, counts=counts)

    def per_profile(self, values: np.ndarray) -> np.ndarray:
        """Sum of a per-question int array over each profile's questions,
        aligned with `owners`."""
        return np.bincount(self.owner, weights=values, minlength=len(self.owners)).astype(np.int64)


@dataclass(frozen=True, eq=False)
class TaggedCorpus(Corpus):
    """A corpus parsed over a vocabulary, holding each question's
    vocabulary word counts and no text: row r of `counts` (questions x
    `vocab`, int64, duplicates summed) is row r of the corpus, and `texts`
    and `answers` are None. The analyses read `counts` through `columns`."""

    vocab: tuple[str, ...]  # sorted
    counts: CSR

    def columns(self, words: Collection[str]) -> np.ndarray:
        """The columns of `counts` that count `words`, in order. A word
        outside `vocab` raises ValueError naming it: its counts were never kept."""
        missing = sorted(set(words).difference(self.vocab))
        if missing:
            raise ValueError(f"the corpus holds no counts of {missing}")
        return np.searchsorted(self.vocab, list(words))

    def word_counts(self, words: Collection[str]) -> np.ndarray:
        """Occurrences of `words` in each question; a word outside `vocab`
        raises ValueError."""
        rows, _, counts = self.counts.entries(self.columns(words))
        return np.bincount(rows, weights=counts, minlength=self.counts.shape[0]).astype(np.int64)


@dataclass(frozen=True)
class ContentTable:
    """Counts over ALL answered questions of each fully sampled profile
    (frontier stubs are not users), as arrays aligned with `users`, the
    sorted user ids, which are also the like graph's node ids."""

    users: tuple[str, ...]
    total_likes: np.ndarray
    n_answers: np.ndarray
    n_neg_questions: np.ndarray
    n_pos_questions: np.ndarray
    n_neg_words: np.ndarray
    n_pos_words: np.ndarray

    @cached_property
    def row_of(self) -> dict[str, int]:
        """Each user's row, built on first use and kept."""
        return dict(zip(self.users, count()))


@dataclass(frozen=True)
class CorpusStats:
    avg_answers_per_user: float
    avg_neg_questions: float
    avg_pos_questions: float
    avg_neg_words: float
    avg_pos_words: float
    pct_users_with_neg_q: float
    pct_users_with_3plus_neg_q: float
    pct_users_with_pos_q: float


def _checked_questions(line_no: int, questions: list) -> tuple[list, list, list, list, list]:
    """A profile's question texts, answers, like counts, numbers of likers
    and liker lists, one entry per question, each question checked in turn:
    the first fault raises CorpusFormatError on `line_no`. A question
    without `likers` has none, and one without `answer` answers with ""."""
    texts, answers, likes_each, n_likers, likers_each = [], [], [], [], []
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
        texts.append(text)
        answers.append(answer)
        likes_each.append(likes)
        n_likers.append(len(likers))
        likers_each.append(likers)
    return texts, answers, likes_each, n_likers, likers_each


_FIELDS = tuple(map(itemgetter, ("text", "answer", "likers", "like_count")))


def _bulk_questions(questions: list) -> tuple[list, list, list, list, list] | None:
    """What `_checked_questions` returns for a profile in the common shape,
    checked by passes over the whole profile: every question an object with
    all four fields, its text, answer and likers strings, and its like count
    an int equal to the number of its likers, all distinct. None for any
    other profile, which `_checked_questions` then reads or rejects."""
    if not set(map(type, questions)) <= {dict}:
        return None
    try:
        texts, answers, likers, likes = (list(map(field, questions)) for field in _FIELDS)
        n_likers = list(map(list.__len__, likers))
        likers_all = list(chain.from_iterable(likers))
        # str.join takes strings alone, as isinstance(x, str) does
        "".join(texts), "".join(answers), "".join(likers_all)
    except (KeyError, TypeError):
        return None
    if not (set(map(type, likes)) <= {int} and likes == n_likers):
        return None
    # likers distinct over the profile are distinct on each question
    if len(set(likers_all)) < len(likers_all) and n_likers != list(map(len, map(set, likers))):
        return None
    return texts, answers, likes, n_likers, likers


def _parse_records(numbered: Iterable[tuple[int, object]],
                   vocab: Iterable[str] | None = None) -> Corpus:
    """The corpus of (line number, profile record) pairs: each record is
    checked, and its owner and likers are interned, as soon as it is read.

    A profile's questions are checked together by `_bulk_questions`, or,
    when that fails, one by one by `_checked_questions`, which raises the
    first fault. A checked profile whose like counts ever rise then has its
    questions sorted by descending like count, ties in input order, so no
    row moves later. Given a `vocab`, each text is tokenized once it passes
    its checks and only its ids in the sorted vocabulary are kept, in `word`,
    with `ends` marking where each question's ids end: the result is the
    `TaggedCorpus` over `vocab`, which holds no text."""
    # every id read, numbered in order of first sight as it is looked up
    code: defaultdict[str, int] = defaultdict(count().__next__)
    seen: set[str] = set()
    owner_code, sampled, n_rows, texts, answers = [], [], [], [], []
    like_count, n_likers, liker_code = array("q"), array("q"), array("q")
    if vocab is not None:
        vocab = tuple(sorted(frozenset(vocab)))
        index = {w: i for i, w in enumerate(vocab)}
        word, ends = array("q"), array("q")
    for line_no, obj in numbered:
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
        columns = _bulk_questions(questions) or _checked_questions(line_no, questions)
        likes_each = columns[2]
        if sum(likes_each) >= 1 << 63:
            raise CorpusFormatError(line_no, "like counts sum past the int64 range")
        if any(map(lt, likes_each, likes_each[1:])):
            # by descending like count; a stable sort keeps ties in input order
            at = sorted(range(len(questions)), key=likes_each.__getitem__, reverse=True)
            columns = [list(map(column.__getitem__, at)) for column in columns]
        q_texts, q_answers, likes_each, q_n_likers, likers = columns
        if vocab is None:
            texts += q_texts
            answers += q_answers
        else:
            for tokens in map(tokenize, q_texts):
                word.fromlist([index[t] for t in tokens if t in index])
                ends.append(len(word))
        like_count.fromlist(likes_each)
        n_likers.fromlist(q_n_likers)
        liker_code.fromlist(list(map(code.__getitem__, chain.from_iterable(likers))))
        seen.add(owner)
        owner_code.append(code[owner])
        sampled.append(fully_sampled)
        n_rows.append(len(questions))
    # the parse's dict, set and lists go before `from_rows` builds the columns
    ids = list(code)
    owner_code, sampled = np.array(owner_code, dtype=np.int64), np.array(sampled, dtype=bool)
    row_code = np.repeat(owner_code, n_rows)
    del code, seen, n_rows
    like_count, n_likers, liker_code = (
        np.frombuffer(a, dtype=np.int64) for a in (like_count, n_likers, liker_code))
    if vocab is None:
        texts, answers = tuple(texts), tuple(answers)
        return Corpus.from_rows(ids, owner_code, sampled, row_code,
                                texts, answers, like_count, n_likers, liker_code)
    # each token's key row * len(vocab) + word; rows are in order, so the
    # keys are nearly sorted, and a word repeated in a question is one entry
    # counting its tokens
    rows = len(ends)
    keys = np.repeat(np.arange(rows, dtype=np.int64) * len(vocab),
                     np.diff(np.frombuffer(ends, dtype=np.int64), prepend=0))
    keys += np.frombuffer(word, dtype=np.int64)
    del word, ends
    keys.sort(kind="stable")
    first = np.flatnonzero(run_starts(keys))
    counts = CSR.from_keys(keys[first], (rows, len(vocab)), np.diff(first, append=len(keys)))
    del keys, first
    return Corpus.from_rows(ids, owner_code, sampled, row_code, None, None,
                            like_count, n_likers, liker_code, (vocab, counts))


def numbered_lines(path: str | Path, error: Callable[[int, str], Exception],
                   comments: bool = True) -> Iterator[tuple[int, str]]:
    """Each line of the UTF-8 text file at `path` with its 1-based number,
    stripped, skipping blank lines and, with `comments`, lines starting
    with '#'. A line holding a byte that is not UTF-8 raises
    `error(line_no, message)`, where the decoder's message gives the byte's
    position in its line."""
    # a byte that is not UTF-8 reads as a lone surrogate, held only by a non-ASCII line
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    try:
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise error(line_no, str(exc)) from None
            line = line.strip()
            if line and not (comments and line.startswith("#")):
                yield line_no, line


def _numbered_records(lines: Iterable[tuple[int, str]]) -> Iterator[tuple[int, object]]:
    """Each numbered line's decoded JSON value."""
    for line_no, line in lines:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(line_no, f"invalid JSON: {exc}") from exc
        # the line is valid UTF-8, so a surrogate can only come from a JSON
        # \u escape: only lines with one need the encoding check
        try:
            if "\\u" in line:
                json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            surrogate = exc.object[exc.start:exc.end]
            raise CorpusFormatError(line_no, f"lone surrogate {surrogate!r} in a string") from exc
        yield line_no, obj


def load_corpus(path: str | Path, vocab: Iterable[str] | None = None) -> Corpus:
    """Parse a line-delimited profile file into a Corpus.

    Given a `vocab`, the result is the `TaggedCorpus` over it: each
    question is tokenized as it is read, and only its vocabulary word
    counts are kept, not its text or answer. Such a corpus cannot be saved,
    and an analysis over words outside `vocab` raises ValueError.

    Raises CorpusFormatError (with the offending line number) on bytes that
    are not UTF-8, malformed records, duplicate owners, like_count/likers
    mismatches, or strings holding a lone surrogate (which no UTF-8 output
    can encode), the same errors with or without a `vocab`.
    """
    lines = numbered_lines(path, CorpusFormatError, comments=False)
    return _parse_records(_numbered_records(lines), vocab)


@contextmanager
def atomic_write(path: str | Path):
    """Yield a text handle on `<path>.partial`, creating its directory if
    needed; rename over `path` on clean exit, leave the partial file on
    failure."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    with open(partial, "w", encoding="utf-8", newline="") as fh:
        yield fh
    os.replace(partial, path)


def save_corpus(corpus: Corpus, path: str | Path, order: np.ndarray | None = None,
                frontier: Iterable[int] = ()) -> None:
    """Write each profile in `order` (by default the corpus's) as one line
    of the corpus file format, then each profile in `frontier` as an empty
    stub flagged not fully sampled, through `atomic_write`: a crawl is its
    ground truth written in crawl order, then its frontier.

    Output is deterministic: fixed key order, compact separators, question
    order as stored (like_count descending), and each string encoded as
    `json.dumps(..., ensure_ascii=False)` encodes it. A question read with a
    like count but no liker ids is written without `likers`, since an empty
    list would contradict its count. load_corpus(save_corpus(c)) round-trips
    byte-identically. Each line is built from the columns as it is written.
    A corpus loaded without its text raises ValueError.
    """
    if corpus.texts is None:
        raise ValueError("the corpus was loaded without its question text, so it cannot be saved")
    ids = [encode_basestring(x) for x in corpus.owners + corpus.strangers]
    # each liker's encoded id, and where each profile's likers start and
    # how many each row has: no list holds an int object per liker
    names = np.array(ids, dtype=object)[corpus.liker].tolist()
    first, rows = corpus.liker_ptr[corpus.first_row].tolist(), corpus.first_row.tolist()
    n_rows, n_likers = corpus.n_rows.tolist(), np.diff(corpus.liker_ptr).tolist()
    likes = corpus.like_count.tolist()
    texts, answers, sampled = corpus.texts, corpus.answers, corpus.sampled.tolist()
    with atomic_write(path) as fh:
        for k in (corpus.order if order is None else order).tolist():
            questions, start = [], first[k]
            for r in range(rows[k], rows[k] + n_rows[k]):
                end = start + n_likers[r]
                text, answer = encode_basestring(texts[r]), encode_basestring(answers[r])
                head = f'{{"text":{text},"answer":{answer}'
                if likes[r] and start == end:
                    questions.append(f'{head},"like_count":{likes[r]}}}')
                else:
                    listed = ",".join(names[start:end])
                    questions.append(f'{head},"likers":[{listed}],"like_count":{likes[r]}}}')
                start = end
            fh.write(f'{{"owner":{ids[k]},"fully_sampled":{"true" if sampled[k] else "false"},'
                     f'"questions":[{",".join(questions)}]}}\n')
        for k in frontier:
            fh.write(f'{{"owner":{ids[k]},"fully_sampled":false,"questions":[]}}\n')


def lexicon_word(word: str, name: str = "entry") -> str:
    """`word` lowercased, as a lexicon entry or a core word is read. It must
    be a single token as `tokenize` splits text, since any other word could
    never match a question; `name` says what the word is in the error."""
    entry = word.lower()
    # matched against the token pattern directly: `tokenize` runs once per
    # question, and its call count is measured as such
    if not _TOKEN_RE.fullmatch(entry):
        tokens = _TOKEN_RE.findall(entry)
        raise LexiconError(f"{name} {word!r} is not a single token (reads as {tokens})")
    return entry


def load_lexicon(path: str | Path) -> frozenset[str]:
    """The words of a one-word-per-line lexicon ('#' comments, blank lines
    ignored); each entry is read by `lexicon_word`. Errors name the line."""
    words: set[str] = set()
    for line_no, word in numbered_lines(path, lambda n, m: LexiconError(f"line {n}: {m}")):
        if any(ch.isspace() for ch in word):
            raise LexiconError(f"line {line_no}: multi-word entry {word!r} not allowed")
        try:
            words.add(lexicon_word(word))
        except LexiconError as exc:
            raise LexiconError(f"line {line_no}: {exc}") from None
    if not words:
        raise LexiconError(f"lexicon {path} is empty after parsing")
    return frozenset(words)


def content_table(corpus: TaggedCorpus, neg: Collection[str],
                  pos: Collection[str]) -> ContentTable:
    """Answered questions, total likes, and the questions holding and the
    occurrences of `neg` and `pos` words, per fully sampled profile."""
    users = np.flatnonzero(corpus.sampled)
    neg_w = corpus.word_counts(neg)
    pos_w = corpus.word_counts(pos)
    return ContentTable(
        users=tuple(corpus.owners[i] for i in users),
        total_likes=corpus.total_likes[users],
        n_answers=corpus.n_rows[users],
        n_neg_questions=corpus.per_profile(neg_w > 0)[users],
        n_pos_questions=corpus.per_profile(pos_w > 0)[users],
        n_neg_words=corpus.per_profile(neg_w)[users],
        n_pos_words=corpus.per_profile(pos_w)[users],
    )


def corpus_stats(corpus: TaggedCorpus, neg: Collection[str], pos: Collection[str]) -> CorpusStats:
    """Per-user averages of answer counts and tagged question/word counts,
    over fully sampled profiles (frontier stubs are not users)."""
    table = content_table(corpus, neg, pos)
    n = len(table.users)
    if not n:
        raise ValueError("corpus_stats requires a fully sampled profile")

    def total(column: np.ndarray) -> int:
        return int(column.sum())

    return CorpusStats(
        avg_answers_per_user=total(table.n_answers) / n,
        avg_neg_questions=total(table.n_neg_questions) / n,
        avg_pos_questions=total(table.n_pos_questions) / n,
        avg_neg_words=total(table.n_neg_words) / n,
        avg_pos_words=total(table.n_pos_words) / n,
        pct_users_with_neg_q=100.0 * total(table.n_neg_questions >= 1) / n,
        pct_users_with_3plus_neg_q=100.0 * total(table.n_neg_questions >= 3) / n,
        pct_users_with_pos_q=100.0 * total(table.n_pos_questions >= 1) / n,
    )
