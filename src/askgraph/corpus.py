"""Corpus and lexicon loading, tokenization, and the tagged corpus.

The corpus file format is line-delimited JSON: one profile object per line
with fields ``owner`` (string), ``fully_sampled`` (bool) and ``questions``
(array of ``{text, answer, likers, like_count}``). Questions are normalized
to like_count-descending order on load.

`tag_corpus` is the only analysis code that reads `Profile` and `Question`
objects, and the only caller of `tokenize`: every analysis is a reduction
over the question and profile columns it builds.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Collection, Iterable

import numpy as np
import scipy.sparse as sp


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


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any character outside [alnum ' *]."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Question:
    text: str
    likers: tuple[str, ...] = ()
    like_count: int = 0
    answer: str = ""  # stored for fidelity, never analyzed


@dataclass(frozen=True)
class Profile:
    owner: str
    questions: tuple[Question, ...] = ()
    fully_sampled: bool = True

    @property
    def total_likes(self) -> int:
        return sum(q.like_count for q in self.questions)


@dataclass(frozen=True)
class Corpus:
    profiles: dict[str, Profile] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.profiles)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self.profiles

    def __getitem__(self, user_id: str) -> Profile:
        return self.profiles[user_id]

    def __iter__(self):
        return iter(self.profiles.values())


@dataclass(frozen=True)
class Lexicon:
    polarity: str  # "negative" | "positive"
    words: frozenset[str]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def __iter__(self):
        return iter(self.words)


@dataclass(frozen=True, kw_only=True)
class TaggedCorpus(Corpus):
    """A corpus as columns: per question its vocabulary word counts and its
    likers, per profile its sampling flag and like total.

    Row r of `counts` (questions x `vocab`, int64, duplicates summed) is a
    question of profile `owners[owner[r]]`: the rows run profile by profile
    in sorted owner order, each profile's questions in stored order. Row r's
    likers are `liker[liker_ptr[r]:liker_ptr[r + 1]]`, each the liker's
    position in `owners`, or -1 when the liker has no profile. A user is an
    owner whose `sampled` flag is set (frontier stubs are not users), and
    `total_likes` sums each owner's `like_count`s, which may exceed its
    known likers. Answers are never scanned."""

    vocab: tuple[str, ...]  # sorted
    owners: tuple[str, ...]  # sorted
    owner: np.ndarray
    counts: sp.csr_matrix
    sampled: np.ndarray  # bool, per owner
    total_likes: np.ndarray  # int64, per owner
    liker_ptr: np.ndarray  # int64, per row plus one
    liker: np.ndarray  # int32

    def word_counts(self, words: Collection[str]) -> np.ndarray:
        """Occurrences of `words` in each question. Words outside `vocab`
        count 0, so tag the corpus over `words` first."""
        return self.counts @ np.array([w in words for w in self.vocab], dtype=np.int64)

    def per_profile(self, values: np.ndarray) -> np.ndarray:
        """Sum of a per-question int array over each profile's questions,
        aligned with `owners`."""
        return np.bincount(self.owner, weights=values, minlength=len(self.owners)).astype(np.int64)


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


def _sort_questions(questions: Iterable[Question]) -> tuple[Question, ...]:
    # stable sort: like_count descending, ties keep input order
    return tuple(sorted(questions, key=lambda q: -q.like_count))


def _parse_question(obj: dict, line_no: int) -> Question:
    if not isinstance(obj, dict) or "text" not in obj:
        raise CorpusFormatError(line_no, "question record must be an object with a 'text' field")
    text = obj["text"]
    if not isinstance(text, str):
        raise CorpusFormatError(line_no, "question text must be a string")
    likers_raw = obj.get("likers")
    likers: tuple[str, ...] = ()
    if likers_raw is not None:
        if not isinstance(likers_raw, list) or not all(isinstance(x, str) for x in likers_raw):
            raise CorpusFormatError(line_no, "likers must be an array of strings")
        if len(set(likers_raw)) != len(likers_raw):
            raise CorpusFormatError(line_no, "duplicate liker ids on one question")
        likers = tuple(likers_raw)
    like_count = obj.get("like_count", len(likers))
    if not isinstance(like_count, int) or isinstance(like_count, bool) or like_count < 0:
        raise CorpusFormatError(line_no, "like_count must be a nonnegative integer")
    answer = obj.get("answer", "")
    if not isinstance(answer, str):
        raise CorpusFormatError(line_no, "answer must be a string")
    if likers_raw is not None and like_count != len(likers):
        raise CorpusFormatError(
            line_no, f"like_count {like_count} does not match {len(likers)} likers"
        )
    return Question(
        text=text,
        likers=likers,
        like_count=like_count,
        answer=answer,
    )


def _check_encodable(obj, line_no: int) -> None:
    try:
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        surrogate = exc.object[exc.start:exc.end]
        raise CorpusFormatError(line_no, f"lone surrogate {surrogate!r} in a string") from exc


def load_corpus(path: str | Path) -> Corpus:
    """Parse a line-delimited profile file into a Corpus.

    Raises CorpusFormatError (with the offending line number) on malformed
    records, duplicate owners, like_count/likers mismatches, or strings
    holding a lone surrogate (which no UTF-8 output can encode).
    """
    profiles: dict[str, Profile] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(line_no, f"invalid JSON: {exc}") from exc
            # the file is decoded as UTF-8, so a surrogate can only come from
            # a JSON \u escape: only lines with one need the encoding check
            if "\\u" in line:
                _check_encodable(obj, line_no)
            if not isinstance(obj, dict):
                raise CorpusFormatError(line_no, "profile record must be an object")
            owner = obj.get("owner")
            if not isinstance(owner, str) or not owner:
                raise CorpusFormatError(line_no, "missing or empty 'owner'")
            if owner in profiles:
                raise CorpusFormatError(line_no, f"duplicate owner id {owner!r}")
            questions_raw = obj.get("questions", [])
            if not isinstance(questions_raw, list):
                raise CorpusFormatError(line_no, "'questions' must be an array")
            fully_sampled = obj.get("fully_sampled", True)
            if not isinstance(fully_sampled, bool):
                raise CorpusFormatError(line_no, "'fully_sampled' must be true or false")
            questions = _sort_questions(_parse_question(q, line_no) for q in questions_raw)
            profiles[owner] = Profile(
                owner=owner,
                questions=questions,
                fully_sampled=fully_sampled,
            )
    return Corpus(profiles=profiles)


def _question_record(q: Question) -> dict:
    record = {"text": q.text, "answer": q.answer, "likers": list(q.likers),
              "like_count": q.like_count}
    if q.like_count and not q.likers:
        # a count read without liker ids: an empty list would contradict it
        del record["likers"]
    return record


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


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a Corpus in the canonical line-delimited format, through
    `atomic_write`.

    Output is deterministic: fixed key order, compact separators, question
    order as stored (like_count descending). load_corpus(save_corpus(c))
    round-trips byte-identically.
    """
    with atomic_write(path) as fh:
        for profile in corpus:
            record = {
                "owner": profile.owner,
                "fully_sampled": profile.fully_sampled,
                "questions": [_question_record(q) for q in profile.questions],
            }
            fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")


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


def load_lexicon(path: str | Path, polarity: str) -> Lexicon:
    """Load a one-word-per-line lexicon ('#' comments, blank lines ignored);
    each entry is read by `lexicon_word`."""
    if polarity not in ("negative", "positive"):
        raise LexiconError(f"polarity must be 'negative' or 'positive', got {polarity!r}")
    words: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            word = line.strip()
            if not word or word.startswith("#"):
                continue
            if any(ch.isspace() for ch in word):
                raise LexiconError(f"line {line_no}: multi-word entry {word!r} not allowed")
            try:
                words.add(lexicon_word(word))
            except LexiconError as exc:
                raise LexiconError(f"line {line_no}: {exc}") from None
    if not words:
        raise LexiconError(f"lexicon {path} is empty after parsing")
    return Lexicon(polarity=polarity, words=frozenset(words))


def tag_corpus(corpus: Corpus, vocab: Iterable[str]) -> TaggedCorpus:
    """Tokenize each question once and count its tokens that are in `vocab`;
    take its likers and each profile's sampling flag and like total along.

    A corpus already tagged over a superset of `vocab` is returned as it is,
    so every consumer can tag its input and a run tokenizes only once."""
    vocab = frozenset(vocab)
    if isinstance(corpus, TaggedCorpus) and vocab.issubset(corpus.vocab):
        return corpus
    words = tuple(sorted(vocab))
    index = {w: i for i, w in enumerate(words)}
    owners = tuple(sorted(corpus.profiles))
    position = {u: k for k, u in enumerate(owners)}
    profiles = [corpus[u] for u in owners]
    questions = [q for p in profiles for q in p.questions]
    # one tuple per question (the empty one is shared): a list each would
    # leave the garbage collector hundreds of thousands of objects to scan
    ids = [tuple([index[t] for t in tokenize(q.text) if t in index]) for q in questions]
    indptr = np.cumsum([0, *map(len, ids)], dtype=np.int64)
    indices = np.fromiter(chain.from_iterable(ids), dtype=np.int64, count=int(indptr[-1]))
    counts = sp.csr_matrix(
        (np.ones(len(indices), dtype=np.int64), indices, indptr), shape=(len(ids), len(words))
    )
    counts.sum_duplicates()
    likers = [q.likers for q in questions]
    liker_ptr = np.cumsum([0, *map(len, likers)], dtype=np.int64)
    positions = map(position.get, chain.from_iterable(likers), repeat(-1))
    liker = np.fromiter(positions, np.int32, int(liker_ptr[-1]))
    return TaggedCorpus(
        profiles=corpus.profiles,
        vocab=words,
        owners=owners,
        owner=np.repeat(np.arange(len(owners)), [len(p.questions) for p in profiles]),
        counts=counts,
        sampled=np.array([p.fully_sampled for p in profiles], dtype=bool),
        total_likes=np.array([p.total_likes for p in profiles], dtype=np.int64),
        liker_ptr=liker_ptr,
        liker=liker,
    )


def content_table(corpus: Corpus, neg: Collection[str], pos: Collection[str]) -> ContentTable:
    """Answered questions, total likes, and the questions holding and the
    occurrences of `neg` and `pos` words, per fully sampled profile."""
    tagged = tag_corpus(corpus, {*neg, *pos})
    users = np.flatnonzero(tagged.sampled)
    neg_w = tagged.word_counts(neg)
    pos_w = tagged.word_counts(pos)
    return ContentTable(
        users=tuple(tagged.owners[i] for i in users),
        total_likes=tagged.total_likes[users],
        n_answers=np.bincount(tagged.owner, minlength=len(tagged.owners))[users],
        n_neg_questions=tagged.per_profile(neg_w > 0)[users],
        n_pos_questions=tagged.per_profile(pos_w > 0)[users],
        n_neg_words=tagged.per_profile(neg_w)[users],
        n_pos_words=tagged.per_profile(pos_w)[users],
    )


def corpus_stats(corpus: Corpus, neg: Lexicon, pos: Lexicon) -> CorpusStats:
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
