"""Corpus and lexicon loading, tokenization, and the tagged corpus.

The corpus file format is line-delimited JSON: one profile object per line
with fields ``owner`` (string), ``fully_sampled`` (bool) and ``questions``
(array of ``{text, answer, likers, like_count}``). Questions are normalized
to like_count-descending order on load.

`tag_corpus` is the only caller of `tokenize`: every analysis reads the
lexicon hits it keeps per question.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Container, Iterable


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


@dataclass(frozen=True)
class TaggedCorpus(Corpus):
    """A corpus with the vocabulary words of each question's text.

    `hits[owner][i]` holds the tokens of question i of that profile that are
    in `vocab`, in occurrence order (so repeated words count), as the
    vocabulary's own string objects. Answers are never scanned."""

    vocab: frozenset[str] = frozenset()
    hits: dict[str, tuple[tuple[str, ...], ...]] = field(default_factory=dict)


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


def load_lexicon(path: str | Path, polarity: str) -> Lexicon:
    """Load a one-word-per-line lexicon ('#' comments, blank lines ignored).

    Each entry must be a single token as `tokenize` splits text, since any
    other entry could never match a question."""
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
            entry = word.lower()
            # matched against the token pattern directly: `tokenize` runs once
            # per question, and its call count is measured as such
            if not _TOKEN_RE.fullmatch(entry):
                tokens = _TOKEN_RE.findall(entry)
                raise LexiconError(
                    f"line {line_no}: entry {word!r} is not a single token (reads as {tokens})"
                )
            words.add(entry)
    if not words:
        raise LexiconError(f"lexicon {path} is empty after parsing")
    return Lexicon(polarity=polarity, words=frozenset(words))


def tag_corpus(corpus: Corpus, vocab: Iterable[str]) -> TaggedCorpus:
    """Tokenize each question once and keep its tokens that are in `vocab`.

    A corpus already tagged over a superset of `vocab` is returned as it is,
    so every consumer can tag its input and a run tokenizes only once."""
    vocab = frozenset(vocab)
    if isinstance(corpus, TaggedCorpus) and vocab <= corpus.vocab:
        return corpus
    index = {w: w for w in vocab}
    hits = {
        p.owner: tuple(
            tuple([index[t] for t in tokenize(q.text) if t in index]) for q in p.questions
        )
        for p in corpus
    }
    return TaggedCorpus(profiles=corpus.profiles, vocab=vocab, hits=hits)


def hit_counts(
    hits: tuple[tuple[str, ...], ...], neg: Container[str], pos: Container[str]
) -> tuple[int, int, int, int]:
    """Negative questions, positive questions, negative words and positive
    words over the tagged words of a profile's questions."""
    n_neg_q = n_pos_q = n_neg_w = n_pos_w = 0
    for words in hits:
        neg_w = sum(w in neg for w in words)
        pos_w = sum(w in pos for w in words)
        n_neg_q += neg_w > 0
        n_pos_q += pos_w > 0
        n_neg_w += neg_w
        n_pos_w += pos_w
    return n_neg_q, n_pos_q, n_neg_w, n_pos_w


def corpus_stats(corpus: Corpus, neg: Lexicon, pos: Lexicon) -> CorpusStats:
    """Per-user averages of answer counts and tagged question/word counts,
    over fully sampled profiles (frontier stubs are not users)."""
    hits = tag_corpus(corpus, neg.words | pos.words).hits
    users = [p.owner for p in corpus if p.fully_sampled]
    if not users:
        raise ValueError("corpus_stats requires a fully sampled profile")
    n = len(users)
    counts = [hit_counts(hits[u], neg.words, pos.words) for u in users]
    neg_q, pos_q, neg_w, pos_w = (sum(column) for column in zip(*counts))
    return CorpusStats(
        avg_answers_per_user=sum(len(hits[u]) for u in users) / n,
        avg_neg_questions=neg_q / n,
        avg_pos_questions=pos_q / n,
        avg_neg_words=neg_w / n,
        avg_pos_words=pos_w / n,
        pct_users_with_neg_q=100.0 * sum(c[0] >= 1 for c in counts) / n,
        pct_users_with_3plus_neg_q=100.0 * sum(c[0] >= 3 for c in counts) / n,
        pct_users_with_pos_q=100.0 * sum(c[1] >= 1 for c in counts) / n,
    )
