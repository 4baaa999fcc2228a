"""Corpus and lexicon loading, tokenization, and question tagging.

The corpus file format is line-delimited JSON: one profile object per line
with fields ``owner`` (string), ``fully_sampled`` (bool) and ``questions``
(array of ``{text, answer, likers, like_count}``). Questions are normalized
to like_count-descending order on load.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable


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
class TaggedQuestion:
    is_negative: bool
    is_positive: bool
    neg_words: Counter
    pos_words: Counter


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


def load_corpus(path: str | Path) -> Corpus:
    """Parse a line-delimited profile file into a Corpus.

    Raises CorpusFormatError (with the offending line number) on malformed
    records, duplicate owners, or like_count/likers mismatches.
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


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a Corpus in the canonical line-delimited format.

    Output is deterministic: fixed key order, compact separators, question
    order as stored (like_count descending). load_corpus(save_corpus(c))
    round-trips byte-identically.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for profile in corpus:
            record = {
                "owner": profile.owner,
                "fully_sampled": profile.fully_sampled,
                "questions": [
                    {
                        "text": q.text,
                        "answer": q.answer,
                        "likers": list(q.likers),
                        "like_count": q.like_count,
                    }
                    for q in profile.questions
                ],
            }
            fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")


def load_lexicon(path: str | Path, polarity: str) -> Lexicon:
    """Load a one-word-per-line lexicon ('#' comments, blank lines ignored)."""
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
            words.add(word.lower())
    if not words:
        raise LexiconError(f"lexicon {path} is empty after parsing")
    return Lexicon(polarity=polarity, words=frozenset(words))


def tag_question(question: Question, neg: Lexicon, pos: Lexicon) -> TaggedQuestion:
    """Tag a question by lexicon membership of its text tokens.

    Only the question text is scanned; answers are never inspected. Word
    counts are occurrence counts (multisets), not distinct types.
    """
    tokens = tokenize(question.text)
    neg_words = Counter(t for t in tokens if t in neg)
    pos_words = Counter(t for t in tokens if t in pos)
    return TaggedQuestion(
        is_negative=bool(neg_words),
        is_positive=bool(pos_words),
        neg_words=neg_words,
        pos_words=pos_words,
    )


def corpus_stats(corpus: Corpus, neg: Lexicon, pos: Lexicon) -> CorpusStats:
    """Per-user averages of answer counts and tagged question/word counts."""
    n = len(corpus)
    if n == 0:
        raise ValueError("corpus_stats requires a non-empty corpus")
    total_answers = 0
    total_neg_q = total_pos_q = 0
    total_neg_w = total_pos_w = 0
    users_with_neg = users_with_3neg = users_with_pos = 0
    for profile in corpus:
        neg_q = pos_q = 0
        for question in profile.questions:
            tagged = tag_question(question, neg, pos)
            neg_q += tagged.is_negative
            pos_q += tagged.is_positive
            total_neg_w += sum(tagged.neg_words.values())
            total_pos_w += sum(tagged.pos_words.values())
        total_answers += len(profile.questions)
        total_neg_q += neg_q
        total_pos_q += pos_q
        users_with_neg += neg_q >= 1
        users_with_3neg += neg_q >= 3
        users_with_pos += pos_q >= 1
    return CorpusStats(
        avg_answers_per_user=total_answers / n,
        avg_neg_questions=total_neg_q / n,
        avg_pos_questions=total_pos_q / n,
        avg_neg_words=total_neg_w / n,
        avg_pos_words=total_pos_w / n,
        pct_users_with_neg_q=100.0 * users_with_neg / n,
        pct_users_with_3plus_neg_q=100.0 * users_with_3neg / n,
        pct_users_with_pos_q=100.0 * users_with_pos / n,
    )
