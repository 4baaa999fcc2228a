"""User segmentation into negativity groups and per-group aggregate reports.

Groups: HN (>=3 negative posts, zero positive), PN (>=3 negative and >4
positive), HP (>10 positive), OTHR (everyone else). Predicates overlap, so
classification applies the precedence HN -> PN -> HP -> OTHR.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .corpus import Corpus, hit_counts, tag_corpus
from .interaction import NodeTable
from .wordgraph import WordSet

GROUPS = ("HN", "HP", "PN", "OTHR")


@dataclass(frozen=True)
class UserContentStats:
    n_answers: int
    n_neg_questions: int
    n_pos_questions: int
    n_neg_words: int
    n_pos_words: int


@dataclass(frozen=True)
class GroupRow:
    name: str
    count: int
    mean_neg_reciprocity: Optional[float]
    mean_nonneg_reciprocity: Optional[float]
    mean_neg_in_degree: Optional[float]
    mean_nonneg_in_degree: Optional[float]
    mean_neg_out_degree: Optional[float]
    mean_nonneg_out_degree: Optional[float]
    mean_total_likes: Optional[float]
    likes_per_answer: Optional[float]
    mean_local_clustering: Optional[float]
    mean_answers: Optional[float]
    mean_neg_questions: Optional[float]
    mean_pos_questions: Optional[float]
    mean_neg_words: Optional[float]
    mean_pos_words: Optional[float]
    unresolved_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class GroupReport:
    rows: tuple[GroupRow, ...]

    def row(self, name: str) -> GroupRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


@dataclass(frozen=True)
class LabelFile:
    label: str
    user_ids: frozenset[str]


def user_content_stats(
    hits: tuple[tuple[str, ...], ...], neg: WordSet, pos: WordSet
) -> UserContentStats:
    """Counts over ALL answered questions on a profile (not just top-k),
    given the tagged words of each of its questions."""
    return UserContentStats(len(hits), *hit_counts(hits, neg, pos))


def classify_user(stats: UserContentStats) -> str:
    """Total partition over (n_neg_questions, n_pos_questions) with the
    precedence HN -> PN -> HP -> OTHR."""
    neg = stats.n_neg_questions
    pos = stats.n_pos_questions
    if neg >= 3 and pos == 0:
        return "HN"
    if neg >= 3 and pos > 4:
        return "PN"
    if pos > 10:
        return "HP"
    return "OTHR"


def content_table(corpus: Corpus, neg: WordSet, pos: WordSet) -> dict[str, UserContentStats]:
    """Content counts for every fully sampled profile (frontier stubs are
    not users), computed once per run; the classification and every group
    and label row read them."""
    hits = tag_corpus(corpus, {*neg.words, *pos.words}).hits
    return {
        p.owner: user_content_stats(hits[p.owner], neg, pos) for p in corpus if p.fully_sampled
    }


def classify_corpus(content: dict[str, UserContentStats]) -> dict[str, str]:
    return {user: classify_user(stats) for user, stats in content.items()}


def load_label_file(path: str | Path) -> LabelFile:
    """Parse a label file: header `label: <name>`, then one UserId per line."""
    label = None
    ids: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if label is None:
                if not line.startswith("label:"):
                    raise ValueError("label file must start with a 'label: <name>' header")
                label = line[len("label:"):].strip()
                if not label:
                    raise ValueError("empty label name")
                continue
            ids.add(line)
    if label is None:
        raise ValueError("label file has no header")
    return LabelFile(label=label, user_ids=frozenset(ids))


def _mean(values: list[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _aggregate(
    name: str,
    members: list[str],
    corpus: Corpus,
    content: dict[str, UserContentStats],
    table: NodeTable,
    unresolved: tuple[str, ...] = (),
) -> GroupRow:
    """Means over members, which are fully sampled users and so graph nodes:
    each graph column is read at the members' positions among the sorted
    node ids."""
    rows = [bisect_left(table.nodes, u) for u in members]

    def mean_of(column: np.ndarray) -> Optional[float]:
        return _mean(column[rows].tolist())

    stats = [content[u] for u in members]
    total_likes = [float(corpus[u].total_likes) for u in members]
    total_answers = sum(s.n_answers for s in stats)
    return GroupRow(
        name=name,
        count=len(members),
        mean_neg_reciprocity=mean_of(table.neg.node_reciprocity),
        mean_nonneg_reciprocity=mean_of(table.nonneg.node_reciprocity),
        mean_neg_in_degree=mean_of(table.neg.in_deg),
        mean_nonneg_in_degree=mean_of(table.nonneg.in_deg),
        mean_neg_out_degree=mean_of(table.neg.out_deg),
        mean_nonneg_out_degree=mean_of(table.nonneg.out_deg),
        mean_total_likes=_mean(total_likes),
        likes_per_answer=(sum(total_likes) / total_answers) if total_answers else None,
        mean_local_clustering=mean_of(table.local_clustering),
        mean_answers=_mean([float(s.n_answers) for s in stats]),
        mean_neg_questions=_mean([float(s.n_neg_questions) for s in stats]),
        mean_pos_questions=_mean([float(s.n_pos_questions) for s in stats]),
        mean_neg_words=_mean([float(s.n_neg_words) for s in stats]),
        mean_pos_words=_mean([float(s.n_pos_words) for s in stats]),
        unresolved_ids=unresolved,
    )


def group_report(
    corpus: Corpus,
    labels: dict[str, str],
    content: dict[str, UserContentStats],
    table: NodeTable,
) -> GroupReport:
    """One aggregate row per group. Empty groups get count 0 and null means."""
    members: dict[str, list[str]] = {g: [] for g in GROUPS}
    for user, group in sorted(labels.items()):
        members[group].append(user)
    rows = tuple(_aggregate(g, members[g], corpus, content, table) for g in GROUPS)
    return GroupReport(rows=rows)


def labeled_report(
    corpus: Corpus,
    label_file: LabelFile,
    content: dict[str, UserContentStats],
    table: NodeTable,
) -> GroupRow:
    """Aggregate row over an externally labeled user set; ids without a
    fully sampled profile are reported as unresolved, not fatal."""
    resolved = sorted(u for u in label_file.user_ids if u in content)
    unresolved = tuple(sorted(u for u in label_file.user_ids if u not in content))
    if not resolved:
        raise ValueError(
            f"label set {label_file.label!r} has no fully sampled users in the corpus"
        )
    return _aggregate(label_file.label, resolved, corpus, content, table, unresolved)
