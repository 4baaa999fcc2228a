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

# content_table builds the table that classification and the group rows read
from .corpus import ContentTable, content_table  # noqa: F401
from .interaction import NodeTable

GROUPS = ("HN", "HP", "PN", "OTHR")


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


def classify_user(n_neg_questions: int, n_pos_questions: int) -> str:
    """Total partition over (n_neg_questions, n_pos_questions) with the
    precedence HN -> PN -> HP -> OTHR."""
    neg, pos = n_neg_questions, n_pos_questions
    if neg >= 3 and pos == 0:
        return "HN"
    if neg >= 3 and pos > 4:
        return "PN"
    if pos > 10:
        return "HP"
    return "OTHR"


def classify_corpus(content: ContentTable) -> dict[str, str]:
    counts = zip(content.n_neg_questions.tolist(), content.n_pos_questions.tolist())
    return {user: classify_user(*c) for user, c in zip(content.users, counts)}


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


def _aggregate(
    name: str,
    members: list[str],
    content: ContentTable,
    table: NodeTable,
    unresolved: tuple[str, ...] = (),
) -> GroupRow:
    """Means over members, which are fully sampled users and so graph nodes:
    content users and node ids are the same sorted list, so every column is
    read at the members' positions in it."""
    rows = [bisect_left(table.nodes, u) for u in members]

    def mean_of(column: np.ndarray) -> Optional[float]:
        return sum(column[rows].tolist()) / len(rows) if rows else None

    total_answers = sum(content.n_answers[rows].tolist())
    total_likes = sum(content.total_likes[rows].tolist())
    return GroupRow(
        name=name,
        count=len(members),
        mean_neg_reciprocity=mean_of(table.neg.node_reciprocity),
        mean_nonneg_reciprocity=mean_of(table.nonneg.node_reciprocity),
        mean_neg_in_degree=mean_of(table.neg.in_deg),
        mean_nonneg_in_degree=mean_of(table.nonneg.in_deg),
        mean_neg_out_degree=mean_of(table.neg.out_deg),
        mean_nonneg_out_degree=mean_of(table.nonneg.out_deg),
        mean_total_likes=mean_of(content.total_likes),
        likes_per_answer=total_likes / total_answers if total_answers else None,
        mean_local_clustering=mean_of(table.local_clustering),
        mean_answers=mean_of(content.n_answers),
        mean_neg_questions=mean_of(content.n_neg_questions),
        mean_pos_questions=mean_of(content.n_pos_questions),
        mean_neg_words=mean_of(content.n_neg_words),
        mean_pos_words=mean_of(content.n_pos_words),
        unresolved_ids=unresolved,
    )


def group_report(labels: dict[str, str], content: ContentTable, table: NodeTable) -> GroupReport:
    """One aggregate row per group. Empty groups get count 0 and null means."""
    members: dict[str, list[str]] = {g: [] for g in GROUPS}
    for user, group in sorted(labels.items()):
        members[group].append(user)
    return GroupReport(rows=tuple(_aggregate(g, members[g], content, table) for g in GROUPS))


def labeled_report(label_file: LabelFile, content: ContentTable, table: NodeTable) -> GroupRow:
    """Aggregate row over an externally labeled user set; ids without a
    fully sampled profile are reported as unresolved, not fatal."""
    users = set(content.users)
    resolved = sorted(label_file.user_ids & users)
    unresolved = tuple(sorted(label_file.user_ids - users))
    if not resolved:
        raise ValueError(
            f"label set {label_file.label!r} has no fully sampled users in the corpus"
        )
    return _aggregate(label_file.label, resolved, content, table, unresolved)
