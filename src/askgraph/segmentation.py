"""User segmentation into negativity groups and per-group aggregate reports.

Groups: HN (>=3 negative posts, zero positive), PN (>=3 negative and >4
positive), HP (>10 positive), OTHR (everyone else). Predicates overlap, so
classification applies the precedence HN -> PN -> HP -> OTHR.

A group assignment is an array of group codes, indices into `GROUPS`,
aligned with the sorted users of a `ContentTable`, whose rows are also the
rows of the like graph's `NodeTable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from pathlib import Path
from typing import Optional

import numpy as np

from .corpus import ContentTable, numbered_lines
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
class LabelFile:
    label: str
    user_ids: frozenset[str]


def classify_corpus(content: ContentTable) -> np.ndarray:
    """Each user's group code, by the first predicate that holds, in the
    precedence HN -> PN -> HP -> OTHR."""
    neg, pos = content.n_neg_questions, content.n_pos_questions
    return np.select([(neg >= 3) & (pos == 0), (neg >= 3) & (pos > 4), pos > 10],
                     [GROUPS.index("HN"), GROUPS.index("PN"), GROUPS.index("HP")],
                     GROUPS.index("OTHR"))


def load_label_file(path: str | Path) -> LabelFile:
    """Parse a label file: header `label: <name>`, then one UserId per line,
    stripped, skipping blank and `#` lines. A second header, or a byte that
    is not UTF-8, fails by line. Every error names the file."""
    label = None
    ids: set[str] = set()
    try:
        for line_no, line in numbered_lines(path, lambda n, m: ValueError(f"line {n}: {m}")):
            if label is None:
                if not line.startswith("label:"):
                    raise ValueError("label file must start with a 'label: <name>' header")
                label = line[len("label:"):].strip()
                if not label:
                    raise ValueError("empty label name")
                continue
            if line.startswith("label:"):
                raise ValueError(f"line {line_no}: a second 'label:' header; "
                                 "a label file holds one label set")
            ids.add(line)
        if label is None:
            raise ValueError("label file has no header")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return LabelFile(label=label, user_ids=frozenset(ids))


def _aggregate(name: str, rows: np.ndarray, content: ContentTable, table: NodeTable,
               unresolved: tuple[str, ...] = ()) -> GroupRow:
    """Means over `rows`, ascending indices of fully sampled users: content
    users and node ids are the same sorted list, so every column is read at
    those rows, and each mean adds its values in sorted-id order."""

    def mean_of(column: np.ndarray) -> Optional[float]:
        return sum(column[rows].tolist()) / len(rows) if len(rows) else None

    total_answers = sum(content.n_answers[rows].tolist())
    total_likes = sum(content.total_likes[rows].tolist())
    return GroupRow(
        name=name,
        count=len(rows),
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


def group_report(codes: np.ndarray, content: ContentTable,
                 table: NodeTable) -> tuple[GroupRow, ...]:
    """One aggregate row per group, in `GROUPS` order, over the users whose
    code is the group's. Empty groups get count 0 and null means."""
    return tuple(_aggregate(g, np.flatnonzero(codes == k), content, table)
                 for k, g in enumerate(GROUPS))


def labeled_report(label_file: LabelFile, content: ContentTable, table: NodeTable) -> GroupRow:
    """Aggregate row over an externally labeled user set; ids without a
    fully sampled profile are reported as unresolved, not fatal. An
    unresolved id holding ';' is an error, since group_report.csv joins the
    unresolved ids with ';'."""
    ids = list(label_file.user_ids)
    rows = np.fromiter(map(content.row_of.get, ids, repeat(-1)), dtype=np.int64, count=len(ids))
    unresolved = tuple(sorted(compress(ids, (rows < 0).tolist())))
    for user_id in unresolved:
        if ";" in user_id:
            raise ValueError(f"unresolved id {user_id!r} of label set {label_file.label!r} "
                             "holds ';', which separates the unresolved ids in group_report.csv")
    if len(unresolved) == len(ids):
        raise ValueError(
            f"label set {label_file.label!r} has no fully sampled users in the corpus"
        )
    # ascending rows are the members in sorted-id order
    return _aggregate(label_file.label, np.sort(rows[rows >= 0]), content, table, unresolved)
