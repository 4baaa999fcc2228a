"""File emitters for tables, curves, and graph exports.

All writes are atomic (temp file + rename); a failed write leaves a
`.partial` file behind instead of a truncated output.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Optional

import numpy as np
import scipy.sparse as sp

from .corpus import CorpusStats, atomic_write
from .interaction import InteractionGraph, MetricsReport
from .segmentation import GroupReport, GroupRow
from .wordgraph import OneModeGraph, WordSet


def write_csv(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """The csv module writes None as an empty cell and a float as its repr."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, payload) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_word_set(
    path: str | Path, word_set: WordSet, threshold: float, cap: int
) -> None:
    """One `word score` per line with a '#' metadata header."""
    with atomic_write(path) as fh:
        fh.write(f"# polarity: {word_set.polarity}\n")
        fh.write(f"# threshold: {threshold!r}\n")
        fh.write(f"# cap: {cap}\n")
        for word in word_set.words:
            fh.write(f"{word} {word_set.scores[word]!r}\n")


def write_word_graph(
    edges_path: str | Path,
    nodes_path: str | Path,
    graph: OneModeGraph,
    scores: dict[str, float],
) -> None:
    """CSV edge list (word_a, word_b, weight) plus node centrality table.

    The nodes are sorted, so the upper triangle in row-major order lists
    the edges in (word_a, word_b) order."""
    upper = sp.triu(graph.adjacency, 1, format="csr")
    upper.sort_indices()
    names = graph.nodes
    rows = np.repeat(np.arange(len(names)), np.diff(upper.indptr))
    write_csv(
        edges_path,
        ["word_a", "word_b", "weight"],
        zip(
            [names[i] for i in rows.tolist()],
            [names[j] for j in upper.indices.tolist()],
            upper.data.tolist(),
        ),
    )
    write_csv(
        nodes_path,
        ["word", "centrality"],
        ((w, scores[w]) for w in graph.nodes),
    )


def write_interaction_graph(path: str | Path, graph: InteractionGraph) -> None:
    """One row per edge, in the graph's stored (sorted) edge order."""
    write_csv(path, ["src", "dst", "n_neg", "n_nonneg"], graph.edge_rows())


def write_corpus_stats(path: str | Path, stats: CorpusStats) -> None:
    write_json(path, vars(stats))


def write_metrics(out_dir: str | Path, report: MetricsReport) -> None:
    """One CSV per figure analogue plus a JSON summary."""
    out_dir = Path(out_dir)
    for name, curve in sorted(report.ccdf_curves.items()):
        write_csv(out_dir / f"ccdf_{name}.csv", ["k", "fraction_ge_k"], curve)
    write_csv(out_dir / "overlap.csv", ["x_percent", "overlap_percent"], report.overlap_curve)
    write_csv(out_dir / "ratio_cdf.csv", ["ratio", "cdf"], report.ratio_cdf)
    recip_rows = [
        (name, lo, hi, mean, n)
        for name in ("neg", "nonneg")
        for (lo, hi, mean, n) in report.recip_vs_outdeg[name]
    ]
    write_csv(
        out_dir / "recip_vs_outdeg.csv",
        ["graph", "outdeg_bin_lo", "outdeg_bin_hi", "mean_reciprocity", "n_nodes"],
        recip_rows,
    )
    write_csv(
        out_dir / "clustering_vs_degree.csv",
        ["degree", "mean_local_clustering"],
        report.clustering_vs_degree,
    )
    write_json(
        out_dir / "metrics.json",
        {
            "mean_reciprocity": report.mean_reciprocity,
            "neg_reciprocity": report.neg_reciprocity,
            "nonneg_reciprocity": report.nonneg_reciprocity,
            "within_20pct": report.within_20pct,
            "clustering_global": report.clustering_global,
            "clustering_mean_local": report.clustering_mean_local,
            "likes_answers_corr_below": report.likes_answers_corr_below,
            "likes_answers_corr_above": report.likes_answers_corr_above,
        },
    )


# group_report.csv has one column per GroupRow field, in field order.
_GROUP_COLUMNS = ["group"] + [f.name for f in fields(GroupRow)[1:]]


def _group_row_values(row: GroupRow) -> list:
    values = {f.name: getattr(row, f.name) for f in fields(GroupRow)}
    values["unresolved_ids"] = ";".join(row.unresolved_ids)
    return list(values.values())


def write_group_report(
    path: str | Path, report: GroupReport, label_rows: Optional[list[GroupRow]] = None
) -> None:
    """Fixed-column CSV: one row per group, then one row per label set.
    Undefined means are emitted as empty cells, never as zeros."""
    rows = [_group_row_values(r) for r in report.rows]
    for extra in label_rows or []:
        rows.append(_group_row_values(extra))
    write_csv(path, _GROUP_COLUMNS, rows)


def write_label_file(path: str | Path, label: str, user_ids: Iterable[str]) -> None:
    with atomic_write(path) as fh:
        fh.write(f"label: {label}\n")
        for uid in sorted(user_ids):
            fh.write(f"{uid}\n")


def write_frequency_vector(path: str | Path, vector) -> None:
    write_csv(
        path,
        ["word", "mean_frequency"],
        vector.entries,
    )


def write_neighborhood(path: str | Path, core: str, records: list[tuple[str, int, float]]) -> None:
    write_csv(
        path,
        ["core", "neighbor", "weight", "neighbor_centrality"],
        ((core, n, w, c) for n, w, c in records),
    )
