"""Output files: one writer per format, chosen by the file's suffix, and the
row formatters of the outputs that need one. Edge lists are written from
their graphs' arrays by `write_edges`.

All writes are atomic (temp file + rename); a failed write leaves a
`.partial` file behind instead of a truncated output.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator

import numpy as np

from .corpus import CSR, Graph, atomic_write, distinct, save_corpus
from .interaction import MetricsReport
from .segmentation import GroupRow


# edges per block of `write_edges`
EDGE_BLOCK = 4096


def write_output(path: str | Path, content) -> None:
    """Write `content` in the format the file's suffix names: `save_corpus`'s
    arguments after the path, (corpus,) or a crawl's (corpus, order,
    frontier), to `.jsonl`, a JSON payload to `.json`, a (header, graph) or
    (header, rows) pair to `.csv`, and lines of text to any other file."""
    suffix = Path(path).suffix
    if suffix == ".jsonl":
        save_corpus(content[0], path, *content[1:])
    elif suffix == ".json":
        write_json(path, content)
    elif suffix == ".csv":
        (write_edges if isinstance(content[1], Graph) else write_csv)(path, *content)
    else:
        write_lines(path, content)


def write_csv(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """The csv module writes None as an empty cell and a float as its repr."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_edges(path: str | Path, header: list[str], graph: Graph) -> None:
    """The bytes `write_csv` writes for the rows (source name, target name,
    weights...), one per stored entry of `graph`, in order: one weight column
    for a 1-D `data` and one per column of a 2-D one. The rows are built one
    block of EDGE_BLOCK entries at a time, so no list holds an object per
    edge and no array holds a row index per edge.

    Each name is encoded once by `csv.writer` itself, as the first field of a
    two-field row: a row of one empty field would be written as `""`. Each
    weight column is formatted once per distinct value. Every encoded cell
    ends with the separator that follows it, so a row is the join of its
    cells."""
    adjacency = graph.adjacency
    encoded: list[str] = []
    csv.writer(SimpleNamespace(write=encoded.append)).writerows((n, "") for n in graph.nodes)
    names = np.array([line[:-2] for line in encoded], dtype=object)  # 'name,' less '\r\n'
    weights = np.atleast_2d(adjacency.data.T)  # one row per weight column
    values = [distinct(column) for column in weights]
    ends = [","] * (len(values) - 1) + ["\r\n"]
    texts = [np.array([f"{v}{end}" for v in found.tolist()], dtype=object)
             for found, end in zip(values, ends)]
    cells = np.empty((2 + len(values), EDGE_BLOCK), dtype=object)  # one column per edge
    n_entries = len(adjacency.indices)
    with atomic_write(path) as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, n_entries, EDGE_BLOCK):
            stop = min(start + EDGE_BLOCK, n_entries)
            rows = cells[:, : stop - start]
            src = np.searchsorted(adjacency.indptr, np.arange(start, stop), side="right") - 1
            rows[0] = names[src]
            rows[1] = names[adjacency.indices[start:stop]]
            for row, column, found, text in zip(rows[2:], weights, values, texts):
                row[:] = text[np.searchsorted(found, column[start:stop])]
            fh.write("".join(rows.T.ravel().tolist()))


def write_json(path: str | Path, payload) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    with atomic_write(path) as fh:
        fh.writelines(line + "\n" for line in lines)


def word_set_lines(
    polarity: str, words: tuple[str, ...], scores: dict[str, float], threshold: float, cap: int
) -> Iterator[str]:
    """One `word score` per line of the word set `words`, each score read
    from the centrality dict `scores`, under a '#' metadata header."""
    yield f"# polarity: {polarity}"
    yield f"# threshold: {threshold!r}"
    yield f"# cap: {cap}"
    for word in words:
        yield f"{word} {scores[word]!r}"


def word_graph_edges(graph: Graph) -> Graph:
    """The word graph's upper triangle: each edge once, as (word_a, word_b,
    weight). The nodes are sorted, so its entries in row-major order list the
    edges in (word_a, word_b) order."""
    adjacency = graph.adjacency
    rows = adjacency.entry_rows()
    upper = adjacency.indices > rows
    keys = rows[upper] * len(graph.nodes) + adjacency.indices[upper]
    return Graph(graph.nodes, CSR.from_keys(keys, adjacency.shape, adjacency.data[upper]))


def metrics_outputs(report: MetricsReport) -> list[tuple[str, object]]:
    """One CSV per figure analogue plus a JSON summary of the scalar metrics."""
    ccdfs = [(f"ccdf_{name}.csv", (["k", "fraction_ge_k"], curve))
             for name, curve in sorted(report.ccdf_curves.items())]
    recip_rows = (
        (name, *row) for name in ("neg", "nonneg") for row in report.recip_vs_outdeg[name]
    )
    return ccdfs + [
        ("overlap.csv", (["x_percent", "overlap_percent"], report.overlap_curve)),
        ("ratio_cdf.csv", (["ratio", "cdf"], report.ratio_cdf)),
        ("recip_vs_outdeg.csv", (
            ["graph", "outdeg_bin_lo", "outdeg_bin_hi", "mean_reciprocity", "n_nodes"],
            recip_rows,
        )),
        ("clustering_vs_degree.csv",
         (["degree", "mean_local_clustering"], report.clustering_vs_degree)),
        ("metrics.json",
         {k: v for k, v in vars(report).items() if not isinstance(v, (list, dict))}),
    ]


def _group_row_values(row: GroupRow) -> list:
    values = {f.name: getattr(row, f.name) for f in fields(GroupRow)}
    values["unresolved_ids"] = ";".join(row.unresolved_ids)
    return list(values.values())


def group_table(
    group_rows: tuple[GroupRow, ...], label_rows: list[GroupRow]
) -> tuple[list[str], Iterator]:
    """One column per GroupRow field, in field order; one row per group,
    then one row per label set. Undefined means are empty cells, never zeros."""
    header = ["group"] + [f.name for f in fields(GroupRow)[1:]]
    return header, map(_group_row_values, [*group_rows, *label_rows])
