"""`write_edges` against its oracle: `write_csv` over the edge rows."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from askgraph import reports
from askgraph.corpus import CSR, Graph
from askgraph.reports import write_csv, write_edges

# characters csv quotes or splits lines on, spaces and non-ASCII text
NAME_CHARS = [",", '"', "\r", "\n", " ", "a", "b", "é", "字", "\u2028", "'"]
SPECIAL_NAMES = [",", '"', "\r", "\n", "\r\n", " lead", "trail ", "a,b", 'say "hi"', "ünï字", "x"]


def graph_of(names, keys, data) -> Graph:
    """The graph over `names` holding `data[k]` at the k-th of the sorted,
    distinct keys `src * len(names) + dst`."""
    n = len(names)
    return Graph(tuple(names), CSR.from_keys(np.asarray(keys, dtype=np.int64), (n, n), data))


def oracle_bytes(header: list[str], graph: Graph) -> bytes:
    """`write_csv` over one row per stored entry, read row by row off `indptr`."""
    names, m = graph.nodes, graph.adjacency
    indptr, indices, data = m.indptr.tolist(), m.indices.tolist(), m.data.tolist()
    rows = [
        [names[i], names[indices[k]], *(data[k] if m.data.ndim == 2 else [data[k]])]
        for i in range(len(names)) for k in range(indptr[i], indptr[i + 1])
    ]
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(Path(tmp) / "edges.csv", header, rows)
        return (Path(tmp) / "edges.csv").read_bytes()


def written_bytes(header: list[str], graph: Graph) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        write_edges(Path(tmp) / "edges.csv", header, graph)
        return (Path(tmp) / "edges.csv").read_bytes()


@st.composite
def edge_graphs(draw, max_edges=13):
    """A header and a graph of 0..max_edges sorted, distinct entries, with
    one weight column (1-D data) or two ((E, 2) data)."""
    names = sorted(draw(st.sets(st.text(st.sampled_from(NAME_CHARS), max_size=4)
                                | st.sampled_from(SPECIAL_NAMES), min_size=1, max_size=8)))
    keys = sorted(draw(st.sets(st.integers(0, len(names) ** 2 - 1), max_size=max_edges)))
    n_columns = draw(st.integers(1, 2))
    weight = st.lists(st.integers(0, 2**31), min_size=len(keys) * n_columns,
                      max_size=len(keys) * n_columns)
    data = np.array(draw(weight), dtype=np.int64)
    if n_columns == 2:
        data = data.reshape(-1, 2)
    header = ["src", "dst", *(f"w{c}" for c in range(n_columns))]
    return header, graph_of(names, keys, data)


@settings(max_examples=300, deadline=None)
@given(edge_graphs())
@example((["word_a", "word_b", "weight"], graph_of(("a",), [], np.zeros(0, dtype=np.int64))))
@example((["src", "dst", "n_neg", "n_nonneg"],
          graph_of(("a", "b"), [], np.zeros((0, 2), dtype=np.int64))))
@example((["src", "dst", "n_neg", "n_nonneg"],
          graph_of(sorted(SPECIAL_NAMES), np.arange(11) * 11 + np.arange(11)[::-1],
                   np.column_stack([np.arange(11) * 2**27, np.full(11, 2**31)]))))
def test_write_edges_matches_csv_writer(header_graph):
    # four edges per block, so the drawn edge counts fall below, at and
    # past one or more block boundaries
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reports, "EDGE_BLOCK", 4)
        assert written_bytes(*header_graph) == oracle_bytes(*header_graph)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_write_edges_at_the_block_size(extra):
    n_edges = reports.EDGE_BLOCK + extra
    rng = np.random.default_rng(extra + 1)
    names = tuple(sorted({f"{word} ü," for word in map(str, range(100))}))
    keys = np.sort(rng.choice(len(names) ** 2, n_edges, replace=False))
    data = np.column_stack([rng.integers(0, 20, n_edges), rng.integers(0, 2**31, n_edges)])
    header = ["src", "dst", "n_neg", "n_nonneg"]
    graph = graph_of(names, keys, data)
    assert written_bytes(header, graph) == oracle_bytes(header, graph)
