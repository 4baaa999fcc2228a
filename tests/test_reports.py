"""`write_edges` against its oracle: `write_csv` over the edge rows."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from askgraph import reports
from askgraph.reports import EdgeTable, write_csv, write_edges

# characters csv quotes or splits lines on, spaces and non-ASCII text
NAME_CHARS = [",", '"', "\r", "\n", " ", "a", "b", "é", "字", " ", "'"]
SPECIAL_NAMES = [",", '"', "\r", "\n", "\r\n", " lead", "trail ", "a,b", 'say "hi"', "ünï字", "x"]


def oracle_bytes(table: EdgeTable) -> bytes:
    names = table.names
    rows = zip([names[i] for i in table.src.tolist()], [names[j] for j in table.dst.tolist()],
               *(w.tolist() for w in table.weights))
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(Path(tmp) / "edges.csv", table.header, rows)
        return (Path(tmp) / "edges.csv").read_bytes()


def written_bytes(table: EdgeTable) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        write_edges(Path(tmp) / "edges.csv", table)
        return (Path(tmp) / "edges.csv").read_bytes()


@st.composite
def edge_tables(draw, max_edges=13):
    names = sorted(draw(st.sets(st.text(st.sampled_from(NAME_CHARS), max_size=4)
                                | st.sampled_from(SPECIAL_NAMES), min_size=1, max_size=8)))
    n_edges = draw(st.integers(0, max_edges))
    index = st.integers(0, len(names) - 1)
    src, dst = (np.array(draw(st.lists(index, min_size=n_edges, max_size=n_edges)),
                         dtype=np.int64) for _ in range(2))
    weight = st.lists(st.integers(0, 2**31), min_size=n_edges, max_size=n_edges)
    weights = tuple(np.array(draw(weight), dtype=np.int64)
                    for _ in range(draw(st.integers(1, 2))))
    header = ["src", "dst", *(f"w{c}" for c in range(len(weights)))]
    return EdgeTable(header, tuple(names), src, dst, weights)


@settings(max_examples=300, deadline=None)
@given(edge_tables())
@example(EdgeTable(["word_a", "word_b", "weight"], ("a",), np.zeros(0, dtype=np.int64),
                   np.zeros(0, dtype=np.int64), (np.zeros(0, dtype=np.int64),)))
@example(EdgeTable(["src", "dst", "n_neg", "n_nonneg"], tuple(sorted(SPECIAL_NAMES)),
                   np.arange(11), np.arange(11)[::-1].copy(),
                   (np.arange(11) * 2**27, np.full(11, 2**31))))
def test_write_edges_matches_csv_writer(table):
    # four edges per block, so the drawn edge counts fall below, at and
    # past one or more block boundaries
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reports, "EDGE_BLOCK", 4)
        assert written_bytes(table) == oracle_bytes(table)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_write_edges_at_the_block_size(extra):
    n_edges = reports.EDGE_BLOCK + extra
    rng = np.random.default_rng(extra + 1)
    names = tuple(sorted({f"{word} ü," for word in map(str, range(50))}))
    table = EdgeTable(["src", "dst", "n_neg", "n_nonneg"], names,
                      rng.integers(0, len(names), n_edges), rng.integers(0, len(names), n_edges),
                      (rng.integers(0, 20, n_edges), rng.integers(0, 2**31, n_edges)))
    assert written_bytes(table) == oracle_bytes(table)
