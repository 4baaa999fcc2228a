"""The node-table oracles rerun with the triangle kernel's wedge budget at
its minimum, so that both of its products run in many row blocks. At the
real budget the graphs of these oracles fit in one block."""

import pytest

import test_interaction
import test_networkx_oracle
from askgraph import interaction


@pytest.fixture
def blocks(monkeypatch):
    """Every `node_table` call's row-block counts: one list per product, in
    the order the kernel runs them (closing wedges, then middle corners)."""
    counts = []
    row_blocks = interaction._row_blocks

    def counted(work):
        ranges = list(row_blocks(work))
        counts.append(len(ranges))
        return iter(ranges)

    monkeypatch.setattr(interaction, "_wedge_budget", lambda n: 1)
    monkeypatch.setattr(interaction, "_row_blocks", counted)
    return counts


def oracle(test):
    """A hypothesis test over one integer seed, without its `@given`: its
    checks on the graph of one seed."""
    return test.hypothesis.inner_test


def test_hub_graphs_match_networkx_in_many_blocks(blocks):
    for seed in range(10):
        oracle(test_networkx_oracle.test_node_table_matches_networkx_on_hub_graphs)(seed)
    closing, middle = blocks[::2], blocks[1::2]
    assert len(closing) == len(middle) == 10
    assert min(closing) > 1 and min(middle) > 1


def test_triple_enumeration_in_many_blocks(blocks):
    cls = test_interaction.TestClustering
    for seed in range(25):
        oracle(cls.test_matches_triple_enumeration)(cls(), seed)
    assert max(blocks[::2]) > 1 and max(blocks[1::2]) > 1


def test_reductions_match_loops_in_many_blocks(blocks):
    cls = test_interaction.TestReductionsMatchLoops
    for seed in range(60):
        oracle(cls.test_equal_to_the_bit)(cls(), seed)
    assert max(blocks[::2]) > 1 and max(blocks[1::2]) > 1
