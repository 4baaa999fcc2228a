"""The node-table oracles rerun with the triangle kernel's row blocks at
their smallest, one wedge and one row each, so that every row of L is a
block of its own and reuses the marker the row before it cleared. At the
real limits the graphs of these oracles fit in one block."""

import pytest

import test_interaction
import test_networkx_oracle
from askgraph import interaction


@pytest.fixture
def blocks(monkeypatch):
    """Every `clustering` call's row-block count."""
    counts = []
    row_blocks = interaction.row_blocks

    def counted(reach, wedges, rows):
        ranges = list(row_blocks(reach, wedges, rows))
        counts.append(len(ranges))
        return iter(ranges)

    # a budget of 1 wedge makes the row cap 16 * 1 // n = 0: a row a block
    monkeypatch.setattr(interaction, "wedge_budget", lambda n: 1)
    monkeypatch.setattr(interaction, "row_blocks", counted)
    return counts


def oracle(test):
    """A hypothesis test over one integer seed, without its `@given`: its
    checks on the graph of one seed."""
    return test.hypothesis.inner_test


def test_hub_graphs_match_networkx_in_many_blocks(blocks):
    for seed in range(10):
        oracle(test_networkx_oracle.test_node_table_matches_networkx_on_hub_graphs)(seed)
    assert len(blocks) == 10 and min(blocks) > 1


def test_triple_enumeration_in_many_blocks(blocks):
    cls = test_interaction.TestClustering
    for seed in range(25):
        oracle(cls.test_matches_triple_enumeration)(cls(), seed)
    assert max(blocks) > 1


def test_reductions_match_loops_in_many_blocks(blocks):
    cls = test_interaction.TestReductionsMatchLoops
    for seed in range(60):
        oracle(cls.test_equal_to_the_bit)(cls(), seed)
    assert max(blocks) > 1
