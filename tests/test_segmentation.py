from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from askgraph.corpus import ContentTable, Corpus, content_table
from askgraph.interaction import build_interaction_graph, node_table
from askgraph.segmentation import (
    GROUPS,
    LabelFile,
    classify_corpus,
    group_report,
    labeled_report,
    load_label_file,
)
from helpers import classify_counts, classify_user, group_row, vocab_word_set

NEG = vocab_word_set(["ugly", "hate"])
POS = vocab_word_set(["nice", "sweet"])


def profile(owner, texts, fully_sampled=True):
    return {
        "owner": owner,
        "questions": [{"text": t} for t in texts],
        "fully_sampled": fully_sampled,
    }


def corpus_of(records):
    """The records parsed over both word sets, as the analyses read them."""
    return Corpus.from_records(records, NEG + POS)


COLUMNS = ("n_answers", "n_neg_questions", "n_pos_questions", "n_neg_words", "n_pos_words")


def content_of(p):
    """The `content_table` row of one profile."""
    table = content_table(corpus_of([p]), NEG, POS)
    return SimpleNamespace(**{c: int(getattr(table, c)[0]) for c in COLUMNS})


class TestUserContentStats:
    def test_hand_count(self):
        p = profile("a", ["you ugly", "hi", "nice one"])
        s = content_of(p)
        assert (s.n_answers, s.n_neg_questions, s.n_pos_questions,
                s.n_neg_words, s.n_pos_words) == (3, 1, 1, 1, 1)

    def test_empty_profile(self):
        s = content_of(profile("a", []))
        assert vars(s) == dict.fromkeys(COLUMNS, 0)

    def test_dual_flag_question(self):
        s = content_of(profile("a", ["ugly but nice"]))
        assert s.n_neg_questions == 1 and s.n_pos_questions == 1

    def test_word_occurrences_counted(self):
        s = content_of(profile("a", ["ugly ugly hate"]))
        assert s.n_neg_words == 3 and s.n_neg_questions == 1


class TestClassifyUser:
    """`classify_corpus`, the rule over arrays, against the scalar if-chain
    `classify_user`."""

    @pytest.mark.parametrize("neg,pos,expected", [
        (3, 0, "HN"),
        (3, 5, "PN"),
        (0, 11, "HP"),
        (1, 2, "OTHR"),
        (3, 11, "PN"),   # satisfies PN and HP; precedence keeps PN
        (3, 3, "OTHR"),  # pos neither 0 nor >4 falls through
        (2, 0, "OTHR"),
        (5, 0, "HN"),
    ])
    def test_decision_table(self, neg, pos, expected):
        assert classify_counts([neg], [pos]) == [expected]
        assert classify_user(neg, pos) == expected

    def test_exhaustive_sweep_total_partition(self):
        pairs = [(neg, pos) for neg in range(13) for pos in range(13)]
        labels = classify_counts([neg for neg, _ in pairs], [pos for _, pos in pairs])
        for (neg, pos), label in zip(pairs, labels):
            assert label in GROUPS
            assert label == classify_user(neg, pos)
            # re-derive by explicit precedence
            if neg >= 3 and pos == 0:
                assert label == "HN"
            elif neg >= 3 and pos > 4:
                assert label == "PN"
            elif pos > 10:
                assert label == "HP"
            else:
                assert label == "OTHR"

    def test_boundary_monotonicity(self):
        assert classify_counts([2, 3], [0, 0]) == ["OTHR", "HN"]

    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100)), max_size=20))
    def test_total_function(self, pairs):
        labels = classify_counts([neg for neg, _ in pairs], [pos for _, pos in pairs])
        assert labels == [classify_user(neg, pos) for neg, pos in pairs]
        assert set(labels) <= set(GROUPS)


def build_tables(corp):
    """The per-user content table and the graph's node table."""
    return content_table(corp, NEG, POS), node_table(build_interaction_graph(corp, NEG))


class TestGroupReport:
    RECORDS = [
        profile("hn1", ["ugly a", "ugly b", "hate c"]),
        profile("hp1", [f"nice {i}" for i in range(11)]),
        profile("oth", ["hello there"]),
    ]

    def make_corpus(self):
        return corpus_of(self.RECORDS)

    def test_counts_partition_corpus(self):
        corp = self.make_corpus()
        content, table = build_tables(corp)
        codes = classify_corpus(content)
        report = group_report(codes, content, table)
        assert sum(r.count for r in report) == len(corp)
        assert group_row(report, "HN").count == 1
        assert group_row(report, "HP").count == 1
        assert group_row(report, "OTHR").count == 1
        assert group_row(report, "PN").count == 0

    def test_empty_group_has_null_means(self):
        corp = self.make_corpus()
        content, table = build_tables(corp)
        codes = classify_corpus(content)
        row = group_row(group_report(codes, content, table), "PN")
        assert row.count == 0
        assert row.mean_neg_in_degree is None
        assert row.likes_per_answer is None

    def test_single_user_corpus(self):
        corp = corpus_of([profile("a", ["hello"])])
        content, table = build_tables(corp)
        codes = classify_corpus(content)
        report = group_report(codes, content, table)
        assert group_row(report, "OTHR").count == 1
        assert sum(r.count for r in report) == 1

    def test_group_means_match_brute_force(self):
        corp = self.make_corpus()
        content, table = build_tables(corp)
        codes = classify_corpus(content)
        report = group_report(codes, content, table)
        profiles = {p["owner"]: p for p in self.RECORDS}
        for row in report:
            members = [u for u, k in zip(content.users, codes.tolist()) if GROUPS[k] == row.name]
            if not members:
                continue
            expected = sum(
                content_of(profiles[u]).n_neg_questions for u in members
            ) / len(members)
            assert row.mean_neg_questions == pytest.approx(expected)

    def test_group_totals_reconstruct_corpus_totals(self):
        corp = self.make_corpus()
        content, table = build_tables(corp)
        codes = classify_corpus(content)
        report = group_report(codes, content, table)
        total = sum(
            r.count * r.mean_answers for r in report if r.count
        )
        assert total == pytest.approx(sum(len(p["questions"]) for p in self.RECORDS))


    def test_means_add_python_floats_left_to_right_in_id_order(self):
        """Each mean is `sum` over the members' values in id order: past 8
        values numpy's pairwise `np.sum` adds in another order, and here
        keeps the small values that a left-to-right sum drops."""
        n = 20
        values = np.array([1.0] + [1e-16] * (n - 1))
        assert float(np.mean(values)) != 1.0 / n  # the premise
        ints = np.zeros(n, dtype=np.int64)
        content = ContentTable(tuple(f"u{i:02d}" for i in range(n)), ints, ints, ints, ints,
                               ints, ints)
        counts = SimpleNamespace(node_reciprocity=values, in_deg=ints, out_deg=ints)
        table = SimpleNamespace(neg=counts, nonneg=counts, local_clustering=values)
        for row in (group_report(np.full(n, GROUPS.index("OTHR")), content, table)[-1],
                    labeled_report(LabelFile("all", frozenset(content.users)), content, table)):
            assert row.count == n
            assert row.mean_neg_reciprocity == row.mean_local_clustering == 1.0 / n


class TestLabeledReport:
    def test_means_add_in_id_order_whatever_order_the_set_gives(self):
        """A label file's ids are a set, iterated in hash order; each mean
        still adds its members' values in id order. Per family of 1,000
        users, only that order keeps 1.0 exact: a 1e-16 added to zero
        before it would survive."""
        n, families = 1000, "abc"
        values = np.tile([1.0] + [1e-16] * (n - 1), len(families))
        ints = np.zeros(n * len(families), dtype=np.int64)
        users = tuple(f"{f}{i:03d}" for f in families for i in range(n))
        content = ContentTable(users, ints, ints, ints, ints, ints, ints)
        counts = SimpleNamespace(node_reciprocity=values, in_deg=ints, out_deg=ints)
        table = SimpleNamespace(neg=counts, nonneg=counts, local_clustering=values)
        for f in families:
            label = LabelFile(f, frozenset(u for u in users if u.startswith(f)))
            row = labeled_report(label, content, table)
            assert row.count == n and row.mean_local_clustering == 1.0 / n

    def test_single_known_user(self):
        corp = corpus_of([
            profile("a", ["ugly x", "nice y"]),
            profile("b", ["hello"]),
        ])
        content, table = build_tables(corp)
        lf = LabelFile(label="cutting", user_ids=frozenset({"a"}))
        row = labeled_report(lf, content, table)
        assert row.count == 1
        assert row.mean_neg_questions == 1.0
        assert row.unresolved_ids == ()

    def test_unknown_ids_reported(self):
        corp = corpus_of([profile("a", ["ugly x"])])
        content, table = build_tables(corp)
        lf = LabelFile(label="cutting", user_ids=frozenset({"a", "ghost"}))
        row = labeled_report(lf, content, table)
        assert row.count == 1
        assert row.unresolved_ids == ("ghost",)

    def test_frontier_stub_ids_are_unresolved(self):
        corp = corpus_of([
            profile("a", ["ugly x"]),
            profile("s", [], fully_sampled=False),
        ])
        content, table = build_tables(corp)
        assert content.users == ("a",)
        assert classify_corpus(content).tolist() == [GROUPS.index("OTHR")]
        lf = LabelFile(label="cutting", user_ids=frozenset({"a", "s"}))
        row = labeled_report(lf, content, table)
        assert row.count == 1
        assert row.unresolved_ids == ("s",)

    def test_empty_intersection_rejected(self):
        corp = corpus_of([profile("a", ["hello"])])
        content, table = build_tables(corp)
        lf = LabelFile(label="cutting", user_ids=frozenset({"ghost"}))
        with pytest.raises(ValueError):
            labeled_report(lf, content, table)


class TestLabelFileIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("label: cutting\nuser1\nuser2\n", encoding="utf-8")
        lf = load_label_file(path)
        assert lf.label == "cutting"
        assert lf.user_ids == frozenset({"user1", "user2"})

    def test_ids_are_stripped_and_comment_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("# cutters\n\nlabel:  cutting \n  user1 \n#user2\n\t\n", encoding="utf-8")
        assert load_label_file(path) == LabelFile("cutting", frozenset({"user1"}))

    def test_second_header_rejected_with_its_line(self, tmp_path):
        """Two label files joined into one fail at the second header: its
        ids never join the first label's set."""
        path = tmp_path / "labels.txt"
        path.write_text("label: HN\nuser1\n\n# HP\nlabel: HP\nuser2\n", encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            load_label_file(path)
        assert str(caught.value) == (f"{path}: line 5: a second 'label:' header; "
                                     "a label file holds one label set")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("user1\n", encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            load_label_file(path)
        assert str(caught.value) == (
            f"{path}: label file must start with a 'label: <name>' header")

    @pytest.mark.parametrize("text, message", [
        ("label:  \nuser1\n", "empty label name"),
        ("# only a comment\n\n", "label file has no header"),
        ("", "label file has no header"),
        (b"label: x\n\xff\n", "line 2: 'utf-8' codec can't decode byte 0xff in position 0: "
                                "invalid start byte"),
    ])
    def test_every_error_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "labels.txt"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            load_label_file(path)
        assert str(caught.value) == f"{path}: {message}"
