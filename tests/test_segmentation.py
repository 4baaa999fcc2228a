from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from askgraph.corpus import Corpus, Profile, Question
from askgraph.interaction import build_interaction_graph, node_table
from askgraph.segmentation import (
    GROUPS,
    LabelFile,
    classify_corpus,
    classify_user,
    content_table,
    group_report,
    labeled_report,
    load_label_file,
)
from askgraph.synth import vocab_word_set

NEG = vocab_word_set(["ugly", "hate"], "negative")
POS = vocab_word_set(["nice", "sweet"], "positive")


def profile(owner, texts, fully_sampled=True):
    return Profile(
        owner=owner,
        questions=tuple(Question(text=t) for t in texts),
        fully_sampled=fully_sampled,
    )


COLUMNS = ("n_answers", "n_neg_questions", "n_pos_questions", "n_neg_words", "n_pos_words")


def content_of(p):
    """The `content_table` row of one profile."""
    table = content_table(Corpus({p.owner: p}), NEG, POS)
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
        assert classify_user(neg, pos) == expected

    def test_exhaustive_sweep_total_partition(self):
        for neg in range(13):
            for pos in range(13):
                label = classify_user(neg, pos)
                assert label in GROUPS
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
        assert classify_user(2, 0) == "OTHR"
        assert classify_user(3, 0) == "HN"

    @given(st.integers(0, 100), st.integers(0, 100))
    def test_total_function(self, neg, pos):
        assert classify_user(neg, pos) in GROUPS


def build_tables(corp):
    """The per-user content table and the graph's node table."""
    return content_table(corp, NEG, POS), node_table(build_interaction_graph(corp, NEG))


class TestGroupReport:
    def make_corpus(self):
        return Corpus({p.owner: p for p in [
            profile("hn1", ["ugly a", "ugly b", "hate c"]),
            profile("hp1", [f"nice {i}" for i in range(11)]),
            profile("oth", ["hello there"]),
        ]})

    def test_counts_partition_corpus(self):
        corp = self.make_corpus()
        content, table = build_tables(corp)
        labels = classify_corpus(content)
        report = group_report(labels, content, table)
        assert sum(r.count for r in report.rows) == len(corp)
        assert report.row("HN").count == 1
        assert report.row("HP").count == 1
        assert report.row("OTHR").count == 1
        assert report.row("PN").count == 0

    def test_empty_group_has_null_means(self):
        corp = self.make_corpus()
        content, table = build_tables(corp)
        labels = classify_corpus(content)
        row = group_report(labels, content, table).row("PN")
        assert row.count == 0
        assert row.mean_neg_in_degree is None
        assert row.likes_per_answer is None

    def test_single_user_corpus(self):
        corp = Corpus({"a": profile("a", ["hello"])})
        content, table = build_tables(corp)
        labels = classify_corpus(content)
        report = group_report(labels, content, table)
        assert report.row("OTHR").count == 1
        assert sum(r.count for r in report.rows) == 1

    def test_group_means_match_brute_force(self):
        corp = self.make_corpus()
        content, table = build_tables(corp)
        labels = classify_corpus(content)
        report = group_report(labels, content, table)
        for row in report.rows:
            members = [u for u, g in labels.items() if g == row.name]
            if not members:
                continue
            expected = sum(
                content_of(corp[u]).n_neg_questions for u in members
            ) / len(members)
            assert row.mean_neg_questions == pytest.approx(expected)

    def test_group_totals_reconstruct_corpus_totals(self):
        corp = self.make_corpus()
        content, table = build_tables(corp)
        labels = classify_corpus(content)
        report = group_report(labels, content, table)
        total = sum(
            r.count * r.mean_answers for r in report.rows if r.count
        )
        assert total == pytest.approx(sum(len(p.questions) for p in corp))


class TestLabeledReport:
    def test_single_known_user(self):
        corp = Corpus({p.owner: p for p in [
            profile("a", ["ugly x", "nice y"]),
            profile("b", ["hello"]),
        ]})
        content, table = build_tables(corp)
        lf = LabelFile(label="cutting", user_ids=frozenset({"a"}))
        row = labeled_report(lf, content, table)
        assert row.count == 1
        assert row.mean_neg_questions == 1.0
        assert row.unresolved_ids == ()

    def test_unknown_ids_reported(self):
        corp = Corpus({"a": profile("a", ["ugly x"])})
        content, table = build_tables(corp)
        lf = LabelFile(label="cutting", user_ids=frozenset({"a", "ghost"}))
        row = labeled_report(lf, content, table)
        assert row.count == 1
        assert row.unresolved_ids == ("ghost",)

    def test_frontier_stub_ids_are_unresolved(self):
        corp = Corpus({p.owner: p for p in [
            profile("a", ["ugly x"]),
            profile("s", [], fully_sampled=False),
        ]})
        content, table = build_tables(corp)
        assert content.users == ("a",)
        assert classify_corpus(content) == {"a": "OTHR"}
        lf = LabelFile(label="cutting", user_ids=frozenset({"a", "s"}))
        row = labeled_report(lf, content, table)
        assert row.count == 1
        assert row.unresolved_ids == ("s",)

    def test_empty_intersection_rejected(self):
        corp = Corpus({"a": profile("a", ["hello"])})
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

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("user1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_label_file(path)
