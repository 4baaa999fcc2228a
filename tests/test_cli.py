import csv
import dataclasses
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import askgraph
from askgraph import corpus, interaction, synth, wordgraph
from askgraph.cli import load_config, main
from askgraph.data import bundled_lexicon_path
from helpers import corpus_records

DATA = Path(__file__).parent / "data"
DEMO = DATA / "demo_corpus.jsonl"
DEMO_QUESTIONS = sum(len(p["questions"]) for p in corpus_records(corpus.load_corpus(DEMO)))
LABELS = DATA / "demo_labels_cutting.txt"


def run(*argv):
    return main([str(a) for a in argv])


class TestArgs:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert "askgraph" in capsys.readouterr().out

    def test_missing_lexicon_is_stage_tagged(self, tmp_path, capsys):
        rc = run("stats", "--corpus", DEMO, "--neg-lexicon", tmp_path / "nope.txt",
                 "--out", tmp_path)
        assert rc == 1
        assert "[load_lexicon]" in capsys.readouterr().err

    def test_missing_corpus_fails(self, tmp_path, capsys):
        rc = run("stats", "--corpus", tmp_path / "nope.jsonl", "--out", tmp_path)
        assert rc == 1
        assert "[load_corpus]" in capsys.readouterr().err

    def test_config_file_supplies_corpus(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"corpus={DEMO}\nthreshold=0.4\n", encoding="utf-8")
        rc = run("stats", "--config", cfg, "--out", tmp_path)
        assert rc == 0
        assert (tmp_path / "corpus_stats.json").exists()

    def test_config_labels_names_one_file(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"corpus={DEMO}\nlabels={LABELS}\n", encoding="utf-8")
        assert run("segment", "--config", cfg, "--out", tmp_path) == 0
        lines = (tmp_path / "group_report.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 + 1
        assert lines[-1].startswith("cutting,")

    @pytest.mark.parametrize("command", ["stats", "pipeline"])
    def test_config_unknown_key_names_key_and_line(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"corpus={DEMO}\n# typo below\ntreshold=0.9\n", encoding="utf-8")
        assert run(command, "--config", cfg, "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert "[load_config]" in err
        assert "line 3" in err and "'treshold'" in err
        assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.json"))

    def test_config_bad_value_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"corpus={DEMO}\nthreshold=abc\n", encoding="utf-8")
        assert run("stats", "--config", cfg, "--out", tmp_path) == 1
        assert "[load_config] config line 2: threshold:" in capsys.readouterr().err

    def test_config_byte_that_is_not_utf8_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_bytes(f"# caf\u00e9\ncorpus={DEMO}\n".encode("utf-8") + b"threshold=0.\xff\n")
        assert run("stats", "--config", cfg, "--out", tmp_path) == 1
        assert capsys.readouterr().err == (
            "askgraph: error [load_config] config line 3: 'utf-8' codec can't decode byte 0xff "
            "in position 12: invalid start byte\n"
        )

    def test_config_value_outside_choices_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"corpus={DEMO}\npolarity=neutral\n", encoding="utf-8")
        assert run("cooccur", "--config", cfg, "--word", "ugly", "--out", tmp_path) == 1
        assert capsys.readouterr().err == (
            "askgraph: error [load_config] config line 2: polarity: invalid choice: "
            "'neutral' (choose from 'negative', 'positive')\n"
        )
        assert not list(tmp_path.glob("*.csv"))

    def test_abbreviated_flag_rejected_next_to_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"corpus={DEMO}\nthreshold=0.99\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            run("words", "--config", cfg, "--thresh", 0.5, "--out", tmp_path)
        assert exc.value.code == 2
        assert "unrecognized arguments: --thresh" in capsys.readouterr().err
        assert not list(tmp_path.glob("wordset_*"))

    @pytest.mark.parametrize("flag", [("--threshold", "0.4"), ("--threshold=0.4",)])
    def test_explicit_flag_beats_config(self, tmp_path, flag):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"corpus={DEMO}\nthreshold=0.99\n", encoding="utf-8")
        assert run("words", "--config", cfg, *flag, "--out", tmp_path) == 0
        lines = (tmp_path / "wordset_negative.txt").read_text().splitlines()
        assert lines[1] == "# threshold: 0.4"

    def test_lexicon_error_is_reported_before_a_corpus_error(self, tmp_path, capsys):
        """An analysis reads its lexicons before the corpus, since it loads
        the corpus tagged over them."""
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        assert run("stats", "--corpus", bad, "--neg-lexicon", tmp_path / "nope.txt",
                   "--out", tmp_path) == 1
        assert "askgraph: error [load_lexicon] [Errno 2]" in capsys.readouterr().err

    def test_missing_corpus_message(self, tmp_path, capsys):
        assert run("stats", "--out", tmp_path) == 1
        assert capsys.readouterr().err == (
            "askgraph: error [stats] --corpus is required (flag or config)\n"
        )

    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize("command,flag,stage", [
        ("words", "--cap", "select_top_words"),
        ("graph", "--top-k", "build_interaction_graph"),
    ])
    def test_size_below_one_fails_at_its_stage(self, tmp_path, capsys, command, flag,
                                                 stage, value):
        assert run(command, "--corpus", DEMO, flag, value, "--out", tmp_path) == 1
        assert capsys.readouterr().err.startswith(f"askgraph: error [{stage}] ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (("words", "--corpus", DEMO, "--tol", "nan"),
         "[eigenvector_centrality] tol must be positive"),
        (("words", "--corpus", DEMO, "--threshold", "nan"),
         "[select_top_words] threshold must not be NaN"),
        (("synth", "--seed", 1, "--like-rate", "nan"),
         "[generate_corpus] like_rate must be nonnegative"),
        (("synth", "--seed", 1, "--like-rate", "inf"),
         "[generate_corpus] like_rate must be finite"),
        (("synth", "--seed", 1, "--mix", "HN:nan,HP:.2,PN:.2,OTHR:.6"),
         "[generate_corpus] group mix fractions must be nonnegative"),
        (("words", "--corpus", DEMO, "--tol", "inf"),
         "[eigenvector_centrality] tol must be finite"),
    ])
    def test_non_finite_number_is_named(self, tmp_path, capsys, argv, message):
        assert run(*argv, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == f"askgraph: error {message}\n"
        assert not (tmp_path / "out").exists()

    def test_unconverged_centrality_is_named(self, tmp_path, capsys):
        assert run("words", "--corpus", DEMO, "--max-iter", 1, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            "askgraph: error [eigenvector_centrality] power iteration did not converge after 1 "
            "iterations (residual 9.259e-01)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_load_config_rejects_bad_lines(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("not a pair\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_config(cfg)


class TestSubcommands:
    def test_stats(self, tmp_path):
        assert run("stats", "--corpus", DEMO, "--out", tmp_path) == 0
        payload = json.loads((tmp_path / "corpus_stats.json").read_text())
        assert payload["avg_answers_per_user"] > 0

    def test_words(self, tmp_path):
        assert run("words", "--corpus", DEMO, "--out", tmp_path) == 0
        for name in ("wordset_negative.txt", "wordset_positive.txt",
                     "wordgraph_negative_edges.csv", "wordgraph_positive_nodes.csv"):
            assert (tmp_path / name).exists()

    def test_word_set_file_matches_the_nodes_csv(self, tmp_path):
        synth = tmp_path / "synth"
        assert run("synth", "--seed", 3, "--n-users", 60, "--questions", "11-18",
                   "--out", synth) == 0
        assert run("words", "--corpus", synth / "corpus.jsonl", "--cap", 5,
                   "--threshold", 0.2, "--out", tmp_path) == 0
        for polarity in ("negative", "positive"):
            with open(tmp_path / f"wordgraph_{polarity}_nodes.csv", newline="") as fh:
                nodes = list(csv.reader(fh))[1:]
            above = sorted(((-float(text), word), text) for word, text in nodes
                           if float(text) > 0.2)
            assert len(above) > 5  # the cap binds
            lines = (tmp_path / f"wordset_{polarity}.txt").read_text().splitlines()
            assert lines[:3] == [f"# polarity: {polarity}", "# threshold: 0.2", "# cap: 5"]
            assert lines[3:] == [f"{word} {text}" for (_, word), text in above[:5]]

    def test_graph(self, tmp_path):
        assert run("graph", "--corpus", DEMO, "--out", tmp_path) == 0
        header = (tmp_path / "interaction_edges.csv").read_text().splitlines()[0]
        assert header == "src,dst,n_neg,n_nonneg"

    def test_metrics(self, tmp_path):
        assert run("metrics", "--corpus", DEMO, "--out", tmp_path) == 0
        assert (tmp_path / "metrics.json").exists()
        assert (tmp_path / "overlap.csv").exists()

    def test_segment_with_labels(self, tmp_path):
        assert run("segment", "--corpus", DEMO, "--labels", LABELS,
                   "--out", tmp_path) == 0
        lines = (tmp_path / "group_report.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 + 1  # header, four groups, one label row
        assert lines[-1].startswith("cutting,")

    def test_unresolved_id_holding_a_semicolon_fails(self, tmp_path, capsys):
        """group_report.csv joins the unresolved ids with ';', so an id
        holding one would read as two."""
        labels = tmp_path / "labels.txt"
        labels.write_text(LABELS.read_text(encoding="utf-8") + "x;y\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("segment", "--corpus", DEMO, "--labels", labels, "--out", out) == 1
        assert capsys.readouterr().err == (
            "askgraph: error [labeled_report] unresolved id 'x;y' of label set 'cutting' "
            "holds ';', which separates the unresolved ids in group_report.csv\n"
        )
        assert not out.exists()

    def test_label_file_errors_name_the_file(self, tmp_path, capsys):
        """With several --labels, the error says which file is at fault."""
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        first.write_text(LABELS.read_text(encoding="utf-8"), encoding="utf-8")
        second.write_text("user1\n", encoding="utf-8")
        assert run("segment", "--corpus", DEMO, "--labels", first, "--labels", second,
                   "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            f"askgraph: error [load_label_file] {second}: label file must start with a "
            "'label: <name>' header\n"
        )

    def test_metrics_and_graph_need_no_positive_words(self, tmp_path, capsys):
        """Over a corpus with no positive-lexicon word, the like graph and
        its metrics read only the negative word set; `segment` needs the
        positive one and fails at its selection."""
        users = [f"u{i}" for i in range(5)]
        texts = ["you are ugly and fat", "so ugly and stupid", "fat stupid loser",
                 "ugly loser fat", "stupid ugly"]
        positive = corpus.load_lexicon(bundled_lexicon_path("positive"))
        assert not {w for t in texts for w in corpus.tokenize(t)} & positive
        path = tmp_path / "negative.jsonl"
        path.write_text("".join(json.dumps({"owner": u, "questions": [
            {"text": texts[(i + j) % 5], "likers": [users[(i + 1) % 5], users[(i + 2) % 5]]}
            for j in range(2)]}) + "\n" for i, u in enumerate(users)), encoding="utf-8")
        assert run("metrics", "--corpus", path, "--out", tmp_path / "metrics") == 0
        assert json.loads((tmp_path / "metrics" / "metrics.json").read_text())
        assert run("graph", "--corpus", path, "--out", tmp_path / "graph") == 0
        edges = (tmp_path / "graph" / "interaction_edges.csv").read_text().splitlines()
        assert edges[0] == "src,dst,n_neg,n_nonneg" and len(edges) == 1 + 10
        capsys.readouterr()
        assert run("segment", "--corpus", path, "--out", tmp_path / "segment") == 1
        assert capsys.readouterr().err == (
            "askgraph: error [select_top_words] no words with centrality > 0.5; "
            "threshold too high for this corpus\n"
        )

    def test_cooccur(self, tmp_path):
        # pick a word guaranteed present: the top selected negative word
        run("words", "--corpus", DEMO, "--out", tmp_path)
        top = (tmp_path / "wordset_negative.txt").read_text().splitlines()[3].split()[0]
        assert run("cooccur", "--corpus", DEMO, "--word", top, "--out", tmp_path) == 0
        assert (tmp_path / f"cooccur_{top}.csv").exists()

    def test_cooccur_word_outside_both_lexicons(self, tmp_path):
        lexicons = corpus.load_lexicon(bundled_lexicon_path("negative"))
        lexicons |= corpus.load_lexicon(bundled_lexicon_path("positive"))
        assert "movie" not in lexicons
        assert run("cooccur", "--corpus", DEMO, "--word", "movie", "--out", tmp_path) == 0
        rows = (tmp_path / "cooccur_movie.csv").read_text().splitlines()[1:]
        assert rows and any(float(row.split(",")[1]) > 0 for row in rows)

    def test_neighborhood(self, tmp_path):
        run("words", "--corpus", DEMO, "--out", tmp_path)
        top = (tmp_path / "wordset_negative.txt").read_text().splitlines()[3].split()[0]
        assert run("neighborhood", "--corpus", DEMO, "--word", top,
                   "--out", tmp_path) == 0
        assert (tmp_path / f"neighborhood_{top}.csv").exists()

    def test_synth_and_crawl_sim(self, tmp_path):
        assert run("synth", "--seed", 7, "--n-users", 30, "--questions", "11-15",
                   "--out", tmp_path) == 0
        corpus_path = tmp_path / "corpus.jsonl"
        assert corpus_path.exists()
        seed_user = json.loads(corpus_path.read_text().splitlines()[0])["owner"]
        assert run("crawl-sim", "--corpus", corpus_path, "--seeds", seed_user,
                   "--budget", 10, "--seed", 1, "--out", tmp_path / "crawl") == 0
        order = (tmp_path / "crawl" / "crawl_order.txt").read_text().splitlines()
        assert order[0] == seed_user
        assert len(order) <= 10

    def test_crawl_files_list_the_sampled_corpus_profiles(self, tmp_path):
        """crawl_order.txt lists the fully sampled profiles of the sampled
        corpus in file order, and frontier.txt the rest, on a crawl that
        leaves a frontier."""
        assert run("synth", "--seed", 3, "--n-users", 300, "--out", tmp_path) == 0
        crawl = tmp_path / "crawl"
        assert run("crawl-sim", "--corpus", tmp_path / "corpus.jsonl",
                   "--seeds", "u00001,u00005", "--budget", 120, "--seed", 1,
                   "--out", crawl) == 0
        lines = (crawl / "sampled_corpus.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        crawled = [r["owner"] for r in records if r["fully_sampled"]]
        stubs = [r["owner"] for r in records if not r["fully_sampled"]]
        assert (len(crawled), len(stubs)) == (120, 180)
        assert (crawl / "crawl_order.txt").read_text().splitlines() == crawled
        assert (crawl / "frontier.txt").read_text().splitlines() == stubs

    def test_crawl_of_a_profile_shuffled_ground_truth(self, tmp_path):
        """The ground truth's line order changes no crawl file: the crawl
        visits profiles by sorted id, and each is written from its own rows.
        Only profiles are shuffled, since questions with tied like counts
        keep their file order."""
        assert run("synth", "--seed", 3, "--n-users", 300, "--out", tmp_path) == 0
        lines = (tmp_path / "corpus.jsonl").read_text(encoding="utf-8").splitlines(True)
        random.Random(27).shuffle(lines)
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("".join(lines), encoding="utf-8")
        for name in ("corpus.jsonl", "shuffled.jsonl"):
            assert run("crawl-sim", "--corpus", tmp_path / name, "--seeds", "u00001,u00005",
                       "--budget", 120, "--seed", 1, "--out", tmp_path / f"crawl_{name}") == 0
        for output in ("sampled_corpus.jsonl", "crawl_order.txt", "frontier.txt"):
            original = (tmp_path / "crawl_corpus.jsonl" / output).read_bytes()
            assert (tmp_path / "crawl_shuffled.jsonl" / output).read_bytes() == original

    def test_crawl_sim_tokenizes_nothing(self, tmp_path, monkeypatch):
        """The crawl's first pass parses the ground truth over no vocabulary,
        and its second pass reads back the crawled lines: no text is ever
        tokenized."""
        assert run("synth", "--seed", 3, "--n-users", 300, "--out", tmp_path) == 0
        calls = []
        monkeypatch.setattr(corpus, "tokenize", lambda text: calls.append(text) or [])
        assert run("crawl-sim", "--corpus", tmp_path / "corpus.jsonl", "--seeds", "u00001",
                   "--budget", 120, "--seed", 1, "--out", tmp_path / "crawl") == 0
        assert calls == []

    @pytest.mark.parametrize("change", ["appended", "touched"])
    def test_crawl_sim_fails_when_the_corpus_changes_between_its_passes(
        self, tmp_path, capsys, monkeypatch, change
    ):
        """The ground truth is read twice through one handle; a file whose
        size or modification time changed after the first read fails the
        second under `[load_corpus]`, and no sampled corpus is written."""
        assert run("synth", "--seed", 3, "--n-users", 300, "--out", tmp_path) == 0
        ground_truth = tmp_path / "corpus.jsonl"
        crawl = synth.snowball_sample

        def changing_crawl(*args):
            if change == "appended":
                with open(ground_truth, "a", encoding="utf-8") as fh:
                    fh.write("\n")
            else:
                stat = ground_truth.stat()
                os.utime(ground_truth, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
            return crawl(*args)

        monkeypatch.setattr(synth, "snowball_sample", changing_crawl)
        out = tmp_path / "crawl"
        assert run("crawl-sim", "--corpus", ground_truth, "--seeds", "u00001", "--budget", 120,
                   "--seed", 1, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"askgraph: error [load_corpus] {ground_truth} changed while it "
                              "was read")
        assert not (out / "sampled_corpus.jsonl").exists()

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_crawl_sim_reads_lines_as_text_mode_ends_them(self, tmp_path, capsys, end):
        """The second pass finds each crawled line where the first pass
        found it, whatever ends the lines: a crawl of a CRLF or CR copy
        writes the bytes a crawl of the LF file writes, and a fault on line
        k is reported on line k."""
        assert run("synth", "--seed", 3, "--n-users", 300, "--out", tmp_path) == 0
        lf = tmp_path / "corpus.jsonl"
        copy = tmp_path / "ends.jsonl"
        copy.write_bytes(lf.read_bytes().replace(b"\n", end))
        for name in ("corpus.jsonl", "ends.jsonl"):
            assert run("crawl-sim", "--corpus", tmp_path / name, "--seeds", "u00001,u00005",
                       "--budget", 120, "--seed", 1, "--out", tmp_path / f"crawl_{name}") == 0
        for output in ("sampled_corpus.jsonl", "crawl_order.txt", "frontier.txt"):
            original = (tmp_path / "crawl_corpus.jsonl" / output).read_bytes()
            assert (tmp_path / "crawl_ends.jsonl" / output).read_bytes() == original
        lines = lf.read_bytes().split(b"\n")
        lines[40] = b'{"owner":"u00040","questions":7}'
        for ending in (b"\n", end):
            copy.write_bytes(ending.join(lines[:20] + [b""] + lines[20:]))  # the fault on line 42
            assert run("crawl-sim", "--corpus", copy, "--seeds", "u00001", "--budget", 120,
                       "--seed", 1, "--out", tmp_path / "faulty") == 1
            assert capsys.readouterr().err == (
                "askgraph: error [load_corpus] line 42: 'questions' must be an array\n")

    @pytest.mark.parametrize("argv,stage", [
        (("--neg-vocab", "nope.txt"), "load_lexicon"),
        (("--mix", "HN:x"), "generate_corpus"),
        (("--questions", "11-x"), "generate_corpus"),
        (("--n-users", 0), "generate_corpus"),
    ])
    def test_synth_errors_name_their_stage(self, tmp_path, capsys, argv, stage):
        argv = [tmp_path / a if a == "nope.txt" else a for a in argv]
        assert run("synth", "--seed", 1, *argv, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith(f"askgraph: error [{stage}] ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,message", [
        (("--questions", "5-"), "--questions '5-': '' is not an integer"),
        (("--questions", "x"), "--questions 'x': 'x' is not an integer"),
        (("--mix", "HN:.5,OTHR:.5,HP"), "--mix entry 'HP' is not GROUP:FRACTION"),
        (("--mix", "HN:.5,OTHR:half"), "--mix entry 'OTHR:half': 'half' is not a number"),
    ])
    def test_synth_parse_errors_name_the_flag(self, tmp_path, capsys, argv, message):
        assert run("synth", "--seed", 1, *argv, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == f"askgraph: error [generate_corpus] {message}\n"
        assert not (tmp_path / "out").exists()

    def test_synth_rejects_a_repeated_mix_group(self, tmp_path, capsys):
        # the mix sums to 1 only if the repeated HN is silently dropped
        assert run("synth", "--seed", 1, "--n-users", 50, "--mix", "HN:0.5,HN:0.5,OTHR:0.5",
                   "--questions", "11-18", "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            "askgraph: error [generate_corpus] --mix repeats group 'HN'\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["cooccur", "neighborhood"])
    def test_word_is_read_as_a_lexicon_entry(self, tmp_path, command):
        for word, out in (("ugly", "lower"), ("Ugly", "mixed"), ("UGLY", "upper")):
            assert run(command, "--corpus", DEMO, "--word", word, "--out", tmp_path / out) == 0
        name = f"{command}_ugly.csv"
        lower = (tmp_path / "lower" / name).read_bytes()
        assert (tmp_path / "mixed" / name).read_bytes() == lower
        assert (tmp_path / "upper" / name).read_bytes() == lower

    @pytest.mark.parametrize("command", ["cooccur", "neighborhood"])
    def test_non_token_word_fails_like_a_lexicon_entry(self, tmp_path, capsys, command):
        lexicon = tmp_path / "neg.txt"
        lexicon.write_text("ugly\nbad-word\n", encoding="utf-8")
        assert run(command, "--corpus", DEMO, "--neg-lexicon", lexicon, "--word", "ugly",
                   "--out", tmp_path / "a") == 1
        entry_error = capsys.readouterr().err
        assert entry_error == ("askgraph: error [load_lexicon] line 2: entry 'bad-word' "
                               "is not a single token (reads as ['bad', 'word'])\n")
        assert run(command, "--corpus", DEMO, "--word", "bad-word", "--out", tmp_path / "b") == 1
        assert capsys.readouterr().err == (
            f"askgraph: error [{command}] --word 'bad-word' "
            "is not a single token (reads as ['bad', 'word'])\n"
        )
        assert not (tmp_path / "b").exists()

    def test_synth_config_vocab_key_names_the_vocab_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"neg_vocab={tmp_path / 'nope.txt'}\n", encoding="utf-8")
        assert run("synth", "--seed", 1, "--config", cfg, "--out", tmp_path / "out") == 1
        assert "askgraph: error [load_lexicon] [Errno 2]" in capsys.readouterr().err

    def test_crawl_sim_rejects_lone_surrogate(self, tmp_path, capsys):
        ground_truth = tmp_path / "corpus.jsonl"
        ground_truth.write_text(
            '{"owner":"a","questions":[{"text":"x \\ud800","likers":["b"]}]}\n'
            '{"owner":"b"}\n', encoding="utf-8")
        out = tmp_path / "crawl"
        assert run("crawl-sim", "--corpus", ground_truth, "--seeds", "a", "--budget", 3,
                   "--seed", 1, "--out", out) == 1
        assert capsys.readouterr().err.startswith("askgraph: error [load_corpus] line 1: ")
        assert not list(out.glob("sampled_corpus.jsonl*"))

    @pytest.mark.parametrize("seeds", [",", ""])
    def test_crawl_sim_rejects_empty_seed_list(self, tmp_path, capsys, seeds):
        ground_truth = tmp_path / "corpus.jsonl"
        ground_truth.write_text(
            '{"owner":"a","questions":[{"text":"x","likers":["b"]}]}\n'
            '{"owner":"b"}\n', encoding="utf-8")
        out = tmp_path / "crawl"
        assert run("crawl-sim", "--corpus", ground_truth, "--seeds", seeds, "--budget", 3,
                   "--seed", 1, "--out", out) == 1
        assert capsys.readouterr().err == (
            "askgraph: error [snowball_sample] a crawl needs at least one seed user\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("budget", [2, 10])
    @pytest.mark.parametrize("records,offender", [
        # a liker with no profile
        (['{"owner":"a","questions":[{"text":"x","likers":["b"]}]}',
          '{"owner":"b","questions":[{"text":"y","likers":["zz"]}]}'], "zz"),
        # a frontier stub the crawl reaches
        (['{"owner":"a","questions":[{"text":"x","likers":["c"]}]}',
          '{"owner":"c","fully_sampled":false,"questions":[]}'], "c"),
    ], ids=["liker-without-profile", "stub-liker"])
    def test_crawl_sim_rejects_a_ground_truth_that_is_not_closed(
        self, tmp_path, capsys, records, offender, budget
    ):
        ground_truth = tmp_path / "corpus.jsonl"
        ground_truth.write_text("\n".join(records) + "\n", encoding="utf-8")
        out = tmp_path / "crawl"
        assert run("crawl-sim", "--corpus", ground_truth, "--seeds", "a", "--budget", budget,
                   "--seed", 1, "--out", out) == 1
        assert capsys.readouterr().err == (
            "askgraph: error [snowball_sample] ground truth is not closed: "
            f"liker {offender!r} is not a fully sampled profile\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("budget", [5, 1], ids=["crawled", "frontier"])
    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x1c", "\x85", "\u2028"])
    def test_crawl_sim_rejects_an_id_holding_a_line_break(self, tmp_path, capsys, brk, budget):
        """crawl_order.txt and frontier.txt hold one id per line, so an id
        that `str.splitlines` splits fails before any file is written."""
        ground_truth = tmp_path / "corpus.jsonl"
        owner = f"a{brk}b"
        records = [{"owner": owner, "questions": [{"text": "x", "likers": ["c"]}]},
                   {"owner": "c", "questions": [{"text": "y", "likers": [owner]}]}]
        ground_truth.write_text("".join(json.dumps(r) + "\n" for r in records),
                                encoding="utf-8")
        out = tmp_path / "crawl"
        assert run("crawl-sim", "--corpus", ground_truth, "--seeds", "c", "--budget", budget,
                   "--seed", 1, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"askgraph: error [snowball_sample] id {owner!r} holds a line break, and "
            "crawl_order.txt and frontier.txt hold one id per line\n"
        )
        assert not out.exists()

    def test_missing_core_word_is_named_unquoted(self, tmp_path, capsys):
        assert run("neighborhood", "--corpus", DEMO, "--word", "zzz",
                   "--out", tmp_path) == 1
        assert capsys.readouterr().err == (
            "askgraph: error [word_neighborhood] node 'zzz' not in graph\n"
        )
        assert not list(tmp_path.iterdir())

    def test_synth_requires_seed(self, capsys):
        with pytest.raises(SystemExit):
            run("synth", "--n-users", 10)

    def test_failed_write_names_its_file(self, tmp_path, capsys):
        (tmp_path / "corpus_stats.json").mkdir()
        assert run("stats", "--corpus", DEMO, "--out", tmp_path) == 1
        assert capsys.readouterr().err.startswith("askgraph: error [corpus_stats.json] ")
        assert (tmp_path / "corpus_stats.json.partial").is_file()


# The files each analysis command writes, as listed in the README.
COMMAND_OUTPUTS = {
    "stats": {"corpus_stats.json"},
    "words": {f"wordset_{p}.txt" for p in ("negative", "positive")}
    | {f"wordgraph_{p}_{t}.csv" for p in ("negative", "positive") for t in ("edges", "nodes")},
    "graph": {"interaction_edges.csv"},
    "metrics": {"metrics.json", "overlap.csv", "ratio_cdf.csv", "recip_vs_outdeg.csv",
                "clustering_vs_degree.csv"}
    | {f"ccdf_{g}_{d}.csv" for g in ("neg", "nonneg") for d in ("in", "out")},
    "segment": {"group_report.csv"},
}

# sha256 of the single-word outputs on the demo corpus with CLI defaults.
PINNED_WORD_OUTPUTS = {
    ("cooccur", "ugly", "negative"):
        "6c42ea8df35bfadafeec4beb602bf880391eec8fda4d9f9d87a3a291de17c47e",
    ("neighborhood", "ugly", "negative"):
        "66d4525ecbb738602e554352c2775f1af6504233170db9cfb70fec984844758f",
    ("neighborhood", "nice", "positive"):
        "7ad9e0ee0411d16597ec3e7235f05a67ff8f4fc9e5ade38831894f1bf8e631c3",
}


class TestCommandOutputs:
    @pytest.fixture(scope="class")
    def pipeline_out(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("pipeline")
        assert run("pipeline", "--corpus", DEMO, "--labels", LABELS, "--out", out) == 0
        return outputs(out)

    @pytest.mark.parametrize("command", sorted(COMMAND_OUTPUTS))
    def test_command_writes_its_files_as_pipeline_does(self, tmp_path, pipeline_out, command):
        labels = ("--labels", LABELS) if command == "segment" else ()
        assert run(command, "--corpus", DEMO, *labels, "--out", tmp_path) == 0
        written = outputs(tmp_path)
        assert set(written) == COMMAND_OUTPUTS[command]
        for name, data in written.items():
            assert data == pipeline_out[name], name

    @pytest.mark.parametrize("command,word,polarity", sorted(PINNED_WORD_OUTPUTS))
    def test_word_output_bytes_are_pinned(self, tmp_path, command, word, polarity):
        assert run(command, "--corpus", DEMO, "--word", word, "--polarity", polarity,
                   "--out", tmp_path) == 0
        written = outputs(tmp_path)
        assert list(written) == [f"{command}_{word}.csv"]
        digest = hashlib.sha256(written[f"{command}_{word}.csv"]).hexdigest()
        assert digest == PINNED_WORD_OUTPUTS[command, word, polarity]


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run("pipeline", "--corpus", DEMO, "--labels", LABELS,
                       "--out", out) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_no_partial_files_on_success(self, tmp_path):
        assert run("metrics", "--corpus", DEMO, "--out", tmp_path) == 0
        assert not list(tmp_path.glob("*.partial"))


def vocabulary_names(out):
    """Each vocabulary a demo run reads, by what it is: the bundled lexicons,
    and the word sets the run wrote to `out`, all four distinct."""
    names = {}
    for polarity in ("negative", "positive"):
        lines = (out / f"wordset_{polarity}.txt").read_text().splitlines()
        word_set = frozenset(line.split()[0] for line in lines if not line.startswith("#"))
        names[word_set] = f"{polarity} word set"
        names[corpus.load_lexicon(bundled_lexicon_path(polarity))] = f"{polarity} lexicon"
    assert len(names) == 4
    return names


class TestComputeOnce:
    def test_pipeline_scans_triangles_once_and_counts_content_once(self, tmp_path, monkeypatch):
        clustering = []
        original = interaction.clustering
        monkeypatch.setattr(
            interaction, "clustering", lambda *a, **k: clustering.append(1) or original(*a, **k)
        )
        # content_table through every askgraph module binding, by vocabulary
        vocabularies = []
        original_content = corpus.content_table

        def content_table(corp, neg, pos):
            vocabularies.append((frozenset(neg), frozenset(pos)))
            return original_content(corp, neg, pos)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "askgraph" and (
                getattr(module, "content_table", None) is original_content
            ):
                monkeypatch.setattr(module, "content_table", content_table)
        assert run("pipeline", "--corpus", DEMO, "--labels", LABELS, "--out", tmp_path) == 0
        assert len(clustering) == 1
        # once over the lexicons (corpus_stats), once over the word sets
        names = vocabulary_names(tmp_path)
        assert sorted((names[neg], names[pos]) for neg, pos in vocabularies) == [
            ("negative lexicon", "positive lexicon"),
            ("negative word set", "positive word set"),
        ]

    @staticmethod
    def count_tokenize(monkeypatch):
        """Count calls through every askgraph module binding of `tokenize`."""
        calls = []
        original = corpus.tokenize

        def counting(text):
            calls.append(text)
            return original(text)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "askgraph" and getattr(module, "tokenize", None) is original:
                monkeypatch.setattr(module, "tokenize", counting)
        return calls

    @pytest.mark.parametrize("argv", [
        ("pipeline", "--labels", LABELS),
        ("segment", "--labels", LABELS),
        ("cooccur", "--word", "movie"),
    ])
    def test_each_question_is_tokenized_once(self, tmp_path, monkeypatch, argv):
        calls = self.count_tokenize(monkeypatch)
        assert run(*argv, "--corpus", DEMO, "--out", tmp_path) == 0
        assert len(calls) == DEMO_QUESTIONS == 855

    @pytest.mark.parametrize("argv", [
        ("stats",), ("words",), ("graph",), ("metrics",), ("segment",), ("pipeline",),
        ("cooccur", "--word", "movie"), ("neighborhood", "--word", "ugly"),
    ])
    def test_analysis_loads_the_corpus_tagged_without_text(self, tmp_path, monkeypatch, argv):
        loaded = []
        original = corpus.load_corpus

        def recording(path, vocab=None):
            loaded.append(original(path, vocab))
            return loaded[-1]

        monkeypatch.setattr(corpus, "load_corpus", recording)
        assert run(*argv, "--corpus", DEMO, "--out", tmp_path) == 0
        (tagged,) = loaded
        assert tagged.texts is None and tagged.answers is None
        vocab = corpus.load_lexicon(bundled_lexicon_path("negative")) | corpus.load_lexicon(
            bundled_lexicon_path("positive"))
        assert set(tagged.vocab) == (vocab | {"movie"} if argv[0] == "cooccur" else vocab)

    def test_likes_answers_correlation_tokenizes_nothing(self, monkeypatch):
        calls = self.count_tokenize(monkeypatch)
        interaction.likes_answers_correlation(corpus.load_corpus(DEMO))
        assert calls == []

    def test_pipeline_builds_each_graph_once(self, tmp_path, monkeypatch):
        calls = []
        for module, name in ((wordgraph, "build_bipartite"),
                             (interaction, "build_interaction_graph")):
            original = getattr(module, name)

            def wrapper(corp, words, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, frozenset(words)))
                return _original(corp, words, *args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        assert run("pipeline", "--corpus", DEMO, "--out", tmp_path) == 0
        names = vocabulary_names(tmp_path)
        assert sorted((name, names[words]) for name, words in calls) == [
            ("build_bipartite", "negative lexicon"),
            ("build_bipartite", "positive lexicon"),
            ("build_interaction_graph", "negative word set"),
        ]


class TestFrontierStubs:
    def test_per_user_statistics_cover_fully_sampled_profiles(self, tmp_path):
        """A 100-profile crawl of a 1000-user corpus has 851 frontier stubs;
        they are not users."""
        assert run("synth", "--seed", 1, "--n-users", 1000, "--questions", "11-18",
                   "--mix", "HN:.1,HP:.2,PN:.2,OTHR:.5", "--out", tmp_path / "synth") == 0
        assert run("crawl-sim", "--corpus", tmp_path / "synth" / "corpus.jsonl",
                   "--seeds", "u00000", "--budget", 100, "--seed", 1,
                   "--out", tmp_path / "crawl") == 0
        sampled = corpus.load_corpus(tmp_path / "crawl" / "sampled_corpus.jsonl")
        stubs = sum(not p["fully_sampled"] for p in corpus_records(sampled))
        assert (len(sampled), stubs) == (951, 851)

        out = tmp_path / "out"
        assert run("pipeline", "--corpus", tmp_path / "crawl" / "sampled_corpus.jsonl",
                   "--out", out) == 0
        stats = json.loads((out / "corpus_stats.json").read_text())
        assert 11 <= stats["avg_answers_per_user"] <= 18
        rows = (out / "group_report.csv").read_text().splitlines()[1:]
        assert sum(int(row.split(",")[1]) for row in rows) == 100

    def test_pipeline_over_a_crawl_sample_as_over_its_sorted_lines(self, tmp_path):
        """A crawl's sample lists its profiles in crawl order, then its 180
        frontier stubs, which have no rows: `pipeline` over it writes the
        same files as over a copy with its lines sorted by owner."""
        assert run("synth", "--seed", 3, "--n-users", 300, "--out", tmp_path / "synth") == 0
        assert run("crawl-sim", "--corpus", tmp_path / "synth" / "corpus.jsonl",
                   "--seeds", "u00001,u00005", "--budget", 120, "--seed", 1,
                   "--out", tmp_path / "crawl") == 0
        lines = (tmp_path / "crawl" / "sampled_corpus.jsonl").read_text(
            encoding="utf-8").splitlines(True)
        records = list(map(json.loads, lines))
        assert sum(not r["fully_sampled"] and not r["questions"] for r in records) == 180
        by_owner = sorted(zip((r["owner"] for r in records), lines))
        assert [line for _, line in by_owner] != lines
        (tmp_path / "sorted.jsonl").write_text("".join(line for _, line in by_owner),
                                               encoding="utf-8")
        for name in ("crawl/sampled_corpus.jsonl", "sorted.jsonl"):
            assert run("pipeline", "--corpus", tmp_path / name,
                       "--out", tmp_path / "out" / Path(name).stem) == 0
        expected = outputs(tmp_path / "out" / "sampled_corpus")
        assert outputs(tmp_path / "out" / "sorted") == expected


class TestProfileOrder:
    @pytest.fixture(scope="class")
    def synth_run(self, tmp_path_factory):
        """A corpus with users on both sides of the likes/answers split, and
        the pipeline outputs of its profile lines in file order."""
        root = tmp_path_factory.mktemp("order")
        assert run("synth", "--seed", 5, "--n-users", 300, "--questions", "30-70",
                   "--mix", "HN:.1,HP:.2,PN:.2,OTHR:.5", "--out", root / "synth") == 0
        assert run("pipeline", "--corpus", root / "synth" / "corpus.jsonl",
                   "--labels", root / "synth" / "labels_HN.txt", "--out", root / "out") == 0
        return root, outputs(root / "out")

    # a shrunk permutation says no more than the first failing one
    @settings(max_examples=10, deadline=None, phases=[Phase.generate])
    @given(data=st.data())
    def test_outputs_invariant_under_profile_permutation(self, synth_run, data):
        root, expected = synth_run
        lines = (root / "synth" / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
        shuffled = data.draw(st.permutations(lines))
        with tempfile.TemporaryDirectory() as tmp:
            corpus_path = Path(tmp) / "corpus.jsonl"
            corpus_path.write_text("\n".join(shuffled) + "\n", encoding="utf-8")
            assert run("pipeline", "--corpus", corpus_path,
                       "--labels", root / "synth" / "labels_HN.txt",
                       "--out", Path(tmp) / "out") == 0
            assert outputs(Path(tmp) / "out") == expected


class TestRenamedOwners:
    """Owner ids as a real crawl has them, with characters the CSV writer
    quotes, spaces and non-ASCII text, and answers as long as questions."""

    @pytest.fixture(scope="class")
    def synth_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("renamed")
        assert run("synth", "--seed", 4, "--n-users", 300, "--out", root / "synth") == 0
        source = corpus.load_corpus(root / "synth" / "corpus.jsonl")
        assert run("pipeline", "--corpus", root / "synth" / "corpus.jsonl",
                   "--out", root / "out") == 0
        return source, outputs(root / "out")

    def test_renamed_owners_give_the_same_rows(self, tmp_path, synth_run):
        source, expected = synth_run
        # a common prefix and suffix around ids of one length keeps their order
        rename = {u: f' "{u}", ü字 ' for u in source.owners}
        renamed = tuple(rename[u] for u in source.owners)
        assert list(renamed) == sorted(renamed)
        corpus.save_corpus(dataclasses.replace(source, owners=renamed), tmp_path / "c.jsonl")
        assert run("pipeline", "--corpus", tmp_path / "c.jsonl", "--out", tmp_path / "out") == 0
        written = outputs(tmp_path / "out")
        back = {v: u for u, v in rename.items()}

        def parsed(data):
            return list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))

        edges = written.pop("interaction_edges.csv")
        assert b'" ""u' in edges  # each id is quoted, its quote doubled
        header, *rows = parsed(edges)
        assert len(rows) > 100
        assert [header] + [[back[i], back[j], *w] for i, j, *w in rows] == parsed(
            expected["interaction_edges.csv"])
        # no other output names a user
        assert written == {k: v for k, v in expected.items() if k != "interaction_edges.csv"}

    def test_answers_equal_to_questions_change_no_output(self, tmp_path, synth_run):
        source, expected = synth_run
        copy = dataclasses.replace(source, answers=source.texts)
        corpus.save_corpus(copy, tmp_path / "c.jsonl")
        assert run("pipeline", "--corpus", tmp_path / "c.jsonl", "--out", tmp_path / "out") == 0
        assert outputs(tmp_path / "out") == expected


class TestCrawlOracle:
    def test_full_crawl_gives_ground_truth_outputs(self, tmp_path):
        """A crawl whose budget covers every user reachable from its seed
        recovers the ground truth, so every pipeline output is the same."""
        synth = tmp_path / "synth"
        assert run("synth", "--seed", 3, "--n-users", 300, "--questions", "30-70",
                   "--like-rate", 5.0, "--out", synth) == 0
        assert run("crawl-sim", "--corpus", synth / "corpus.jsonl", "--seeds", "u00001",
                   "--budget", 1000, "--seed", 1, "--out", tmp_path / "crawl") == 0
        crawled = (tmp_path / "crawl" / "crawl_order.txt").read_text().splitlines()
        assert (tmp_path / "crawl" / "frontier.txt").read_text() == ""
        assert len(crawled) == len(set(crawled)) == 300

        for corpus_path, out in ((synth / "corpus.jsonl", "truth"),
                                 (tmp_path / "crawl" / "sampled_corpus.jsonl", "sampled")):
            assert run("pipeline", "--corpus", corpus_path, "--labels", synth / "labels_HN.txt",
                       "--out", tmp_path / out) == 0
        assert outputs(tmp_path / "sampled") == outputs(tmp_path / "truth")


def outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestImports:
    # after `import askgraph.cli`: the scipy modules it loaded, then the
    # modules the commands in argv (one JSON list each) loaded beyond it
    CODE = """
import json, sys
import askgraph.cli
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
before = set(sys.modules)
for argv in sys.argv[1:]:
    assert askgraph.cli.main(json.loads(argv)) == 0, argv
print(json.dumps(sorted(set(sys.modules) - before)))
"""

    def test_commands_load_nothing_beyond_the_cli_import(self, tmp_path):
        """`import askgraph.cli` loads no scipy module, and no command then
        loads a module: one loaded inside a command would add its code and
        its start-up time to that command's run, which the benchmark counts
        against the command, not against the imports."""
        synth = tmp_path / "s"
        commands = [
            ["pipeline", "--corpus", DEMO, "--labels", LABELS, "--out", tmp_path / "p"],
            ["synth", "--seed", 1, "--n-users", 40, "--out", synth],
            ["crawl-sim", "--corpus", synth / "corpus.jsonl", "--seeds", "u00001",
             "--budget", 20, "--seed", 1, "--out", tmp_path / "c"],
            ["cooccur", "--corpus", DEMO, "--word", "ugly", "--out", tmp_path / "o"],
            ["neighborhood", "--corpus", DEMO, "--word", "ugly", "--out", tmp_path / "n"],
        ]
        path = [str(Path(askgraph.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        done = subprocess.run(
            [sys.executable, "-c", self.CODE,
             *(json.dumps([str(a) for a in argv]) for argv in commands)],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        scipy_modules, loaded = map(json.loads, done.stdout.splitlines()[-2:])
        assert scipy_modules == []
        assert loaded == []
        assert (tmp_path / "p" / "group_report.csv").exists()
        assert (tmp_path / "c" / "crawl_order.txt").exists()
        assert (tmp_path / "o" / "cooccur_ugly.csv").exists()
        assert (tmp_path / "n" / "neighborhood_ugly.csv").exists()
