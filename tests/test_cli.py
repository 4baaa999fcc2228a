import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from askgraph import corpus, interaction, wordgraph
from askgraph.cli import load_config, main
from askgraph.data import bundled_lexicon_path

DATA = Path(__file__).parent / "data"
DEMO = DATA / "demo_corpus.jsonl"
DEMO_QUESTIONS = sum(len(p.questions) for p in corpus.load_corpus(DEMO))
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

    def test_cooccur(self, tmp_path):
        # pick a word guaranteed present: the top selected negative word
        run("words", "--corpus", DEMO, "--out", tmp_path)
        top = (tmp_path / "wordset_negative.txt").read_text().splitlines()[3].split()[0]
        assert run("cooccur", "--corpus", DEMO, "--word", top, "--out", tmp_path) == 0
        assert (tmp_path / f"cooccur_{top}.csv").exists()

    def test_cooccur_word_outside_both_lexicons(self, tmp_path):
        lexicons = corpus.load_lexicon(bundled_lexicon_path("negative"), "negative").words
        lexicons |= corpus.load_lexicon(bundled_lexicon_path("positive"), "positive").words
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

    def test_synth_requires_seed(self, capsys):
        with pytest.raises(SystemExit):
            run("synth", "--n-users", 10)


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
            vocabularies.append((type(neg).__name__, type(pos).__name__))
            return original_content(corp, neg, pos)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "askgraph" and (
                getattr(module, "content_table", None) is original_content
            ):
                monkeypatch.setattr(module, "content_table", content_table)
        assert run("pipeline", "--corpus", DEMO, "--labels", LABELS, "--out", tmp_path) == 0
        assert len(clustering) == 1
        # once over the lexicons (corpus_stats), once over the word sets
        assert sorted(vocabularies) == [("Lexicon", "Lexicon"), ("WordSet", "WordSet")]

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

    def test_pipeline_builds_each_graph_once(self, tmp_path, monkeypatch):
        calls = []
        for module, name in ((wordgraph, "build_bipartite"),
                             (interaction, "build_interaction_graph")):
            original = getattr(module, name)

            def wrapper(corp, words, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, words.polarity))
                return _original(corp, words, *args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        assert run("pipeline", "--corpus", DEMO, "--out", tmp_path) == 0
        assert sorted(calls) == [
            ("build_bipartite", "negative"),
            ("build_bipartite", "positive"),
            ("build_interaction_graph", "negative"),
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
        assert (len(sampled), sum(not p.fully_sampled for p in sampled)) == (951, 851)

        out = tmp_path / "out"
        assert run("pipeline", "--corpus", tmp_path / "crawl" / "sampled_corpus.jsonl",
                   "--out", out) == 0
        stats = json.loads((out / "corpus_stats.json").read_text())
        assert 11 <= stats["avg_answers_per_user"] <= 18
        rows = (out / "group_report.csv").read_text().splitlines()[1:]
        assert sum(int(row.split(",")[1]) for row in rows) == 100


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
