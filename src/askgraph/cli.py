"""Command-line front end: one subcommand per analysis, plus `pipeline` to
run everything in order.

An analysis command is a tuple of output writers over one `_Run`, whose
stages are computed on first use and cached, so `pipeline` is the union of
the other commands' writers and never computes a stage twice.

All outputs are plain CSV / JSON / text files written atomically. Identical
inputs always produce byte-identical outputs; randomness exists only in
`synth` and `crawl-sim`, which require an explicit --seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from . import corpus as corpus_mod
from . import interaction as inter_mod
from . import reports
from . import segmentation as seg_mod
from . import synth as synth_mod
from . import wordgraph as wg_mod
from .data import bundled_lexicon_path


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def load_config(path: str | Path) -> dict[str, tuple[int, str]]:
    """Flat key=value config file; '#' comments and blank lines ignored.

    Maps each key to the line it was last set on and its value."""
    values: dict[str, tuple[int, str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {line_no}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip()] = (line_no, value.strip())
    return values


def _add_common(parser: argparse.ArgumentParser, need_corpus: bool = True) -> None:
    if need_corpus:
        parser.add_argument("--corpus", help="corpus file (line-delimited JSON profiles)")
    parser.add_argument("--neg-lexicon", help="negative lexicon (default: bundled)")
    parser.add_argument("--pos-lexicon", help="positive lexicon (default: bundled)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--config", help="flat key=value config file (flags override)")
    parser.add_argument("--threshold", type=float, default=0.5,
                        help="centrality threshold for word selection")
    parser.add_argument("--cap", type=int, default=80, help="max words per word set")
    parser.add_argument("--top-k", type=int, default=15,
                        help="most-liked questions considered per profile")
    parser.add_argument("--tol", type=float, default=1e-10, help="centrality tolerance")
    parser.add_argument("--max-iter", type=int, default=10000,
                        help="centrality iteration limit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="askgraph")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("stats", "corpus-level question/word statistics"),
        ("words", "select top negative/positive word sets by centrality"),
        ("graph", "build and export the like-based interaction graph"),
        ("metrics", "full metric battery over the interaction graph"),
        ("segment", "group segmentation report"),
        ("cooccur", "co-occurrence distribution around a core word"),
        ("neighborhood", "word-graph neighborhood of a core word"),
        ("pipeline", "run every stage in order"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name in ("cooccur", "neighborhood"):
            p.add_argument("--word", required=True, help="core word")
            p.add_argument(
                "--polarity", choices=["negative", "positive"], default="negative",
                help="which lexicon/word set to analyze against",
            )
        if name in ("segment", "pipeline"):
            p.add_argument("--labels", action="append", default=[],
                           help="label file (repeatable)")

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--config", help="flat key=value config file (flags override)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-users", type=int, default=100)
    p.add_argument("--mix", default="HN:0.1,HP:0.2,PN:0.2,OTHR:0.5",
                   help="group mix, e.g. HN:0.1,HP:0.2,PN:0.2,OTHR:0.5")
    p.add_argument("--questions", default="5-20",
                   help="questions per user: fixed int or lo-hi range")
    p.add_argument("--like-rate", type=float, default=2.0)
    p.add_argument("--neg-vocab", help="file with negative vocabulary (default: bundled lexicon)")
    p.add_argument("--pos-vocab", help="file with positive vocabulary (default: bundled lexicon)")

    p = sub.add_parser("crawl-sim", help="simulate a snowball crawl over a ground-truth corpus")
    p.add_argument("--corpus", required=True, help="ground-truth corpus file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seeds", required=True, help="comma-separated seed UserIds")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="rng seed (reserved for future randomized tie-breaks)")
    return parser


def _apply_config(args: argparse.Namespace, argv: list[str]) -> None:
    """Fill argparse defaults from the config file; explicit flags win.

    A key that is not an option of the command is an error."""
    if not getattr(args, "config", None):
        return
    values = load_config(args.config)
    explicit = {a.lstrip("-").split("=")[0].replace("-", "_") for a in argv if a.startswith("--")}
    casts = {
        "threshold": float, "cap": int, "top_k": int, "tol": float,
        "max_iter": int, "n_users": int, "like_rate": float,
        "seed": int, "budget": int, "labels": lambda path: [path],
    }
    options = set(vars(args)) - {"command", "config"}
    for key, (line_no, value) in values.items():
        attr = key.replace("-", "_")
        if attr not in options:
            raise ValueError(
                f"config line {line_no}: unknown key {key!r} for {args.command}"
            )
        if attr in explicit:
            continue
        try:
            setattr(args, attr, casts.get(attr, str)(value))
        except ValueError as exc:
            raise ValueError(f"config line {line_no}: {key}: {exc}") from exc


def _staged(name: str):
    """Make a method a stage: it runs under `_stage` with the error name
    `name` on first use, and its result is cached on the instance."""

    def decorate(method):
        @functools.wraps(method)
        def compute(self):
            return _stage(name, method, self)

        return functools.cached_property(compute)

    return decorate


class _Words:
    """The word-selection stages of one polarity."""

    def __init__(self, run: _Run, polarity: str):
        self.run = run
        self.polarity = polarity

    @_staged("build_bipartite")
    def bipartite(self):
        return wg_mod.build_bipartite(self.run.tagged, self.run.lexicons[self.polarity])

    @_staged("project_words")
    def graph(self):
        return wg_mod.project_words(self.bipartite)

    @_staged("eigenvector_centrality")
    def scores(self):
        args = self.run.args
        return wg_mod.eigenvector_centrality(self.graph, tol=args.tol, max_iter=args.max_iter)

    @_staged("select_top_words")
    def word_set(self):
        args = self.run.args
        return wg_mod.select_top_words(
            self.scores, self.polarity, threshold=args.threshold, cap=args.cap
        )


class _Run:
    """The stages and output writers of one analysis command. Each stage is
    computed on first use and cached, so writers share every stage they read."""

    def __init__(self, args: argparse.Namespace):
        if not args.corpus:
            raise ValueError("--corpus is required (flag or config)")
        self.args = args
        self.out = Path(args.out)
        self.words = {polarity: _Words(self, polarity) for polarity in ("negative", "positive")}

    @_staged("load_corpus")
    def corpus(self):
        return corpus_mod.load_corpus(self.args.corpus)

    @_staged("load_lexicon")
    def lexicons(self):
        paths = {"negative": self.args.neg_lexicon, "positive": self.args.pos_lexicon}
        return {
            polarity: corpus_mod.load_lexicon(path or bundled_lexicon_path(polarity), polarity)
            for polarity, path in paths.items()
        }

    @_staged("tag_corpus")
    def tagged(self):
        corpus = self.corpus
        vocab = self.lexicons["negative"].words | self.lexicons["positive"].words
        if self.args.command == "cooccur":
            vocab |= {self.args.word}
        return corpus_mod.tag_corpus(corpus, vocab)

    @_staged("corpus_stats")
    def stats(self):
        return corpus_mod.corpus_stats(
            self.tagged, self.lexicons["negative"], self.lexicons["positive"]
        )

    @_staged("build_interaction_graph")
    def interaction(self):
        return inter_mod.build_interaction_graph(
            self.tagged, self.words["negative"].word_set, top_k=self.args.top_k
        )

    @_staged("node_table")
    def table(self):
        return inter_mod.node_table(self.interaction)

    @_staged("compute_metrics")
    def metrics(self):
        return inter_mod.compute_metrics(self.corpus, self.table)

    @_staged("content_table")
    def content(self):
        return seg_mod.content_table(
            self.tagged, self.words["negative"].word_set, self.words["positive"].word_set
        )

    @_staged("classify")
    def labels(self):
        return seg_mod.classify_corpus(self.content)

    @_staged("group_report")
    def groups(self):
        return seg_mod.group_report(self.corpus, self.labels, self.content, self.table)

    @_staged("load_label_file")
    def label_files(self):
        return [seg_mod.load_label_file(path) for path in self.args.labels]

    @_staged("labeled_report")
    def label_rows(self):
        return [
            seg_mod.labeled_report(self.corpus, label_file, self.content, self.table)
            for label_file in self.label_files
        ]

    @_staged("cooccurrence_distribution")
    def cooccurrence(self):
        words = self.words[self.args.polarity].word_set
        return wg_mod.cooccurrence_distribution(self.tagged, self.args.word, words)

    @_staged("word_neighborhood")
    def neighborhood(self):
        words = self.words[self.args.polarity]
        return wg_mod.word_neighborhood(words.graph, self.args.word, words.scores)

    def write_stats(self) -> None:
        reports.write_corpus_stats(self.out / "corpus_stats.json", self.stats)

    def write_words(self) -> None:
        for polarity, words in self.words.items():
            reports.write_word_set(self.out / f"wordset_{polarity}.txt", words.word_set,
                                   self.args.threshold, self.args.cap)
            reports.write_word_graph(
                self.out / f"wordgraph_{polarity}_edges.csv",
                self.out / f"wordgraph_{polarity}_nodes.csv",
                words.graph, words.scores,
            )

    def write_graph(self) -> None:
        reports.write_interaction_graph(self.out / "interaction_edges.csv", self.interaction)

    def write_metrics(self) -> None:
        reports.write_metrics(self.out, self.metrics)

    def write_segment(self) -> None:
        reports.write_group_report(self.out / "group_report.csv", self.groups, self.label_rows)

    def write_cooccur(self) -> None:
        reports.write_frequency_vector(self.out / f"cooccur_{self.args.word}.csv",
                                       self.cooccurrence)

    def write_neighborhood(self) -> None:
        reports.write_neighborhood(self.out / f"neighborhood_{self.args.word}.csv",
                                   self.args.word, self.neighborhood)


# Each analysis command is the tuple of output writers it runs, in order.
_WRITERS = {
    "stats": (_Run.write_stats,),
    "words": (_Run.write_words,),
    "graph": (_Run.write_graph,),
    "metrics": (_Run.write_metrics,),
    "segment": (_Run.write_segment,),
    "cooccur": (_Run.write_cooccur,),
    "neighborhood": (_Run.write_neighborhood,),
}
_WRITERS["pipeline"] = tuple(
    write
    for command in ("words", "stats", "graph", "metrics", "segment")
    for write in _WRITERS[command]
)


def cmd_synth(args) -> None:
    def vocab(path, polarity):
        lex = corpus_mod.load_lexicon(path or bundled_lexicon_path(polarity), polarity)
        return tuple(sorted(lex.words))

    if isinstance(args.questions, str) and "-" in args.questions.lstrip("-"):
        lo, _, hi = args.questions.partition("-")
        questions = (int(lo), int(hi))
    else:
        k = int(args.questions)
        questions = (k, k)
    mix = {}
    for part in args.mix.split(","):
        group, _, frac = part.partition(":")
        mix[group.strip()] = float(frac)
    params = synth_mod.GenParams(
        n_users=args.n_users,
        group_mix=mix,
        questions_per_user=questions,
        like_rate=args.like_rate,
        neg_vocab=vocab(args.neg_vocab, "negative"),
        pos_vocab=vocab(args.pos_vocab, "positive"),
        rng_seed=args.seed,
    )
    corp, labels = _stage("generate_corpus", synth_mod.generate_corpus, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus_mod.save_corpus(corp, out / "corpus.jsonl")
    for group in synth_mod.GROUP_ORDER:
        members = [u for u, g in labels.items() if g == group]
        reports.write_label_file(out / f"labels_{group}.txt", group, members)


def cmd_crawl_sim(args) -> None:
    ground_truth = _stage("load_corpus", corpus_mod.load_corpus, args.corpus)
    seeds = [s for s in args.seeds.split(",") if s]
    sampled = _stage(
        "snowball_sample", synth_mod.snowball_sample, ground_truth, seeds, args.budget
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus_mod.save_corpus(sampled.corpus, out / "sampled_corpus.jsonl")
    with reports.atomic_write(out / "crawl_order.txt") as fh:
        for uid in sampled.crawl_order:
            fh.write(uid + "\n")
    with reports.atomic_write(out / "frontier.txt") as fh:
        for uid in sorted(sampled.frontier):
            fh.write(uid + "\n")


_COMMANDS = {
    "synth": cmd_synth,
    "crawl-sim": cmd_crawl_sim,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        _stage("load_config", _apply_config, args, argv)
        if args.command in _COMMANDS:
            _COMMANDS[args.command](args)
        else:
            run = _Run(args)
            for write in _WRITERS[args.command]:
                write(run)
    except StageError as exc:
        print(f"askgraph: error {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"askgraph: error [{args.command}] {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
