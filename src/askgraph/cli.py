"""Command-line front end: one subcommand per analysis, `pipeline` to run
them all in order, and `synth` / `crawl-sim` for synthetic corpora.

Every command is a tuple of output writers over one `_Run`, whose stages
are computed on first use and cached, so `pipeline` is the union of the
analysis commands' writers and never computes a stage twice.

All outputs are plain CSV / JSON / text files written atomically. Identical
inputs always produce byte-identical outputs; randomness exists only in
`synth` and `crawl-sim`, which require an explicit --seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
import weakref
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


class _Parser(argparse.ArgumentParser):
    """An argument parser that rejects abbreviated flags and maps each of its
    option strings to the action that declares it, so that a config key is
    parsed by the declaration of the flag it names."""

    def __init__(self, **kwargs):
        self.options: dict[str, argparse.Action] = {}
        super().__init__(allow_abbrev=False, **kwargs)

    def add_argument(self, *args, **kwargs) -> argparse.Action:
        action = super().add_argument(*args, **kwargs)
        self.options.update(dict.fromkeys(action.option_strings, action))
        return action


def build_parser() -> _Parser:
    """The top-level parser; `commands` maps each subcommand to its parser."""
    parser = _Parser(prog="askgraph")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

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
        p.add_argument("--corpus", help="corpus file (line-delimited JSON profiles)")
        p.add_argument("--neg-lexicon", help="negative lexicon (default: bundled)")
        p.add_argument("--pos-lexicon", help="positive lexicon (default: bundled)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--config", help="flat key=value config file (flags override)")
        p.add_argument("--threshold", type=float, default=0.5,
                       help="centrality threshold for word selection")
        p.add_argument("--cap", type=int, default=80, help="max words per word set")
        p.add_argument("--top-k", type=int, default=15,
                       help="most-liked questions considered per profile")
        p.add_argument("--tol", type=float, default=1e-10, help="centrality tolerance")
        p.add_argument("--max-iter", type=int, default=10000,
                       help="centrality iteration limit")
        if name in ("cooccur", "neighborhood"):
            p.add_argument("--word", required=True, help="core word")
            p.add_argument("--polarity", choices=["negative", "positive"], default="negative",
                           help="which lexicon/word set to analyze against")
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
    p.add_argument("--neg-vocab", dest="neg_lexicon", metavar="NEG_VOCAB",
                   help="file with negative vocabulary (default: bundled lexicon)")
    p.add_argument("--pos-vocab", dest="pos_lexicon", metavar="POS_VOCAB",
                   help="file with positive vocabulary (default: bundled lexicon)")

    p = sub.add_parser("crawl-sim", help="simulate a snowball crawl over a ground-truth corpus")
    p.add_argument("--corpus", required=True, help="ground-truth corpus file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seeds", required=True, help="comma-separated seed UserIds")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="rng seed (reserved for future randomized tie-breaks)")
    return parser


def _apply_config(parser: _Parser, args: argparse.Namespace, argv: list[str]) -> None:
    """Fill options from the config file; explicit flags win.

    A key names an option of the command (`top_k` or `top-k` for `--top-k`),
    and its value is parsed and checked exactly as that flag's would be."""
    if not getattr(args, "config", None):
        return
    values = load_config(args.config)
    options = parser.options
    explicit = {options[a].dest for a in (a.partition("=")[0] for a in argv) if a in options}
    for key, (line_no, value) in values.items():
        action = options.get("--" + key.replace("_", "-"))
        if action is None or action.dest in ("help", "config"):
            raise ValueError(f"config line {line_no}: unknown key {key!r} for {args.command}")
        if action.dest in explicit:
            continue
        try:
            value = action.type(value) if action.type else value
            if action.choices is not None and value not in action.choices:
                choices = ", ".join(map(repr, action.choices))
                raise ValueError(f"invalid choice: {value!r} (choose from {choices})")
        except ValueError as exc:
            raise ValueError(f"config line {line_no}: {key}: {exc}") from exc
        action(parser, args, value, action.option_strings[0])


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
        # a proxy, so that a run and its word stages form no reference cycle
        # and a run's stages are freed as soon as the command returns
        self.run = weakref.proxy(run)
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
    """The stages and output writers of one command. Each stage is computed
    on first use and cached, so writers share every stage they read."""

    def __init__(self, args: argparse.Namespace):
        if "corpus" in vars(args) and not args.corpus:
            raise ValueError("--corpus is required (flag or config)")
        if "word" in vars(args):
            args.word = corpus_mod.lexicon_word(args.word, "--word")
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
        return corpus_mod.content_table(
            self.tagged, self.words["negative"].word_set, self.words["positive"].word_set
        )

    @_staged("classify")
    def labels(self):
        return seg_mod.classify_corpus(self.content)

    @_staged("group_report")
    def groups(self):
        return seg_mod.group_report(self.labels, self.content, self.table)

    @_staged("load_label_file")
    def label_files(self):
        return [seg_mod.load_label_file(path) for path in self.args.labels]

    @_staged("labeled_report")
    def label_rows(self):
        return [
            seg_mod.labeled_report(label_file, self.content, self.table)
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

    @_staged("generate_corpus")
    def synthetic(self):
        args = self.args
        if "-" in args.questions.lstrip("-"):
            lo, _, hi = args.questions.partition("-")
            questions = (int(lo), int(hi))
        else:
            questions = (int(args.questions),) * 2
        mix: dict[str, float] = {}
        for group, _, frac in (part.partition(":") for part in args.mix.split(",")):
            if group.strip() in mix:
                raise ValueError(f"--mix repeats group {group.strip()!r}")
            mix[group.strip()] = float(frac)
        params = synth_mod.GenParams(
            n_users=args.n_users,
            group_mix=mix,
            questions_per_user=questions,
            like_rate=args.like_rate,
            neg_vocab=tuple(sorted(self.lexicons["negative"].words)),
            pos_vocab=tuple(sorted(self.lexicons["positive"].words)),
            rng_seed=args.seed,
        )
        return synth_mod.generate_corpus(params)

    @_staged("snowball_sample")
    def crawl(self):
        seeds = [s for s in self.args.seeds.split(",") if s]
        return synth_mod.snowball_sample(self.corpus, seeds, self.args.budget)

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

    def write_synth(self) -> None:
        corpus, labels = self.synthetic
        corpus_mod.save_corpus(corpus, self.out / "corpus.jsonl")
        for group in synth_mod.GROUP_ORDER:
            members = [u for u, g in labels.items() if g == group]
            reports.write_label_file(self.out / f"labels_{group}.txt", group, members)

    def write_crawl(self) -> None:
        sampled = self.crawl
        corpus_mod.save_corpus(sampled.corpus, self.out / "sampled_corpus.jsonl")
        with corpus_mod.atomic_write(self.out / "crawl_order.txt") as fh:
            fh.writelines(uid + "\n" for uid in sampled.crawl_order)
        with corpus_mod.atomic_write(self.out / "frontier.txt") as fh:
            fh.writelines(uid + "\n" for uid in sorted(sampled.frontier))


# Each command is the tuple of output writers it runs, in order.
_WRITERS = {
    "stats": (_Run.write_stats,),
    "words": (_Run.write_words,),
    "graph": (_Run.write_graph,),
    "metrics": (_Run.write_metrics,),
    "segment": (_Run.write_segment,),
    "cooccur": (_Run.write_cooccur,),
    "neighborhood": (_Run.write_neighborhood,),
    "synth": (_Run.write_synth,),
    "crawl-sim": (_Run.write_crawl,),
}
_WRITERS["pipeline"] = tuple(
    write
    for command in ("words", "stats", "graph", "metrics", "segment")
    for write in _WRITERS[command]
)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _stage("load_config", _apply_config, parser.commands[args.command], args, argv)
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
