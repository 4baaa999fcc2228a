"""Command-line front end: one subcommand per analysis, `pipeline` to run
them all in order, and `synth` / `crawl-sim` for synthetic corpora.

Every command is a sequence of (output file, content) pairs over one
`_Run`, whose stages are computed on first use and cached, so `pipeline`,
the concatenation of the analysis commands' outputs, never computes a stage
twice. Each file is written as a stage of its own, named by the file.

All outputs are plain CSV / JSON / text files written atomically. Identical
inputs always produce byte-identical outputs; randomness exists only in
`synth` and `crawl-sim`, which require an explicit --seed.
"""

from __future__ import annotations

import argparse
import functools
# argparse's gettext imports locale when the first parser is built: loaded
# with the other imports, so that no command loads a module of its own
import locale  # noqa: F401
import sys
import weakref
from contextlib import ExitStack
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator

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


def _read(name: str, items: Iterable) -> Iterator:
    """`items`, drawn one at a time, a fault in drawing one raised as a
    fault of stage `name`: an output streamed from its input names the
    input's stage when the input is at fault, and its own when the write
    is."""
    try:
        yield from items
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def load_config(path: str | Path) -> dict[str, tuple[int, str]]:
    """Flat key=value config file; '#' comments and blank lines ignored.

    Maps each key to the line it was last set on and its value."""
    values: dict[str, tuple[int, str]] = {}
    for line_no, line in corpus_mod.numbered_lines(
            path, lambda n, m: ValueError(f"config line {n}: {m}")):
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
        return wg_mod.build_bipartite(self.run.corpus, self.run.lexicons[self.polarity])

    @_staged("project_words")
    def graph(self):
        return wg_mod.project_words(self.bipartite)

    @_staged("eigenvector_centrality")
    def scores(self):
        args = self.run.args
        return wg_mod.eigenvector_centrality(self.graph, tol=args.tol, max_iter=args.max_iter)

    @_staged("select_top_words")
    def word_set(self):
        return wg_mod.select_top_words(self.scores, self.run.args.threshold, self.run.args.cap)


class _Run:
    """The stages of one command. Each stage is computed on first use and
    cached, so the command's outputs share every stage they read."""

    def __init__(self, args: argparse.Namespace):
        if "corpus" in vars(args) and not args.corpus:
            raise ValueError("--corpus is required (flag or config)")
        if "word" in vars(args):
            args.word = corpus_mod.lexicon_word(args.word, "--word")
        self.args = args
        self.out = Path(args.out)
        self.words = {polarity: _Words(self, polarity) for polarity in ("negative", "positive")}
        self.files = ExitStack()  # closed when the command ends

    def __enter__(self) -> _Run:
        return self

    def __exit__(self, *exc) -> None:
        self.files.close()

    @_staged("load_corpus")
    def ground_truth(self):
        """`crawl-sim`'s `--corpus` file, held open after its first pass,
        which reads it without text: the second pass reads back the lines
        of the crawled profiles only."""
        return self.files.enter_context(corpus_mod.CorpusFile(self.args.corpus))

    @_staged("load_corpus")
    def corpus(self):
        """The `--corpus` file. An analysis reads only question word counts,
        so it loads the corpus tagged over both lexicons (and `--word` for
        `cooccur`), keeping no text."""
        vocab = self.lexicons["negative"] | self.lexicons["positive"]
        if self.args.command == "cooccur":
            vocab |= {self.args.word}
        return corpus_mod.load_corpus(self.args.corpus, vocab)

    @_staged("load_lexicon")
    def lexicons(self):
        paths = {"negative": self.args.neg_lexicon, "positive": self.args.pos_lexicon}
        return {
            polarity: corpus_mod.load_lexicon(path or bundled_lexicon_path(polarity))
            for polarity, path in paths.items()
        }

    @_staged("corpus_stats")
    def stats(self):
        return corpus_mod.corpus_stats(
            self.corpus, self.lexicons["negative"], self.lexicons["positive"]
        )

    @_staged("build_interaction_graph")
    def interaction(self):
        return inter_mod.build_interaction_graph(
            self.corpus, self.words["negative"].word_set, top_k=self.args.top_k
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
            self.corpus, self.words["negative"].word_set, self.words["positive"].word_set
        )

    @_staged("classify")
    def codes(self):
        return seg_mod.classify_corpus(self.content)

    @_staged("group_report")
    def groups(self):
        return seg_mod.group_report(self.codes, self.content, self.table)

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
        return wg_mod.cooccurrence_distribution(self.corpus, self.args.word, words)

    @_staged("word_neighborhood")
    def neighborhood(self):
        words = self.words[self.args.polarity]
        return wg_mod.word_neighborhood(words.graph, self.args.word, words.scores)

    @_staged("generate_corpus")
    def synthetic(self):
        args = self.args
        where = f"--questions {args.questions!r}"
        if "-" in args.questions.lstrip("-"):
            lo, _, hi = args.questions.partition("-")
            questions = (_number(int, where, lo), _number(int, where, hi))
        else:
            questions = (_number(int, where, args.questions),) * 2
        mix: dict[str, float] = {}
        for part in args.mix.split(","):
            group, colon, frac = part.partition(":")
            if not colon:
                raise ValueError(f"--mix entry {part!r} is not GROUP:FRACTION")
            if group.strip() in mix:
                raise ValueError(f"--mix repeats group {group.strip()!r}")
            mix[group.strip()] = _number(float, f"--mix entry {part!r}", frac)
        params = synth_mod.GenParams(
            n_users=args.n_users,
            group_mix=mix,
            questions_per_user=questions,
            like_rate=args.like_rate,
            neg_vocab=tuple(sorted(self.lexicons["negative"])),
            pos_vocab=tuple(sorted(self.lexicons["positive"])),
            rng_seed=args.seed,
        )
        return synth_mod.draw_corpus(params)

    @_staged("snowball_sample")
    def crawl(self):
        seeds = [s for s in self.args.seeds.split(",") if s]
        owners = self.ground_truth.corpus.owners
        crawl, frontier = synth_mod.snowball_sample(self.ground_truth.corpus, seeds,
                                                    self.args.budget)
        for k in sorted(crawl.tolist() + frontier.tolist()):  # the first bad id in sorted order
            owner = owners[k]
            # a line break as `str.splitlines` reads one, before the '.'
            if len(f"{owner}.".splitlines()) > 1:
                raise ValueError(f"id {owner!r} holds a line break, and crawl_order.txt and "
                                 "frontier.txt hold one id per line")
        return crawl, frontier


def _number(kind: type, where: str, part: str) -> int | float:
    """`part` of a flag's value read as an int or a float; a ValueError
    names `where` it is (the flag and its value) and the part."""
    try:
        return kind(part)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{where}: {part!r} is not {what}") from None


def _outputs(run: _Run, command: str) -> Iterator[tuple[str, object]]:
    """The (file name, content) pairs `command` writes, in order. Each
    content is read from the run's stages only when its pair is reached, and
    `reports.write_output` writes it in the format its suffix names."""
    args = run.args
    if command == "pipeline":
        for part in ("words", "stats", "graph", "metrics", "segment"):
            yield from _outputs(run, part)
    elif command == "stats":
        yield "corpus_stats.json", vars(run.stats)
    elif command == "words":
        for polarity, words in run.words.items():
            yield (f"wordset_{polarity}.txt", reports.word_set_lines(
                polarity, words.word_set, words.scores, args.threshold, args.cap))
            yield f"wordgraph_{polarity}_edges.csv", (
                ["word_a", "word_b", "weight"], reports.word_graph_edges(words.graph))
            yield f"wordgraph_{polarity}_nodes.csv", (["word", "centrality"], words.scores.items())
    elif command == "graph":
        yield "interaction_edges.csv", (["src", "dst", "n_neg", "n_nonneg"], run.interaction)
    elif command == "metrics":
        yield from reports.metrics_outputs(run.metrics)
    elif command == "segment":
        yield "group_report.csv", reports.group_table(run.groups, run.label_rows)
    elif command == "cooccur":
        yield f"cooccur_{args.word}.csv", (["word", "mean_frequency"], run.cooccurrence)
    elif command == "neighborhood":
        yield f"neighborhood_{args.word}.csv", (
            ["core", "neighbor", "weight", "neighbor_centrality"],
            ((args.word, *record) for record in run.neighborhood),
        )
    elif command == "synth":
        # the texts are drawn as the file is written, a block at a time
        yield "corpus.jsonl", _read("generate_corpus", synth_mod.corpus_lines(run.synthetic))
        owners, codes = run.synthetic.planted_codes()
        for k, group in enumerate(seg_mod.GROUPS):  # members in owner order, so sorted
            yield f"labels_{group}.txt", [f"label: {group}", *compress(owners, codes == k)]
    elif command == "crawl-sim":
        crawl, frontier = run.crawl
        owners = run.ground_truth.corpus.owners
        yield "sampled_corpus.jsonl", _read("load_corpus", run.ground_truth.lines(crawl, frontier))
        yield "crawl_order.txt", map(owners.__getitem__, crawl.tolist())
        yield "frontier.txt", map(owners.__getitem__, frontier.tolist())


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _stage("load_config", _apply_config, parser.commands[args.command], args, argv)
        with _Run(args) as run:
            for name, content in _outputs(run, args.command):
                _stage(name, reports.write_output, run.out / name, content)
    except StageError as exc:
        print(f"askgraph: error {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"askgraph: error [{args.command}] {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
