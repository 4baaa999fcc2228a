"""Command-line front end: one subcommand per analysis, plus `pipeline` to
run everything in order.

All outputs are plain CSV / JSON / text files written atomically. Identical
inputs always produce byte-identical outputs; randomness exists only in
`synth` and `crawl-sim`, which require an explicit --seed.
"""

from __future__ import annotations

import argparse
import os
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


def _load_inputs(args):
    if not args.corpus:
        raise ValueError("--corpus is required (flag or config)")
    corp = _stage("load_corpus", corpus_mod.load_corpus, args.corpus)
    neg_path = args.neg_lexicon or bundled_lexicon_path("negative")
    pos_path = args.pos_lexicon or bundled_lexicon_path("positive")
    neg = _stage("load_lexicon", corpus_mod.load_lexicon, neg_path, "negative")
    pos = _stage("load_lexicon", corpus_mod.load_lexicon, pos_path, "positive")
    return corp, neg, pos


def _select_words(corp, lexicon, polarity, args):
    bip = _stage("build_bipartite", wg_mod.build_bipartite, corp, lexicon)
    graph = _stage("project_words", wg_mod.project_words, bip)
    scores = _stage(
        "eigenvector_centrality", wg_mod.eigenvector_centrality,
        graph, tol=args.tol, max_iter=args.max_iter,
    )
    word_set = _stage(
        "select_top_words", wg_mod.select_top_words,
        scores, polarity, threshold=args.threshold, cap=args.cap,
    )
    return bip, graph, scores, word_set


def _build_interaction(corp, neg_set, args):
    return _stage(
        "build_interaction_graph", inter_mod.build_interaction_graph,
        corp, neg_set, top_k=args.top_k,
    )


def cmd_stats(args) -> None:
    corp, neg, pos = _load_inputs(args)
    stats = _stage("corpus_stats", corpus_mod.corpus_stats, corp, neg, pos)
    reports.write_corpus_stats(Path(args.out) / "corpus_stats.json", stats)


def cmd_words(args) -> None:
    corp, neg, pos = _load_inputs(args)
    out = Path(args.out)
    for polarity, lexicon in (("negative", neg), ("positive", pos)):
        _, graph, scores, word_set = _select_words(corp, lexicon, polarity, args)
        reports.write_word_set(out / f"wordset_{polarity}.txt", word_set,
                               args.threshold, args.cap)
        reports.write_word_graph(
            out / f"wordgraph_{polarity}_edges.csv",
            out / f"wordgraph_{polarity}_nodes.csv",
            graph, scores,
        )


def cmd_graph(args) -> None:
    corp, neg, _pos = _load_inputs(args)
    _, _, _, neg_set = _select_words(corp, neg, "negative", args)
    graph = _build_interaction(corp, neg_set, args)
    reports.write_interaction_graph(Path(args.out) / "interaction_edges.csv", graph)


def cmd_metrics(args) -> None:
    corp, neg, _pos = _load_inputs(args)
    _, _, _, neg_set = _select_words(corp, neg, "negative", args)
    graph = _build_interaction(corp, neg_set, args)
    table = _stage("node_table", inter_mod.node_table, graph)
    report = _stage("compute_metrics", inter_mod.compute_metrics, corp, table)
    reports.write_metrics(args.out, report)


def _segment(args, corp, neg_set, pos_set, table):
    content = _stage("content_table", seg_mod.content_table, corp, neg_set, pos_set)
    labels = _stage("classify", seg_mod.classify_corpus, content)
    report = _stage("group_report", seg_mod.group_report, corp, labels, content, table)
    label_rows = []
    for label_path in getattr(args, "labels", []):
        lf = _stage("load_label_file", seg_mod.load_label_file, label_path)
        label_rows.append(_stage(
            "labeled_report", seg_mod.labeled_report, corp, lf, content, table,
        ))
    return report, label_rows


def cmd_segment(args) -> None:
    corp, neg, pos = _load_inputs(args)
    _, _, _, neg_set = _select_words(corp, neg, "negative", args)
    _, _, _, pos_set = _select_words(corp, pos, "positive", args)
    graph = _build_interaction(corp, neg_set, args)
    table = _stage("node_table", inter_mod.node_table, graph)
    report, label_rows = _segment(args, corp, neg_set, pos_set, table)
    reports.write_group_report(Path(args.out) / "group_report.csv", report, label_rows)


def cmd_cooccur(args) -> None:
    corp, neg, pos = _load_inputs(args)
    lexicon = neg if args.polarity == "negative" else pos
    _, _, _, word_set = _select_words(corp, lexicon, args.polarity, args)
    vector = _stage(
        "cooccurrence_distribution", wg_mod.cooccurrence_distribution,
        corp, args.word, word_set,
    )
    reports.write_frequency_vector(Path(args.out) / f"cooccur_{args.word}.csv", vector)


def cmd_neighborhood(args) -> None:
    corp, neg, pos = _load_inputs(args)
    lexicon = neg if args.polarity == "negative" else pos
    _, graph, scores, _ = _select_words(corp, lexicon, args.polarity, args)
    records = _stage("word_neighborhood", wg_mod.word_neighborhood, graph, args.word, scores)
    reports.write_neighborhood(Path(args.out) / f"neighborhood_{args.word}.csv",
                               args.word, records)


def _atomic_save_corpus(corp, path: Path) -> None:
    partial = path.with_name(path.name + ".partial")
    corpus_mod.save_corpus(corp, partial)
    os.replace(partial, path)


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
    _atomic_save_corpus(corp, out / "corpus.jsonl")
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
    _atomic_save_corpus(sampled.corpus, out / "sampled_corpus.jsonl")
    with reports.atomic_write(out / "crawl_order.txt") as fh:
        for uid in sampled.crawl_order:
            fh.write(uid + "\n")
    with reports.atomic_write(out / "frontier.txt") as fh:
        for uid in sorted(sampled.frontier):
            fh.write(uid + "\n")


def cmd_pipeline(args) -> None:
    out = Path(args.out)
    corp, neg, pos = _load_inputs(args)

    _, neg_graph, neg_scores, neg_set = _select_words(corp, neg, "negative", args)
    reports.write_word_set(out / "wordset_negative.txt", neg_set, args.threshold, args.cap)
    reports.write_word_graph(out / "wordgraph_negative_edges.csv",
                             out / "wordgraph_negative_nodes.csv", neg_graph, neg_scores)

    _, pos_graph, pos_scores, pos_set = _select_words(corp, pos, "positive", args)
    reports.write_word_set(out / "wordset_positive.txt", pos_set, args.threshold, args.cap)
    reports.write_word_graph(out / "wordgraph_positive_edges.csv",
                             out / "wordgraph_positive_nodes.csv", pos_graph, pos_scores)

    stats = _stage("corpus_stats", corpus_mod.corpus_stats, corp, neg, pos)
    reports.write_corpus_stats(out / "corpus_stats.json", stats)

    graph = _build_interaction(corp, neg_set, args)
    reports.write_interaction_graph(out / "interaction_edges.csv", graph)

    table = _stage("node_table", inter_mod.node_table, graph)
    metrics = _stage("compute_metrics", inter_mod.compute_metrics, corp, table)
    reports.write_metrics(out, metrics)

    report, label_rows = _segment(args, corp, neg_set, pos_set, table)
    reports.write_group_report(out / "group_report.csv", report, label_rows)


_COMMANDS = {
    "stats": cmd_stats,
    "words": cmd_words,
    "graph": cmd_graph,
    "metrics": cmd_metrics,
    "segment": cmd_segment,
    "cooccur": cmd_cooccur,
    "neighborhood": cmd_neighborhood,
    "synth": cmd_synth,
    "crawl-sim": cmd_crawl_sim,
    "pipeline": cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        _stage("load_config", _apply_config, args, argv)
        _COMMANDS[args.command](args)
    except StageError as exc:
        print(f"askgraph: error {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"askgraph: error [{args.command}] {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
