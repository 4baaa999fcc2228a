"""askgraph benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload graph-heavy [--seed 1] [--seconds S] [--trace 0|1]

A run first generates the workload's inputs from --seed with `askgraph synth`
in a fresh process. It then repeats the workload's timed CLI commands, each
repetition in one fresh child process, for at least --seconds and at least
MIN_REPS repetitions. After each repetition it generates the inputs once
more, so that the set-up times sample the same stretch of time as the timed
ones. After every child it runs a window of calibration samples
(calibrate.py). It reports the median wall time of the timed commands
(`run_s`), the median lifetime peak RSS of the child (`peak_rss_mb`), the
median of that peak minus the child's peak after its imports (`data_rss_mb`)
and the mean set-up time (`setup_s`). Both times are scaled to reference
seconds by the run's mean calibration sample, which takes the host's speed
drift out. Only one child runs at a time.

Every repetition's whole output tree is digested (sorted file names plus
bytes). All repetitions must agree, and for the default seed they must match
the digest pinned in expected.json. Cheap independent checks computed from the
input files run on the first repetition. A repetition that exits non-zero,
misses an output, fails a check or has another digest counts as failed.

With --trace 1 the run adds one traced repetition: tracer.py wraps every
public askgraph function from outside, and the spans give the per-layer
metrics. Its output must have the untraced digest.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the metrics and their units
are the ones BENCHMARK.json lists (end_to_end without tracing, per_layer with
it). The lines before it give the machine record, the workload's measured
input properties and each metric by name and unit. A full record of the run
is written to .perfbench_runs/<workload>/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import calibrate
from tracer import aggregate

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
MIN_REPS = 3
DEADLINE_S = 160.0  # stop starting repetitions so that a run ends well inside 180 s
MIX = "HN:.1,HP:.2,PN:.2,OTHR:.5"
QUESTIONS = "11-18"
LIKE_RATE = 2.0
GROUPS = ("HN", "HP", "PN", "OTHR")
TOP_K = 15  # the CLI's default --top-k, which every workload uses
BASELINE_NOTE = (
    "The ROADMAP baseline table was taken on Python 3.10.12 at larger scales; "
    "numbers from this benchmark replace it rather than reproduce it."
)

SYNTH_OUTPUTS = ("corpus.jsonl",) + tuple(f"labels_{g}.txt" for g in GROUPS)
CRAWL_OUTPUTS = ("sampled_corpus.jsonl", "crawl_order.txt", "frontier.txt")
PIPELINE_OUTPUTS = (
    "corpus_stats.json",
    "wordset_negative.txt",
    "wordset_positive.txt",
    "wordgraph_negative_edges.csv",
    "wordgraph_negative_nodes.csv",
    "wordgraph_positive_edges.csv",
    "wordgraph_positive_nodes.csv",
    "interaction_edges.csv",
    "metrics.json",
    "overlap.csv",
    "ratio_cdf.csv",
    "recip_vs_outdeg.csv",
    "clustering_vs_degree.csv",
    "group_report.csv",
)
CRAWLS = ("crawl_a", "crawl_b")

# The tokenization rule the CLI documents (lowercase; tokens are runs of
# alphanumerics, apostrophes and asterisks). Kept here so that the input
# properties are measured independently of the program under test.
_TOKEN_RE = re.compile(r"[^\W_]+(?:['*][^\W_]*)*|['*]+[^\W_]*(?:['*][^\W_]*)*")


@dataclass(frozen=True)
class Workload:
    """Inputs come from `synth` with `n_users` profiles. A pipeline workload
    times `pipeline` on them with the four planted label files; a crawl
    workload (`crawl_budget` > 0) times `synth` itself and then one
    `crawl-sim` from each of two seed users on its output."""

    name: str
    n_users: int
    crawl_budget: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("graph-heavy", 600),
        Workload("synth-crawl", 2000, crawl_budget=700),
    )
}


def synth_argv(w: Workload, seed: int, out: Path) -> list[str]:
    return [
        "synth", "--seed", str(seed), "--n-users", str(w.n_users), "--mix", MIX,
        "--questions", QUESTIONS, "--like-rate", repr(LIKE_RATE), "--out", str(out),
    ]


def timed_commands(
    w: Workload, seed: int, inputs: Path, out: Path, crawl_seeds: list[str]
) -> list[list[str]]:
    if w.crawl_budget:
        corpus = out / "synth" / "corpus.jsonl"
        return [synth_argv(w, seed, out / "synth")] + [
            ["crawl-sim", "--corpus", str(corpus), "--seeds", uid,
             "--budget", str(w.crawl_budget), "--seed", str(seed), "--out", str(out / name)]
            for name, uid in zip(CRAWLS, crawl_seeds)
        ]
    argv = ["pipeline", "--corpus", str(inputs / "corpus.jsonl"), "--out", str(out)]
    for g in GROUPS:
        argv += ["--labels", str(inputs / f"labels_{g}.txt")]
    return [argv]


def required_outputs(w: Workload) -> list[str]:
    if w.crawl_budget:
        return [f"synth/{n}" for n in SYNTH_OUTPUTS] + [
            f"{c}/{n}" for c in CRAWLS for n in CRAWL_OUTPUTS
        ]
    return list(PIPELINE_OUTPUTS)


# --- child processes -------------------------------------------------------


@dataclass
class ChildResult:
    ok: bool
    elapsed_s: float = 0.0
    maxrss_kb: int = 0
    floor_kb: int = 0
    error: str = ""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    # PYTHONHASHSEED stays unpinned, so output that depends on hash order
    # shows up as a digest mismatch between repetitions.
    env.pop("PYTHONHASHSEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(
    root: Path, commands: list[list[str]], timeout: float, spans: Path | None = None
) -> ChildResult:
    """Run `commands` in one fresh interpreter (child.py) and wait for it."""
    spec = json.dumps({"commands": commands, "spans": str(spans) if spans else None})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), spec],
            cwd=root, env=child_env(root), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return ChildResult(False, error=f"timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return ChildResult(False, error=f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    report = json.loads(lines[-1])
    return ChildResult(True, report["elapsed_s"], report["maxrss_kb"], report["floor_kb"])


# --- outputs and inputs ----------------------------------------------------


def tree_digest(path: Path) -> str:
    """sha256 over the sorted relative file names and their bytes."""
    files = sorted(
        (p.relative_to(path).as_posix(), p)
        for p in path.rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
    )
    h = hashlib.sha256()
    for rel, p in files:
        data = p.read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def read_lexicon(path: Path) -> frozenset[str]:
    words = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return frozenset(w.lower() for w in words if w and not w.startswith("#"))


@dataclass
class CorpusScan:
    properties: dict[str, float]
    per_owner: dict[str, tuple[int, int]] = field(repr=False)  # owner -> (questions, likes)


def scan_corpus(path: Path, neg: frozenset[str], pos: frozenset[str]) -> CorpusScan:
    """Measure a corpus file: profiles, stubs, questions, likes, the share of
    questions inside the top-k of their profile, and the share of questions
    tagged negative / positive by the bundled lexicons."""
    stubs = questions = likes = in_top_k = tagged_neg = tagged_pos = 0
    per_owner: dict[str, tuple[int, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            owner_likes = 0
            for q in record["questions"]:
                owner_likes += q["like_count"]
                tokens = set(_TOKEN_RE.findall(q["text"].lower()))
                tagged_neg += not tokens.isdisjoint(neg)
                tagged_pos += not tokens.isdisjoint(pos)
            n_q = len(record["questions"])
            per_owner[record["owner"]] = (n_q, owner_likes)
            stubs += not record["fully_sampled"]
            questions += n_q
            likes += owner_likes
            in_top_k += min(n_q, TOP_K)
    def share(count: int) -> float:
        return count / questions if questions else 0.0

    return CorpusScan(
        properties={
            "profiles": len(per_owner),
            "stub_profiles": stubs,
            "questions": questions,
            "likes": likes,
            "share_questions_in_top_k": share(in_top_k),
            "share_questions_negative": share(tagged_neg),
            "share_questions_positive": share(tagged_pos),
        },
        per_owner=per_owner,
    )


def read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def interaction_totals(out: Path) -> tuple[int, int]:
    """(edges, likes carried by the edges) of a pipeline's interaction graph."""
    with open(out / "interaction_edges.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return len(rows), sum(int(r["n_neg"]) + int(r["n_nonneg"]) for r in rows)


def check_pipeline(inputs: Path, out: Path, scan: CorpusScan) -> list[str]:
    """Checks of a pipeline output against values computed from its input."""
    errors = []
    props = scan.properties
    stats = json.loads((out / "corpus_stats.json").read_text(encoding="utf-8"))
    if stats["avg_answers_per_user"] != props["questions"] / props["profiles"]:
        errors.append("corpus_stats.json: avg_answers_per_user is not questions / profiles")
    _, kept = interaction_totals(out)
    if not 0 < kept <= props["likes"]:
        errors.append(f"interaction graph carries {kept} of {props['likes']} likes")
    with open(out / "group_report.csv", encoding="utf-8", newline="") as fh:
        label_rows = list(csv.DictReader(fh))[len(GROUPS):]
    if [r["group"] for r in label_rows] != list(GROUPS):
        return errors + ["group_report.csv: missing label rows"]
    for g, row in zip(GROUPS, label_rows):
        members = read_lines(inputs / f"labels_{g}.txt")[1:]
        n_q = sum(scan.per_owner[u][0] for u in members)
        n_likes = sum(scan.per_owner[u][1] for u in members)
        if (
            int(row["count"]) != len(members)
            or float(row["mean_answers"]) != n_q / len(members)
            or float(row["mean_total_likes"]) != n_likes / len(members)
        ):
            errors.append(f"group_report.csv: label row {g} disagrees with its label file")
    return errors


def check_crawl(
    w: Workload, out: Path, scan: CorpusScan, setup_digest: str, crawl_seeds: list[str]
) -> list[str]:
    """Checks of the timed synth + crawl outputs."""
    errors = []
    if tree_digest(out / "synth") != setup_digest:
        errors.append("timed synth output differs from the set-up synth output")
    for name, uid in zip(CRAWLS, crawl_seeds):
        order = read_lines(out / name / "crawl_order.txt")
        frontier = set(read_lines(out / name / "frontier.txt"))
        if not order or order[0] != uid or len(order) > w.crawl_budget:
            errors.append(f"{name}: crawl order does not start at {uid} within budget")
        # Crawled profiles are complete copies of the ground truth; frontier
        # profiles are empty stubs; there is nothing else.
        expected = {u: (True, scan.per_owner[u][0]) for u in order}
        expected.update((u, (False, 0)) for u in frontier)
        sampled = {}
        with open(out / name / "sampled_corpus.jsonl", encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                sampled[record["owner"]] = (record["fully_sampled"], len(record["questions"]))
        if len(order) + len(frontier) != len(expected) or sampled != expected:
            errors.append(f"{name}: sampled corpus is not the crawled profiles plus frontier stubs")
    return errors


# --- the run ---------------------------------------------------------------


@dataclass
class Run:
    root: Path
    deadline: float
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    # Calibration windows: one before the first child and one after every
    # child, so that they sample the same stretch of machine time as the
    # children. windows[k] and windows[k + 1] enclose child k.
    windows: list[list[float]] = field(default_factory=list)

    def child(self, commands, spans: Path | None = None) -> ChildResult:
        if not self.windows:
            calibrate.sample()  # warm-up, dropped
            self.windows.append(calibrate.window())
        self.attempted += 1
        result = run_child(self.root, commands, max(1.0, self.deadline - time.monotonic()), spans)
        self.windows.append(calibrate.window())
        return result

    def fail(self, what: str, error: str) -> None:
        self.failures.append(f"{what}: {error}")


def measure(
    w: Workload, seed: int, seconds: float, trace: bool, root: Path, pinned: str | None
) -> dict:
    """Set up, run and check one workload; return the full run record."""
    run = Run(root=root, deadline=time.monotonic() + DEADLINE_S)
    runs_dir = root / ".perfbench_runs" / w.name
    work = runs_dir / f"work-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(w, seed, seconds, trace, root, pinned, run, runs_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(w, seed, seconds, trace, root, pinned, run, runs_dir, work) -> dict:
    record = {"workload": w.name, "seed": seed, "trace": trace}

    setup_times: list[float] = []
    setup_digests: list[str] = []

    def setup(i: int) -> Path | None:
        """Generate the inputs (set-up i); return their directory if all is well."""
        out = work / f"setup{i}"
        res = run.child([synth_argv(w, seed, out)])
        missing = [n for n in SYNTH_OUTPUTS if not (out / n).is_file()] if res.ok else []
        if not res.ok or missing:
            run.fail(f"setup {i}", res.error or f"missing {missing}")
            return None
        setup_times.append(res.elapsed_s)
        setup_digests.append(tree_digest(out))
        if setup_digests[-1] != setup_digests[0]:
            run.fail(f"setup {i}", "synth output differs from the first set-up")
        return out

    inputs = setup(0)
    record["setup_times_s"] = setup_times
    record["calibration_windows_s"] = run.windows
    if inputs is None:
        return finish(record, run, {})

    data = root / "src" / "askgraph" / "data"
    neg = read_lexicon(data / "negative_words.txt")
    pos = read_lexicon(data / "positive_words.txt")
    scan = scan_corpus(inputs / "corpus.jsonl", neg, pos)
    props = dict(scan.properties)
    crawl_seeds: list[str] = []
    if w.crawl_budget:
        liked = sorted(u for u, (_, n_likes) in scan.per_owner.items() if n_likes)
        crawl_seeds = random.Random(seed).sample(liked, len(CRAWLS))
        record["crawl_seeds"] = crawl_seeds

    reference = pinned
    reps: list[ChildResult] = []
    first_out = None
    timed_start = time.monotonic()
    last_wall = 0.0
    i = 0
    while i < MIN_REPS or (
        time.monotonic() - timed_start < seconds
        and time.monotonic() + last_wall < run.deadline
    ):
        out = work / f"rep{i}"
        began = time.monotonic()
        res = run.child(timed_commands(w, seed, inputs, out, crawl_seeds))
        error = res.error or check_rep(w, out, inputs, scan, setup_digests[0], crawl_seeds,
                                       reference, first=first_out is None)
        if error:
            run.fail(f"rep {i}", error)
        else:
            reps.append(res)
            reference = reference or tree_digest(out)
            if first_out is None:
                first_out = out
        if out != first_out:
            shutil.rmtree(out, ignore_errors=True)
        i += 1
        again = setup(i)
        if again is not None:
            shutil.rmtree(again)
        last_wall = time.monotonic() - began
    record["digest"] = reference
    record["reps"] = [
        {"elapsed_s": r.elapsed_s, "maxrss_kb": r.maxrss_kb, "floor_kb": r.floor_kb} for r in reps
    ]

    if first_out is not None:
        if w.crawl_budget:
            props["interaction_edges"], props["likes_kept"] = 0, 0
            props["sampled"] = {
                c: scan_corpus(first_out / c / "sampled_corpus.jsonl", neg, pos).properties
                for c in CRAWLS
            }
        else:
            props["interaction_edges"], props["likes_kept"] = interaction_totals(first_out)
        props["output_bytes"] = tree_bytes(first_out)
    record["properties"] = props

    def median(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    # Times are reported in reference seconds (see calibrate.py). A set-up
    # takes well under a second on graph-heavy, so it sees the host in one
    # state, like a calibration sample; both are averaged with the mean.
    # A repetition is long enough to average the host's states itself.
    samples = [s for win in run.windows for s in win]
    scale = calibrate.scale(samples)
    metrics = {
        "run_s": median(r.elapsed_s for r in reps) * scale,
        "peak_rss_mb": median(r.maxrss_kb for r in reps) / 1024,
        "data_rss_mb": median(r.maxrss_kb - r.floor_kb for r in reps) / 1024,
        "setup_s": statistics.mean(setup_times) * scale,
        "harness.wall_run_s": median(r.elapsed_s for r in reps),
        "harness.wall_setup_s": statistics.mean(setup_times),
        "harness.calibration_s": statistics.mean(samples),
    }

    if trace and first_out is not None:
        out = work / "traced"
        spans = runs_dir / "spans.tsv"
        res = run.child(timed_commands(w, seed, inputs, out, crawl_seeds), spans=spans)
        error = res.error or (
            "" if tree_digest(out) == reference else "traced output digest differs from untraced"
        )
        if error:
            run.fail("traced rep", error)
        else:
            per_name, root_s = aggregate(spans)
            record["functions"] = per_name
            metrics.update(layer_metrics(
                per_name, root_s, res.elapsed_s, metrics["harness.wall_run_s"], props
            ))
    return finish(record, run, metrics)


def check_rep(w, out, inputs, scan, setup_digest, crawl_seeds, reference, first) -> str:
    missing = [n for n in required_outputs(w) if not (out / n).is_file()]
    if missing:
        return f"missing outputs {missing}"
    if reference is not None and tree_digest(out) != reference:
        return "output digest differs from the reference"
    if not first:
        return ""
    if w.crawl_budget:
        errors = check_crawl(w, out, scan, setup_digest, crawl_seeds)
    else:
        errors = check_pipeline(inputs, out, scan)
    return "; ".join(errors)


def layer_metrics(
    per_name: dict[str, dict[str, float]], root_s: float, traced_s: float,
    run_s: float, props: dict,
) -> dict[str, float]:
    def total(name: str, key: str = "s") -> float:
        return per_name.get(name, {}).get(key, 0)

    values = {}
    for name in (
        "corpus.load_corpus", "corpus.save_corpus", "corpus.corpus_stats", "corpus.tokenize",
        "wordgraph.build_bipartite", "wordgraph.project_words",
        "wordgraph.eigenvector_centrality", "interaction.build_interaction_graph",
        "interaction.compute_metrics", "interaction.clustering",
        "segmentation.classify_corpus", "segmentation.group_report",
        "segmentation.labeled_report", "synth.generate_corpus", "synth.snowball_sample",
    ):
        values[f"{name}.s"] = total(name)
    for name in (
        "corpus.tokenize", "interaction.clustering", "interaction.degree_vector",
        "interaction.node_reciprocity", "segmentation.user_content_stats",
    ):
        values[f"{name}.calls"] = total(name, "calls")
    values["corpus.tokenize.calls_per_question"] = (
        total("corpus.tokenize", "calls") / props["questions"]
    )
    values["interaction.edges"] = props["interaction_edges"]
    values["interaction.likes_kept_ratio"] = props["likes_kept"] / props["likes"]
    values["reports.write.s"] = sum(
        v["self_s"] for k, v in per_name.items() if k.startswith("reports.write_")
    )
    values["reports.bytes"] = props["output_bytes"]
    values["cli.other.s"] = traced_s - root_s
    values["trace.overhead_s"] = traced_s - run_s
    return values


def finish(record: dict, run: Run, metrics: dict) -> dict:
    failed = len(run.failures)
    record.update(
        attempted=run.attempted,
        failed=failed,
        error_rate=failed / run.attempted if run.attempted else 1.0,
        failures=run.failures,
        metrics=metrics,
    )
    return record


# --- machine record and entry point ----------------------------------------


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[len("ref: "):]
    return ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else None


def machine_record(root: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_commit(root),
        "source_sha256": tree_digest(root / "src"),
        "note": BASELINE_NOTE,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "askgraph" / "cli.py").is_file():
        print(f"perfbench: no askgraph sources under {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    pinned = None
    if args.seed == DEFAULT_SEED:
        pinned = json.loads((HERE / "expected.json").read_text(encoding="utf-8")).get(args.workload)

    record = measure(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace),
                     root, pinned)
    record["machine"] = machine_record(root)
    runs_dir = root / ".perfbench_runs" / args.workload
    runs_dir.mkdir(parents=True, exist_ok=True)
    (runs_dir / f"seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print("properties " + json.dumps(record.get("properties"), sort_keys=True))
    print(f"digest {record.get('digest')}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, entry in sorted(record.get("functions", {}).items(),
                              key=lambda kv: -kv[1]["self_s"]):
        print(f"span {name} calls={entry['calls']} s={entry['s']:.4f} "
              f"self_s={entry['self_s']:.4f}")
    metrics = {}
    for m in wanted:
        value = record["metrics"].get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value} {m['unit']}")
    print(f"error_rate {record['error_rate']} ratio "
          f"({record['failed']} of {record['attempted']} runs failed)")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
