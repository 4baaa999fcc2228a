"""Scale sweep: the seeded synth recipe's `synth`, `pipeline` and `crawl-sim`
at large n, timed per stage, with each output tree checked against a pin.

For each n in --sizes (16,000, 64,000 and 256,000 by default; 10⁶, whose
pipeline alone takes about 5 minutes and 4.9 GB, runs only when asked for)
it runs:

- `synth --seed 1 --n-users n` with perfbench's recipe (`--questions 11-18
  --like-rate 2.0 --mix HN:.1,HP:.2,PN:.2,OTHR:.5`);
- `pipeline` over that corpus with the four planted label files;
- `crawl-sim` of that corpus with budget n // 4 from seeds `u00001` and
  `u{12345 * n // 16000:05d}` (at 16,000: `u00001,u12345`, budget 4,000).

Each command runs in a fresh Python process that wraps `cli._stage`, so
every stage reports its self seconds (the stages nested in it are taken
out), its inclusive seconds and the process's `ru_maxrss` after it.
`synth` draws its counts and likes in `generate_corpus` and its texts as
`corpus.jsonl` is written; `crawl-sim` reads the ground truth's graph in
`load_corpus` (its first pass) and the crawled profiles' lines as
`sampled_corpus.jsonl` is written (its second). Before
the first command and after each one this process runs a window of
perfbench's calibration task (`calibrate.window()`), and every time is
also given in reference seconds (`ref_seconds`, `ref_self_s`,
`ref_inclusive_s`): wall seconds times `calibrate.scale` of all the
sweep's windows, as perfbench scales a run by all of its windows, since
the few next to one command are too few to beat the host's speed jitter.
Sweeps of one tree still differ by up to about ±17% in reference seconds,
so these do not yet reproduce to ±15% from one sweep to the next. RSS
here is always that fresh-process peak in MB (2**20 bytes): it includes
the interpreter and numpy, whose floor after the imports is reported
beside it. The triangle kernel's `interaction.clustering` and the
`interaction.row_blocks` it runs its wedges in are wrapped too: for each
call, `wedges` is the wedges it enumerates, `triangles` the triangles they
close and `blocks` its row blocks. A command fails, naming the attribute,
when either function is renamed.

The sha256 of the whole output tree (perfbench's `tree_digest`) and the
pipeline's `wedges` are compared with the pair pinned for n in PINNED; an
n without a pin is reported as `unpinned`. The wedge count pins how the
triangle kernel builds its matrix, which no output shows. The record goes
to stdout as one JSON object and progress to stderr. The script exits 1
when a command fails or a pinned digest or wedge count differs. Run it
from the repository root:

    python3 benchmarks/scale.py [--sizes 16000 64000 256000] > BENCH_scale.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import calibrate  # noqa: E402
from run import GROUPS, LIKE_RATE, MIX, QUESTIONS, child_env, machine_record  # noqa: E402

# per n: the output tree's digest, then the wedges of the pipeline's one
# `clustering` call
PINNED = {
    16_000: ("703daeb66a62728dce21adac80e3f32d90f269e9f26f35873dfd441e7216b063", 8_865_628),
    64_000: ("18b7c72da95c237a737c16119f5e9dcfa9bbe3687741a70d38aab032f4fc51fa", 35_724_972),
    256_000: ("70c6e4a024c84c4127a614de241636926d9df162d16918873b669cc9d24bd707", 143_390_014),
}

# one command in a fresh interpreter; its last stdout line is its record
CHILD = """
import json, resource, sys, time
from askgraph import cli, interaction

def rss_mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)

record = {"imports_rss_mb": rss_mb(), "stages": [], "wedges": [], "triangles": [], "blocks": []}
stage, clustering, row_blocks = cli._stage, interaction.clustering, interaction.row_blocks
nested = [0.0]  # per open stage, the inclusive seconds of the stages inside it

def timed_stage(name, fn, *args, **kwargs):
    nested.append(0.0)
    start = time.perf_counter()
    try:
        return stage(name, fn, *args, **kwargs)
    finally:
        inclusive = time.perf_counter() - start
        self_s = inclusive - nested.pop()
        nested[-1] += inclusive
        record["stages"].append({"stage": name, "self_s": round(self_s, 4),
                                 "inclusive_s": round(inclusive, 4), "rss_mb": rss_mb()})

def counted_clustering(*args):
    local, closed, connected = clustering(*args)
    record["triangles"].append(closed // 3)  # closed counts each triangle once per corner
    return local, closed, connected

def counted_blocks(reach, *limits):
    blocks = list(row_blocks(reach, *limits))
    record["wedges"].append(int(reach[-1]))
    record["blocks"].append(len(blocks))
    return iter(blocks)

cli._stage, interaction.clustering, interaction.row_blocks = (
    timed_stage, counted_clustering, counted_blocks)
start = time.perf_counter()
code = cli.main(sys.argv[1:])
record["seconds"] = round(time.perf_counter() - start, 4)
record["peak_rss_mb"] = rss_mb()
print(json.dumps(record))
sys.exit(code)
"""


def commands(n: int) -> dict[str, list[str]]:
    """The three commands at n, with paths relative to the work directory."""
    labels = [arg for g in GROUPS for arg in ("--labels", f"synth/labels_{g}.txt")]
    return {
        "synth": ["synth", "--seed", "1", "--n-users", str(n), "--questions", QUESTIONS,
                  "--like-rate", repr(LIKE_RATE), "--mix", MIX, "--out", "synth"],
        "pipeline": ["pipeline", "--corpus", "synth/corpus.jsonl", *labels, "--out", "pipeline"],
        "crawl-sim": ["crawl-sim", "--corpus", "synth/corpus.jsonl",
                      "--seeds", f"u00001,u{12345 * n // 16000:05d}", "--budget", str(n // 4),
                      "--seed", "1", "--out", "crawl"],
    }


def run(n: int, argv: list[str], work: Path, samples: list[float]) -> dict:
    """Run one askgraph command in its own process, then a calibration
    window whose samples go to `samples`, and return its record."""
    child = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=work,
                           env=child_env(ROOT), stdout=subprocess.PIPE, text=True)
    samples += calibrate.window()
    if child.returncode != 0:
        raise SystemExit(f"scale: n={n} {argv[0]} failed (exit {child.returncode})")
    record = {"argv": argv, **json.loads(child.stdout.splitlines()[-1])}
    print(f"n={n} {argv[0]}: {record['seconds']:.1f} s, peak RSS {record['peak_rss_mb']:.0f} MB "
          f"({record['imports_rss_mb']:.0f} MB after imports)", file=sys.stderr, flush=True)
    return record


def tree_digest(work: Path) -> str:
    """perfbench's `tree_digest` of `work`, taken in a process of its own.
    A child started by vfork, as subprocess starts them, begins its
    `ru_maxrss` at this process's peak, which reading the outputs here would
    raise above a child's import floor."""
    code = "import sys, pathlib, run; print(run.tree_digest(pathlib.Path(sys.argv[1])))"
    child = subprocess.run([sys.executable, "-c", code, str(work)], cwd=ROOT / "perfbench",
                           stdout=subprocess.PIPE, text=True, check=True)
    return child.stdout.strip()


def sweep(n: int, samples: list[float]) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        records = {name: run(n, argv, work, samples) for name, argv in commands(n).items()}
        for name in ("crawl_order", "frontier"):
            lines = (work / "crawl" / f"{name}.txt").read_text().splitlines()
            records["crawl-sim"][name] = len(lines)
        digest = tree_digest(work)
    found = (digest, *records["pipeline"]["wedges"])
    pinned = PINNED.get(n)
    status = "unpinned" if pinned is None else "match" if found == pinned else "differs"
    print(f"n={n} digest, wedges {found} ({status})", file=sys.stderr, flush=True)
    if status == "differs":
        print(f"n={n} pinned {pinned}", file=sys.stderr, flush=True)
    return {"digest": digest, "pinned": status, "commands": records}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[16_000, 64_000, 256_000])
    args = parser.parse_args()
    machine = machine_record(ROOT)
    del machine["note"]  # perfbench's note on its own figures
    calibrate.sample()  # warm-up, dropped
    samples = calibrate.window()  # and one window after each command
    sizes = {str(n): sweep(n, samples) for n in args.sizes}
    scale = calibrate.scale(samples)
    for command in (c for size in sizes.values() for c in size["commands"].values()):
        command["ref_seconds"] = round(command["seconds"] * scale, 4)
        for stage in command["stages"]:
            stage["ref_self_s"] = round(stage["self_s"] * scale, 4)
            stage["ref_inclusive_s"] = round(stage["inclusive_s"] * scale, 4)
    calibration = {"samples": len(samples), "mean_sample_s": round(statistics.mean(samples), 5),
                   "ref_s": calibrate.REF_S, "scale": round(scale, 4)}
    record = {"machine": machine, "calibration": calibration, "sizes": sizes}
    print(json.dumps(record, indent=1))
    return int(any(size["pinned"] == "differs" for size in record["sizes"].values()))


if __name__ == "__main__":
    sys.exit(main())
