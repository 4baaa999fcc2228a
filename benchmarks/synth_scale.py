"""Synth scale: the time and memory of `synth.generate_corpus` and
`corpus.save_corpus` on seeded synthetic corpora.

For each n (16,000, 64,000 and 256,000 by default) it runs the stages of
`synth --seed 1 --n-users n --questions 11-18 --like-rate 2.0 --mix
HN:.1,HP:.2,PN:.2,OTHR:.5` and prints one row:

- `generate_corpus` and `save_corpus` wall seconds, one call each;
- the `tracemalloc` peak of one more call of each, above where it starts
  (the corpus a save writes is not counted);
- the corpus's questions and likes, and the sha256 of `corpus.jsonl`.

Run it from the repository root. The defaults take a few minutes and about
2 GB at n=256,000. `--questions` sets the questions per profile (as the
`synth` flag does), and `--expect SHA` exits 1 unless the last corpus's
sha256 is SHA. CI runs `--sizes 2000 --questions 5-20` against the corpus
`TestPinnedBytes` pins (synth's defaults, seed 1, n=2000):

    python3 benchmarks/synth_scale.py [--sizes 16000 64000] [--questions 5-20] [--expect SHA]
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from askgraph.cli import _Run, build_parser  # noqa: E402
from askgraph.corpus import save_corpus  # noqa: E402


def synth_run(n: int, questions: str, out: Path) -> _Run:
    """The `synth` run of the recipe at `n`, its lexicons loaded."""
    args = build_parser().parse_args([
        "synth", "--seed", "1", "--n-users", str(n), "--questions", questions,
        "--like-rate", "2.0", "--mix", "HN:.1,HP:.2,PN:.2,OTHR:.5", "--out", str(out)])
    run = _Run(args)
    run.lexicons  # read before the generator is timed
    return run


def peak(stage) -> float:
    """The `tracemalloc` peak of `stage()` above where it starts, in MiB;
    what it returns is dropped before tracing stops."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stage()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()


def measure(n: int, questions: str, work: Path) -> tuple[str, str]:
    path = work / "corpus.jsonl"
    start = time.perf_counter()
    corpus, _ = synth_run(n, questions, work).synthetic
    generate_s = time.perf_counter() - start
    start = time.perf_counter()
    save_corpus(corpus, path)
    save_s = time.perf_counter() - start
    save_peak = peak(lambda: save_corpus(corpus, path))
    n_questions, n_likes = len(corpus.texts), int(corpus.like_count.sum())
    del corpus
    run = synth_run(n, questions, work)
    generate_peak = peak(lambda: run.synthetic)
    del run
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return (f"{n:>8} {generate_s:>8.2f} {generate_peak:>9.1f} {save_s:>8.2f} {save_peak:>9.1f} "
            f"{n_questions:>10} {n_likes:>10}  {digest}"), digest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[16_000, 64_000, 256_000])
    parser.add_argument("--questions", default="11-18", help="questions per profile")
    parser.add_argument("--expect", help="the sha256 the last corpus must have")
    args = parser.parse_args()
    print(f"{'n':>8} {'gen s':>8} {'gen MiB':>9} {'save s':>8} {'save MiB':>9} "
          f"{'questions':>10} {'likes':>10}  sha256 of corpus.jsonl", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            row, digest = measure(n, args.questions, Path(tmp))
            print(row, flush=True)
    if args.expect is not None and digest != args.expect:
        print(f"synth_scale: corpus sha256 {digest} is not the expected {args.expect}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
