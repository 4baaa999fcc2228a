"""Large-n digest gate: the 16,000-profile synth, pipeline and crawl outputs.

Runs `synth --seed 1 --n-users 16000 --questions 11-18 --like-rate 2.0
--mix HN:.1,HP:.2,PN:.2,OTHR:.5`, then `pipeline` over its corpus with the
four planted label files, and a `crawl-sim` of the same corpus from seeds
`u00001,u12345` with budget 4,000 (4,000 profiles crawled, 11,988 left in
the frontier). It compares the sha256 of the whole output tree (sorted
relative file names plus bytes, as perfbench digests its outputs) with the
digest pinned below. The goldens and the perfbench digests cover corpora
of at most 2,000 profiles; this one reaches the code paths that only run
at scale, such as a like graph of about 460,000 edges and a triangle
kernel that runs in hundreds of row blocks.

Each command runs in a fresh Python process, so its line gives its own
seconds and that process's peak RSS (`ru_maxrss`, which includes about
62 MB of interpreter, numpy and scipy). Run it from the repository root;
it takes about 10 s and exits 1 when a command fails or the digest differs:

    python3 benchmarks/large_digest.py
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from askgraph.segmentation import GROUPS  # noqa: E402

EXPECTED = "703daeb66a62728dce21adac80e3f32d90f269e9f26f35873dfd441e7216b063"

CRAWL = ["crawl-sim", "--seeds", "u00001,u12345", "--budget", "4000", "--seed", "1"]
SYNTH = ["synth", "--seed", "1", "--n-users", "16000", "--questions", "11-18",
         "--like-rate", "2.0", "--mix", "HN:.1,HP:.2,PN:.2,OTHR:.5"]

# one command in a fresh interpreter; its last stdout line is the command's
# seconds and the process's peak RSS in KiB
CHILD = """
import resource, sys, time
from askgraph.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


def tree_digest(path: Path) -> str:
    """sha256 over the sorted relative file names and their bytes."""
    h = hashlib.sha256()
    for rel, p in sorted((p.relative_to(path).as_posix(), p) for p in path.rglob("*")
                         if p.is_file()):
        data = p.read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def run(argv: list[str]) -> bool:
    """Run one askgraph command in its own process and print its line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    child = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                           stdout=subprocess.PIPE, text=True)
    if child.returncode != 0:
        print(f"{argv[0]} failed", file=sys.stderr)
        return False
    seconds, peak_kb = child.stdout.split()[-2:]
    print(f"{argv[0]}: {float(seconds):.1f} s, peak RSS {int(peak_kb) / 1024:.0f} MB", flush=True)
    return True


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        synth, out, crawl = work / "synth", work / "pipeline", work / "crawl"
        labels = [arg for group in GROUPS
                  for arg in ("--labels", str(synth / f"labels_{group}.txt"))]
        for argv in (SYNTH + ["--out", str(synth)],
                     ["pipeline", "--corpus", str(synth / "corpus.jsonl"), *labels,
                      "--out", str(out)],
                     CRAWL + ["--corpus", str(synth / "corpus.jsonl"), "--out", str(crawl)]):
            if not run(argv):
                return 1
        crawled = len((crawl / "crawl_order.txt").read_text().splitlines())
        stubs = len((crawl / "frontier.txt").read_text().splitlines())
        print(f"crawl-sim: {crawled} profiles crawled, {stubs} in the frontier")
        digest = tree_digest(work)
    print(f"digest {digest}")
    if digest != EXPECTED:
        print(f"expected {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
