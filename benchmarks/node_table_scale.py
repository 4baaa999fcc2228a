"""Node-table scale: the time and memory of `interaction.node_table` on the
like graphs of seeded synth corpora.

For each n (16,000, 64,000 and 256,000 by default) it runs `synth --seed 1
--n-users n --questions 11-18 --like-rate 2.0 --mix HN:.1,HP:.2,PN:.2,OTHR:.5`,
builds the like graph as the `graph` command does, frees the corpus and
prints one row:

- `node_table` wall seconds, the best of 2 calls;
- the `tracemalloc` peak of a third call above where it starts, divided by
  the bytes of the graph's `src`, `dst` and `weights` arrays;
- the graph's edges, the upper-triangular matrix L's entries (undirected
  edges), the closing matrix M's entries (edges that close a triangle at
  their lowest and highest corner) and the row blocks of each of the
  triangle kernel's two products.

Run it from the repository root. The defaults take a few minutes and about
2 GB at n=256,000; CI runs `--sizes 2000` as a smoke test of the private
stages it wraps. `--work DIR` keeps each corpus in `DIR/n<N>/` and reuses it
on the next run:

    python3 benchmarks/node_table_scale.py [--sizes 16000 64000] [--work DIR]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from askgraph import interaction  # noqa: E402
from askgraph.cli import _Run, build_parser, main as askgraph  # noqa: E402

RECIPE = ["--seed", "1", "--questions", "11-18", "--like-rate", "2.0",
          "--mix", "HN:.1,HP:.2,PN:.2,OTHR:.5"]


def like_graph(n: int, work: Path) -> interaction.InteractionGraph:
    corpus = work / f"n{n}" / "corpus.jsonl"
    if not corpus.exists():
        argv = ["synth", *RECIPE, "--n-users", str(n), "--out", str(corpus.parent)]
        if askgraph(argv) != 0:
            raise SystemExit(f"synth n={n} failed")
    args = build_parser().parse_args(["graph", "--corpus", str(corpus), "--out", str(work)])
    return _Run(args).interaction  # the run, and with it the corpus, is freed here


def kernel_sizes(graph: interaction.InteractionGraph) -> tuple[str, str]:
    """nnz(M) and the block count of each product, from one more call with
    the kernel's private stages wrapped."""
    products, blocks = [], []
    masked_product, row_blocks = interaction._masked_product, interaction._row_blocks

    def counted_product(*args):
        products.append(masked_product(*args))
        return products[-1]

    def counted_blocks(work):
        ranges = list(row_blocks(work))
        blocks.append(len(ranges))
        return iter(ranges)

    interaction._masked_product, interaction._row_blocks = counted_product, counted_blocks
    try:
        interaction.node_table(graph)
    finally:
        interaction._masked_product, interaction._row_blocks = masked_product, row_blocks
    return str(products[0].nnz), "/".join(map(str, blocks))


def measure(graph: interaction.InteractionGraph) -> str:
    seconds = []
    for _ in range(2):
        start = time.perf_counter()
        table = interaction.node_table(graph)
        seconds.append(time.perf_counter() - start)
    del table
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = interaction.node_table(graph)
        transient = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    graph_bytes = graph.src.nbytes + graph.dst.nbytes + graph.weights.nbytes
    nnz_m, blocks = kernel_sizes(graph)
    return (f"{len(graph.nodes):>8} {min(seconds):>8.2f} {transient / 2**20:>9.1f} "
            f"{graph_bytes / 2**20:>9.1f} {transient / graph_bytes:>6.2f} {len(graph.src):>9} "
            f"{int(table.degree.sum()) // 2:>9} {nnz_m:>7} {blocks:>9}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[16_000, 64_000, 256_000])
    parser.add_argument("--work", type=Path, help="keep and reuse the synth corpora here")
    args = parser.parse_args()
    print(f"{'n':>8} {'seconds':>8} {'peak MiB':>9} {'graph MiB':>9} {'ratio':>6} "
          f"{'edges':>9} {'nnz(L)':>9} {'nnz(M)':>7} {'blocks':>9}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        for n in args.sizes:
            print(measure(like_graph(n, work)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
