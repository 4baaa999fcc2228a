"""A fixed reference task that measures how fast the machine runs right now.

On a shared host the speed of plain Python code drifts by tens of percent
over minutes, so wall times taken a few minutes apart are not comparable.
The benchmark runs `sample()` in a window after each of its child processes
and scales its wall times by REF_S / (mean sample time of the whole run).
The scaled time is the time the program would have taken on a machine where
one sample takes REF_S: it moves with the program's speed and much less with
the machine's.

The scale uses the mean, not the median. The host flips between a fast and
a slow state every few seconds; a wall time adds up the states it ran
through, and so does a mean over many samples, while a median jumps from one
state to the other when the share of time spent in each is near one half.
One window is too few samples to beat that jitter, so each run is scaled by
all of its windows, not each child by the windows next to it.

The task mirrors what askgraph spends its time on: regex tokenizing of short
texts, dict counting, set-membership loops over neighbour sets (as in local
clustering), sorting and JSON/CSV-style formatting. It runs in the benchmark
process, never at the same time as a child, and it uses nothing from
`src/`, so no change to the program can move it.
"""

from __future__ import annotations

import functools
import json
import random
import re
import statistics
import time

# Mean sample time on the reference machine (2-core shared VM, Python 3.11).
REF_S = 0.040
SAMPLES_PER_WINDOW = 5

_TOKEN_RE = re.compile(r"[^\W_]+(?:['*][^\W_]*)*")


@functools.lru_cache(maxsize=1)
def _inputs() -> tuple[list[str], dict[int, set[int]]]:
    rng = random.Random(1404)
    words = ["".join(rng.choice("abcdefghijklmnop") for _ in range(rng.randint(2, 9)))
             for _ in range(3000)]
    texts = [" ".join(rng.choice(words) for _ in range(rng.randint(6, 16))).capitalize() + "?"
             for _ in range(2500)]
    neighbors = {u: set(rng.sample(range(1200), 10)) for u in range(1200)}
    return texts, neighbors


def sample() -> float:
    """Run the reference task once; return its wall time in seconds."""
    texts, neighbors = _inputs()
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for text in texts:
        for token in _TOKEN_RE.findall(text.lower()):
            counts[token] = counts.get(token, 0) + 1
    links = 0
    for nbrs in neighbors.values():
        nbr_list = list(nbrs)
        for a in range(len(nbr_list)):
            na = neighbors[nbr_list[a]]
            for b in range(a + 1, len(nbr_list)):
                links += nbr_list[b] in na
    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    text = "\n".join(f"{word},{n},{n / len(rows):.6f}" for word, n in rows)
    json.loads(json.dumps({"rows": rows, "links": links, "bytes": len(text)}))
    return time.perf_counter() - start


def window() -> list[float]:
    """SAMPLES_PER_WINDOW samples taken back to back."""
    return [sample() for _ in range(SAMPLES_PER_WINDOW)]


def scale(samples: list[float]) -> float:
    """The factor that turns wall seconds measured in the same stretch of time
    as `samples` into reference seconds."""
    return REF_S / statistics.mean(samples)
