"""Synthetic corpus generation with planted group structure, and a
snowball-crawl simulator over ground-truth corpora.

All randomness flows through a splitmix64 generator (state advance by the
golden-gamma constant, two xor-multiply finalizer rounds) so corpora are
reproducible bit-for-bit across platforms and implementations.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .segmentation import GROUPS

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Portable 64-bit RNG: splitmix64 state advance and finalizer.

    The i-th output is mix(seed + i * gamma) mod 2**64, so outputs are
    computed in blocks with numpy uint64 arithmetic (which wraps mod 2**64)
    and handed out as plain ints."""

    _BLOCK = 4096
    _STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)

    def __init__(self, seed: int):
        self._state = seed & _MASK64  # state after the last buffered output
        self._buf: list[int] = []  # buffered outputs, next one last

    def _refill(self) -> None:
        z = self._STEPS + np.uint64(self._state)
        z ^= z >> 30
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> 27
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> 31
        self._buf = z[::-1].tolist()
        self._state = (self._state + self._BLOCK * _GAMMA) & _MASK64

    def next_u64(self) -> int:
        try:
            return self._buf.pop()
        except IndexError:
            self._refill()
            return self._buf.pop()

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            r = self.next_u64()
            if r <= limit:
                return r % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.randbelow(hi - lo + 1)

    def sample(self, population: Sequence, k: int, skip: int | None = None) -> list:
        """k distinct elements, order of draw preserved, leaving out the
        element at index `skip` if one is given.

        Each draw is the position among the elements still available, as if
        they were copied into a list and popped; it is mapped to its index
        by stepping past the sorted indices already taken. O(k^2)."""
        taken = [] if skip is None else [skip]
        if k > len(population) - len(taken):
            raise ValueError("sample larger than population")
        out = []
        for _ in range(k):
            idx = self.randbelow(len(population) - len(taken))
            for t in taken:
                if t > idx:
                    break
                idx += 1
            insort(taken, idx)
            out.append(population[idx])
        return out


# minimum questions needed to realize each planted label
_MIN_QUESTIONS = {"HN": 3, "HP": 11, "PN": 8, "OTHR": 0}

_FILLER = (
    "how", "was", "your", "day", "today", "what", "do", "you", "think",
    "about", "school", "music", "movie", "game", "weather", "weekend",
    "favorite", "color", "food", "book", "team", "song", "show", "place",
    "time", "really", "tell", "me", "more", "why", "when", "where",
)


@dataclass(frozen=True)
class GenParams:
    n_users: int
    group_mix: dict[str, float]
    questions_per_user: tuple[int, int]  # inclusive range; fixed = (k, k)
    like_rate: float
    neg_vocab: tuple[str, ...]
    pos_vocab: tuple[str, ...]
    rng_seed: int

    def validate(self) -> None:
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if set(self.group_mix) - set(GROUPS):
            raise ValueError(f"unknown groups in mix: {set(self.group_mix) - set(GROUPS)}")
        if abs(sum(self.group_mix.values()) - 1.0) > 1e-12:
            raise ValueError("group mix must sum to 1")
        if any(not f >= 0 for f in self.group_mix.values()):  # NaN included
            raise ValueError("group mix fractions must be nonnegative")
        lo, hi = self.questions_per_user
        if lo < 0 or hi < lo:
            raise ValueError("invalid questions_per_user range")
        if not self.like_rate >= 0:  # NaN included
            raise ValueError("like_rate must be nonnegative")
        if self.like_rate == float("inf"):
            raise ValueError("like_rate must be finite")
        for group, needed in _MIN_QUESTIONS.items():
            if self.group_mix.get(group, 0.0) > 0 and hi < needed:
                raise ValueError(
                    f"infeasible params: group {group} needs at least {needed} "
                    f"questions per user but questions_per_user max is {hi}"
                )
        if not self.neg_vocab and any(
            self.group_mix.get(g, 0.0) > 0 for g in ("HN", "PN")
        ):
            raise ValueError("neg_vocab required when HN or PN fraction > 0")
        if not self.pos_vocab and any(
            self.group_mix.get(g, 0.0) > 0 for g in ("HP", "PN")
        ):
            raise ValueError("pos_vocab required when HP or PN fraction > 0")


def quota_counts(mix: dict[str, float], n: int) -> dict[str, int]:
    """Largest-remainder allocation of n users to groups; deterministic."""
    floors = {g: int(mix.get(g, 0.0) * n) for g in GROUPS}
    remainder = n - sum(floors.values())
    fractional = sorted(
        GROUPS,
        key=lambda g: (-(mix.get(g, 0.0) * n - floors[g]), GROUPS.index(g)),
    )
    for g in fractional[:remainder]:
        floors[g] += 1
    return floors


def _question_counts(label: str, n_q: int, rng: SplitMix64) -> tuple[int, int]:
    """Pick (n_neg, n_pos) question counts realizing the planted label."""
    if label == "HN":
        return rng.randint(3, max(3, min(n_q, 6))), 0
    if label == "PN":
        neg = rng.randint(3, max(3, min(n_q - 5, 5)))
        pos = rng.randint(5, max(5, min(n_q - neg, 9)))
        return neg, pos
    if label == "HP":
        pos = rng.randint(11, max(11, min(n_q, 14)))
        neg = rng.randint(0, min(2, n_q - pos))
        return neg, pos
    # OTHR: neg <= 2 and pos <= 10 falls through every predicate
    neg = rng.randint(0, min(2, n_q))
    pos = rng.randint(0, min(4, n_q - neg))
    return neg, pos


def _make_text(vocab: tuple[str, ...], filler: tuple[str, ...], rng: SplitMix64) -> str:
    words = [filler[rng.randbelow(len(filler))] for _ in range(rng.randint(2, 5))]
    for _ in range(rng.randint(1, 2)):
        words.append(vocab[rng.randbelow(len(vocab))])
    return " ".join(words)


def _neutral_text(filler: tuple[str, ...], rng: SplitMix64) -> str:
    return " ".join(filler[rng.randbelow(len(filler))] for _ in range(rng.randint(3, 6)))


def generate_corpus(params: GenParams) -> tuple[Corpus, dict[str, str]]:
    """Deterministically generate a corpus whose users classify exactly to
    their planted group labels.

    Returns the corpus and the planted label per user. Group sizes follow
    largest-remainder quotas, not sampling.
    """
    params.validate()
    rng = SplitMix64(params.rng_seed)
    counts = quota_counts(params.group_mix, params.n_users)
    labels: dict[str, str] = {}
    user_ids = [f"u{i:05d}" for i in range(params.n_users)]
    i = 0
    for group in GROUPS:
        for _ in range(counts[group]):
            labels[user_ids[i]] = group
            i += 1

    vocab_taboo = set(params.neg_vocab) | set(params.pos_vocab)
    filler = tuple(w for w in _FILLER if w not in vocab_taboo)
    lo, hi = params.questions_per_user
    max_likes = max(0, round(2 * params.like_rate))

    texts, n_rows, like_count, liker_code = [], [], [], []
    population = range(params.n_users)
    n_others = params.n_users - 1
    for pos, owner in enumerate(user_ids):
        label = labels[owner]
        n_q = max(rng.randint(lo, hi), _MIN_QUESTIONS[label])
        n_neg, n_pos = _question_counts(label, n_q, rng)
        texts += (
            [_make_text(params.neg_vocab, filler, rng) for _ in range(n_neg)]
            + [_make_text(params.pos_vocab, filler, rng) for _ in range(n_pos)]
            + [_neutral_text(filler, rng) for _ in range(n_q - n_neg - n_pos)]
        )
        for _ in range(n_q):
            n_likes = rng.randint(0, max_likes) if max_likes and n_others else 0
            likers = rng.sample(population, min(n_likes, n_others), skip=pos)
            like_count.append(len(likers))
            liker_code += likers
        n_rows.append(n_q)
    corpus = Corpus.from_rows(user_ids, population, [True] * len(population),
                              np.repeat(population, n_rows), texts, [""] * len(texts),
                              like_count, like_count, liker_code)
    return corpus, labels


def snowball_sample(ground_truth: Corpus, seeds: list[str], budget: int) -> Corpus:
    """Breadth-first crawl over the likers-of-my-questions relation.

    Crawling a node reveals its full profile (all questions with complete
    liker lists). The crawl stops when `budget` nodes are crawled or the
    frontier empties. Frontier nodes are included as empty stub profiles
    flagged not fully sampled. Each BFS level is visited in UserId order.
    The sample's `order` lists the crawled profiles in crawl order, then
    the frontier sorted, and `sampled` tells the two apart.

    The ground truth must be closed: a liker that is not a fully sampled
    profile raises ValueError, naming the first such id in sorted order.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not seeds:
        raise ValueError("a crawl needs at least one seed user")
    gt, n = ground_truth, len(ground_truth)
    starts = [bisect_left(gt.owners, seed) for seed in seeds]
    for seed, k in zip(seeds, starts):
        if k == n or gt.owners[k] != seed:
            raise ValueError(f"seed {seed!r} not in ground truth")
        if gt.total_likes[k] == 0:
            raise ValueError(f"seed {seed!r} has zero liked questions")
        if not gt.sampled[k]:
            raise ValueError(f"seed {seed!r} is not a fully sampled profile")
    # crawling a profile reveals its likers' profiles, so each must be fully sampled
    open_ids = np.unique(gt.liker[~np.pad(gt.sampled, (0, len(gt.strangers)))[gt.liker]])
    if len(open_ids):
        first = min((gt.owners + gt.strangers)[i] for i in open_ids.tolist())
        raise ValueError(f"ground truth is not closed: liker {first!r} is not a fully sampled "
                         "profile")

    # where each profile's likers start; ids are sorted, so index order is
    # UserId order
    likers = gt.liker_ptr[np.searchsorted(gt.owner, range(n + 1))]
    enqueued = np.zeros(n, dtype=bool)
    enqueued[starts] = True
    level, crawl = np.unique(starts), []
    while len(crawl) < budget and len(level):
        level = level[: budget - len(crawl)].tolist()
        crawl += level
        found = np.unique(np.concatenate([gt.liker[likers[v]:likers[v + 1]] for v in level]))
        level = found[~enqueued[found]]
        enqueued[level] = True

    crawled = np.isin(np.arange(n), crawl)
    frontier = np.flatnonzero(enqueued & ~crawled).tolist()
    local = np.cumsum(enqueued) - 1  # each enqueued profile's position in the sample
    keep = crawled[gt.owner]  # the crawled profiles' rows
    rows = np.flatnonzero(keep).tolist()
    return Corpus.from_rows(
        [gt.owners[v] for v in np.flatnonzero(enqueued).tolist()], local[crawl + frontier],
        [True] * len(crawl) + [False] * len(frontier), local[gt.owner[keep]],
        [gt.texts[r] for r in rows], [gt.answers[r] for r in rows], gt.like_count[keep],
        np.diff(gt.liker_ptr)[keep], local[gt.liker[np.repeat(keep, np.diff(gt.liker_ptr))]],
    )
