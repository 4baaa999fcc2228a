"""Synthetic corpus generation with planted group structure, and a
snowball-crawl simulator over ground-truth corpora.

All randomness flows through a splitmix64 generator (state advance by the
golden-gamma constant, two xor-multiply finalizer rounds) so corpora are
reproducible bit-for-bit across platforms and implementations. Output i of
the stream is a pure function of seed + (i + 1) * gamma, so `draw_corpus`
draws as scalars only the counts that decide where later draws lie, and
computes every other draw from its stream position, in numpy passes. The
texts are drawn last, one block of users at a time in file order:
`corpus_lines` encodes each block as it is drawn, which is how `synth`
writes a corpus without holding its text.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring
from typing import Iterator

import numpy as np

from .corpus import Corpus, distinct, encode_profile, flat_ranges, offsets
from .segmentation import GROUPS

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# randbelow(m) rejects only outputs >= 2**64 - (2**64 % m), so for every
# modulus up to 2**32 an output below this is accepted
_SUSPECT = (1 << 64) - (1 << 32)
_CHUNK = 1 << 11  # runs of draws, or rows, handled per numpy pass: small temporaries


def _mix(seed: int, positions: np.ndarray) -> np.ndarray:
    """The stream's outputs at `positions` (uint64): the finalizer of the
    state seed + (position + 1) * gamma, mod 2**64 as numpy uint64 wraps."""
    z = positions.astype(np.uint64)
    z += np.uint64(1)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK64)
    z ^= z >> 30
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> 27
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> 31
    return z


def _below(seed: int, positions: np.ndarray, moduli) -> np.ndarray:
    """The outputs at `positions` mod `moduli`, as int64: randbelow's value
    where the output is not rejected."""
    return (_mix(seed, positions) % np.asarray(moduli, dtype=np.uint64)).astype(np.int64)


class SplitMix64:
    """Portable 64-bit RNG: splitmix64 state advance and finalizer.

    Outputs are computed in blocks by `_mix` into `out` and handed out as
    plain ints, `out[at]` next. Each block notes the stream positions of its
    outputs at or above `suspect`, by default `_SUSPECT`, below which a
    `randbelow` of a modulus up to 2**32 rejects nothing. Up to the next of
    those (`clean`), a caller may read draws from `out` directly, since no
    rejection can come between them."""

    _BLOCK = 4096

    def __init__(self, seed: int, suspect: int = _SUSPECT):
        self.seed = seed & _MASK64
        self.suspect = suspect
        self.out = array("Q")  # computed outputs from stream position `base` on
        self.base = 0
        self.at = 0  # index in `out` of the next output
        self._suspects: list[int] = []  # stream positions of suspect outputs, ascending

    def extend(self, count: int = 1) -> None:
        """Compute outputs until at least `count` are not yet drawn, dropping
        the drawn ones."""
        missing = count - (len(self.out) - self.at)
        if missing <= 0:
            return
        end = self.base + len(self.out)
        z = _mix(self.seed, np.arange(end, end + -(-missing // self._BLOCK) * self._BLOCK,
                                      dtype=np.uint64))
        self.base += self.at
        self._suspects = (self._suspects[bisect_left(self._suspects, self.base):]
                          + (np.flatnonzero(z >= self.suspect) + end).tolist())
        self.out = self.out[self.at:] + array("Q", z.tobytes())
        self.at = 0

    def clean(self) -> int:
        """The index in `out` of the next suspect output, or len(out)."""
        k = bisect_left(self._suspects, self.base + self.at)
        return self._suspects[k] - self.base if k < len(self._suspects) else len(self.out)

    def next_u64(self) -> int:
        if self.at == len(self.out):
            self.extend()
        self.at += 1
        return self.out[self.at - 1]

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("n must be positive")
        if n > 1 << 64:  # the rejection limit would be negative
            raise ValueError("n must be at most 2**64")
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


def _draws(seed: int, starts: np.ndarray, lengths: np.ndarray, moduli: np.ndarray,
           exact: list[int], step: int = 0) -> np.ndarray:
    """The randbelow values of runs of draws, flat in run order, as int64.

    Run r holds `lengths[r]` draws from stream position `starts[r]` on, its
    j-th being randbelow(moduli[r] - step * j). A run whose start is -1 was
    drawn one value at a time, and its values are the next ones in `exact`."""
    bounds = offsets(lengths)
    out = np.empty(int(bounds[-1]), dtype=np.int64)
    exact = np.array(exact, dtype=np.int64)
    used = 0
    for r in range(0, len(starts), _CHUNK):
        end = min(r + _CHUNK, len(starts))
        lo, hi = bounds[r], bounds[end]
        count = lengths[r:end]
        within = np.arange(hi - lo) - np.repeat(bounds[r:end] - lo, count)
        out[lo:hi] = _below(seed, np.repeat(starts[r:end], count) + within,
                            np.repeat(moduli[r:end], count) - step * within)
        drawn = lo + np.flatnonzero(np.repeat(starts[r:end] < 0, count))
        out[drawn] = exact[used:used + len(drawn)]
        used += len(drawn)
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
        if hi - lo >= 1 << 64:
            raise ValueError("questions_per_user range must hold at most 2**64 counts")
        if not self.like_rate >= 0:  # NaN included
            raise ValueError("like_rate must be nonnegative")
        if self.like_rate == float("inf"):
            raise ValueError("like_rate must be finite")
        if round(2 * self.like_rate) >= 1 << 64:
            raise ValueError("like_rate's like-count modulus round(2 * like_rate) + 1 must be "
                             "at most 2**64")
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


@dataclass(frozen=True)
class Draws:
    """What `draw_corpus` draws of a synthetic corpus before its texts: its
    users' ids and planted group codes, in draw order, the draw positions
    `_walk` notes, and each question's like count and likers (flat, indices
    into the users), in draw order."""

    seed: int
    vocabs: tuple[tuple[str, ...], ...]  # the word picks' kinds 0, 1, 2
    ids: list[str]
    planted: np.ndarray
    walk: _Walk
    like_count: np.ndarray
    liker: np.ndarray

    def planted_codes(self) -> tuple[list[str], np.ndarray]:
        """The user ids, sorted, and each one's planted group code."""
        users = sorted(range(len(self.ids)), key=self.ids.__getitem__)
        return [self.ids[u] for u in users], self.planted[users]


def draw_corpus(params: GenParams) -> Draws:
    """The draws of the corpus `params` describe, all but its texts.

    Each user draws, in order: a question count, its negative and positive
    question counts, then each question's text (negative, positive, then
    neutral ones: a count of filler words, the filler picks, and for a
    tagged text a count of vocabulary words and their picks), then for each
    question a like count and that many distinct likers other than itself.
    `_walk` draws the counts and notes where each text and each question's
    likes start; the likes are computed from those positions here, and the
    texts by `_blocks`, block by block.
    """
    params.validate()
    counts = quota_counts(params.group_mix, params.n_users)
    planted = np.repeat(np.arange(len(GROUPS)), [counts[g] for g in GROUPS])  # in draw order
    vocab_taboo = set(params.neg_vocab) | set(params.pos_vocab)
    filler = tuple(w for w in _FILLER if w not in vocab_taboo)
    vocabs = (filler, params.neg_vocab, params.pos_vocab)
    walk = _walk(params, planted, [len(v) for v in vocabs])
    like_count, liker = _likes(params.rng_seed, walk)
    return Draws(params.rng_seed, vocabs, [f"u{i:05d}" for i in range(params.n_users)], planted,
                 walk, like_count, liker)


def corpus_lines(draws: Draws) -> Iterator[str]:
    """Each profile's line of the corpus file, without its line end, in
    draw order, which is file order: the user's questions by descending
    like count, ties in draw order, each with an empty answer. Each block
    of `_blocks` is encoded by `encode_profile` as soon as it is drawn, so
    no list holds more than one block's texts."""
    names = np.array(list(map(encode_basestring, draws.ids)), dtype=object)
    for users, n_rows, texts, like_count, liker in _blocks(draws):
        # one iterator over the block's likers, which each profile advances
        likes, likers, row = like_count.tolist(), iter(names[liker].tolist()), 0
        for user, n in zip(users.tolist(), n_rows.tolist()):
            yield encode_profile(names[user], True, map(encode_basestring, texts[row:row + n]),
                                 repeat('""', n), likes[row:row + n], likes[row:row + n], likers)
            row += n


@dataclass(frozen=True)
class _Walk:
    """What `_walk` notes, in draw order. The texts and likes of a user
    drawn one value at a time have position -1, and their values are noted
    instead: a text's by its index, a question's likes listed."""

    n_rows: np.ndarray  # per user: its question count
    n_neg: np.ndarray  # per user: its negative questions, which come first
    n_pos: np.ndarray  # per user: its positive questions, which come next
    text_at: np.ndarray  # per text: the stream position of its first count draw
    text_exact: dict[int, tuple[list[int], list[int]]]  # per text at -1: its word picks
    like_span: int  # the like-count modulus, or 0 if no like count is drawn
    like_at: np.ndarray  # per question, if like_span: the position of its like-count draw
    like_exact: list[int]  # like counts of the questions at -1
    liker_exact: list[int]  # their liker draws


def _walk(params: GenParams, planted: np.ndarray, modulus: list[int]) -> _Walk:
    """Walk the stream in draw order, drawing every count as a scalar.

    Once its question counts are drawn, a user whose texts and likes can
    reach no suspect output is read straight from the computed outputs:
    only the position of each text and each question's likes is noted,
    since their counts and picks follow from it. Any other user's texts
    and likes are drawn one value at a time with `randint` and
    `randbelow`, which step past a rejected output, and their counts and
    values are noted instead."""
    lo, hi = params.questions_per_user
    n_others = params.n_users - 1
    drawn_likes = max(0, round(2 * params.like_rate))
    like_span = drawn_likes + 1 if drawn_likes and n_others else 0  # the like-count modulus
    max_likes = min(drawn_likes, n_others)  # a question's most likers
    # no output below this is rejected by any modulus the walk draws from:
    # the ones that grow with the params, and the fixed ones (at most 5),
    # which `_SUSPECT` covers
    rng = SplitMix64(params.rng_seed,
                     min(_SUSPECT, (1 << 64) - max(hi - lo + 1, like_span, n_others, *modulus)))
    randint, randbelow = rng.randint, rng.randbelow
    n_rows, n_negs, n_poss = array("q"), array("q"), array("q")
    text_at, like_at = array("q"), array("q")
    text_exact: dict[int, tuple[list[int], list[int]]] = {}
    like_exact: list[int] = []
    liker_exact: list[int] = []

    def exact_picks(least: int, most: int, kind: int) -> list[int]:
        return [randbelow(modulus[kind]) for _ in range(randint(least, most))]

    for label in map(GROUPS.__getitem__, planted.tolist()):
        n_q = max(randint(lo, hi), _MIN_QUESTIONS[label])
        n_neg, n_pos = _question_counts(label, n_q, rng)
        n_rows.append(n_q)
        n_negs.append(n_neg)
        n_poss.append(n_pos)
        # room for all the user's draws: a text takes at most 9 (a neutral
        # one 7) and a question's likes at most 1 + max_likes
        reach = n_q * (10 + max_likes)
        rng.extend(reach)
        if rng.clean() - rng.at < reach:  # a suspect output within reach
            for t in range(n_q):
                text_exact[len(text_at)] = (
                    (exact_picks(2, 5, 0), exact_picks(1, 2, 1 if t < n_neg else 2))
                    if t < n_neg + n_pos else (exact_picks(3, 6, 0), []))
                text_at.append(-1)
            for _ in range(n_q if like_span else 0):
                k = min(randint(0, drawn_likes), n_others)
                liker_exact.extend([randbelow(n_others - j) for j in range(k)])
                like_exact.append(k)
                like_at.append(-1)
            continue
        out, base, i = rng.out, rng.base, rng.at
        for _ in range(n_neg + n_pos):
            text_at.append(base + i)
            i += 3 + out[i] % 4
            i += 2 + out[i] % 2
        for _ in range(n_q - n_neg - n_pos):
            text_at.append(base + i)
            i += 4 + out[i] % 4
        for _ in range(n_q if like_span else 0):
            like_at.append(base + i)
            k = out[i] % like_span
            i += 1 + (k if k < n_others else n_others)  # min() costs more
        rng.at = i
    n_rows, n_negs, n_poss, text_at, like_at = (
        np.frombuffer(a, dtype=np.int64) for a in (n_rows, n_negs, n_poss, text_at, like_at))
    return _Walk(n_rows, n_negs, n_poss, text_at, text_exact, like_span, like_at, like_exact,
                 liker_exact)


def _blocks(draws: Draws) -> Iterator[tuple[np.ndarray, np.ndarray, list[str], np.ndarray,
                                            np.ndarray]]:
    """The questions block by block, in draw order, a block being the users
    whose first rows fall in one `_CHUNK` of rows: per block, its users,
    their question counts, and their questions' texts, like counts and
    likers (flat, indices into the users), each user's questions by
    descending like count, ties in draw order. A block's rows are ordered,
    its texts drawn and joined in that order and its likers moved, so no
    temporary holds more than one block's words or likers."""
    walk, like_count, liker = draws.walk, draws.like_count, draws.liker
    first_row = offsets(walk.n_rows)  # per user
    first_liker = offsets(like_count)  # per row
    # a block starts at each user whose first row starts a new `_CHUNK` of rows
    cuts = np.flatnonzero(np.diff(first_row[:-1] // _CHUNK)) + 1
    for users, count in zip(np.split(np.arange(len(walk.n_rows)), cuts),
                            np.split(walk.n_rows, cuts)):
        rows = flat_ranges(first_row[users], count)
        kind = np.repeat(np.tile([1, 2, 0], len(users)),  # 0 neutral, 1 negative, 2 positive
                         np.column_stack((walk.n_neg[users], walk.n_pos[users],
                                          count - walk.n_neg[users] - walk.n_pos[users])).ravel())
        by_likes = np.lexsort((-like_count[rows], np.repeat(np.arange(len(users)), count)))
        rows, kind = rows[by_likes], kind[by_likes]
        yield (users, count, _texts(draws.seed, draws.vocabs, walk, rows, kind), like_count[rows],
               liker[flat_ranges(first_liker[rows], like_count[rows])])


def _texts(seed: int, vocabs: tuple[tuple[str, ...], ...], walk: _Walk, rows: np.ndarray,
           kind: np.ndarray) -> list[str]:
    """The texts of `rows`, of `kind` each (0 neutral, 1 negative, 2
    positive): a text's filler picks from the position after its first
    count draw, then for a tagged text its vocabulary picks from the one
    after its second."""
    at = walk.text_at[rows]
    n_filler = np.where(kind == 0, 3, 2) + _below(seed, at, 4)
    vocab_at = at + 1 + n_filler
    n_vocab = np.where(kind == 0, 0, 1 + _below(seed, vocab_at, 2))
    starts = np.column_stack((at + 1, vocab_at + 1))  # two runs per text, the second maybe empty
    counts = np.column_stack((n_filler, n_vocab))
    exact = [walk.text_exact[r] for r in rows[at < 0].tolist()]
    starts[at < 0] = -1
    counts[at < 0] = np.reshape([(len(f), len(v)) for f, v in exact], (-1, 2))
    kinds = np.column_stack((np.zeros_like(kind), kind)).ravel()
    modulus = np.array([len(v) for v in vocabs])
    ids = _draws(seed, starts.ravel(), counts.ravel(), modulus[kinds],
                 [pick for f, v in exact for pick in f + v])
    ids += np.repeat(np.cumsum([0, *modulus[:-1]])[kinds], counts.ravel())  # the kind's first id
    return _join(sum(vocabs, ()), ids, counts.sum(axis=1))


def _join(words: tuple[str, ...], ids: np.ndarray, n_words: np.ndarray) -> list[str]:
    """The texts of `n_words` (each at least 1) consecutive word ids each,
    their words joined by spaces: all joined as one string, which is cut
    at the texts' ends."""
    width = np.array([len(w) + 1 for w in words])  # a word and the space after it
    line = " ".join(np.array(words, dtype=object)[ids].tolist())
    stops = np.cumsum(width[ids])[np.cumsum(n_words) - 1]
    starts = np.concatenate(([0], stops[:-1]))
    return list(map(line.__getitem__, map(slice, starts.tolist(), (stops - 1).tolist())))


def _likes(seed: int, walk: _Walk) -> tuple[np.ndarray, np.ndarray]:
    """Each question's like count and likers (flat, indices into the users):
    its liker draws follow its like-count draw."""
    n_others, at = len(walk.n_rows) - 1, walk.like_at
    if not walk.like_span:
        return np.zeros(int(walk.n_rows.sum()), dtype=np.int64), np.zeros(0, dtype=np.int32)
    like_count = np.minimum(_below(seed, at, walk.like_span), n_others)
    like_count[at < 0] = walk.like_exact
    draws = _draws(seed, np.where(at < 0, -1, at + 1), like_count,
                   np.full(len(at), n_others), walk.liker_exact, step=1)
    return like_count, _likers(walk.n_rows, like_count, draws)


def _likers(n_rows: np.ndarray, like_count: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Each question's likers, flat: its j-th draw is the position among
    the users other than its owner and its first j likers, mapped to the
    user's index by stepping past those, in ascending order, one column j
    at a time across all questions. `n_rows` gives each user's questions,
    in order. Only the questions with a like have a row of `taken`."""
    n_with = np.bincount(like_count, minlength=1)[::-1].cumsum()[::-1]  # [j]: count >= j
    liked = np.flatnonzero(like_count)
    by_count = liked[np.argsort(-like_count[liked], kind="stable")]  # a j-th liker's come first
    first = offsets(like_count)[by_count]
    taken = np.empty((len(liked), len(n_with)), dtype=np.int32)
    taken[:, 0] = np.searchsorted(offsets(n_rows), by_count, side="right") - 1  # the owners
    del liked, by_count
    liker = np.empty(len(draws), dtype=np.int32)
    for j in range(1, len(n_with)):
        rows = int(n_with[j])
        at = first[:rows] + (j - 1)
        index = draws[at]
        for column in taken[:rows, :j].T:  # each row ascending
            index += column <= index
        liker[at] = index
        taken[:rows, j] = index
        taken[:rows, :j + 1].sort(axis=1)
    return liker


def snowball_sample(ground_truth: Corpus, seeds: list[str],
                    budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first crawl over the likers-of-my-questions relation.

    Crawling a node reveals its full profile (all questions with complete
    liker lists). The crawl stops when `budget` nodes are crawled or the
    frontier empties; the frontier is the profiles found but not crawled.
    Each BFS level is visited in UserId order. Returns the crawl order and
    the sorted frontier, as int64 positions in `ground_truth.owners`: the
    sample is written from them by `CorpusFile.lines`, the crawled profiles
    as they are and the frontier as empty stubs flagged not fully sampled.
    Only the flag, row-range and liker columns are read, so a corpus over
    any vocabulary, such as a `CorpusFile`'s first pass, crawls alike.

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
    open_ids = distinct(gt.liker[~np.pad(gt.sampled, (0, len(gt.strangers)))[gt.liker]])
    if len(open_ids):
        first = min((gt.owners + gt.strangers)[i] for i in open_ids.tolist())
        raise ValueError(f"ground truth is not closed: liker {first!r} is not a fully sampled "
                         "profile")

    # where each profile's likers start and end: its rows are contiguous, so
    # their likers are too; ids are sorted, so index order is UserId order
    lo, hi = gt.liker_ptr[gt.first_row], gt.liker_ptr[gt.first_row + gt.n_rows]
    enqueued = np.zeros(n, dtype=bool)
    enqueued[starts] = True
    level, crawl = distinct(np.array(starts)), []
    while len(crawl) < budget and len(level):
        level = level[: budget - len(crawl)].tolist()
        crawl += level
        found = distinct(np.concatenate([gt.liker[lo[v]:hi[v]] for v in level]))
        level = found[~enqueued[found]]
        enqueued[level] = True
    enqueued[crawl] = False  # what is left enqueued is the frontier
    return np.array(crawl, dtype=np.int64), np.flatnonzero(enqueued)
