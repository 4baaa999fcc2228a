import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from askgraph import synth
from askgraph.cli import main
from askgraph.corpus import Corpus, content_table, load_corpus, load_lexicon, save_corpus
from askgraph.data import bundled_lexicon_path
from askgraph.segmentation import GROUPS, classify_corpus
from askgraph.synth import (
    GenParams,
    SplitMix64,
    generate_corpus,
    quota_counts,
    snowball_sample,
)
from helpers import (
    corpus_records, crawl_order, frontier, sample, saved_crawl, scalar_corpus, tagged,
    vocab_word_set,
)

NEG_VOCAB = ("ugly", "hate", "stupid", "fat")
POS_VOCAB = ("nice", "sweet", "lovely", "cool")


def params(**overrides):
    base = dict(
        n_users=40,
        group_mix={"HN": 0.25, "HP": 0.25, "PN": 0.25, "OTHR": 0.25},
        questions_per_user=(11, 20),
        like_rate=2.0,
        neg_vocab=NEG_VOCAB,
        pos_vocab=POS_VOCAB,
        rng_seed=12345,
    )
    base.update(overrides)
    return GenParams(**base)


def corpus_bytes(corpus):
    import tempfile, pathlib
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d) / "c.jsonl"
        save_corpus(corpus, path)
        return path.read_bytes()


class TestSplitMix64:
    def test_reference_vector_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_randint_bounds(self):
        rng = SplitMix64(99)
        draws = [rng.randint(3, 7) for _ in range(200)]
        assert set(draws) == {3, 4, 5, 6, 7}

    def test_sample_distinct(self):
        rng = SplitMix64(5)
        pop = [f"x{i}" for i in range(20)]
        out = sample(rng, pop, 10)
        assert len(set(out)) == 10

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**64 + 5])
    def test_block_stream_matches_scalar_splitmix64(self, seed):
        # 10,000 draws cross two block boundaries
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(10_000)] == scalar_splitmix64(seed, 10_000)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 40),
        data=st.data(),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_sample_matches_copy_and_pop(self, n, data, seed):
        skip = data.draw(st.one_of(st.none(), st.integers(0, n - 1)) if n else st.none())
        k = data.draw(st.integers(0, n - (skip is not None)))
        pop = [f"x{i}" for i in range(n)]
        new, old = SplitMix64(seed), SplitMix64(seed)
        assert sample(new, pop, k, skip) == copy_and_pop_sample(old, pop, k, skip)
        assert new.next_u64() == old.next_u64()

    @pytest.mark.parametrize("n", [(1 << 64) + 1, 1 << 65])
    def test_randbelow_past_2_64_rejected(self, monkeypatch, n):
        # past 2**64 no output is below the rejection limit: without the
        # check, randbelow would draw forever
        rng, drawn = SplitMix64(1), []

        def next_u64():
            if len(drawn) == 3:
                raise RuntimeError("randbelow kept drawing")
            drawn.append(0)
            return 0

        monkeypatch.setattr(rng, "next_u64", next_u64)
        with pytest.raises(ValueError, match=r"^n must be at most 2\*\*64$"):
            rng.randbelow(n)
        assert SplitMix64(7).randbelow(1 << 64) == SplitMix64(7).next_u64()

    @pytest.mark.parametrize("n,k,skip", [(0, 1, None), (3, 4, None), (3, 3, 0), (1, 1, 0)])
    def test_sample_larger_than_available_rejected(self, n, k, skip):
        with pytest.raises(ValueError, match="larger than population"):
            sample(SplitMix64(1), [f"x{i}" for i in range(n)], k, skip)


def scalar_splitmix64(seed, count):
    """Reference splitmix64, one state advance per output."""
    mask = (1 << 64) - 1
    state, out = seed & mask, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def copy_and_pop_sample(rng, population, k, skip):
    """The sampler the index arithmetic replaces: copy the available
    elements into a pool and pop each drawn position."""
    pool = [x for i, x in enumerate(population) if i != skip]
    return [pool.pop(rng.randbelow(len(pool))) for _ in range(k)]


# sha256 of every file `synth --seed 1 --n-users 2000` writes with CLI
# defaults. Any change to the RNG stream, the draw order or the sampler moves
# at least the corpus hash.
PINNED_N2000 = {
    "corpus.jsonl": "6286444f825fe153f5302078cae7bb8b8856c9d06cc9945f658172be59a14686",
    "labels_HN.txt": "c7fb29f387a442c036a8d0bb15b1087a72f1c6cfcaebd90979f545cdd7e4bb6a",
    "labels_HP.txt": "f989ba79cb0f3d8095a8b0a8ca00280a1629e6d0224c7e59e9af39a71517770f",
    "labels_OTHR.txt": "cd78f092eb3e7bc3c8e4b6b22eebd431a7d15cf4867ae77770182908d122b793",
    "labels_PN.txt": "b0fcde79042c39b214a5f27253d24d255b35698d8e546f4c053a98df5ee1bd31",
}

# Tiny corpora at like-rate 10 (up to 20 likers drawn per question): every
# question's liker sample is all or nearly all of the n - 1 other users, and
# each corpus has an owner at the first and at the last id.
PINNED_SMALL = {
    1: "34059bf33b0adac82b93cd65c79c423610330106bcdc55232990fea2cf39793c",
    2: "a0336db4e9c68da4ecdfe95d33ab510d7a14ead78ee218c60db65363e2bd7b7f",
    3: "80c799bdd804f2b37464cf159e2cced7b057070de33728d00dec79ce9804373a",
    7: "9b364b8fc4dc31dd84fb09e137168276f44025ae31c12d311574876c5e681a8b",
}


def sha256_files(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


class TestPinnedBytes:
    def test_synth_seed1_n2000(self, tmp_path):
        assert main(["synth", "--seed", "1", "--n-users", "2000", "--out", str(tmp_path)]) == 0
        assert sha256_files(tmp_path) == PINNED_N2000

    @pytest.mark.parametrize("n_users", sorted(PINNED_SMALL))
    def test_tiny_corpora_at_high_like_rate(self, tmp_path, n_users):
        argv = ["synth", "--seed", "1", "--n-users", str(n_users), "--like-rate", "10",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        assert sha256_files(tmp_path)["corpus.jsonl"] == PINNED_SMALL[n_users]


class TestQuota:
    def test_exact_allocation(self):
        counts = quota_counts({"HN": 0.1, "HP": 0.2, "PN": 0.2, "OTHR": 0.5}, 1000)
        assert counts == {"HN": 100, "HP": 200, "PN": 200, "OTHR": 500}

    def test_sums_to_n(self):
        counts = quota_counts({"HN": 1 / 3, "HP": 1 / 3, "PN": 1 / 3, "OTHR": 0.0}, 10)
        assert sum(counts.values()) == 10


class TestGenerateCorpus:
    def test_same_seed_byte_identical(self):
        c1, _ = generate_corpus(params())
        c2, _ = generate_corpus(params())
        assert corpus_bytes(c1) == corpus_bytes(c2)

    def test_different_seeds_differ(self):
        c1, _ = generate_corpus(params(rng_seed=1))
        c2, _ = generate_corpus(params(rng_seed=2))
        assert corpus_bytes(c1) != corpus_bytes(c2)

    def test_all_hn_mix_classifies_hn(self):
        p = params(n_users=10, group_mix={"HN": 1.0})
        corp, codes = generate_corpus(p)
        pred = classify_corpus(content_table(
            tagged(corp, NEG_VOCAB + POS_VOCAB), vocab_word_set(NEG_VOCAB),
            vocab_word_set(POS_VOCAB)
        ))
        assert set(pred.tolist()) == {GROUPS.index("HN")}
        assert pred.tolist() == codes.tolist()

    def test_planted_labels_recovered(self):
        corp, codes = generate_corpus(params(n_users=100))
        pred = classify_corpus(content_table(
            tagged(corp, NEG_VOCAB + POS_VOCAB), vocab_word_set(NEG_VOCAB),
            vocab_word_set(POS_VOCAB)
        ))
        assert pred.tolist() == codes.tolist()

    def test_planted_codes_past_u99999_follow_the_sorted_ids(self):
        # past 100,000 users generation order and id order differ: u100000,
        # drawn last, sorts between u10000 and u10001
        p = params(n_users=100_001, group_mix={"HN": 0.5, "OTHR": 0.5},
                   questions_per_user=(3, 3), like_rate=0.0)
        corp, codes = generate_corpus(p)
        assert codes.dtype == np.int64 and len(codes) == len(corp.owners)
        pred = classify_corpus(content_table(
            tagged(corp, NEG_VOCAB + POS_VOCAB), vocab_word_set(NEG_VOCAB),
            vocab_word_set(POS_VOCAB)
        ))
        assert pred.tolist() == codes.tolist()
        assert corp.owners[10_000:10_003] == ("u10000", "u100000", "u10001")
        assert [GROUPS[k] for k in codes[10_000:10_003].tolist()] == ["HN", "OTHR", "HN"]
        assert np.bincount(codes).tolist() == [50_001, 0, 0, 50_000]

    def test_infeasible_params_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            GenParams(
                n_users=10, group_mix={"HN": 1.0}, questions_per_user=(1, 2),
                like_rate=1.0, neg_vocab=NEG_VOCAB, pos_vocab=POS_VOCAB, rng_seed=1,
            ).validate()

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            params(group_mix={"HN": 0.5, "HP": 0.4}).validate()

    @pytest.mark.parametrize("overrides,message", [
        ({"like_rate": 1e19}, "like_rate's like-count modulus"),
        ({"like_rate": 2.0**63}, "like_rate's like-count modulus"),
        ({"questions_per_user": (0, 1 << 64)}, "questions_per_user range"),
        ({"questions_per_user": (11, (1 << 64) + 11)}, "questions_per_user range"),
    ])
    def test_moduli_past_2_64_rejected(self, overrides, message):
        # a count drawn from a modulus past 2**64 would never be accepted
        with pytest.raises(ValueError, match=f"^{message} .*must .*at most 2\\*\\*64"):
            params(**overrides).validate()

    def test_moduli_of_2_64_accepted(self):
        params(like_rate=math.nextafter(2.0**63, 0), questions_per_user=(11, (1 << 64) + 10),
               ).validate()

    def test_questions_sorted_by_likes(self):
        corp, _ = generate_corpus(params(n_users=10))
        for p in corpus_records(corp):
            likes = [q["like_count"] for q in p["questions"]]
            assert likes == sorted(likes, reverse=True)


def columns(corpus):
    """Every column of a corpus; arrays with their dtype."""
    out = {}
    for f in dataclasses.fields(Corpus):
        value = getattr(corpus, f.name)
        out[f.name] = (value.dtype.str, value.tolist()) if isinstance(value, np.ndarray) else value
    return out


BUNDLED = tuple(
    tuple(sorted(load_lexicon(bundled_lexicon_path(p)))) for p in ("negative", "positive")
)
MIXES = [
    {"OTHR": 1.0},
    {"HN": 1.0},
    {"HP": 0.5, "PN": 0.5},
    {"HN": 0.25, "HP": 0.25, "PN": 0.25, "OTHR": 0.25},
    {"HN": 0.1, "HP": 0.2, "PN": 0.2, "OTHR": 0.5},
]


@st.composite
def gen_params(draw):
    """Feasible generator parameters: up to 80 users, question ranges from
    0 up, like rates from none to 20 likers drawn, vocabularies that take
    words out of the filler."""
    mix = draw(st.sampled_from(MIXES))
    least = max(synth._MIN_QUESTIONS[g] for g in mix)
    lo = draw(st.integers(0, 16))
    hi = draw(st.integers(max(lo, least), max(lo, least) + 6))
    neg, pos = draw(st.sampled_from([(NEG_VOCAB, POS_VOCAB), (("you", "ugly"), ("nice", "day")),
                                     BUNDLED]))
    return GenParams(
        n_users=draw(st.integers(1, 80)), group_mix=mix, questions_per_user=(lo, hi),
        like_rate=draw(st.sampled_from([0.0, 0.3, 2.0, 7.5, 10.0])), neg_vocab=neg,
        pos_vocab=pos, rng_seed=draw(st.integers(0, 2**65)),
    )


def assert_matches_scalar_loop(p):
    corpus, codes = generate_corpus(p)
    expected, expected_labels = scalar_corpus(p)
    assert columns(corpus) == columns(expected)
    assert [GROUPS[k] for k in codes.tolist()] == [expected_labels[u] for u in corpus.owners]


class TestScalarOracle:
    """`generate_corpus` against the scalar loop it replaced, which draws
    every value through `randbelow` in draw order."""

    @settings(max_examples=200, deadline=None)
    @given(gen_params())
    @example(params(n_users=1, group_mix={"OTHR": 1.0}, questions_per_user=(0, 3)))
    @example(params(n_users=2, like_rate=10.0))
    def test_columns_match_the_scalar_loop(self, p):
        assert_matches_scalar_loop(p)

    @pytest.mark.parametrize("suspect", [1 << 63, (1 << 64) - (1 << 56)])
    def test_exact_path_matches_the_scalar_loop(self, monkeypatch, suspect):
        # a lower threshold sends many texts and likes down the path that
        # draws one value at a time; the outputs must not change
        monkeypatch.setattr(synth, "_SUSPECT", suspect)
        walks = []
        walk = synth._walk

        def noted_walk(*args):
            walks.append(walk(*args))
            return walks[-1]

        monkeypatch.setattr(synth, "_walk", noted_walk)
        for n_users, rate, seed in [(60, 2.0, 1), (7, 10.0, 2), (2, 7.5, 3), (1, 2.0, 4)]:
            assert_matches_scalar_loop(params(n_users=n_users, like_rate=rate, rng_seed=seed,
                                              neg_vocab=BUNDLED[0], pos_vocab=BUNDLED[1]))
        texts_at, likes_at = walks[0].text_at, walks[0].like_at
        assert (texts_at < 0).any() and (likes_at < 0).any()
        if suspect > 1 << 63:
            assert (texts_at >= 0).any() and (likes_at >= 0).any()

    def test_real_walk_reads_every_user_from_the_outputs(self, monkeypatch):
        # perfbench's recipe: no user's draws reach a suspect output, so a
        # user drawn one value at a time means its reach is miscounted; the
        # corpus would not change, so the scalar-loop oracles cannot see it
        walks = []
        walk = synth._walk
        monkeypatch.setattr(synth, "_walk", lambda *args: walks.append(walk(*args)) or walks[-1])
        generate_corpus(params(n_users=2000, group_mix={"HN": .1, "HP": .2, "PN": .2, "OTHR": .5},
                               questions_per_user=(11, 18), neg_vocab=BUNDLED[0],
                               pos_vocab=BUNDLED[1], rng_seed=1))
        assert (walks[0].text_at >= 0).all() and (walks[0].like_at >= 0).all()

    def test_two_blocks_match_the_scalar_loop(self):
        # past `_CHUNK` rows the texts are drawn in two blocks of users, and
        # the `_CHUNK`-th row falls inside a profile: in its likers' draws,
        # and in the first block, which then holds more than `_CHUNK` rows
        p = params(n_users=400)
        first_rows = np.cumsum([0, *np.bincount(generate_corpus(p)[0].owner).tolist()])
        assert first_rows[-1] > synth._CHUNK and synth._CHUNK not in first_rows
        assert_matches_scalar_loop(p)

    @pytest.mark.parametrize("chunk", [1, 2, 5])
    def test_small_blocks_match_the_scalar_loop(self, monkeypatch, chunk):
        # blocks of a few rows, with users of no question and texts drawn
        # one value at a time spread across them
        monkeypatch.setattr(synth, "_CHUNK", chunk)
        monkeypatch.setattr(synth, "_SUSPECT", 1 << 63)
        assert_matches_scalar_loop(params(n_users=30, group_mix={"OTHR": 1.0},
                                          questions_per_user=(0, 3)))
        assert_matches_scalar_loop(params(n_users=12, like_rate=7.5))

    def test_rejected_draws_match_the_scalar_loop(self):
        # a like-count modulus of 2**63 + 1 rejects about half of its draws
        assert_matches_scalar_loop(params(n_users=6, like_rate=2.0**62, questions_per_user=(11, 13)))


def profile(owner, *likers):
    """A record with one question per list of likers."""
    return {"owner": owner,
            "questions": [{"text": f"q on {owner}", "likers": list(q)} for q in likers]}


def profiles(corpus):
    """The corpus's profile records by owner."""
    return {record["owner"]: record for record in corpus_records(corpus)}


def chain_corpus():
    """b likes a's question; c likes b's question."""
    return Corpus.from_records([profile("a", ["b"]), profile("b", ["c"]), profile("c", [])])


class TestSnowballSample:
    def test_full_clique_crawled(self):
        corp = Corpus.from_records([
            profile(u, sorted({"a", "b", "c"} - {u})) for u in ("a", "b", "c")
        ])
        s = snowball_sample(corp, ["a"], budget=3)
        assert set(crawl_order(corp, s)) == {"a", "b", "c"}
        assert frontier(corp, s) == frozenset()

    def test_chain_bfs_trace(self, tmp_path):
        gt = chain_corpus()
        s = snowball_sample(gt, ["a"], budget=2)
        assert crawl_order(gt, s) == ("a", "b")
        assert frontier(gt, s) == frozenset({"c"})
        written = {r["owner"]: r for r in saved_crawl(gt, s, tmp_path / "sample.jsonl")}
        assert not written["c"]["fully_sampled"]
        assert written["a"]["fully_sampled"]

    def test_budget_covers_reachable_set(self):
        gt = chain_corpus()
        s = snowball_sample(gt, ["a"], budget=100)
        assert frontier(gt, s) == frozenset()
        assert crawl_order(gt, s) == ("a", "b", "c")

    def test_returns_int64_positions(self):
        crawl, stubs = snowball_sample(chain_corpus(), ["a"], budget=2)
        assert (crawl.dtype, stubs.dtype) == (np.int64, np.int64)
        assert (crawl.tolist(), stubs.tolist()) == ([0, 1], [2])

    def test_crawled_in_edges_match_ground_truth(self, tmp_path):
        gt = chain_corpus()
        s = snowball_sample(gt, ["a"], budget=2)
        written = {r["owner"]: r for r in saved_crawl(gt, s, tmp_path / "sample.jsonl")}
        for node in crawl_order(gt, s):
            sampled_likers = [q["likers"] for q in written[node]["questions"]]
            truth_likers = [q["likers"] for q in profiles(gt)[node]["questions"]]
            assert sampled_likers == truth_likers

    def test_reads_no_text(self, tmp_path):
        """The crawl reads only the owner, flag and liker columns: over the
        tagged load of a file with an empty vocabulary it gives the arrays
        it gives over the text load."""
        path = tmp_path / "gt.jsonl"
        save_corpus(generate_corpus(params(n_users=300, rng_seed=3))[0], path)
        text, no_text = load_corpus(path), load_corpus(path, ())
        assert no_text.texts is None
        for seeds, budget in [(["u00001", "u00005"], 120), (["u00002"], 1), (["u00007"], 300)]:
            crawl, stubs = snowball_sample(text, seeds, budget)
            tagged_crawl, tagged_stubs = snowball_sample(no_text, seeds, budget)
            assert np.array_equal(crawl, tagged_crawl) and np.array_equal(stubs, tagged_stubs)

    def test_seed_with_zero_likes_rejected(self):
        with pytest.raises(ValueError, match="zero liked"):
            snowball_sample(chain_corpus(), ["c"], budget=1)

    def test_unknown_seed_rejected(self):
        with pytest.raises(ValueError, match="not in ground truth"):
            snowball_sample(chain_corpus(), ["zzz"], budget=1)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            snowball_sample(chain_corpus(), [], budget=1)

    @pytest.mark.parametrize("budget", [1, 2, 100])
    def test_open_ground_truth_rejected_whatever_the_budget(self, budget):
        # "m" has no profile and "d" is a stub; "d" comes first in sorted order
        corp = Corpus.from_records([
            profile("a", ["b"]), profile("b", ["m"], ["d"]),
            {"owner": "d", "fully_sampled": False},
        ])
        with pytest.raises(ValueError, match="^ground truth is not closed: liker 'd' is not"):
            snowball_sample(corp, ["a"], budget)

    def test_stub_seed_rejected(self):
        corp = Corpus.from_records([
            {"owner": "a", "fully_sampled": False, "questions": [{"text": "q", "likers": ["b"]}]},
            profile("b", []),
        ])
        with pytest.raises(ValueError, match="seed 'a' is not a fully sampled profile"):
            snowball_sample(corp, ["a"], budget=2)

    def test_levels_visited_in_userid_order(self):
        corp = Corpus.from_records([
            profile("s", ["z", "b", "m"]), profile("z", []), profile("b", []), profile("m", []),
        ])
        s = snowball_sample(corp, ["s"], budget=4)
        assert crawl_order(corp, s) == ("s", "b", "m", "z")
