import concurrent.futures
import json
import logging
import math
import pickle
import random
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (
    oracle_lambda_document,
    oracle_log_probs,
    oracle_masked_pool,
    oracle_sample_reference_sets,
    oracle_trace_json,
)

from grammarlr import masking, scoring
from grammarlr.corpus import POS_LABELS, Corpus, Document, TaggedToken, VerificationProblem
from grammarlr.errors import ContractError, DataError, LexiconError
from grammarlr.masking import MaskingLexicon, default_lexicon, mask_corpus
from grammarlr.ngram import (
    BOS,
    EOS,
    UNK,
    CountTable,
    DiscountSchedule,
    GramIndex,
    Vocabulary,
    token_stream,
    train,
    train_with_estimated_discounts,
)
from grammarlr.protocol import cross_genre, evaluate_corpus
from grammarlr.scoring import (
    SAMPLING_MODES,
    LambdaConfig,
    LambdaTrace,
    TokenScore,
    derive_seed,
    lambda_document,
    sample_reference_sets,
    score_corpus,
    verify_problem,
)

ALPHABET = ("a", "b", "c", "d", "e", ".")


def random_sentences(rng, n_sents, max_len=6):
    return [
        tuple(rng.choice(ALPHABET) for _ in range(rng.randrange(1, max_len + 1)))
        for _ in range(n_sents)
    ]


def doc_of(rng, doc_id, n_sents=4):
    return Document(id=doc_id, sentences=tuple(random_sentences(rng, n_sents)))


class TestLambdaConfig:
    def test_defaults(self):
        cfg = LambdaConfig()
        assert (cfg.order, cfg.refs, cfg.seed) == (10, 100, 0)
        assert cfg.discount == 0.75
        assert cfg.discount_mode == "constant"
        assert cfg.sampling == "without_replacement"

    def test_validation(self):
        with pytest.raises(ValueError):
            LambdaConfig(order=0)
        with pytest.raises(ValueError):
            LambdaConfig(refs=0)
        with pytest.raises(ValueError):
            LambdaConfig(discount=1.0)
        with pytest.raises(ValueError):
            LambdaConfig(discount_mode="other")
        with pytest.raises(ValueError):
            LambdaConfig(sampling="sometimes")

    @pytest.mark.parametrize("value", [np.float32(0.5), "0.5", None, True])
    def test_non_float_discount_rejected_where_it_enters(self, value):
        """A discount of a wrong type is refused by the config, with a
        message that names its type, not deep in scoring as out of range."""
        named = f"discount must be a float .*, not a {type(value).__name__}:"
        with pytest.raises(ValueError, match=named):
            LambdaConfig(discount=value)

    def test_json_round_trip(self):
        cfg = LambdaConfig(order=4, refs=7, seed=99, discount=0.5, discount_mode="modified")
        assert LambdaConfig.from_json_dict(cfg.to_json_dict()) == cfg

    @pytest.mark.parametrize(
        "field, value",
        [
            ("order", 2.5), ("order", True), ("refs", True), ("refs", 3.0),
            ("seed", 1.5), ("seed", False), ("seed", "3"),
        ],
    )
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            LambdaConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            LambdaConfig.from_json_dict({**LambdaConfig().to_json_dict(), field: value})


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "p1") == derive_seed(0, "p1")

    def test_varies_with_problem_and_seed(self):
        seeds = {derive_seed(s, p) for s in (0, 1, 2) for p in ("p1", "p2", "p3")}
        assert len(seeds) == 9

    def test_range(self):
        s = derive_seed(12345, "problem-x")
        assert 0 <= s < 2**64


class TestSampling:
    def _pool(self, n):
        return [(f"s{i}",) for i in range(n)]

    def test_shapes(self):
        samples = sample_reference_sets(self._pool(10), size=4, count=3, seed=1)
        assert len(samples) == 3
        assert all(len(s) == 4 for s in samples)

    def test_without_replacement_within_sample(self):
        pool = self._pool(12)
        for sample in sample_reference_sets(pool, size=8, count=20, seed=2):
            assert len(set(sample)) == 8
            assert set(sample) <= set(pool)

    def test_pool_equal_to_size_returns_whole_pool(self):
        pool = self._pool(5)
        for sample in sample_reference_sets(pool, size=5, count=4, seed=3):
            assert sorted(sample) == sorted(pool)

    def test_small_pool_degrades_to_replacement(self):
        pool = self._pool(2)
        samples = sample_reference_sets(pool, size=6, count=2, seed=4)
        for sample in samples:
            assert len(sample) == 6
            assert set(sample) <= set(pool)

    def test_explicit_replacement_mode(self):
        pool = self._pool(2)
        samples = sample_reference_sets(
            pool, size=6, count=1, seed=5, sampling="with_replacement"
        )
        assert len(samples[0]) == 6  # duplicates forced by pigeonhole

    @pytest.mark.parametrize("sampling", SAMPLING_MODES)
    @pytest.mark.parametrize("pool_size", [12, 3], ids=["pool-larger", "pool-smaller"])
    def test_first_k_samples_are_the_samples_of_k(self, sampling, pool_size):
        # The sweep draws once, for its largest r, and gives each smaller r
        # the first r samples; a pool smaller than the sample falls back to
        # sampling with replacement.
        pool = self._pool(pool_size)
        for seed in (0, 13):
            full = sample_reference_sets(pool, size=5, count=8, seed=seed, sampling=sampling)
            for k in range(1, 8):
                assert sample_reference_sets(pool, 5, k, seed, sampling) == full[:k]

    def test_deterministic_in_seed(self):
        pool = self._pool(9)
        a = sample_reference_sets(pool, size=3, count=5, seed=7)
        b = sample_reference_sets(pool, size=3, count=5, seed=7)
        c = sample_reference_sets(pool, size=3, count=5, seed=8)
        assert a == b
        assert a != c

    @settings(max_examples=100, deadline=None)
    @given(
        pool_size=st.integers(1, 12),
        size=st.integers(1, 8),
        count=st.integers(1, 6),
        seed=st.integers(0, 2**64 - 1),
        sampling=st.sampled_from(SAMPLING_MODES),
    )
    def test_index_matrix_draws_the_earlier_samples(self, pool_size, size, count, seed, sampling):
        """The (count, size) index matrix makes the same generator calls as
        the earlier sample-by-sample draw, so its rows are those samples."""
        pool = self._pool(pool_size)
        want = oracle_sample_reference_sets(pool, size, count, seed, sampling)
        rows = scoring._sample_indices(pool_size, size, count, seed, sampling)
        assert rows.shape == (count, size)
        assert [[pool[i] for i in row] for row in rows.tolist()] == want
        assert sample_reference_sets(pool, size, count, seed, sampling) == want

    def test_errors(self):
        with pytest.raises(ValueError):
            sample_reference_sets(self._pool(3), size=0, count=1, seed=0)
        with pytest.raises(ValueError):
            sample_reference_sets(self._pool(3), size=1, count=0, seed=0)
        with pytest.raises(DataError):
            sample_reference_sets([], size=1, count=1, seed=0)
        with pytest.raises(ValueError):
            sample_reference_sets(self._pool(3), size=1, count=1, seed=0, sampling="x")


class TestLambdaDocument:
    def _models(self, rng, order=2, n_refs=3):
        known = random_sentences(rng, 5)
        ref_sets = [random_sentences(rng, 5) for _ in range(n_refs)]
        vocab = Vocabulary.from_sentences(
            [s for s in known] + [s for rs in ref_sets for s in rs]
        )
        sched = DiscountSchedule.constant(0.6)
        author = train(known, order, discounts=sched, vocab=vocab)
        refs = [train(rs, order, discounts=sched, vocab=vocab) for rs in ref_sets]
        return known, ref_sets, vocab, sched, author, refs

    def test_identical_models_score_exactly_zero(self):
        rng = random.Random(51)
        known = random_sentences(rng, 6)
        vocab = Vocabulary.from_sentences(known)
        author = train(known, 3, vocab=vocab)
        refs = [train(known, 3, vocab=vocab) for _ in range(4)]
        trace = lambda_document(random_sentences(rng, 3), author, refs)
        assert trace.total == 0.0
        assert all(ts.score == 0.0 for ts in trace.token_scores)
        assert all(s == 0.0 for s in trace.sentence_scores)

    def test_single_reference_collapses_to_logprob_difference(self):
        rng = random.Random(53)
        _, _, _, _, author, refs = self._models(rng, n_refs=1)
        unknown = random_sentences(rng, 4)
        trace = lambda_document(unknown, author, refs[:1])
        expected = math.fsum(
            author.sentence_logprob(s) - refs[0].sentence_logprob(s) for s in unknown
        )
        assert trace.total == pytest.approx(expected, abs=1e-9)

    def test_decomposition(self):
        rng = random.Random(59)
        _, _, _, _, author, refs = self._models(rng)
        unknown = random_sentences(rng, 4)
        trace = lambda_document(unknown, author, refs)
        assert math.fsum(ts.score for ts in trace.token_scores) == pytest.approx(
            trace.total, abs=1e-9
        )
        assert math.fsum(trace.sentence_scores) == pytest.approx(trace.total, abs=1e-9)

    def test_every_position_scored_including_end_marker(self):
        rng = random.Random(61)
        _, _, _, _, author, refs = self._models(rng)
        unknown = [("a", "b"), ("c",)]
        trace = lambda_document(unknown, author, refs)
        assert len(trace.token_scores) == (2 + 1) + (1 + 1)
        by_sentence = {}
        for ts in trace.token_scores:
            by_sentence.setdefault(ts.sentence_index, []).append(ts)
        for si, sent in enumerate(unknown):
            group = by_sentence[si]
            assert [ts.position for ts in group] == list(range(1, len(sent) + 2))
            assert [ts.token for ts in group] == [*sent, EOS]

    def test_matches_oracle(self):
        rng = random.Random(67)
        for _ in range(6):
            order = rng.randrange(1, 4)
            known, ref_sets, vocab, sched, author, refs = self._models(
                rng, order=order, n_refs=3
            )
            unknown = random_sentences(rng, 3)
            trace = lambda_document(unknown, author, refs)
            tok, sent, total = oracle_lambda_document(
                unknown, known, ref_sets, order, sched, vocab.sorted_items()
            )
            assert len(tok) == len(trace.token_scores)
            for got, want in zip(trace.token_scores, tok):
                assert got.score == pytest.approx(want, abs=1e-9)
            assert trace.total == pytest.approx(total, abs=1e-9)

    def test_model_mismatch_rejected(self):
        rng = random.Random(71)
        _, _, vocab, sched, author, refs = self._models(rng, order=2)
        other_order = train([("a", "b")], 3, vocab=vocab)
        with pytest.raises(ContractError, match="order"):
            lambda_document([("a",)], author, [other_order])
        other_vocab = train([("q", "r")], 2)
        with pytest.raises(ContractError, match="vocabulary"):
            lambda_document([("a",)], author, [other_vocab])

    def test_empty_inputs_rejected(self):
        rng = random.Random(73)
        _, _, _, _, author, refs = self._models(rng)
        with pytest.raises(DataError):
            lambda_document([], author, refs)
        with pytest.raises(DataError):
            lambda_document([()], author, refs)
        with pytest.raises(ValueError):
            lambda_document([("a",)], author, [])

    def test_trace_json_round_trip(self):
        rng = random.Random(79)
        _, _, _, _, author, refs = self._models(rng)
        trace = lambda_document(
            random_sentences(rng, 3), author, refs, problem_id="p7", seed=42
        )
        clone = LambdaTrace.from_json(trace.to_json())
        assert clone == trace

    def test_trace_decomposition_enforced(self):
        """Any NaN or infinity fails, and so do finite scores whose sum
        overflows: no finite total holds for them. Read back from JSON, a
        stored total or sentence score that is not the sum of its parts
        fails too."""
        cfg = LambdaConfig(order=1, refs=1)
        nan, inf, big = math.nan, math.inf, 1e308
        cases = [  # (token scores, sentence score, total)
            ([1.0], 1.0, 2.0),
            ([5.0], nan, 5.0),
            ([nan], 5.0, 5.0),
            ([5.0], 5.0, nan),
            ([nan], nan, nan),
            ([inf], inf, inf),
            ([-inf], -inf, -inf),
            ([inf], 5.0, 5.0),
            ([inf, -inf], 0.0, 0.0),
            ([big, big], 1.0, 1.0),  # finite scores whose sum overflows
        ]
        for scores, sentence_score, total in cases:
            if scores not in ([1.0], [5.0]):
                with pytest.raises(ContractError, match="decompose"):
                    LambdaTrace(
                        scores=np.array(scores),
                        tokens=("a",) * len(scores),
                        bounds=(0, len(scores)),
                        config=cfg,
                        seed=0,
                    )
            text = json.dumps({
                "config": cfg.to_json_dict(), "seed": 0, "total": total,
                "sentence_scores": [sentence_score],
                "token_scores": [
                    {"token": "a", "sentence_index": 0, "position": i + 1, "lambda": score}
                    for i, score in enumerate(scores)
                ],
            })
            with pytest.raises(ContractError, match="decompose"):
                LambdaTrace.from_json(text)

    def test_stored_sentence_scores_checked(self):
        """Sentence scores that contradict their token slices are refused
        even where their total agrees; each may be off by 1e-9."""
        trace = LambdaTrace(np.array([0.25, 1.75]), ("a", "b"), (0, 1, 2), LambdaConfig(), 0)
        obj = trace.to_json_dict()
        assert obj["sentence_scores"] == [0.25, 1.75] and obj["total"] == 2.0
        LambdaTrace.from_json_dict({**obj, "sentence_scores": [0.25 + 1e-10, 1.75]})
        with pytest.raises(ContractError, match="decompose"):
            LambdaTrace.from_json_dict({**obj, "sentence_scores": [7.0, -5.0]})
        with pytest.raises(ContractError, match="decompose"):
            LambdaTrace.from_json_dict({**obj, "total": 2.0 + 1e-8})

    def test_many_sentences_accepted(self):
        """10,000 finite sentences of about 1000 each: summed by token and
        summed by sentence, the exactly rounded totals lie one ulp (1.86e-9)
        apart. The trace takes the sum of its sentence scores."""
        half_ulp = math.ulp(1e7) / 2
        scores = [1000.0, 5e-14] * 9999 + [1000.0 + half_ulp - 2.5e-10]
        bounds = [*range(0, len(scores), 2), len(scores)]
        trace = LambdaTrace(np.array(scores), ("a",) * len(scores), bounds, LambdaConfig(), 0)
        assert len(trace.sentence_scores) == 10_000
        assert trace.sentence_scores[0] == 1000.0
        assert trace.total == math.fsum(trace.sentence_scores)
        assert abs(math.fsum(scores) - trace.total) > 1e-9
        assert LambdaTrace.from_json(trace.to_json()) == trace


# Summands that stress an exactly rounded sum: any magnitude from subnormal
# to 2**1000 (so 101 of them cannot overflow), mantissas of all ones or of a
# single one, and signed zeros.
ADVERSARIAL_FLOATS = st.one_of(
    st.floats(min_value=-(2.0**1000), max_value=2.0**1000),
    st.builds(
        math.ldexp,
        st.sampled_from([1.0, -1.0, 1.5, -0.75, 1.0 + 2.0**-52, -(2.0 - 2.0**-52)]),
        st.integers(-1074, 999),
    ),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, -1.0]),
)


@st.composite
def adversarial_columns(draw, r):
    col = draw(st.lists(ADVERSARIAL_FLOATS, min_size=r, max_size=r))
    kind = draw(st.sampled_from(["free", "cancel", "tie", "repeat"]))
    if kind == "cancel":
        # Pairs that cancel exactly around whatever is left.
        half = r // 2
        col[half : 2 * half] = [-v for v in col[:half]]
    elif kind == "tie" and r >= 3:
        # x plus half the gap to a neighbour of x (below a power of two the
        # gap is half an ulp), an exact tie broken to even, nudged by a tiny
        # amount or not, then pairs that cancel exactly.
        x = col[0] or 1.0
        half_gap = math.ulp(x) / draw(st.sampled_from([2.0, 4.0]))
        nudge_sign = draw(st.sampled_from([0.0, 1.0, -1.0]))
        nudge = nudge_sign * math.ldexp(abs(x), draw(st.integers(-150, -60)))
        rest = [v for pair in zip(col[3::2], col[4::2]) for v in (pair[0], -pair[0])]
        col = [x, math.copysign(half_gap, draw(st.sampled_from([1.0, -1.0]))), nudge, *rest]
        col += [0.0] * (r - len(col))
    elif kind == "repeat":
        col = [col[0]] * r
    return draw(st.permutations(col))


class TestExactSums:
    """``_exact_sums`` sums columns in array form and must round each one
    exactly as ``math.fsum`` does."""

    @staticmethod
    def check(columns):
        r = len(columns[0])
        sums = scoring._exact_sums(np.array(columns, dtype=np.float64).T)
        assert [v.hex() for v in sums.tolist()] == [math.fsum(c).hex() for c in columns]
        assert [v.hex() for v in (sums / r).tolist()] == [(math.fsum(c) / r).hex() for c in columns]

    @settings(max_examples=150, deadline=None)
    @given(r=st.one_of(st.sampled_from([1, 2, 101]), st.integers(1, 101)), data=st.data())
    def test_equals_fsum_bit_for_bit(self, r, data):
        self.check(data.draw(st.lists(adversarial_columns(r), min_size=1, max_size=6)))

    def test_hand_picked_columns(self):
        ulp_half = 2.0**-53
        # Just below the tie under 1.0, whose lower gap is half its upper.
        self.check([[1.0, -(2.0**-54), -(2.0**-200)], [1.0, -(2.0**-54), 2.0**-200]])
        self.check([
            [1.0, ulp_half, 0.0],
            [1.0 + 2.0**-52, ulp_half, 0.0],
            [1.0, ulp_half, ulp_half * 2.0**-60],
            [2.0**1000, 1.0, -(2.0**1000)],
            [-0.0, -0.0, -0.0],
            [5e-324, 5e-324, -5e-324],
            [0.1, 0.2, -0.3],
        ])
        self.check([[-0.0]])
        self.check([[math.ldexp(1.0, e) for e in range(-1074, 1000, 20)] + [0.0] * 47])

    def test_log_ratio_columns_take_the_array_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr(scoring.math, "fsum", lambda xs: calls.append(xs) or math.nan)
        logs = np.log(np.random.default_rng(7).random((101, 500)))
        scoring._exact_sums(logs[0] - logs[1:])
        assert calls == []


probabilities = st.floats(min_value=2.0**-1074, max_value=1.0)


class TestTraceMatchesLoopOracle:
    """The columnar trace equals, byte for byte, the trace the per-position
    loop builds (``oracles.oracle_trace_json``)."""

    @settings(max_examples=60, deadline=None)
    @given(
        sentences=st.lists(
            st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=5).map(tuple),
            min_size=1,
            max_size=5,
        ),
        r=st.integers(1, 12),
        data=st.data(),
    )
    def test_to_json_byte_identical(self, sentences, r, data):
        positions = sum(len(s) + 1 for s in sentences)
        # A few shared values make duplicate probabilities within and
        # across rows, as backed-off models give.
        shared = data.draw(st.lists(probabilities, min_size=1, max_size=3))
        entry = st.one_of(probabilities, st.sampled_from(shared))
        probs = np.array(
            data.draw(st.lists(st.lists(entry, min_size=positions, max_size=positions),
                               min_size=1 + r, max_size=1 + r))
        )
        cfg = LambdaConfig(order=3, refs=r, seed=5)
        trace = scoring._trace(scoring._log_probs(probs), scoring._layout(sentences), cfg, 17, "p9")
        assert trace.to_json() == oracle_trace_json(sentences, probs, cfg.to_json_dict(), 17, "p9")

    def test_lambda_document_byte_identical(self):
        rng = random.Random(83)
        _, _, _, _, author, refs = TestLambdaDocument()._models(rng, order=3, n_refs=6)
        unknown = [("a",), *random_sentences(rng, 3), ("b",)]
        probs = np.stack([m.token_probs(unknown) for m in (author, *refs)])
        assert len(np.unique(probs)) < probs.size
        trace = lambda_document(unknown, author, refs, seed=3, problem_id="q")
        assert trace.to_json() == oracle_trace_json(
            unknown, probs, trace.config.to_json_dict(), 3, "q"
        )


def colliding_bits(size):
    """Two bit patterns of positive finite floats whose hash keys agree in
    an array of ``size`` values: their products with the hash constant
    differ only in the low bits that the key drops."""
    golden, mask = int(scoring._GOLDEN), 2**64 - 1
    inverse = pow(golden, -1, 2**64)
    dropped = (size - 1).bit_length() + 1
    first = np.float64(0.25).view(np.uint64).item()
    product = first * golden & mask
    for low in range(1, 2**dropped):
        other = (product ^ low) * inverse & mask
        if 0 < np.uint64(other).view(np.float64) < math.inf:
            return first, other
    raise AssertionError("no colliding pattern")


class TestLogProbs:
    """``_log_probs`` groups values by a hash of their bits and must equal,
    bit for bit, the ``np.unique`` form it replaced
    (``oracles.oracle_log_probs``), collisions and large arrays included."""

    @staticmethod
    def check(probs):
        got, want = scoring._log_probs(probs), oracle_log_probs(probs)
        assert got.dtype == np.float64 and got.shape == probs.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(0, 40)),
        data=st.data(),
    )
    def test_stacked_orders_equal_the_unique_form(self, shape, data):
        # Shared values repeat within and across rows and orders, as the
        # orders of one kernel call do.
        shared = data.draw(st.lists(probabilities, min_size=1, max_size=4))
        entry = st.one_of(probabilities, st.sampled_from(shared))
        flat = data.draw(st.lists(entry, min_size=math.prod(shape), max_size=math.prod(shape)))
        self.check(np.array(flat, dtype=np.float64).reshape(shape))

    def test_one_value_and_subnormals(self):
        self.check(np.array([[[0.5]]]))
        self.check(np.array([[5e-324, 1e-310, 1.0, 5e-324]]))

    @pytest.mark.parametrize("size", [2, 3, 1000])
    def test_a_hash_collision_falls_back(self, size, monkeypatch):
        first, other = colliding_bits(size)
        bits = np.resize(np.array([first, other], dtype=np.uint64), size)
        probs = bits.view(np.float64).reshape(1, 1, size)
        keys = bits * scoring._GOLDEN >> np.uint64((size - 1).bit_length() + 1)
        assert keys[0] == keys[1] and bits[0] != bits[1]
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or unique(*a, **k))
        self.check(probs)
        assert len(calls) == 2  # the oracle's and the fallback's

    def test_past_the_hashed_size_falls_back(self, monkeypatch):
        size = scoring._MAX_HASHED + 1
        probs = np.resize(np.array([0.5, 0.25, 2.0**-30, 0.1]), (1, 1, size))
        calls = []
        unique = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or unique(*a, **k))
        self.check(probs)
        self.check(probs[:, :, :-1])
        assert len(calls) == 3  # the oracle's twice, the fallback's once

    def test_empty(self):
        self.check(np.zeros((2, 3, 0)))


def trace_dict(token_scores, sentence_scores, config, seed=0, problem_id=None):
    """The JSON form of a trace whose positions are ``token_scores``."""
    return {
        "token_scores": [
            {
                "token": ts.token,
                "sentence_index": ts.sentence_index,
                "position": ts.position,
                "lambda": ts.score,
            }
            for ts in token_scores
        ],
        "sentence_scores": list(sentence_scores),
        "total": math.fsum(sentence_scores),
        "config": config.to_json_dict(),
        "seed": seed,
        "problem_id": problem_id,
    }


def trace_both_ways(sentence_score_lists, seed=3, problem_id="p"):
    """The same trace built from columns and read from ``TokenScore``s."""
    cfg = LambdaConfig(order=2, refs=4)
    scores = [s for sent in sentence_score_lists for s in sent]
    tokens = [f"w{i}" for i in range(len(scores))]
    bounds = [0]
    for sent in sentence_score_lists:
        bounds.append(bounds[-1] + len(sent))
    columns = LambdaTrace(np.array(scores), tokens, bounds, cfg, seed, problem_id)
    token_scores = [
        TokenScore(tokens[i], si, i - bounds[si] + 1, scores[i])
        for si in range(len(sentence_score_lists))
        for i in range(bounds[si], bounds[si + 1])
    ]
    sentence_scores = [math.fsum(sent) for sent in sentence_score_lists]
    listed = LambdaTrace.from_json_dict(
        trace_dict(token_scores, sentence_scores, cfg, seed, problem_id)
    )
    return columns, listed


# Trace layouts: up to 5 sentences of up to 6 scores, any of them empty, with
# signed zeros.
TRACE_LAYOUTS = st.lists(
    st.lists(
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)), max_size=6
    ),
    max_size=5,
)


class TestColumnarTrace:
    SCORES = [[0.25, -1.5, 3.0], [0.1], [], [1e-3, 2.0]]
    EDGES = [[], [0.0, -0.0], [-0.0], []]

    @settings(max_examples=50, deadline=None)
    @given(TRACE_LAYOUTS)
    @example(SCORES)
    @example(EDGES)
    def test_columns_and_token_scores_agree(self, layout):
        columns, listed = trace_both_ways(layout)
        assert columns == listed and listed == columns
        assert hash(columns) == hash(listed)
        assert columns.token_scores == listed.token_scores
        assert all(type(ts.score) is float for ts in columns.token_scores)
        assert columns.sentence_scores == listed.sentence_scores
        assert columns.total == listed.total
        assert columns.scores.tolist() == listed.scores.tolist()
        assert (columns.tokens, columns.bounds) == (listed.tokens, listed.bounds)
        assert columns.bounds == tuple(accumulate(map(len, layout), initial=0))
        if layout == self.SCORES:
            assert columns.bounds == (0, 3, 4, 4, 6)
        reseeded = LambdaTrace(columns.scores, columns.tokens, columns.bounds, columns.config, 4, "p")
        assert columns != reseeded

    @settings(max_examples=50, deadline=None)
    @given(TRACE_LAYOUTS)
    @example(SCORES)
    @example(EDGES)
    def test_pickle_round_trip(self, layout):
        columns, listed = trace_both_ways(layout)
        for trace in (columns, listed):
            clone = pickle.loads(pickle.dumps(trace))
            assert clone == columns and clone == listed
            assert hash(clone) == hash(trace)
            assert not clone.scores.flags.writeable
            assert clone.to_json() == trace.to_json()

    @settings(max_examples=50, deadline=None)
    @given(TRACE_LAYOUTS)
    @example(SCORES)
    @example(EDGES)
    def test_json_round_trip(self, layout):
        columns, listed = trace_both_ways(layout)
        assert columns.to_json() == listed.to_json()
        for trace in (columns, listed):
            clone = LambdaTrace.from_json(trace.to_json())
            assert clone == columns and clone == listed
            assert clone.to_json() == trace.to_json()

    def test_an_empty_sentence_makes_a_different_trace(self):
        cfg = LambdaConfig(order=2, refs=4)
        one = LambdaTrace(np.array([1.0, 2.0]), ("a", "b"), (0, 2), cfg, 0)
        two = LambdaTrace(np.array([1.0, 2.0]), ("a", "b"), (0, 2, 2), cfg, 0)
        assert one.token_scores == two.token_scores
        assert one != two and one.sentence_scores != two.sentence_scores
        assert one == LambdaTrace(np.array([1.0, 2.0]), ("a", "b"), (0, 2), cfg, 0)

    def test_sums_are_derived_not_given(self):
        trace = LambdaTrace(np.array([1.0, 2.0]), ("a", "b"), (0, 1, 2), LambdaConfig(), 0)
        assert (trace.sentence_scores, trace.total) == ((1.0, 2.0), 3.0)
        assert [f.name for f in fields(trace)] == [
            "scores", "tokens", "bounds", "config", "seed", "problem_id"
        ]
        with pytest.raises(TypeError):
            replace(trace, sentence_scores=(1.0, 3.0))

    @settings(max_examples=20, deadline=None)
    @given(TRACE_LAYOUTS)
    @example(SCORES)
    @example(EDGES)
    def test_immutable(self, layout):
        columns, listed = trace_both_ways(layout)
        for trace in (columns, listed):
            with pytest.raises(FrozenInstanceError):
                trace.total = 0.0
            with pytest.raises(ValueError):
                trace.scores[0] = 9.0

    @settings(max_examples=50, deadline=None)
    @given(TRACE_LAYOUTS, st.integers(0, 29))
    @example(SCORES, 0)
    @example(SCORES, 5)
    def test_token_entry_moved_to_next_sentence_rejected(self, layout, pick):
        """Moving one position into the next sentence breaks the layout:
        the sentence indices stop running in order or in range, or the
        positions stop running 1, 2, ... The one exception, the only
        position of a sentence moved into an empty next sentence, is itself
        a valid layout and is not drawn."""
        columns, _ = trace_both_ways(layout)
        sizes = list(map(len, layout))
        movable = [
            k
            for k, ts in enumerate(columns.token_scores)
            if sizes[ts.sentence_index : ts.sentence_index + 2] != [1, 0]
        ]
        assume(movable)
        obj = columns.to_json_dict()
        obj["token_scores"][movable[pick % len(movable)]]["sentence_index"] += 1
        with pytest.raises(ContractError):
            LambdaTrace.from_json_dict(obj)

    @pytest.mark.parametrize(
        "token_scores, sentence_scores",
        [
            ((TokenScore("a", 1, 1, 1.0), TokenScore("b", 0, 1, 1.0)), (1.0, 1.0)),
            ((TokenScore("a", 0, 2, 1.0),), (1.0,)),
            ((TokenScore("a", 0, 1, 1.0), TokenScore("b", 0, 1, 1.0)), (2.0,)),
            ((TokenScore("a", 1, 1, 1.0),), (1.0,)),
            ((TokenScore("a", -1, 1, 1.0),), (1.0,)),
        ],
    )
    def test_token_scores_must_run_sentence_by_sentence(self, token_scores, sentence_scores):
        with pytest.raises(ContractError):
            LambdaTrace.from_json_dict(
                trace_dict(token_scores, sentence_scores, LambdaConfig(order=1, refs=1))
            )

    @staticmethod
    def valid_trace_dict():
        return trace_dict(
            (TokenScore("a", 0, 1, 1.0), TokenScore("</s>", 0, 2, 0.5)),
            (1.5,),
            LambdaConfig(order=1, refs=1),
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"token_scores": [{}]}', "lacks the key 'sentence_scores'"),
            ('{"token_scores": [], "sentence_scores": []}', "lacks the key 'total'"),
        ],
    )
    def test_missing_key(self, text, message):
        with pytest.raises(ContractError, match=message):
            LambdaTrace.from_json(text)

    @pytest.mark.parametrize("key", ["sentence_index", "position", "lambda", "token"])
    def test_missing_token_score_key(self, key):
        obj = self.valid_trace_dict()
        del obj["token_scores"][1][key]
        with pytest.raises(ContractError, match=f"lacks the key '{key}'"):
            LambdaTrace.from_json(json.dumps(obj))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("token_scores", 3),
            ("token_scores", [1, 2]),
            ("sentence_scores", 1.5),
            ("total", "1.5"),
            ("config", [1]),
            ("config", {"bogus": 1}),
        ],
    )
    def test_wrong_type(self, field, value):
        obj = {**self.valid_trace_dict(), field: value}
        with pytest.raises(ContractError, match="wrong type"):
            LambdaTrace.from_json(json.dumps(obj))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda obj: obj["config"].update(order=0),
            lambda obj: obj["token_scores"][0].update({"lambda": "high"}),
        ],
    )
    def test_invalid_value(self, edit):
        obj = self.valid_trace_dict()
        edit(obj)
        with pytest.raises(ContractError, match="invalid value"):
            LambdaTrace.from_json(json.dumps(obj))

    @pytest.mark.parametrize("text", ["[1]", "3", '"trace"', "null"])
    def test_not_an_object(self, text):
        with pytest.raises(ContractError, match="must be a JSON object"):
            LambdaTrace.from_json(text)

    @pytest.mark.parametrize(
        "text",
        [
            "", "{", '{"token_scores": [}', "{} trailing",
            pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000-deep"),
        ],
    )
    def test_invalid_json(self, text):
        with pytest.raises(ContractError, match="not valid JSON"):
            LambdaTrace.from_json(text)

    def test_valid_trace_still_reads(self):
        obj = self.valid_trace_dict()
        trace = LambdaTrace.from_json(json.dumps(obj))
        assert trace.total == 1.5 and trace.tokens == ("a", "</s>")


def make_problem(rng, problem_id="p1", oov_unknown=False):
    unknown = doc_of(rng, f"{problem_id}-u")
    if oov_unknown:
        sents = tuple((*s, "zzz") for s in unknown.sentences)
        unknown = Document(id=unknown.id, sentences=sents)
    return VerificationProblem(
        id=problem_id,
        unknown_docs=(unknown,),
        known_docs=(doc_of(rng, f"{problem_id}-k1"), doc_of(rng, f"{problem_id}-k2")),
        label="Y",
    )


def make_refs(rng, n=4):
    return tuple(doc_of(rng, f"ref{i}") for i in range(n))


class TestVerifyProblem:
    CFG = LambdaConfig(order=2, refs=3, seed=11)

    def test_deterministic(self):
        rng = random.Random(83)
        problem, refs = make_problem(rng), make_refs(rng)
        t1 = verify_problem(problem, refs, self.CFG)
        t2 = verify_problem(problem, refs, self.CFG)
        assert t1.to_json() == t2.to_json()

    def test_seed_changes_result(self):
        rng = random.Random(89)
        problem, refs = make_problem(rng), make_refs(rng)
        t1 = verify_problem(problem, refs, self.CFG)
        t2 = verify_problem(problem, refs, LambdaConfig(order=2, refs=3, seed=12))
        assert t1.total != t2.total

    def test_effective_seed_recorded(self):
        rng = random.Random(97)
        problem, refs = make_problem(rng), make_refs(rng)
        trace = verify_problem(problem, refs, self.CFG)
        assert trace.seed == derive_seed(self.CFG.seed, problem.id)
        assert trace.problem_id == problem.id
        assert trace.config == self.CFG

    def test_oov_unknown_tokens_fall_to_unk(self):
        rng = random.Random(101)
        problem = make_problem(rng, oov_unknown=True)
        refs = make_refs(rng)
        trace = verify_problem(problem, refs, self.CFG)
        assert all(math.isfinite(ts.score) for ts in trace.token_scores)
        displayed = {ts.token for ts in trace.token_scores}
        assert "zzz" in displayed  # original surface survives in the trace
        assert UNK not in displayed

    def test_missing_material_rejected(self):
        rng = random.Random(103)
        problem = make_problem(rng)
        with pytest.raises(DataError, match="reference"):
            verify_problem(problem, (), self.CFG)

    def test_tagged_documents_masked_with_given_lexicon(self):
        lex = MaskingLexicon(
            retain=frozenset({"the"}),
            placeholders={
                "NOUN": "N", "PROPN": "P", "VERB": "V", "ADJ": "J",
                "ADV": "B", "NUM": "D", "SYM": "S",
            },
        )
        tagged = Document(
            id="u",
            sentences=((TaggedToken("The", "DET"), TaggedToken("cat", "NOUN")),),
        )
        problem = VerificationProblem(
            id="p1",
            unknown_docs=(tagged,),
            known_docs=(Document(id="k", sentences=(("the", "N"), ("N", "the"))),),
            label="Y",
        )
        refs = (Document(id="r", sentences=(("the", "N", "N"),)),)
        trace = verify_problem(problem, refs, LambdaConfig(order=2, refs=2, seed=0), lexicon=lex)
        assert [ts.token for ts in trace.token_scores] == ["the", "N", EOS]


class TestSamplingFallbackLogged:
    """A without-replacement request that falls back to sampling with
    replacement, because the pool holds fewer sentences than a sample, logs
    one warning per problem and scores exactly as a with-replacement
    request does."""

    def test_one_warning_per_problem(self, caplog):
        rng = random.Random(131)
        problems = tuple(make_problem(rng, f"p{i}") for i in range(3))
        small = Corpus(problems=problems, reference_docs=(doc_of(rng, "ref0", n_sents=3),))
        cfg = LambdaConfig(order=3, refs=4, seed=2)
        with caplog.at_level(logging.WARNING, logger="grammarlr"):
            traces = score_corpus(small, cfg)
        assert [(r.name, r.levelno) for r in caplog.records] == [("grammarlr", logging.WARNING)] * 3
        for record, problem in zip(caplog.records, problems):
            assert repr(problem.id) in record.getMessage()
            assert "with replacement" in record.getMessage()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="grammarlr"):
            replaced = score_corpus(small, replace(cfg, sampling="with_replacement"))
            score_corpus(replace(small, reference_docs=make_refs(rng)), cfg)
        assert caplog.records == []
        assert [t.token_scores for t in traces] == [t.token_scores for t in replaced]


class TestScoreCorpus:
    def _corpus(self, rng, n_problems=3):
        problems = tuple(make_problem(rng, f"p{i}") for i in range(n_problems))
        return Corpus(problems=problems, reference_docs=make_refs(rng, 5))

    def test_order_preserved(self):
        rng = random.Random(107)
        corpus = self._corpus(rng)
        traces = score_corpus(corpus, LambdaConfig(order=2, refs=2, seed=1))
        assert [t.problem_id for t in traces] == [p.id for p in corpus.problems]

    def test_empty_pool_fails_before_any_problem_or_worker(self, monkeypatch):
        """An empty pool raises once, before any problem is scored or any
        worker starts; a corpus with no problems still scores to []."""

        def never(*args, **kwargs):
            raise AssertionError("scoring started")

        corpus = replace(self._corpus(random.Random(127)), reference_docs=())
        cfg = LambdaConfig(order=2, refs=2, seed=1)
        monkeypatch.setattr(scoring, "_score_problem", never)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
        for parallel in (1, 2):
            with pytest.raises(DataError, match="^reference pool is empty$"):
                score_corpus(corpus, cfg, parallel=parallel)
        assert score_corpus(replace(corpus, problems=()), cfg) == []

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_mismatched_configs_fail_before_any_problem_or_worker(self, monkeypatch, parallel):
        """Configs scored together that differ in more than refs and order
        raise once, before any problem is scored or any worker starts."""
        entered = []

        def spy(*args, **kwargs):
            entered.append(args)
            raise AssertionError("a problem was scored")

        def never(*args, **kwargs):
            raise AssertionError("a worker started")

        corpus = self._corpus(random.Random(131))
        pool = scoring._Pool.of(corpus.reference_docs)
        cfg = LambdaConfig(order=2, refs=2, seed=1)
        monkeypatch.setattr(scoring, "_score_problem", spy)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
        for other in (replace(cfg, seed=2), replace(cfg, order=3, discount_mode="modified")):
            with pytest.raises(ValueError, match="may differ only in refs and order"):
                scoring._score_problems(corpus.problems, pool, [cfg, other], parallel)
        assert entered == []

    def test_parallel_matches_serial(self):
        rng = random.Random(109)
        corpus = self._corpus(rng)
        cfg = LambdaConfig(order=2, refs=2, seed=1)
        serial = score_corpus(corpus, cfg, parallel=1)
        parallel = score_corpus(corpus, cfg, parallel=2)
        assert [t.to_json() for t in serial] == [t.to_json() for t in parallel]

    def test_parallel_validation(self):
        rng = random.Random(113)
        with pytest.raises(ValueError):
            score_corpus(self._corpus(rng), LambdaConfig(order=2, refs=2), parallel=0)

    def test_at_most_one_worker_per_problem(self, monkeypatch):
        """A pool starts no more workers than there are problems: each one
        prepares the reference pool at start-up."""
        sizes = []

        class InProcessPool:
            """Runs the pool's jobs in this process; records its size."""

            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(scoring, "_worker_job", ())
        rng = random.Random(127)
        corpus = self._corpus(rng)
        cfg = LambdaConfig(order=2, refs=2, seed=1)
        parallel = score_corpus(corpus, cfg, parallel=8)
        assert sizes == [3]
        serial = score_corpus(corpus, cfg, parallel=1)
        assert [t.to_json() for t in parallel] == [t.to_json() for t in serial]


def public_path_trace(problem, pool, cfg):
    """The score of one problem assembled from the public pieces: train the
    author and each sampled reference set apart, then ``lambda_document``."""
    known = [s for d in problem.known_docs for s in d.sentences]
    unknown = [s for d in problem.unknown_docs for s in d.sentences]
    refs = [s for d in pool for s in d.sentences]
    vocab = Vocabulary.from_sentences([*known, *refs])
    seed = derive_seed(cfg.seed, problem.id)
    samples = sample_reference_sets(refs, len(known), cfg.refs, seed, cfg.sampling)

    def fit(sentences):
        if cfg.discount_mode == "modified":
            return train_with_estimated_discounts(
                sentences, cfg.order, vocab=vocab, fallback=cfg.discount
            )
        return train(
            sentences, cfg.order, discounts=DiscountSchedule.constant(cfg.discount), vocab=vocab
        )

    author = fit(known)
    trace = lambda_document(
        unknown, author, [fit(s) for s in samples], config=cfg, seed=seed, problem_id=problem.id
    )
    return trace, author, (known, samples, vocab, unknown)


# name -> (config, problem shape)
COUNT_ONCE_CASES = {
    "constant-order1": (LambdaConfig(order=1, refs=3, seed=2), {}),
    "modified-order2": (LambdaConfig(order=2, refs=4, seed=3, discount_mode="modified"), {}),
    "constant-order3-with-replacement": (
        LambdaConfig(order=3, refs=3, seed=4, sampling="with_replacement"), {}
    ),
    "modified-order4-pool-smaller-than-sample": (
        LambdaConfig(order=4, refs=3, seed=5, discount_mode="modified"), {"pool_docs": 1}
    ),
    "constant-order2-oov-unknown": (
        LambdaConfig(order=2, refs=5, seed=6, discount=0.4), {"oov": True}
    ),
    "modified-order3-known-side-adds-tokens": (
        LambdaConfig(order=3, refs=4, seed=8, discount_mode="modified"), {"known_only": "bb"}
    ),
    "modified-order3-empty-n2-bin": (
        LambdaConfig(order=3, refs=4, seed=7, discount_mode="modified", discount=0.6),
        {"single_sentence": True},
    ),
}


class TestCountOncePath:
    """``verify_problem`` counts every model of a problem over one shared
    index; its trace must equal, byte for byte, the trace of the same
    models trained apart and scored through ``lambda_document``."""

    @pytest.mark.parametrize("name", sorted(COUNT_ONCE_CASES))
    def test_matches_public_path(self, name):
        cfg, shape = COUNT_ONCE_CASES[name]
        rng = random.Random(sorted(COUNT_ONCE_CASES).index(name))
        problem = make_problem(rng, oov_unknown=shape.get("oov", False))
        if shape.get("single_sentence"):
            known = Document(id="p1-k1", sentences=(("a", "b", "c", "d", "e"),))
            problem = replace(problem, known_docs=(known,))
        if "known_only" in shape:
            # A token only the known side holds, sorting inside the pool's
            # tokens: scoring numbers it after the pool's forms, the models
            # trained apart number it inside their sorted vocabulary.
            known = Document(id="p1-k3", sentences=(("a", shape["known_only"], "c"),))
            problem = replace(problem, known_docs=(*problem.known_docs, known))
        pool = make_refs(rng, n=shape.get("pool_docs", 4))
        expected, author, (known, samples, vocab, unknown) = public_path_trace(
            problem, pool, cfg
        )
        assert verify_problem(problem, pool, cfg).to_json() == expected.to_json()

        if "pool_docs" in shape:
            assert sum(len(d.sentences) for d in pool) < len(known)
        if "oov" in shape:
            assert any(t not in vocab for s in unknown for t in s)
        if "known_only" in shape:
            assert all(shape["known_only"] not in s for d in pool for s in d.sentences)
        if shape.get("single_sentence"):
            # n2 is empty, so the count-2 discount is the fallback.
            assert author.discounts.bins[1] == cfg.discount
        if cfg.discount_mode == "constant":
            tokens, _, total = oracle_lambda_document(
                unknown, known, samples, cfg.order,
                DiscountSchedule.constant(cfg.discount), vocab.sorted_items(),
            )
            assert [ts.score for ts in expected.token_scores] == pytest.approx(tokens, abs=1e-9)
            assert expected.total == pytest.approx(total, abs=1e-9)


class TestGatheredStream:
    """A problem numbers its tokens once, and its counted sentences,
    gathered from the pool's codes and decoded with that numbering, are the
    sentences the counter is handed: the distinct drawn pool sentences, the
    known side and, where constant mode counts for it, the unknown document
    as the queries; and the document is queried as its sentences, by the
    gram ids of its stream on the counted index. Constant mode takes them
    from the counter and encodes nothing; modified mode encodes the
    document."""

    @settings(max_examples=120, deadline=None)
    @given(
        pool=st.lists(st.lists(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=5)
                               .map(tuple), min_size=1, max_size=3), min_size=1, max_size=3),
        known=st.lists(st.lists(st.sampled_from((*ALPHABET, "bb")), min_size=1, max_size=5)
                       .map(tuple), min_size=1, max_size=6),
        unknown=st.lists(st.lists(st.sampled_from((*ALPHABET, "zzz")), min_size=1, max_size=5)
                         .map(tuple), min_size=1, max_size=3),
        order=st.integers(1, 5),
        refs=st.integers(1, 4),
        seed=st.integers(0, 1000),
        discount_mode=st.sampled_from(["constant", "modified"]),
        sampling=st.sampled_from(SAMPLING_MODES),
    )
    @example(  # the fallback, repeated draws, a known-side token, filtered counting
        pool=[[("a", "b"), ("c", ".")]], known=[("a", "bb", "c")] * 3 + [("d",)],
        unknown=[("bb", "zzz", "a")], order=4, refs=3, seed=1,
        discount_mode="constant", sampling="without_replacement",
    )
    @example(  # unfiltered counting, drawing with replacement from a larger pool
        pool=[[("a", "b"), ("c", ".")], [("d", "e", "a"), ("b",), ("e", ".")]],
        known=[("a", "b"), ("e",)], unknown=[("c", "d")], order=2, refs=4, seed=3,
        discount_mode="modified", sampling="with_replacement",
    )
    def test_equals_token_stream_of_coded_sentences(
        self, pool, known, unknown, order, refs, seed, discount_mode, sampling
    ):
        pool_docs = tuple(Document(id=f"ref{i}", sentences=tuple(d)) for i, d in enumerate(pool))
        problem = VerificationProblem(
            id="p",
            unknown_docs=(Document(id="u", sentences=tuple(unknown)),),
            known_docs=(Document(id="k", sentences=tuple(known)),),
        )
        cfg = LambdaConfig(
            order=order, refs=refs, seed=seed, discount_mode=discount_mode, sampling=sampling
        )
        counted, queried, numbered, encoded = [], [], [], []
        count, query = CountTable.from_sentences.__func__, scoring.sentence_probs
        number, encode = scoring.token_codes, GramIndex.encode

        def counting(cls, *args, **kwargs):
            counted.append((args, kwargs))
            return count(cls, *args, **kwargs)

        def querying(table, discounts, *stream, **kwargs):
            queried.append((table, *stream))
            return query(table, discounts, *stream, **kwargs)

        def encoding(index, tokens, prev):
            encoded.append((tokens, prev))
            return encode(index, tokens, prev)

        def numbering(forms):
            numbered.append(number(forms))
            return numbered[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CountTable, "from_sentences", classmethod(counting))
            patch.setattr(scoring, "sentence_probs", querying)
            patch.setattr(scoring, "token_codes", numbering)
            patch.setattr(GramIndex, "encode", encoding)
            scoring._score_problem(problem, scoring._Pool.of(pool_docs), [cfg])

        pool_sents = [s for d in pool for s in d]
        vocab = Vocabulary.from_sentences([*pool_sents, *known])
        # One numbering: the pool's forms, then the known side's new ones,
        # each as first seen, then the unknown token and the markers.
        [codes] = numbered
        first_seen = dict.fromkeys(t for s in [*pool_sents, *known] for t in s)
        assert list(codes) == [*first_seen, UNK, BOS, EOS]
        assert set(codes) == vocab.items | {BOS, EOS}
        names = {code: token for token, code in codes.items()}
        samples = oracle_sample_reference_sets(
            range(len(pool_sents)), len(known), refs, derive_seed(seed, "p"), sampling
        )
        drawn = sorted({i for sample in samples for i in sample})
        training = [*(pool_sents[i] for i in drawn), *known]
        # Constant mode counts for the unknown document, whose sentences end
        # the counted ones; modified mode counts every window of the
        # training side.
        queries = len(unknown) if discount_mode == "constant" else 0

        def tokens(sentences):
            return [vocab.map(t) for sent in sentences for t in sent]

        [((flat, lengths, models, got_order, width, got_queries), kwargs)] = counted
        assert (got_order, width, got_queries, kwargs) == (order, len(codes), queries, {})
        assert flat.dtype == np.min_scalar_type(len(codes) - 1)
        assert [names[c] for c in flat.tolist()] == tokens([*training, *unknown[:queries]])
        assert lengths.tolist() == [len(sent) for sent in [*training, *unknown[:queries]]]
        assert list(models[0]) == list(range(len(drawn), len(training)))
        assert [[drawn[i] for i in rows] for rows in models[1:]] == samples

        document = np.array([codes[t] for t in tokens(unknown)])
        stream = token_stream(document, np.array([len(sent) for sent in unknown]), len(codes))
        assert queried
        for table, ids, got_lengths in queried:
            assert got_lengths.tolist() == [len(sent) for sent in unknown]
            assert np.array_equal(ids, table.index.encode(*stream[:2]))
        if queries:
            assert encoded == []
        else:
            [(got_tokens, got_prev)] = encoded
            assert np.array_equal(got_tokens, stream[0]) and np.array_equal(got_prev, stream[1])


def renamed(doc, rename):
    return Document(
        id=doc.id, sentences=tuple(tuple(rename[t] for t in s) for s in doc.sentences)
    )


class TestRenamingInvariance:
    """Scores depend on which tokens are equal, not on their names: renaming
    tokens one to one, with a permutation that reorders the sorted
    vocabulary and so every token code, leaves every token score
    bit-identical."""

    @settings(max_examples=20, deadline=None)
    @given(
        names=st.permutations((*ALPHABET, "zzz")),
        discount_mode=st.sampled_from(["constant", "modified"]),
        seed=st.integers(0, 1000),
    )
    def test_token_scores_bit_identical(self, names, discount_mode, seed):
        rename = dict(zip((*ALPHABET, "zzz"), names))
        rng = random.Random(seed)
        problems = tuple(make_problem(rng, f"p{i}", oov_unknown=i == 0) for i in range(4))
        corpus = Corpus(problems=problems, reference_docs=make_refs(rng, 5))
        renamed_corpus = Corpus(
            problems=tuple(
                replace(
                    p,
                    unknown_docs=tuple(renamed(d, rename) for d in p.unknown_docs),
                    known_docs=tuple(renamed(d, rename) for d in p.known_docs),
                )
                for p in problems
            ),
            reference_docs=tuple(renamed(d, rename) for d in corpus.reference_docs),
        )
        cfg = LambdaConfig(order=4, refs=7, seed=seed, discount_mode=discount_mode)
        before = score_corpus(corpus, cfg)
        after = score_corpus(renamed_corpus, cfg)
        rename[EOS] = EOS
        for b, a in zip(before, after, strict=True):
            assert [rename[ts.token] for ts in b.token_scores] == [ts.token for ts in a.token_scores]
            assert [ts.score.hex() for ts in b.token_scores] == [
                ts.score.hex() for ts in a.token_scores
            ]
            assert b.total.hex() == a.total.hex()


TAGGED_ALPHABET = (
    ("The", "DET"), ("of", "ADP"), ("she", "PRON"), (".", "PUNCT"),
    ("cat", "NOUN"), ("runs", "VERB"), ("red", "ADJ"), ("Paris", "PROPN"),
)

RETAIN_CAT = MaskingLexicon(
    retain=frozenset({"cat"}),
    placeholders={
        "NOUN": "N", "PROPN": "P", "VERB": "V", "ADJ": "J",
        "ADV": "B", "NUM": "D", "SYM": "S",
    },
)


def tagged_doc(rng, doc_id, n_sents=4, max_len=6):
    return Document(
        id=doc_id,
        sentences=tuple(
            tuple(
                TaggedToken(*rng.choice(TAGGED_ALPHABET))
                for _ in range(rng.randrange(1, max_len + 1))
            )
            for _ in range(n_sents)
        ),
    )


class PreparationSpy:
    """Counts, while installed, the tagged documents ``mask_document``
    masks (by id), the tokens that reach ``mask_token`` (by lexicon and
    token), and the pools ``_Pool.of`` prepares."""

    def __init__(self, monkeypatch):
        self.docs, self.tokens, self.pools = Counter(), Counter(), []
        mask_doc, mask_tok = masking.mask_document, masking.mask_token
        prepare = scoring._Pool.of.__func__

        def doc(d, lexicon):
            if d.is_tagged:
                self.docs[d.id] += 1
            return mask_doc(d, lexicon)

        def token(t, lexicon):
            self.tokens[id(lexicon), t] += 1
            return mask_tok(t, lexicon)

        def of(cls, reference_docs, lexicon=None):
            self.pools.append(reference_docs)
            return prepare(cls, reference_docs, lexicon)

        monkeypatch.setattr(masking, "mask_document", doc)
        monkeypatch.setattr(masking, "mask_token", token)
        monkeypatch.setattr(scoring._Pool, "of", classmethod(of))

    def check(self, lexicon, problem_docs, pools):
        """Each problem document was masked once and no pool document was;
        each distinct token, pool tokens included, reached ``mask_token``
        once under the cold ``lexicon`` and under no other; and each of the
        distinct ``pools`` was prepared once."""
        assert self.docs == Counter(d.id for d in problem_docs)
        pool_tokens = {t for pool in pools for d in pool for sent in d.sentences for t in sent}
        problem_tokens = {t for d in problem_docs for sent in d.sentences for t in sent}
        assert self.tokens == Counter(
            {(id(lexicon), t): 1 for t in pool_tokens | problem_tokens}
        )
        assert len(self.pools) == len(pools)
        assert all(any(p == q for q in self.pools) for p in pools)


def cold(lexicon):
    """An equal lexicon whose memo has masked nothing yet."""
    return replace(lexicon)


def tagged_corpus(rng, n_problems=3, n_refs=5):
    problems = tuple(
        VerificationProblem(
            id=f"p{i}",
            unknown_docs=(tagged_doc(rng, f"p{i}-u"),),
            known_docs=(tagged_doc(rng, f"p{i}-k1"), tagged_doc(rng, f"p{i}-k2")),
            label="Y",
        )
        for i in range(n_problems)
    )
    refs = tuple(tagged_doc(rng, f"ref{i}") for i in range(n_refs))
    return Corpus(problems=problems, reference_docs=refs)


# Surfaces that mask in every way: kept as a function word or a retained
# word (casefolded), replaced by a placeholder, or passed through as a glyph.
POOL_SURFACES = ("The", "the", "cat", "Cat", "runs", "N", "P", "V", ".", "Paris")
# Masked tokens, some equal to a masked form of a tagged token above.
MASKED_TOKENS = ("the", "cat", "N", "P", "J", ".", "x", "Paris")


@st.composite
def mixed_pools(draw):
    """A pool of tagged documents, of masked ones, or of both."""
    kind = draw(st.sampled_from(["tagged", "masked", "mixed"]))
    tagged_token = st.builds(
        TaggedToken, st.sampled_from(POOL_SURFACES), st.sampled_from(sorted(POS_LABELS))
    )
    docs = []
    for i in range(draw(st.integers(0, 4))):
        tagged = kind == "tagged" or (kind == "mixed" and draw(st.booleans()))
        token = tagged_token if tagged else st.sampled_from(MASKED_TOKENS)
        sentences = draw(st.lists(st.lists(token, min_size=1, max_size=6), min_size=1, max_size=4))
        docs.append(Document(id=f"r{i}", sentences=tuple(map(tuple, sentences))))
    return tuple(docs)


class TestPoolOfMatchesMaskThenCode:
    @settings(max_examples=150, deadline=None)
    @given(
        docs=mixed_pools(),
        lexicon=st.sampled_from([default_lexicon(), RETAIN_CAT]),
        warm=st.booleans(),
    )
    def test_equals_oracle(self, docs, lexicon, warm):
        """``_Pool.of`` equals masking each pool document, then building
        the vocabulary and coding the masked sentences, up to how the forms
        are numbered: the same forms, the same stream decoded to tokens,
        ``flat``'s dtype, and offsets. The pool numbers its forms in the
        order first seen. Under a warm memo the oracle has masked every pool
        token first; under a cold one nothing has."""
        lexicon = cold(lexicon)
        if warm:
            expected = oracle_masked_pool(docs, lexicon)
        pool = scoring._Pool.of(docs, lexicon)
        if not warm:
            expected = oracle_masked_pool(docs, lexicon)
        vocab, codes, flat, offsets = expected
        names = {code: token for token, code in codes.items()}
        forms = list(pool.forms)
        decoded = [forms[i] for i in pool.flat.tolist()]
        assert decoded == [names[c] for c in flat.tolist()]
        assert set(forms) == vocab.items - {UNK}
        assert pool.forms == {form: i for i, form in enumerate(dict.fromkeys(decoded))}
        assert pool.flat.dtype == flat.dtype
        assert pool.offsets.dtype == offsets.dtype
        assert pool.offsets.tolist() == offsets.tolist()


class TestReservedGlyphInPool:
    """A lexicon glyph spelled like a reserved token, which only the pool
    would use, fails where the lexicon is built, so no entry point masks a
    pool or scores a problem with it."""

    CFG = LambdaConfig(order=2, refs=2, seed=5)

    @pytest.mark.parametrize("reserved", ["<UNK>", "<BOS>", "<EOS>"])
    @pytest.mark.parametrize("entry", ["verify_problem", "score_corpus", "evaluate_corpus"])
    def test_raises_naming_the_document(self, monkeypatch, entry, reserved):
        def lexicon():
            return replace(RETAIN_CAT, placeholders={**RETAIN_CAT.placeholders, "PROPN": reserved})

        plain = (("The", "DET"), ("cat", "NOUN"), ("runs", "VERB"), (".", "PUNCT"))

        def doc(doc_id, *tokens):
            return Document(id=doc_id, sentences=(tuple(TaggedToken(*t) for t in tokens),))

        def split(prefix):
            return Corpus(
                tuple(
                    VerificationProblem(
                        f"{prefix}{i}", (doc(f"{prefix}{i}-u", *plain),),
                        (doc(f"{prefix}{i}-k", *plain),), label="YN"[i],
                    )
                    for i in range(2)
                ),
                pool,
            )

        proper = ("Paris", "PROPN")
        pool = (doc("r0", *plain), doc("r1", *plain, proper), doc("r2", proper))
        spy = PreparationSpy(monkeypatch)
        scored = []
        monkeypatch.setattr(scoring, "_score_problem", lambda *args: scored.append(args))
        train_split, test_split = split("tr"), split("te")
        calls = {
            "verify_problem": lambda: verify_problem(
                train_split.problems[0], pool, self.CFG, lexicon()
            ),
            "score_corpus": lambda: score_corpus(train_split, self.CFG, lexicon()),
            "evaluate_corpus": lambda: evaluate_corpus(
                train_split, test_split, self.CFG, lexicon()
            ),
        }
        with pytest.raises(LexiconError) as caught:
            calls[entry]()
        assert str(caught.value) == f"placeholder glyph {reserved!r} for PROPN is a reserved token"
        assert (spy.docs, spy.tokens, spy.pools, scored) == (Counter(), Counter(), [], [])


class TestScoreCorpusTagged:
    CFG = LambdaConfig(order=2, refs=2, seed=5)

    def test_each_document_masked_once(self, monkeypatch):
        corpus = tagged_corpus(random.Random(127))
        spy = PreparationSpy(monkeypatch)
        lexicon = cold(default_lexicon())
        score_corpus(corpus, self.CFG, lexicon)
        problem_docs = [d for p in corpus.problems for d in (*p.unknown_docs, *p.known_docs)]
        spy.check(lexicon, problem_docs, [corpus.reference_docs])

    @pytest.mark.parametrize("parallel", [1, 2])
    @pytest.mark.parametrize("lexicon", [None, RETAIN_CAT], ids=["default", "retain-cat"])
    def test_matches_verify_problem(self, parallel, lexicon):
        corpus = tagged_corpus(random.Random(131))
        expected = [
            verify_problem(p, corpus.reference_docs, self.CFG, lexicon).to_json()
            for p in corpus.problems
        ]
        traces = score_corpus(corpus, self.CFG, lexicon, parallel=parallel)
        assert [t.to_json() for t in traces] == expected
        shown = {ts.token for t in traces for ts in t.token_scores}
        assert ("cat" in shown) == (lexicon is RETAIN_CAT)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), order=st.permutations(range(4)))
    def test_problem_order_leaves_traces_unchanged(self, seed, order):
        corpus = tagged_corpus(random.Random(seed), n_problems=4)
        permuted = replace(corpus, problems=tuple(corpus.problems[i] for i in order))
        by_id = {t.problem_id: t.to_json() for t in score_corpus(corpus, self.CFG)}
        assert {t.problem_id: t.to_json() for t in score_corpus(permuted, self.CFG)} == by_id


def labelled_tagged_split(rng, prefix, pool, n_problems=4):
    problems = tuple(
        VerificationProblem(
            id=f"{prefix}{i}",
            unknown_docs=(tagged_doc(rng, f"{prefix}{i}-u"),),
            known_docs=(tagged_doc(rng, f"{prefix}{i}-k"),),
            label="YN"[i % 2],
        )
        for i in range(n_problems)
    )
    return Corpus(problems=problems, reference_docs=pool)


class TestEvaluateTagged:
    def test_each_document_masked_once(self, monkeypatch):
        rng = random.Random(139)
        pool = tuple(tagged_doc(rng, f"ref{i}") for i in range(5))
        train_split = labelled_tagged_split(rng, "tr", pool)
        test_split = labelled_tagged_split(rng, "te", tuple(pool))
        spy = PreparationSpy(monkeypatch)
        lexicon = cold(default_lexicon())
        evaluate_corpus(train_split, test_split, LambdaConfig(order=2, refs=2, seed=5), lexicon)
        problem_docs = [
            d
            for split in (train_split, test_split)
            for p in split.problems
            for d in (*p.unknown_docs, *p.known_docs)
        ]
        spy.check(lexicon, problem_docs, [pool])


class TestCrossGenreTagged:
    CFG = LambdaConfig(order=2, refs=2, seed=5)

    def test_cells_match_evaluate_and_each_document_masked_once(self, monkeypatch):
        rng = random.Random(149)
        domains = []
        for name in ("a", "b"):
            pool = tuple(tagged_doc(rng, f"{name}-ref{i}") for i in range(5))
            train_split = labelled_tagged_split(rng, f"{name}tr", pool)
            domains.append((name, train_split, labelled_tagged_split(rng, f"{name}te", pool)))
        spy = PreparationSpy(monkeypatch)
        lexicon = cold(RETAIN_CAT)
        result = cross_genre(domains, self.CFG, lexicon)
        monkeypatch.undo()
        problem_docs = [
            d
            for _, train_split, test_split in domains
            for split in (train_split, test_split)
            for p in split.problems
            for d in (*p.unknown_docs, *p.known_docs)
        ]
        spy.check(lexicon, problem_docs, [train.reference_docs for _, train, _ in domains])

        for i, (_, train_i, test_i) in enumerate(domains):
            for j, (_, train_j, _) in enumerate(domains):
                pool = train_j.reference_docs
                cell = evaluate_corpus(
                    replace(train_i, reference_docs=pool),
                    replace(test_i, reference_docs=pool),
                    self.CFG,
                    RETAIN_CAT,
                )
                assert result.accuracy[i][j] == cell.report.accuracy
                assert result.cllr[i][j] == cell.report.cllr
        for _, train_split, test_split in domains:
            for split in (train_split, test_split):
                assert mask_corpus(split) == mask_corpus(split, default_lexicon())
