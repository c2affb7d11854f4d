import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from oracles import oracle_lambda_document

from grammarlr import masking, scoring
from grammarlr.corpus import Corpus, Document, TaggedToken, VerificationProblem
from grammarlr.errors import ContractError, DataError
from grammarlr.masking import MaskingLexicon
from grammarlr.ngram import (
    EOS,
    UNK,
    DiscountSchedule,
    Vocabulary,
    train,
    train_with_estimated_discounts,
)
from grammarlr.protocol import evaluate_corpus
from grammarlr.scoring import (
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

    def test_json_round_trip(self):
        cfg = LambdaConfig(order=4, refs=7, seed=99, discount=0.5, discount_mode="modified")
        assert LambdaConfig.from_json_dict(cfg.to_json_dict()) == cfg


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

    def test_deterministic_in_seed(self):
        pool = self._pool(9)
        a = sample_reference_sets(pool, size=3, count=5, seed=7)
        b = sample_reference_sets(pool, size=3, count=5, seed=7)
        c = sample_reference_sets(pool, size=3, count=5, seed=8)
        assert a == b
        assert a != c

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
        cfg = LambdaConfig(order=1, refs=1)
        with pytest.raises(ContractError, match="decompose"):
            LambdaTrace(
                token_scores=(TokenScore("a", 0, 1, 1.0),),
                sentence_scores=(1.0,),
                total=2.0,
                config=cfg,
                seed=0,
            )


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


class TestScoreCorpus:
    def _corpus(self, rng, n_problems=3):
        problems = tuple(make_problem(rng, f"p{i}") for i in range(n_problems))
        return Corpus(problems=problems, reference_docs=make_refs(rng, 5))

    def test_order_preserved(self):
        rng = random.Random(107)
        corpus = self._corpus(rng)
        traces = score_corpus(corpus, LambdaConfig(order=2, refs=2, seed=1))
        assert [t.problem_id for t in traces] == [p.id for p in corpus.problems]

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
        pool = make_refs(rng, n=shape.get("pool_docs", 4))
        expected, author, (known, samples, vocab, unknown) = public_path_trace(
            problem, pool, cfg
        )
        assert verify_problem(problem, pool, cfg).to_json() == expected.to_json()

        if "pool_docs" in shape:
            assert sum(len(d.sentences) for d in pool) < len(known)
        if "oov" in shape:
            assert any(t not in vocab for s in unknown for t in s)
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


class TestScoreCorpusTagged:
    CFG = LambdaConfig(order=2, refs=2, seed=5)

    def test_each_document_masked_once(self, monkeypatch):
        corpus = tagged_corpus(random.Random(127))
        masked = Counter()
        real = masking.mask_document

        def counting(doc, lexicon):
            if doc.is_tagged:
                masked[doc.id] += 1
            return real(doc, lexicon)

        monkeypatch.setattr(masking, "mask_document", counting)
        monkeypatch.setattr(scoring, "mask_document", counting)
        score_corpus(corpus, self.CFG)
        doc_ids = [
            d.id for p in corpus.problems for d in (*p.unknown_docs, *p.known_docs)
        ] + [d.id for d in corpus.reference_docs]
        assert masked == Counter(doc_ids)

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
        masked = Counter()
        real = masking.mask_document

        def counting(doc, lexicon):
            if doc.is_tagged:
                masked[doc.id] += 1
            return real(doc, lexicon)

        monkeypatch.setattr(masking, "mask_document", counting)
        monkeypatch.setattr(scoring, "mask_document", counting)
        evaluate_corpus(train_split, test_split, LambdaConfig(order=2, refs=2, seed=5))
        doc_ids = [
            d.id
            for split in (train_split, test_split)
            for p in split.problems
            for d in (*p.unknown_docs, *p.known_docs)
        ] + [d.id for d in pool]
        assert masked == Counter(doc_ids)
