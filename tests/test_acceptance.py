"""End-to-end acceptance checks, one test per criterion.

Each criterion gets exactly one test function, so a verbose run prints one
pass/fail line per criterion. Numeric tolerances and time budgets are stated
inline; the synthetic-corpus experiments use fixed seeds and are fully
deterministic.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from oracles import (
    BOS,
    EOS,
    oracle_continuation_count,
    oracle_isotonic,
    oracle_lambda_document,
    oracle_prefix_type_count,
    oracle_raw_counts,
    oracle_suffix_type_count,
)

from grammarlr.calibration import cllr_from_log_lrs, cllr_min_from_log_lrs, pav_fit
from grammarlr.cli import main as cli_main
from grammarlr.corpus import Document, VerificationProblem
from grammarlr.ngram import DiscountSchedule, Vocabulary, train
from grammarlr.protocol import cross_genre, evaluate_corpus
from grammarlr.scoring import (
    LambdaConfig,
    lambda_document,
    sample_reference_sets,
    verify_problem,
)
from grammarlr.synth import suffixed_alphabet, synth_corpus


def random_sentences(rng, vocab, max_sents=8, max_len=7):
    return [
        [rng.choice(vocab) for _ in range(rng.randint(1, max_len))]
        for _ in range(rng.randint(1, max_sents))
    ]


def random_doc(rng, doc_id, vocab, max_sents=4, max_len=6):
    return Document(
        id=doc_id,
        sentences=tuple(
            tuple(s) for s in random_sentences(rng, vocab, max_sents, max_len)
        ),
    )


@pytest.fixture(scope="module")
def separation_run():
    """Shared synthetic-separation experiment: 25 authors split into an
    author-disjoint train and test half, 50 balanced problems in total."""
    started = time.monotonic()
    kw = dict(seed=6, authors=25, divergence=0.5, sentences_per_doc=20)
    train_corpus = synth_corpus(partition="train", **kw)
    test_corpus = synth_corpus(partition="test", **kw)
    config = LambdaConfig(order=5, refs=30, seed=6)
    result = evaluate_corpus(train_corpus, test_corpus, config)
    return result, time.monotonic() - started, len(train_corpus.problems) + len(
        test_corpus.problems
    )


def test_criterion_01_smoothed_distributions_normalize():
    started = time.monotonic()
    rng = random.Random(11)
    worst = 0.0
    for _ in range(200):
        vocab_syms = [f"t{i}" for i in range(rng.randint(2, 20))]
        order = rng.randint(1, 4)
        sents = random_sentences(rng, vocab_syms)
        model = train(
            sents, order, discounts=DiscountSchedule.constant(rng.uniform(0.1, 0.9))
        )
        items = model.vocab.sorted_items()
        observed = [tuple(s)[: order - 1] for s in sents if order > 1]
        for i in range(50):
            if observed and i % 2 == 0:
                ctx = observed[rng.randrange(len(observed))]
            else:
                k = rng.randint(0, max(order - 1, 0))
                ctx = tuple(rng.choice(items + [BOS]) for _ in range(k))
            total = math.fsum(model.prob(t, ctx) for t in items + [EOS])
            worst = max(worst, abs(total - 1.0))
    elapsed = time.monotonic() - started
    print(f"worst |sum - 1| = {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_02_stored_counts_match_naive_enumerator():
    started = time.monotonic()
    rng = random.Random(22)
    for _ in range(100):
        order = rng.randint(1, 4)
        vocab_syms = [f"t{i}" for i in range(rng.randint(2, 6))]
        sents = random_sentences(rng, vocab_syms, max_sents=10)
        model = train(sents, order)
        items = model.vocab.sorted_items()
        raw = oracle_raw_counts(
            [[model.vocab.map(t) for t in s] for s in sents], order
        )
        extra = [
            tuple(rng.choice(items) for _ in range(rng.randint(1, order)))
            for _ in range(20)
        ]
        for gram in itertools.chain(raw, extra):
            assert model.count(gram) == raw.get(tuple(gram), 0)
            if len(gram) <= order:
                assert model.continuation_count(gram) == oracle_continuation_count(
                    raw, gram, order, items
                )
            if len(gram) < order:
                for r in (1, 2, 3):
                    for at_least in (False, True):
                        assert model.prefix_type_count(
                            gram, r, at_least=at_least
                        ) == oracle_prefix_type_count(
                            raw, gram, r, items, at_least=at_least
                        )
                        assert model.suffix_type_count(
                            gram, r, at_least=at_least
                        ) == oracle_suffix_type_count(
                            raw, gram, r, items, at_least=at_least
                        )
    elapsed = time.monotonic() - started
    print(f"{elapsed:.1f}s")
    assert elapsed < 5.0


def test_criterion_03_document_scores_match_naive_recomputation():
    started = time.monotonic()
    rng = random.Random(33)
    worst = 0.0
    for i in range(20):
        vocab_syms = [f"t{k}" for k in range(rng.randint(3, 8))]
        order = rng.randint(1, 3)
        refs = rng.randint(1, 3)
        known = tuple(
            random_doc(rng, f"k{j}", vocab_syms) for j in range(rng.randint(1, 2))
        )
        unknown = (random_doc(rng, "u0", vocab_syms),)
        pool = tuple(
            random_doc(rng, f"r{j}", vocab_syms) for j in range(rng.randint(2, 5))
        )
        problem = VerificationProblem(
            id=f"p{i}", unknown_docs=unknown, known_docs=known, label="Y", author=None
        )
        config = LambdaConfig(
            order=order, refs=refs, seed=i, discount=rng.uniform(0.2, 0.9)
        )
        trace = verify_problem(problem, pool, config)

        known_sents = [list(s) for d in known for s in d.sentences]
        pool_sents = [list(s) for d in pool for s in d.sentences]
        samples = sample_reference_sets(
            pool_sents,
            size=len(known_sents),
            count=config.refs,
            seed=trace.seed,
            sampling=config.sampling,
        )
        vocab = Vocabulary.from_sentences(known_sents + pool_sents)
        token_scores, _, total = oracle_lambda_document(
            [list(s) for d in unknown for s in d.sentences],
            known_sents,
            samples,
            order,
            DiscountSchedule.constant(config.discount),
            vocab.sorted_items(),
        )
        assert len(token_scores) == len(trace.token_scores)
        for want, got in zip(token_scores, trace.token_scores):
            worst = max(worst, abs(want - got.score))
        worst = max(worst, abs(total - trace.total))
    elapsed = time.monotonic() - started
    print(f"worst deviation = {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_04_identical_models_score_exactly_zero():
    rng = random.Random(44)
    vocab_syms = ["a", "b", "c", "d"]

    # Direct route: the same model object on both sides of the ratio.
    known = random_sentences(rng, vocab_syms, max_sents=6)
    vocab = Vocabulary.from_sentences(known)
    author = train(known, 3, vocab=vocab)
    refs = [train(known, 3, vocab=vocab) for _ in range(4)]
    trace = lambda_document(random_sentences(rng, vocab_syms, max_sents=3), author, refs)
    assert all(ts.score == 0.0 for ts in trace.token_scores)
    assert trace.total == 0.0

    # Pipeline route: the reference pool is the known material itself, so
    # every sampled reference set is a reordering of the author's sentences.
    docs = tuple(random_doc(rng, f"d{j}", vocab_syms) for j in range(2))
    problem = VerificationProblem(
        id="identity",
        unknown_docs=(random_doc(rng, "u", vocab_syms),),
        known_docs=docs,
        label="Y",
        author=None,
    )
    trace = verify_problem(problem, docs, LambdaConfig(order=3, refs=3, seed=44))
    assert all(ts.score == 0.0 for ts in trace.token_scores)
    assert trace.total == 0.0


def test_criterion_05_cllr_identities():
    neutral = cllr_from_log_lrs([0.0] * 7, [0.0] * 5)
    assert abs(neutral - 1.0) <= 1e-12

    pencil = cllr_from_log_lrs([math.log(3.0)], [math.log(1.0 / 3.0)])
    assert abs(pencil - math.log2(4.0 / 3.0)) <= 1e-12

    rng = np.random.default_rng(5000)
    worst_split = 0.0
    min_cal = float("inf")
    for _ in range(100):
        n_same = int(rng.integers(15, 41))
        n_diff = int(rng.integers(15, 41))
        shift = float(rng.uniform(0.3, 2.5))
        scale = float(rng.uniform(0.5, 2.0))
        log_same = rng.normal(shift, scale, n_same)
        log_diff = rng.normal(0.0, scale, n_diff)
        full = cllr_from_log_lrs(log_same, log_diff)
        floor, cal = cllr_min_from_log_lrs(log_same, log_diff)
        worst_split = max(worst_split, abs(full - (floor + cal)))
        min_cal = min(min_cal, cal)
    print(f"worst decomposition gap = {worst_split:.3e}, min cal loss = {min_cal:.3f}")
    assert worst_split <= 1e-9
    assert min_cal >= 0.0


def test_criterion_06_pav_matches_exhaustive_isotonic_search():
    def check(scores, labels):
        got = list(pav_fit(np.asarray(scores, dtype=float), labels))
        assert got == oracle_isotonic(scores, labels), (scores, labels)

    for n in range(1, 9):  # distinct scores, every label vector
        for mask in range(1 << n):
            check(list(range(n)), ["Y" if (mask >> i) & 1 else "N" for i in range(n)])
    for n in range(2, 9):  # paired ties, every label vector
        for mask in range(1 << n):
            check(
                [i // 2 for i in range(n)],
                ["Y" if (mask >> i) & 1 else "N" for i in range(n)],
            )
    rng = random.Random(6)  # irregular tie layouts
    for _ in range(300):
        n = rng.randint(1, 8)
        check(
            [rng.randint(0, 3) for _ in range(n)],
            [rng.choice("YN") for _ in range(n)],
        )


def test_criterion_07_synthetic_separation(separation_run):
    result, elapsed, n_problems = separation_run
    report = result.report
    print(
        f"{n_problems} problems, auc={report.auc:.3f}, acc={report.accuracy:.3f}, "
        f"calibrated cllr={report.cllr:.3f}, {elapsed:.1f}s"
    )
    assert n_problems == 50
    assert report.auc >= 0.9
    assert report.accuracy >= 0.8
    assert report.cllr < 1.0
    assert elapsed < 60.0


def test_criterion_08_calibration_closes_most_of_the_gap(separation_run):
    result, _, _ = separation_run
    report = result.report
    print(
        f"raw cllr={result.cllr_raw:.3f} > calibrated {report.cllr:.3f} "
        f">= floor {report.cllr_min:.3f}"
    )
    assert result.cllr_raw > report.cllr >= report.cllr_min
    assert report.cllr - report.cllr_min < 0.2


def test_criterion_09_reference_count_stability():
    kw = dict(seed=9, authors=50, divergence=0.6, sentences_per_doc=20)
    train_corpus = synth_corpus(partition="train", **kw)
    test_corpus = synth_corpus(partition="test", **kw)

    accuracy = {}
    for refs in (30, 100):
        config = LambdaConfig(order=3, refs=refs, seed=9)
        accuracy[refs] = evaluate_corpus(train_corpus, test_corpus, config).report.accuracy

    def spread(refs, problem):
        scores = [
            verify_problem(
                problem,
                test_corpus.reference_docs,
                LambdaConfig(order=3, refs=refs, seed=1000 + s),
            ).total
            for s in range(10)
        ]
        return float(np.std(scores, ddof=1))

    problems = test_corpus.problems[:10]
    std_few = float(np.mean([spread(1, p) for p in problems]))
    std_many = float(np.mean([spread(30, p) for p in problems]))
    print(
        f"mean score std: r=1 {std_few:.3f} vs r=30 {std_many:.3f}; "
        f"acc r=30 {accuracy[30]:.4f} vs r=100 {accuracy[100]:.4f}"
    )
    assert std_many < std_few
    assert abs(accuracy[30] - accuracy[100]) <= 0.02


def test_criterion_10_evaluation_runs_are_byte_identical(tmp_path):
    corpus_dir = tmp_path / "corpus"
    assert (
        cli_main(
            [
                "synth",
                "--out",
                str(corpus_dir),
                "--authors",
                "6",
                "--sentences-per-doc",
                "8",
                "--ref-docs",
                "2",
                "--divergence",
                "0.7",
            ]
        )
        == 0
    )
    outputs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = cli_main(
            [
                "evaluate",
                str(corpus_dir),
                "--order",
                "2",
                "--refs",
                "3",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_criterion_11_cross_genre_loss_matrix():
    def pair(seed, alphabet=None):
        kw = dict(
            seed=seed,
            authors=20,
            divergence=0.5,
            sentences_per_doc=20,
            alphabet=alphabet,
        )
        return (
            synth_corpus(partition="train", **kw),
            synth_corpus(partition="test", **kw),
        )

    a_train, a_test = pair(1)
    b_train, b_test = pair(101, alphabet=suffixed_alphabet("_b"))
    config = LambdaConfig(order=3, refs=20, seed=1)
    result = cross_genre(
        [("plain", a_train, a_test), ("suffixed", b_train, b_test)], config
    )
    loss = result.accuracy_loss
    print(f"accuracy={result.accuracy} cllr={result.cllr}")
    assert loss[0][0] == 0.0 and loss[1][1] == 0.0
    assert loss[0][1] > 0.0 and loss[1][0] > 0.0
    for row in result.cllr:
        for cell in row:
            assert cell <= 1.05
