import dataclasses
import json
import logging
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from grammarlr import protocol, scoring
from grammarlr.calibration import SLOPE_CAP, decide
from grammarlr.corpus import Corpus, CorpusError
from grammarlr.protocol import (
    EvaluationResult,
    cross_genre,
    check_author_disjoint,
    evaluate_corpus,
    sweep_grid,
)
from grammarlr.scoring import SAMPLING_MODES, LambdaConfig, score_corpus
from grammarlr.synth import DEFAULT_ALPHABET, suffixed_alphabet, synth_corpus

SYNTH_ARGS = dict(
    seed=0,
    authors=6,
    sentences_per_doc=8,
    ref_docs_per_author=2,
    divergence=0.7,
)


def split(**kwargs):
    args = dict(SYNTH_ARGS)
    args.update(kwargs)
    return (
        synth_corpus(partition="train", **args),
        synth_corpus(partition="test", **args),
    )


@pytest.fixture()
def config():
    return LambdaConfig(order=2, refs=3, seed=11)


@pytest.fixture()
def corpora():
    return split()


class TestSynthCorpus:
    def test_deterministic(self):
        assert synth_corpus(partition="test", **SYNTH_ARGS) == synth_corpus(
            partition="test", **SYNTH_ARGS
        )

    def test_partitions_author_disjoint_share_references(self):
        train, test = split()
        train_authors = {p.author for p in train.problems}
        test_authors = {p.author for p in test.problems}
        assert train_authors and test_authors
        assert not train_authors & test_authors
        assert train.reference_docs == test.reference_docs
        assert train.partition == "train"
        assert test.partition == "test"

    def test_labels_balanced_and_metadata_present(self):
        train, test = split()
        for corpus in (train, test):
            labels = [p.label for p in corpus.problems]
            assert labels.count("Y") == labels.count("N")
            assert all(p.author for p in corpus.problems)
            assert all(len(p.known_docs) == 2 for p in corpus.problems)
            assert all(
                len(d.sentences) == 8
                for p in corpus.problems
                for d in p.unknown_docs + p.known_docs
            )

    def test_divergence_zero_and_one_accepted(self):
        for div in (0.0, 1.0):
            corpus = split(divergence=div)[1]
            assert corpus.problems

    def test_suffixed_alphabet_token_disjoint(self):
        plain = split()[1]
        sfx = split(alphabet=suffixed_alphabet("_q"))[1]

        def tokens(corpus):
            out = set()
            for doc in corpus.reference_docs + tuple(
                d for p in corpus.problems for d in p.unknown_docs + p.known_docs
            ):
                for sentence in doc.sentences:
                    out.update(sentence)
            return out

        assert not tokens(plain) & tokens(sfx)
        assert len(suffixed_alphabet("_q")) == len(DEFAULT_ALPHABET)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 5 authors"):
            synth_corpus(seed=0, authors=4)
        with pytest.raises(ValueError):
            synth_corpus(seed=0, authors=6, divergence=1.5)
        with pytest.raises(ValueError):
            synth_corpus(seed=0, authors=6, partition="dev")
        with pytest.raises(ValueError):
            synth_corpus(seed=0, authors=6, alphabet=("a", "a", "."))
        with pytest.raises(ValueError):
            synth_corpus(seed=0, authors=6, train_fraction=1.0)


class TestEvaluate:
    def test_result_shape_and_consistency(self, corpora, config):
        train, test = corpora
        result = evaluate_corpus(train, test, config)
        report = result.report
        assert len(result.train_results) == len(train.problems)
        assert len(result.test_results) == len(test.problems)
        assert report.tp + report.fn + report.fp + report.tn == len(test.problems)
        assert 0.0 <= report.accuracy <= 1.0
        assert 0.0 <= report.auc <= 1.0
        assert report.cllr_min >= 0.0
        assert report.cllr == pytest.approx(report.cllr_min + report.cllr_cal, abs=1e-9)
        assert result.cllr_raw >= 0.0
        for row, problem in zip(result.test_results, test.problems):
            assert row.problem_id == problem.id
            assert row.label == problem.label
            assert row.decision == decide(row.log_lr)
            assert row.log_lr == pytest.approx(
                result.calibration.apply(row.score), abs=1e-12
            )

    def test_json_deterministic_and_parseable(self, corpora, config):
        train, test = corpora
        a = evaluate_corpus(train, test, config).to_json()
        b = evaluate_corpus(train, test, config).to_json()
        assert a == b
        payload = json.loads(a)
        assert payload["metrics"]["cllr"] >= 0.0
        assert payload["test_problems"][0]["lambda"] == pytest.approx(
            evaluate_corpus(train, test, config).test_results[0].score
        )

    def test_parallel_matches_serial(self, corpora, config):
        train, test = corpora
        serial = evaluate_corpus(train, test, config, parallel=1)
        twice = evaluate_corpus(train, test, config, parallel=2)
        assert serial.to_json() == twice.to_json()

    def test_shared_authors_rejected(self, corpora, config):
        train, _ = corpora
        with pytest.raises(CorpusError, match="share authors"):
            evaluate_corpus(train, train, config)

    def test_author_check_skipped_without_metadata(self, corpora, config):
        train, test = corpora
        anonymous = dataclasses.replace(
            train,
            problems=tuple(
                dataclasses.replace(p, author=None) for p in train.problems
            ),
        )
        check_author_disjoint(anonymous, test)

    def test_missing_labels_rejected(self, corpora, config):
        train, test = corpora
        unlabeled = dataclasses.replace(
            test,
            problems=tuple(
                dataclasses.replace(p, label=None) for p in test.problems
            ),
        )
        with pytest.raises(CorpusError, match="has no label"):
            evaluate_corpus(train, unlabeled, config)

    def test_empty_split_rejected(self, corpora, config):
        train, test = corpora
        empty = dataclasses.replace(test, problems=())
        with pytest.raises(CorpusError, match="no problems"):
            evaluate_corpus(train, empty, config)

    @pytest.mark.parametrize("role, label", [("train", "Y"), ("test", "N")])
    def test_one_class_split_rejected_before_scoring(self, corpora, config, monkeypatch, role, label):
        splits = dict(zip(("train", "test"), corpora))
        splits[role] = dataclasses.replace(
            splits[role],
            problems=tuple(dataclasses.replace(p, label=label) for p in splits[role].problems),
        )

        def scored(*args, **kwargs):
            raise AssertionError("a problem was scored")

        monkeypatch.setattr(protocol, "_score_problems", scored)
        with pytest.raises(CorpusError, match=f"{role} split has only '{label}' problems"):
            evaluate_corpus(splits["train"], splits["test"], config)


# Small enough that the sweep property test can evaluate every cell apart.
SWEEP_CORPORA = split(sentences_per_doc=5)


class TestSeparationWarning:
    """A calibration fit that separates the train split says so once on the
    grammarlr logger, naming the split, the cell and the slope cap."""

    def test_separated_fit_warns_once(self, caplog):
        train, test = split(seed=3, divergence=0.5)
        config = LambdaConfig(order=3, refs=4, seed=5)
        with caplog.at_level(logging.WARNING, logger="grammarlr"):
            result = evaluate_corpus(train, test, config)
        assert result.calibration.separated
        assert [(r.name, r.levelno) for r in caplog.records] == [("grammarlr", logging.WARNING)]
        message = caplog.records[0].getMessage()
        assert "train split" in message
        assert "order 3, refs 4" in message
        assert f"{SLOPE_CAP:g}" in message

    def test_fit_that_does_not_separate_is_quiet(self, caplog):
        train, test = split(seed=1, divergence=0.1)
        with caplog.at_level(logging.WARNING, logger="grammarlr"):
            result = evaluate_corpus(train, test, LambdaConfig(order=2, refs=3, seed=11))
        assert not result.calibration.separated
        assert caplog.records == []


def per_cell_rows(train, test, base, ref_counts, orders):
    rows = []
    for r in ref_counts:
        for n in orders:
            cfg = dataclasses.replace(base, refs=r, order=n)
            report = evaluate_corpus(train, test, cfg).report
            rows.append(
                {
                    "refs": r,
                    "order": n,
                    "accuracy": report.accuracy,
                    "auc": report.auc,
                    "cllr": report.cllr,
                    "cllr_min": report.cllr_min,
                    "cllr_cal": report.cllr_cal,
                }
            )
    return rows


class TestSweep:
    def test_grid_rows(self, corpora, config):
        train, test = corpora
        rows = sweep_grid(train, test, config, ref_counts=[1, 3], orders=[2, 3])
        assert len(rows) == 4
        assert [(r["refs"], r["order"]) for r in rows] == [
            (1, 2),
            (1, 3),
            (3, 2),
            (3, 3),
        ]
        for row in rows:
            assert set(row) == {
                "refs",
                "order",
                "accuracy",
                "auc",
                "cllr",
                "cllr_min",
                "cllr_cal",
            }
            assert 0.0 <= row["accuracy"] <= 1.0

    def test_empty_grid_rejected(self, corpora, config):
        train, test = corpora
        with pytest.raises(ValueError, match="non-empty"):
            sweep_grid(train, test, config, ref_counts=[], orders=[2])

    @settings(max_examples=15, deadline=None)
    @given(
        ref_counts=st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
        orders=st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
        discount_mode=st.sampled_from(("constant", "modified")),
        sampling=st.sampled_from(SAMPLING_MODES),
        seed=st.integers(0, 1000),
    )
    @example(ref_counts=[5, 2, 6], orders=[3, 1, 4], discount_mode="modified",
             sampling="with_replacement", seed=3)
    @example(ref_counts=[3, 1], orders=[4, 1, 2], discount_mode="constant",
             sampling="without_replacement", seed=0)
    def test_rows_equal_one_evaluation_per_cell(
        self, ref_counts, orders, discount_mode, sampling, seed
    ):
        # The sweep counts each problem once for its whole grid; each row
        # must still be the row of a separate evaluation of its cell.
        train, test = SWEEP_CORPORA
        base = LambdaConfig(seed=seed, discount_mode=discount_mode, sampling=sampling)
        rows = sweep_grid(train, test, base, ref_counts, orders)
        assert json.dumps(rows) == json.dumps(per_cell_rows(train, test, base, ref_counts, orders))

    def test_parallel_matches_serial(self, corpora, config):
        train, test = corpora
        serial = sweep_grid(train, test, config, [3, 1], [1, 3], parallel=1)
        parallel = sweep_grid(train, test, config, [3, 1], [1, 3], parallel=2)
        assert json.dumps(parallel) == json.dumps(serial)

    def test_invalid_cell_fails_before_any_scoring(self, corpora, config, monkeypatch):
        calls = []
        real = scoring.sentence_probs

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(scoring, "sentence_probs", spy)
        train, test = corpora
        with pytest.raises(ValueError, match="refs"):
            sweep_grid(train, test, config, ref_counts=[3, 0], orders=[2])
        assert calls == []

    @pytest.mark.parametrize(
        "ref_counts, orders, name",
        [([3, 1, 3], [2], "refs"), ([1], [2, 2], "order"), ([2, 2], [1, 3, 1], "refs")],
    )
    def test_repeated_value_rejected_before_any_scoring(
        self, corpora, config, monkeypatch, ref_counts, orders, name
    ):
        """A repeated value would score and report one cell twice."""
        calls = []
        monkeypatch.setattr(protocol, "_prepared", lambda *a: calls.append(a))
        train, test = corpora
        with pytest.raises(ValueError, match=f"must not repeat a value: {name}"):
            sweep_grid(train, test, config, ref_counts, orders)
        assert calls == []


class TestCrossGenre:
    @pytest.fixture()
    def result(self, config):
        plain_train, plain_test = split()
        sfx_train, sfx_test = split(seed=1, alphabet=suffixed_alphabet("_q"))
        return (
            cross_genre(
                [("plain", plain_train, plain_test), ("sfx", sfx_train, sfx_test)],
                config,
            ),
            evaluate_corpus(plain_train, plain_test, config),
        )

    def test_matrix_shape(self, result):
        matrix, _ = result
        assert matrix.names == ("plain", "sfx")
        assert len(matrix.accuracy) == 2
        assert all(len(row) == 2 for row in matrix.accuracy)
        assert all(len(row) == 2 for row in matrix.cllr)

    def test_diagonal_matches_standalone_run(self, result):
        matrix, standalone = result
        assert matrix.accuracy[0][0] == standalone.report.accuracy
        assert matrix.cllr[0][0] == standalone.report.cllr

    def test_loss_matrices(self, result):
        matrix, _ = result
        assert matrix.accuracy_loss[0][0] == 0.0
        assert matrix.accuracy_loss[1][1] == 0.0
        assert matrix.cllr_excess[0][0] == 0.0
        for i in range(2):
            for j in range(2):
                assert matrix.accuracy_loss[i][j] == pytest.approx(
                    matrix.accuracy[i][i] - matrix.accuracy[i][j]
                )
        payload = matrix.to_json_dict()
        assert set(payload) == {
            "names",
            "accuracy",
            "cllr",
            "accuracy_loss",
            "cllr_excess",
        }
        assert json.dumps(payload)

    def test_needs_two_corpora(self, config):
        train, test = split()
        with pytest.raises(ValueError, match="at least two"):
            cross_genre([("only", train, test)], config)


class TestPoolPreparedOnce:
    """Train and test of one protocol call share one reference pool, and
    it is masked and coded once for both: once per ``evaluate_corpus`` and
    ``sweep_grid`` call and once per domain of a ``cross_genre`` call, also
    when workers score the problems."""

    @pytest.fixture()
    def prepared(self, monkeypatch):
        calls = []
        real = scoring._Pool.of.__func__

        def counting(cls, reference_docs, lexicon=None):
            calls.append(len(reference_docs))
            return real(cls, reference_docs, lexicon)

        monkeypatch.setattr(scoring._Pool, "of", classmethod(counting))
        return calls

    def test_evaluate_and_sweep(self, prepared, corpora, config):
        train, test = corpora
        evaluate_corpus(train, test, config)
        assert len(prepared) == 1
        sweep_grid(train, test, config, [1, 3], [1, 2])
        assert len(prepared) == 2

    def test_splits_with_different_pools(self, prepared, corpora, config):
        """Splits with different pools each score against their own, each
        prepared once."""
        train, test = corpora
        test = dataclasses.replace(test, reference_docs=test.reference_docs[::2])
        result = evaluate_corpus(train, test, config)
        assert len(prepared) == 2
        for rows, corpus in ((result.train_results, train), (result.test_results, test)):
            assert [r.score for r in rows] == [t.total for t in score_corpus(corpus, config)]

    def test_workers_receive_the_prepared_pool(self, prepared, corpora, config, monkeypatch):
        import concurrent.futures

        class InProcessPool:
            """Runs the pool's jobs in this process, as workers would."""

            def __init__(self, max_workers, initializer, initargs):
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(scoring, "_worker_job", ())
        train, test = corpora
        parallel = evaluate_corpus(train, test, config, parallel=2)
        assert len(prepared) == 1
        assert parallel.to_json() == evaluate_corpus(train, test, config).to_json()

    def test_cross_genre_cells(self, prepared, config):
        plain_train, plain_test = split()
        sfx_train, sfx_test = split(seed=1, alphabet=suffixed_alphabet("_q"))
        cross_genre([("plain", plain_train, plain_test), ("sfx", sfx_train, sfx_test)], config)
        assert len(prepared) == 2
