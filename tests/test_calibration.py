import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    oracle_classification_metrics,
    oracle_cllr_min_from_log_lrs,
    oracle_isotonic,
    oracle_pav_fit,
    oracle_roc_auc,
)

from grammarlr.calibration import (
    SLOPE_CAP,
    CalibrationModel,
    MetricsReport,
    build_metrics_report,
    classification_metrics,
    cllr_from_log_lrs,
    cllr_min_from_log_lrs,
    decide,
    fit_calibration,
    log10_lr,
    pav_fit,
    roc_auc,
)
from grammarlr.errors import CalibrationError


def overlapping_scores(rng, n_each=20, gap=1.0):
    same = [rng.gauss(gap, 1.0) for _ in range(n_each)]
    diff = [rng.gauss(-gap, 1.0) for _ in range(n_each)]
    return same + diff, ["Y"] * n_each + ["N"] * n_each


class TestFitCalibration:
    def test_balanced_constant_scores_give_identity(self):
        model = fit_calibration([1.0, 1.0, 1.0, 1.0], ["Y", "Y", "N", "N"])
        assert model.intercept == 0.0
        assert model.slope == 0.0
        assert model.prior_log_odds == 0.0
        assert not model.separated
        assert model.apply(123.4) == 0.0

    def test_gradient_vanishes_at_fit(self):
        # The defining property of the maximum-likelihood fit.
        rng = random.Random(7)
        scores, labels = overlapping_scores(rng)
        model = fit_calibration(scores, labels)
        x = np.asarray(scores)
        y = np.asarray([1.0 if lab == "Y" else 0.0 for lab in labels])
        p = 1.0 / (1.0 + np.exp(-(model.intercept + model.slope * x)))
        assert abs(float(np.sum(y - p))) < 1e-6
        assert abs(float(np.sum(x * (y - p)))) < 1e-6

    def test_slope_positive_for_oriented_scores(self):
        rng = random.Random(9)
        scores, labels = overlapping_scores(rng)
        assert fit_calibration(scores, labels).slope > 0.0

    def test_label_inversion_negates_fit(self):
        rng = random.Random(11)
        scores, labels = overlapping_scores(rng)
        flipped = ["N" if lab == "Y" else "Y" for lab in labels]
        m1 = fit_calibration(scores, labels)
        m2 = fit_calibration(scores, flipped)
        assert m2.slope == pytest.approx(-m1.slope, abs=1e-6)
        assert m2.intercept == pytest.approx(-m1.intercept, abs=1e-6)

    def test_shift_equivariance(self):
        rng = random.Random(13)
        scores, labels = overlapping_scores(rng)
        m1 = fit_calibration(scores, labels)
        m2 = fit_calibration([s + 5.0 for s in scores], labels)
        assert m2.slope == pytest.approx(m1.slope, abs=1e-6)
        assert m2.intercept == pytest.approx(m1.intercept - 5.0 * m1.slope, abs=1e-5)

    def test_rescaled_scores_refit_to_same_decisions_and_cost(self):
        # The fit absorbs any positive rescaling of the score axis.
        rng = random.Random(17)
        train_scores, train_labels = overlapping_scores(rng)
        test_scores, test_labels = overlapping_scores(rng)
        base = fit_calibration(train_scores, train_labels)
        base_lrs = [base.apply(s) for s in test_scores]
        base_cost = cllr_from_log_lrs(
            [v for v, lab in zip(base_lrs, test_labels) if lab == "Y"],
            [v for v, lab in zip(base_lrs, test_labels) if lab == "N"],
        )
        for factor in (0.25, 3.0, 40.0):
            refit = fit_calibration([s * factor for s in train_scores], train_labels)
            lrs = [refit.apply(s * factor) for s in test_scores]
            assert [decide(v) for v in lrs] == [decide(v) for v in base_lrs]
            cost = cllr_from_log_lrs(
                [v for v, lab in zip(lrs, test_labels) if lab == "Y"],
                [v for v, lab in zip(lrs, test_labels) if lab == "N"],
            )
            assert cost == pytest.approx(base_cost, abs=1e-6)

    def test_prior_subtracted(self):
        # Unbalanced constant scores: the posterior matches the prior, so
        # calibrated log LRs are zero evidence everywhere.
        model = fit_calibration([2.0, 2.0, 2.0, 2.0], ["Y", "Y", "Y", "N"])
        assert model.prior_log_odds == pytest.approx(math.log(3.0))
        assert model.apply(2.0) == pytest.approx(0.0, abs=1e-6)

    def test_single_class_rejected(self):
        with pytest.raises(CalibrationError, match="both"):
            fit_calibration([1.0, 2.0], ["Y", "Y"])

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            fit_calibration([], [])
        with pytest.raises(ValueError):
            fit_calibration([math.nan, 1.0], ["Y", "N"])
        with pytest.raises(ValueError):
            fit_calibration([1.0, 2.0], ["Y"])
        with pytest.raises(ValueError):
            fit_calibration([1.0, 2.0], ["Y", "maybe"])

    def test_separated_data_hits_cap(self):
        model = fit_calibration([0.0, 1.0, 2.0, 3.0], ["N", "N", "Y", "Y"])
        assert model.separated
        assert model.slope == SLOPE_CAP
        # Boundary centered between the classes.
        assert model.apply(1.5) == pytest.approx(0.0)
        assert model.apply(2.0) > 0.0
        assert model.apply(1.0) < 0.0
        assert math.isfinite(model.apply(1e6))

    def test_separated_reversed_orientation(self):
        model = fit_calibration([0.0, 1.0, 2.0, 3.0], ["Y", "Y", "N", "N"])
        assert model.separated
        assert model.slope == -SLOPE_CAP
        assert model.apply(0.0) > 0.0

    def test_model_json_round_trip(self):
        model = CalibrationModel(intercept=1.5, slope=-2.0, prior_log_odds=0.3, separated=True)
        assert CalibrationModel.from_json_dict(model.to_json_dict()) == model

    def test_model_json_rejects_malformed_fields(self):
        valid = {"intercept": 1.5, "slope": -2.0, "prior_log_odds": 0.3, "separated": False}
        bad_fields = [
            ("intercept", math.nan),
            ("slope", "x"),
            ("slope", True),
            ("prior_log_odds", math.inf),
            ("prior_log_odds", None),
            ("separated", 0),
        ]
        for field, bad in bad_fields:
            with pytest.raises(CalibrationError, match=field):
                CalibrationModel.from_json_dict({**valid, field: bad})
        with pytest.raises(CalibrationError, match="missing"):
            CalibrationModel.from_json_dict({"slope": 1.0})
        with pytest.raises(CalibrationError):
            CalibrationModel.from_json_dict([1.0, 2.0])

    def test_apply_rejects_non_finite(self):
        model = CalibrationModel(intercept=0.0, slope=1.0, prior_log_odds=0.0)
        with pytest.raises(ValueError):
            model.apply(math.inf)


class TestDecide:
    def test_strictly_positive_is_same_author(self):
        assert decide(1e-12) == "Y"
        assert decide(5.0) == "Y"

    def test_zero_and_negative_are_different_author(self):
        assert decide(0.0) == "N"
        assert decide(-3.0) == "N"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            decide(math.nan)

    def test_log10_reporting_scale(self):
        assert log10_lr(math.log(1000.0)) == pytest.approx(3.0, abs=1e-12)
        assert log10_lr(0.0) == 0.0
        assert log10_lr(-math.log(10.0)) == pytest.approx(-1.0, abs=1e-12)


class TestCllr:
    def test_uninformative_is_exactly_one(self):
        assert cllr_from_log_lrs([0.0] * 7, [0.0] * 3) == 1.0

    def test_pencil_value(self):
        cost = cllr_from_log_lrs([math.log(3.0)], [math.log(1.0 / 3.0)])
        assert cost == pytest.approx(math.log2(4.0 / 3.0), abs=1e-12)

    def test_strong_correct_evidence_approaches_zero(self):
        assert cllr_from_log_lrs([math.log(1e6)] * 4, [math.log(1e-6)] * 4) < 1e-5

    def test_wrong_way_evidence_exceeds_one(self):
        assert cllr_from_log_lrs([math.log(1e-3)] * 4, [math.log(1e3)] * 4) > 1.0

    def test_log_path_stable_at_extreme_magnitudes(self):
        good = cllr_from_log_lrs([1e5] * 3, [-1e5] * 3)
        assert 0.0 <= good < 1e-8
        bad = cllr_from_log_lrs([-1e5] * 3, [1e5] * 3)
        assert math.isfinite(bad)
        assert bad > 1e4

    def test_log_path_rejects_empty_or_nan(self):
        with pytest.raises(ValueError):
            cllr_from_log_lrs([], [0.0])
        with pytest.raises(ValueError):
            cllr_from_log_lrs([math.nan], [0.0])


class TestPav:
    def test_exhaustive_small_inputs_match_oracle_exactly(self):
        rng = random.Random(19)
        for n in range(1, 8):
            for mask in range(1 << n):
                labels = ["Y" if (mask >> i) & 1 else "N" for i in range(n)]
                distinct = [float(i) for i in range(n)]
                tied = [float(rng.randrange(0, max(n // 2, 1))) for _ in range(n)]
                for scores in (distinct, tied):
                    got = pav_fit(scores, labels)
                    want = oracle_isotonic(scores, labels)
                    assert list(got) == want, (scores, labels)

    def test_fitted_values_monotone_in_score(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randrange(1, 30)
            scores = [rng.uniform(-3, 3) for _ in range(n)]
            labels = [rng.choice("YN") for _ in range(n)]
            fitted = pav_fit(scores, labels)
            by_score = sorted(zip(scores, fitted))
            for (s1, f1), (s2, f2) in zip(by_score, by_score[1:]):
                assert f1 <= f2 or (s1 == s2 and f1 == f2)

    def test_ties_share_fitted_value(self):
        fitted = pav_fit([1.0, 1.0, 2.0], ["N", "Y", "Y"])
        assert fitted[0] == fitted[1] == 0.5
        assert fitted[2] == 1.0

    def test_perfectly_ordered_labels_fit_exactly(self):
        fitted = pav_fit([1.0, 2.0, 3.0, 4.0], ["N", "N", "Y", "Y"])
        assert list(fitted) == [0.0, 0.0, 1.0, 1.0]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            pav_fit([math.inf, 1.0], ["Y", "N"])


class TestCllrMin:
    def test_floor_below_cllr_and_decomposition(self):
        rng = random.Random(29)
        for _ in range(50):
            log_same = [rng.gauss(1.0, 1.5) for _ in range(rng.randrange(15, 40))]
            log_diff = [rng.gauss(-1.0, 1.5) for _ in range(rng.randrange(15, 40))]
            full = cllr_from_log_lrs(log_same, log_diff)
            floor, cal = cllr_min_from_log_lrs(log_same, log_diff)
            assert floor <= full + 1e-12
            assert floor + cal == pytest.approx(full, abs=1e-9)
            assert floor >= 0.0

    def test_invariant_under_monotone_transform(self):
        # The floor depends on the LRs only through their ranks.
        rng = random.Random(31)
        log_same = [rng.gauss(0.5, 1.0) for _ in range(10)]
        log_diff = [rng.gauss(-0.5, 1.0) for _ in range(12)]
        base = cllr_min_from_log_lrs(log_same, log_diff)
        warped = cllr_min_from_log_lrs(
            [3.0 * v + 1.0 for v in log_same], [3.0 * v + 1.0 for v in log_diff]
        )
        assert base[0] == pytest.approx(warped[0], abs=1e-12)

    def test_perfect_separation_floor_is_run_smoothing_term(self):
        # n separated points per class: runs of size n at both extremes, so
        # the floor is exactly log2(1 + 1/(n+1)) and decays toward zero.
        for n in (3, 20, 200):
            floor, _ = cllr_min_from_log_lrs(
                [1.0 + i for i in range(n)], [-1.0 - i for i in range(n)]
            )
            assert floor == pytest.approx(math.log2(1.0 + 1.0 / (n + 1)), abs=1e-12)

    def test_uninformative_floor(self):
        floor, cal = cllr_min_from_log_lrs([0.0, 0.0], [0.0, 0.0])
        assert floor == 1.0
        assert cal == 0.0


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([1.0, 2.0, 3.0, 4.0], ["N", "N", "Y", "Y"]) == 1.0

    def test_reversed_ranking(self):
        assert roc_auc([4.0, 3.0, 2.0, 1.0], ["N", "N", "Y", "Y"]) == 0.0

    def test_all_tied_is_half(self):
        assert roc_auc([5.0] * 6, ["Y", "N", "Y", "N", "Y", "N"]) == 0.5

    def test_matches_pair_counting(self):
        rng = random.Random(37)
        for _ in range(30):
            n = rng.randrange(4, 20)
            scores = [rng.choice([0.0, 1.0, 2.0, 3.0]) for _ in range(n)]
            labels = [rng.choice("YN") for _ in range(n)]
            if "Y" not in labels or "N" not in labels:
                continue
            pos = [s for s, lab in zip(scores, labels) if lab == "Y"]
            neg = [s for s, lab in zip(scores, labels) if lab == "N"]
            wins = sum(
                1.0 if p > q else (0.5 if p == q else 0.0) for p in pos for q in neg
            )
            assert roc_auc(scores, labels) == pytest.approx(
                wins / (len(pos) * len(neg)), abs=1e-12
            )

    def test_requires_both_classes(self):
        with pytest.raises(ValueError):
            roc_auc([1.0, 2.0], ["Y", "Y"])


class TestClassificationMetrics:
    def test_counts(self):
        metrics = classification_metrics(
            ["Y", "Y", "N", "N", "Y"], ["Y", "N", "N", "Y", "Y"]
        )
        assert (metrics["tp"], metrics["fp"], metrics["tn"], metrics["fn"]) == (2, 1, 1, 1)
        assert metrics["accuracy"] == pytest.approx(0.6)
        assert metrics["precision"] == pytest.approx(2 / 3)
        assert metrics["recall"] == pytest.approx(2 / 3)
        assert metrics["f1"] == pytest.approx(2 / 3)

    def test_degenerate_rates_are_zero(self):
        metrics = classification_metrics(["N", "N"], ["Y", "Y"])
        assert metrics["precision"] == 0.0
        assert metrics["recall"] == 0.0
        assert metrics["f1"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            classification_metrics([], [])
        with pytest.raises(ValueError):
            classification_metrics(["Y"], ["Y", "N"])
        with pytest.raises(ValueError):
            classification_metrics(["X"], ["Y"])


# A small grid, so that ties are common; -0.0 ties 0.0.
TIED_SCORES = st.sampled_from([-1e5, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 1e5])


def _outcome(metric, *args):
    """What a metric returns, or the type and message of the ValueError it
    raises, in a form that compares bit for bit with ``==``."""
    try:
        value = metric(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(value, np.ndarray):
        return value.dtype, value.shape, value.tobytes()
    if isinstance(value, dict):
        return [(k, type(v), v) for k, v in value.items()]
    return type(value), value


class TestIndexLoopOracle:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_metrics_equal_the_index_loop_versions_bit_for_bit(self, data):
        """Heavy ties, NaN scores for the AUC, and one-class draws, where
        both sides must raise alike."""
        n = data.draw(st.integers(1, 60))
        scores = data.draw(st.lists(TIED_SCORES, min_size=n, max_size=n))
        labels = data.draw(st.lists(st.sampled_from("YN"), min_size=n, max_size=n))
        decisions = data.draw(st.lists(st.sampled_from("YN"), min_size=n, max_size=n))
        nan_scores = data.draw(
            st.lists(st.one_of(TIED_SCORES, st.just(math.nan)), min_size=n, max_size=n)
        )
        same = [s for s, lab in zip(scores, labels) if lab == "Y"]
        diff = [s for s, lab in zip(scores, labels) if lab == "N"]
        for metric, oracle, args in (
            (pav_fit, oracle_pav_fit, (scores, labels)),
            (roc_auc, oracle_roc_auc, (scores, labels)),
            (roc_auc, oracle_roc_auc, (nan_scores, labels)),
            (classification_metrics, oracle_classification_metrics, (decisions, labels)),
            (cllr_min_from_log_lrs, oracle_cllr_min_from_log_lrs, (same, diff)),
        ):
            assert _outcome(metric, *args) == _outcome(oracle, *args), metric.__name__


class TestMetricsReport:
    def test_internally_consistent(self):
        rng = random.Random(41)
        log_lrs = [rng.gauss(1.0, 2.0) for _ in range(25)]
        log_lrs += [rng.gauss(-1.0, 2.0) for _ in range(25)]
        labels = ["Y"] * 25 + ["N"] * 25
        report = build_metrics_report(log_lrs, labels)
        assert isinstance(report, MetricsReport)
        assert report.tp + report.fn == 25
        assert report.fp + report.tn == 25
        assert report.accuracy == pytest.approx((report.tp + report.tn) / 50)
        assert 0.0 <= report.auc <= 1.0
        assert report.cllr == pytest.approx(report.cllr_min + report.cllr_cal, abs=1e-9)
        assert report.cllr_min <= report.cllr + 1e-12

    def test_handles_extreme_log_lrs(self):
        # Separated calibration can emit log LRs around +/-1e5; the report
        # must stay finite without overflowing the linear scale.
        log_lrs = [1e5, 9e4, -8e4, -1e5]
        labels = ["Y", "Y", "N", "N"]
        report = build_metrics_report(log_lrs, labels)
        assert math.isfinite(report.cllr)
        assert report.accuracy == 1.0
        assert report.auc == 1.0

    def test_json_dict_fields(self):
        report = build_metrics_report([1.0, -1.0], ["Y", "N"])
        obj = report.to_json_dict()
        assert set(obj) == {
            "accuracy", "auc", "precision", "recall", "f1",
            "tp", "fn", "fp", "tn", "cllr", "cllr_min", "cllr_cal",
        }
