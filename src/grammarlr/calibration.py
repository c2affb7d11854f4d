"""Score calibration and forensic evaluation metrics.

Raw document scores are well-ordered but not interpretable as evidence
strength. A two-parameter logistic map, fit by maximum likelihood on held-out
training problems, turns a raw score into a calibrated log likelihood ratio:
the posterior log odds from the logistic model minus the training prior log
odds. Decisions threshold the calibrated log LR at zero.

Quality of the likelihood ratios is measured by the log-loss cost Cllr. Its
discrimination floor Cllr_min comes from replacing the scores with the best
monotone recalibration (pool-adjacent-violators), and the difference
Cllr_cal = Cllr - Cllr_min isolates pure calibration loss.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import CalibrationError

# Absolute slope bound; hitting it means the classes are perfectly separable
# and the unbounded MLE does not exist.
SLOPE_CAP = 1e3

_GRAD_TOL = 1e-8
_MAX_ITER = 200
_LN2 = math.log(2.0)


def _check_labels(labels: Sequence[str]) -> np.ndarray:
    for lab in labels:
        if lab not in ("Y", "N"):
            raise ValueError(f"labels must be 'Y' or 'N': {lab!r}")
    return np.array([lab == "Y" for lab in labels], dtype=float)


@dataclass(frozen=True)
class CalibrationModel:
    """Fitted logistic map from raw score to calibrated log LR.

    ``separated`` flags a fit that hit the slope cap because the training
    classes were perfectly separable; the produced log LRs are then bounded
    by the cap rather than genuinely unbounded.
    """

    intercept: float
    slope: float
    prior_log_odds: float
    separated: bool = False

    def apply(self, score: float) -> float:
        """Calibrated log LR: posterior log odds minus prior log odds."""
        if not math.isfinite(score):
            raise ValueError(f"score must be finite: {score}")
        return self.intercept + self.slope * score - self.prior_log_odds

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CalibrationModel":
        """Inverse of :meth:`to_json_dict`; a missing or malformed field
        raises :class:`CalibrationError`."""
        if not isinstance(obj, dict):
            raise CalibrationError("calibration must be a JSON object")
        missing = sorted({"intercept", "slope", "prior_log_odds", "separated"} - set(obj))
        if missing:
            raise CalibrationError(f"calibration is missing fields {missing}")
        for name in ("intercept", "slope", "prior_log_odds"):
            value = obj[name]
            try:
                finite = not isinstance(value, bool) and math.isfinite(value)
            except (TypeError, OverflowError):
                finite = False
            if not finite:
                raise CalibrationError(
                    f"calibration field {name!r} must be a finite number: {value!r}"
                )
        if not isinstance(obj["separated"], bool):
            raise CalibrationError(
                f"calibration field 'separated' must be a bool: {obj['separated']!r}"
            )
        return cls(
            intercept=float(obj["intercept"]),
            slope=float(obj["slope"]),
            prior_log_odds=float(obj["prior_log_odds"]),
            separated=obj["separated"],
        )


def fit_calibration(scores: Sequence[float], labels: Sequence[str]) -> CalibrationModel:
    """Fit the logistic map by Newton-Raphson maximum likelihood.

    Starts at (0, 0); a balanced constant-score input therefore returns
    exactly (0, 0). Requires both classes present and finite scores. With
    perfectly separable classes the slope is capped at SLOPE_CAP, the
    intercept centers the decision boundary between the classes, and the
    model is flagged.
    """
    x = np.asarray(scores, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("scores must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(x)):
        raise ValueError("scores must be finite")
    y = _check_labels(labels)
    if y.size != x.size:
        raise ValueError("scores and labels must have equal length")
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == y.size:
        raise CalibrationError("calibration requires both Y and N training scores")
    prior_log_odds = math.log(n_pos / (y.size - n_pos))

    # Strictly separable classes have no finite MLE; Newton would drift
    # until numerics stall, so resolve the direction up front.
    pos, neg = x[y == 1.0], x[y == 0.0]
    if float(np.max(neg)) < float(np.min(pos)):
        return _separated_model(x, y, 1.0, prior_log_odds)
    if float(np.max(pos)) < float(np.min(neg)):
        return _separated_model(x, y, -1.0, prior_log_odds)

    a, b = 0.0, 0.0
    converged = False
    for _ in range(_MAX_ITER):
        z = a + b * x
        p = 1.0 / (1.0 + np.exp(-z))
        g0 = float(np.sum(y - p))
        g1 = float(np.sum(x * (y - p)))
        if max(abs(g0), abs(g1)) <= _GRAD_TOL:
            converged = True
            break
        w = p * (1.0 - p)
        A = float(np.sum(w))
        B = float(np.sum(w * x))
        C = float(np.sum(w * x * x))
        det = A * C - B * B
        if not math.isfinite(det) or det <= 1e-12 * max(A * C, 1.0):
            # Ill-conditioned curvature (e.g. constant scores): ridge it.
            ridge = 1e-6 * max(A, C, 1.0)
            A += ridge
            C += ridge
            det = A * C - B * B
        da = (C * g0 - B * g1) / det
        db = (A * g1 - B * g0) / det
        step = max(abs(da), abs(db))
        if step > 10.0:
            da *= 10.0 / step
            db *= 10.0 / step
        a += da
        b += db
        if abs(b) > SLOPE_CAP:
            return _separated_model(x, y, b, prior_log_odds)
    if not converged:
        # Flat likelihood surfaces stop short of the gradient tolerance;
        # the fit is still usable, so report rather than fail.
        warnings.warn("calibration fit did not reach gradient tolerance", RuntimeWarning)
    return CalibrationModel(
        intercept=a, slope=b, prior_log_odds=prior_log_odds, separated=False
    )


def _separated_model(
    x: np.ndarray, y: np.ndarray, b: float, prior_log_odds: float
) -> CalibrationModel:
    slope = SLOPE_CAP if b > 0 else -SLOPE_CAP
    if slope > 0:
        boundary = (np.max(x[y == 0.0]) + np.min(x[y == 1.0])) / 2.0
    else:
        boundary = (np.max(x[y == 1.0]) + np.min(x[y == 0.0])) / 2.0
    return CalibrationModel(
        intercept=-slope * boundary,
        slope=slope,
        prior_log_odds=prior_log_odds,
        separated=True,
    )


def decide(log_lr: float) -> str:
    """Same-author decision: Y strictly above zero, N otherwise (ties to N)."""
    if not math.isfinite(log_lr):
        raise ValueError(f"log LR must be finite: {log_lr}")
    return "Y" if log_lr > 0.0 else "N"


def log10_lr(log_lr: float) -> float:
    """Natural-log LR rescaled to base 10, the usual forensic reporting scale."""
    return log_lr / math.log(10.0)


# ----------------------------------------------------------------------
# Cllr


def cllr_from_log_lrs(
    same_source: Sequence[float], different_source: Sequence[float]
) -> float:
    """Log-loss cost Cllr of a set of natural-log likelihood ratios.

    Equals 1 for uninformative LRs (all log LRs 0) and approaches 0 as
    same-source log LRs grow and different-source log LRs shrink. Computed
    in the log domain, so it stays stable for magnitudes that would overflow
    the linear scale.
    """
    if len(same_source) == 0 or len(different_source) == 0:
        raise ValueError("both LR classes must be non-empty")
    same = np.asarray(same_source, dtype=float)
    diff = np.asarray(different_source, dtype=float)
    if np.any(np.isnan(same)) or np.any(np.isnan(diff)):
        raise ValueError("log LRs must not be NaN")
    mean_same = float(np.mean(np.logaddexp(0.0, -same))) / _LN2
    mean_diff = float(np.mean(np.logaddexp(0.0, diff))) / _LN2
    return 0.5 * (mean_same + mean_diff)


# ----------------------------------------------------------------------
# pool-adjacent-violators


def pav_fit(scores: Sequence[float], labels: Sequence[str]) -> np.ndarray:
    """Best monotone fit of same-source indicators to scores (least squares).

    Returns the fitted posterior per item in input order. Items with equal
    scores form one atom before pooling, since a monotone function of the
    score cannot distinguish them; atoms are complete before any pooling so
    a late tied item can never leak into an earlier merged block. Pooled
    means are exact integer-sum ratios.
    """
    y = _check_labels(labels)
    x = np.asarray(scores, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("scores must be a non-empty 1-d sequence")
    if x.size != y.size:
        raise ValueError("scores and labels must have equal length")
    if not np.all(np.isfinite(x)):
        raise ValueError("scores must be finite")

    _, inverse, sizes = np.unique(x, return_inverse=True, return_counts=True)
    sums = np.bincount(inverse, weights=y).astype(np.int64)
    blocks: list[tuple[int, int, int]] = []  # (label sum, items, atoms)
    for s, n in zip(sums.tolist(), sizes.tolist()):
        atoms = 1
        # pool while the mean sequence decreases, exact in ints
        while blocks and blocks[-1][0] * n > s * blocks[-1][1]:
            s0, n0, atoms0 = blocks.pop()
            s, n, atoms = s0 + s, n0 + n, atoms0 + atoms
        blocks.append((s, n, atoms))
    return np.repeat([s / n for s, n, _ in blocks], [a for _, _, a in blocks])[inverse]


def cllr_min_from_log_lrs(
    same_source: Sequence[float], different_source: Sequence[float]
) -> tuple[float, float]:
    """Discrimination floor of a set of log LRs, and the calibration loss above it.

    The input log LRs are monotonically recalibrated by PAV (ranks are all
    that matter); block posteriors convert back to LRs by dividing out the
    empirical prior odds. The pure runs at either extreme get add-one
    smoothing over the run size, so a perfectly separated input has a floor
    of log2(1 + 1/(n+1)) rather than zero, decaying with n. Returns
    (cllr_min, cllr_cal) with cllr_cal = cllr - cllr_min.
    """
    full = cllr_from_log_lrs(same_source, different_source)
    scores = [*same_source, *different_source]
    labels = ["Y"] * len(same_source) + ["N"] * len(different_source)
    fitted = pav_fit(scores, labels)
    prior = math.log(len(same_source) / len(different_source))
    # Pure runs at the extremes would map to infinite LRs; add-one smoothing
    # over each run's size keeps them finite while vanishing as runs grow.
    run_zero = int(np.sum(fitted == 0.0))
    run_one = int(np.sum(fitted == 1.0))
    p = np.where(fitted <= 0.0, 1.0 / (run_zero + 2.0), fitted)
    p = np.where(p >= 1.0, (run_one + 1.0) / (run_one + 2.0), p)
    # math.log, not np.log: the two can differ in the last bit.
    log_lrs = np.array([math.log(odds) for odds in (p / (1.0 - p)).tolist()]) - prior
    n_same = len(same_source)
    floor = cllr_from_log_lrs(log_lrs[:n_same], log_lrs[n_same:])
    return floor, full - floor


# ----------------------------------------------------------------------
# classification metrics


def roc_auc(scores: Sequence[float], labels: Sequence[str]) -> float:
    """Area under the ROC curve via average ranks; ties count one half."""
    y = _check_labels(labels)
    x = np.asarray(scores, dtype=float)
    if x.size != y.size or x.size == 0:
        raise ValueError("scores and labels must be non-empty and equal length")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC requires both classes")
    # Tied scores share their average rank. NaN ties nothing (NaN != NaN),
    # and asking for return_index makes the sort stable, so NaNs rank in
    # input order.
    _, _, inverse, sizes = np.unique(
        x, return_index=True, return_inverse=True, return_counts=True, equal_nan=False
    )
    ranks = (np.cumsum(sizes) - (sizes - 1) / 2.0)[inverse]
    rank_sum = float(np.sum(ranks[y == 1.0]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def classification_metrics(
    decisions: Sequence[str], labels: Sequence[str]
) -> dict[str, float]:
    """Confusion counts and the derived rates, with Y as the positive class.

    Undefined rates (empty denominators) are reported as 0.0.
    """
    if len(decisions) != len(labels) or not decisions:
        raise ValueError("decisions and labels must be non-empty and equal length")
    for dec, lab in zip(decisions, labels):
        if dec not in ("Y", "N"):
            raise ValueError(f"decisions must be 'Y' or 'N': {dec!r}")
        if lab not in ("Y", "N"):
            raise ValueError(f"labels must be 'Y' or 'N': {lab!r}")
    said = np.array([dec == "Y" for dec in decisions])
    same = np.array([lab == "Y" for lab in labels])
    tp, fn, fp, tn = np.bincount(2 * ~same + ~said, minlength=4).tolist()
    total = tp + fn + fp + tn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "tp": tp,
        "fn": fn,
        "fp": fp,
        "tn": tn,
        "accuracy": (tp + tn) / total,
        "precision": precision,
        "recall": recall,
        "f1": f1,
    }


@dataclass(frozen=True)
class MetricsReport:
    """Everything the evaluation protocol reports for one test split."""

    accuracy: float
    auc: float
    precision: float
    recall: float
    f1: float
    tp: int
    fn: int
    fp: int
    tn: int
    cllr: float
    cllr_min: float
    cllr_cal: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def build_metrics_report(
    log_lrs: Sequence[float], labels: Sequence[str]
) -> MetricsReport:
    """Assemble the report from calibrated log LRs and ground truth."""
    decisions = [decide(v) for v in log_lrs]
    counts = classification_metrics(decisions, labels)
    same = [v for v, lab in zip(log_lrs, labels) if lab == "Y"]
    diff = [v for v, lab in zip(log_lrs, labels) if lab == "N"]
    full = cllr_from_log_lrs(same, diff)
    floor, cal = cllr_min_from_log_lrs(same, diff)
    return MetricsReport(
        **counts,
        auc=roc_auc(list(log_lrs), labels),
        cllr=full,
        cllr_min=floor,
        cllr_cal=cal,
    )
