"""Experiment protocols: train/test evaluation, grids, and cross-domain runs.

The core protocol scores every problem in a train split, fits the logistic
calibration on those scores, then scores the test split and reports
calibrated log LRs, decisions, and metric summaries. Train and test must be
author-disjoint when author metadata is available; silently evaluating on
seen authors would inflate every number.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .calibration import (
    CalibrationModel,
    MetricsReport,
    build_metrics_report,
    cllr_from_log_lrs,
    decide,
    fit_calibration,
)
from .corpus import Corpus, Document
from .errors import CorpusError
from .masking import MaskingLexicon, default_lexicon, mask_corpus
from .scoring import LambdaConfig, score_corpus

logger = logging.getLogger("grammarlr")


@dataclass(frozen=True)
class ProblemResult:
    """Per-problem row of an evaluation: raw score, calibrated log LR,
    decision, ground truth."""

    problem_id: str
    label: Optional[str]
    score: float
    log_lr: float
    decision: str

    def to_json_dict(self) -> dict:
        return {
            "problem_id": self.problem_id,
            "label": self.label,
            "lambda": self.score,
            "log_lr": self.log_lr,
            "decision": self.decision,
        }


@dataclass(frozen=True)
class EvaluationResult:
    """Everything one train/test evaluation produces.

    ``report.cllr`` measures the calibrated log LRs; ``cllr_raw`` measures
    the uncalibrated scores read directly as log LRs, so the gap between the
    two is the cost of skipping calibration.
    """

    config: LambdaConfig
    calibration: CalibrationModel
    report: MetricsReport
    cllr_raw: float
    train_results: tuple[ProblemResult, ...]
    test_results: tuple[ProblemResult, ...]

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "calibration": self.calibration.to_json_dict(),
            "metrics": self.report.to_json_dict(),
            "cllr_raw": self.cllr_raw,
            "train_problems": [r.to_json_dict() for r in self.train_results],
            "test_problems": [r.to_json_dict() for r in self.test_results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _require_labels(corpus: Corpus, role: str) -> list[str]:
    labels = []
    for p in corpus.problems:
        if p.label is None:
            raise CorpusError(f"{role} problem {p.id!r} has no label")
        labels.append(p.label)
    if not labels:
        raise CorpusError(f"{role} split has no problems")
    return labels


def check_author_disjoint(train: Corpus, test: Corpus) -> None:
    """Reject author overlap between splits. Corpora without author metadata
    cannot be checked and pass with a log note."""
    train_authors = {p.author for p in train.problems if p.author is not None}
    test_authors = {p.author for p in test.problems if p.author is not None}
    if not train_authors or not test_authors:
        logger.info("author metadata absent; skipping split disjointness check")
        return
    overlap = train_authors & test_authors
    if overlap:
        raise CorpusError(
            f"train and test splits share authors: {sorted(overlap)[:5]}"
        )


def _mask_corpora(
    corpora: Sequence[Corpus], lexicon: Optional[MaskingLexicon]
) -> list[Corpus]:
    """Mask corpora up front (with the bundled lexicon unless another is
    given): each tagged document once, and a reference pool once for all
    corpora whose reference documents are equal."""
    lexicon = lexicon if lexicon is not None else default_lexicon()
    pools: list[tuple[tuple[Document, ...], tuple[Document, ...]]] = []
    masked = []
    for corpus in corpora:
        pool = next((m for refs, m in pools if refs == corpus.reference_docs), None)
        if pool is None:
            masked.append(mask_corpus(corpus, lexicon))
            pools.append((corpus.reference_docs, masked[-1].reference_docs))
        else:
            problems = mask_corpus(replace(corpus, reference_docs=()), lexicon)
            masked.append(replace(problems, reference_docs=pool))
    return masked


def evaluate_corpus(
    train: Corpus,
    test: Corpus,
    config: LambdaConfig,
    lexicon: Optional[MaskingLexicon] = None,
    parallel: int = 1,
) -> EvaluationResult:
    """Run the full protocol: score train, calibrate, score test, report.

    Both splits are masked before any scoring, the shared reference pool
    once.
    """
    check_author_disjoint(train, test)
    train_labels = _require_labels(train, "train")
    test_labels = _require_labels(test, "test")
    train, test = _mask_corpora((train, test), lexicon)

    logger.info("scoring %d train problems", len(train.problems))
    train_traces = score_corpus(train, config, lexicon, parallel)
    train_scores = [t.total for t in train_traces]
    calibration = fit_calibration(train_scores, train_labels)
    logger.info(
        "calibration: intercept=%.4f slope=%.4f separated=%s",
        calibration.intercept,
        calibration.slope,
        calibration.separated,
    )

    logger.info("scoring %d test problems", len(test.problems))
    test_traces = score_corpus(test, config, lexicon, parallel)
    test_scores = [t.total for t in test_traces]
    test_log_lrs = [calibration.apply(s) for s in test_scores]

    report = build_metrics_report(test_log_lrs, test_labels)
    raw_same = [s for s, lab in zip(test_scores, test_labels) if lab == "Y"]
    raw_diff = [s for s, lab in zip(test_scores, test_labels) if lab == "N"]
    cllr_raw = cllr_from_log_lrs(raw_same, raw_diff)

    def rows(corpus: Corpus, scores: list[float]) -> tuple[ProblemResult, ...]:
        out = []
        for p, s in zip(corpus.problems, scores):
            lr = calibration.apply(s)
            out.append(
                ProblemResult(
                    problem_id=p.id,
                    label=p.label,
                    score=s,
                    log_lr=lr,
                    decision=decide(lr),
                )
            )
        return tuple(out)

    train_results = rows(train, train_scores)
    test_results = rows(test, test_scores)
    return EvaluationResult(
        config=config,
        calibration=calibration,
        report=report,
        cllr_raw=cllr_raw,
        train_results=train_results,
        test_results=test_results,
    )


def sweep_grid(
    train: Corpus,
    test: Corpus,
    base_config: LambdaConfig,
    ref_counts: Sequence[int],
    orders: Sequence[int],
    lexicon: Optional[MaskingLexicon] = None,
    parallel: int = 1,
) -> list[dict]:
    """Evaluate every (refs, order) cell of a grid; long-form result rows.

    Both splits are masked once, before the first cell.
    """
    if not ref_counts or not orders:
        raise ValueError("sweep grids must be non-empty")
    train, test = _mask_corpora((train, test), lexicon)
    rows = []
    for r in ref_counts:
        for n in orders:
            cfg = replace(base_config, refs=r, order=n)
            logger.info("sweep cell refs=%d order=%d", r, n)
            result = evaluate_corpus(train, test, cfg, lexicon, parallel)
            rows.append(
                {
                    "refs": r,
                    "order": n,
                    "accuracy": result.report.accuracy,
                    "auc": result.report.auc,
                    "cllr": result.report.cllr,
                    "cllr_min": result.report.cllr_min,
                    "cllr_cal": result.report.cllr_cal,
                }
            )
    return rows


@dataclass(frozen=True)
class CrossGenreResult:
    """Matrix experiment: row corpus provides problems and calibration
    material, column corpus provides the reference pool."""

    names: tuple[str, ...]
    accuracy: tuple[tuple[float, ...], ...]
    cllr: tuple[tuple[float, ...], ...]

    @property
    def accuracy_loss(self) -> tuple[tuple[float, ...], ...]:
        """Within-domain accuracy minus cell accuracy (positive = worse)."""
        return tuple(
            tuple(self.accuracy[i][i] - cell for cell in row)
            for i, row in enumerate(self.accuracy)
        )

    @property
    def cllr_excess(self) -> tuple[tuple[float, ...], ...]:
        """Cell Cllr minus within-domain Cllr (positive = worse)."""
        return tuple(
            tuple(cell - self.cllr[i][i] for cell in row)
            for i, row in enumerate(self.cllr)
        )

    def to_json_dict(self) -> dict:
        return {
            "names": list(self.names),
            "accuracy": [list(r) for r in self.accuracy],
            "cllr": [list(r) for r in self.cllr],
            "accuracy_loss": [list(r) for r in self.accuracy_loss],
            "cllr_excess": [list(r) for r in self.cllr_excess],
        }


def cross_genre(
    corpora: Sequence[tuple[str, Corpus, Corpus]],
    config: LambdaConfig,
    lexicon: Optional[MaskingLexicon] = None,
    parallel: int = 1,
) -> CrossGenreResult:
    """Evaluate each domain's problems under each domain's reference pool.

    Cell (i, j) swaps domain j's reference documents into domain i's train
    and test corpora and reruns the full protocol, calibration included. The
    diagonal therefore reproduces the plain within-domain evaluation. Every
    corpus is masked once, before the first cell.
    """
    if len(corpora) < 2:
        raise ValueError("cross-domain runs need at least two corpora")
    names = tuple(name for name, _, _ in corpora)
    masked = _mask_corpora([c for _, train, test in corpora for c in (train, test)], lexicon)
    corpora = [
        (name, masked[2 * i], masked[2 * i + 1]) for i, (name, _, _) in enumerate(corpora)
    ]
    acc_rows = []
    cllr_rows = []
    for i, (name_i, train_i, test_i) in enumerate(corpora):
        acc_row = []
        cllr_row = []
        for j, (name_j, train_j, _test_j) in enumerate(corpora):
            train_swapped = replace(train_i, reference_docs=train_j.reference_docs)
            test_swapped = replace(test_i, reference_docs=train_j.reference_docs)
            logger.info("cross cell problems=%s refs=%s", name_i, name_j)
            result = evaluate_corpus(train_swapped, test_swapped, config, lexicon, parallel)
            acc_row.append(result.report.accuracy)
            cllr_row.append(result.report.cllr)
        acc_rows.append(tuple(acc_row))
        cllr_rows.append(tuple(cllr_row))
    return CrossGenreResult(
        names=names, accuracy=tuple(acc_rows), cllr=tuple(cllr_rows)
    )
