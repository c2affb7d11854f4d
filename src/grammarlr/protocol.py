"""Experiment protocols: train/test evaluation, grids, and cross-domain runs.

The core protocol scores every problem in a train split, fits the logistic
calibration on those scores, then scores the test split and reports
calibrated log LRs, decisions, and metric summaries. Train and test must be
author-disjoint when author metadata is available; silently evaluating on
seen authors would inflate every number.

Each protocol checks its splits, then masks and codes each distinct pool
once and masks every problem, before the first problem is scored.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .calibration import (
    SLOPE_CAP,
    CalibrationModel,
    MetricsReport,
    build_metrics_report,
    cllr_from_log_lrs,
    decide,
    fit_calibration,
)
from .corpus import Corpus, Document
from .errors import CorpusError
from .masking import MaskingLexicon, mask_problems
from .scoring import LambdaConfig, _Pool, _score_problems

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


def _require_labels(corpus: Corpus, role: str) -> None:
    for p in corpus.problems:
        if p.label is None:
            raise CorpusError(f"{role} problem {p.id!r} has no label")
    if not corpus.problems:
        raise CorpusError(f"{role} split has no problems")
    if len(set(corpus.labels)) < 2:
        raise CorpusError(f"{role} split has only {corpus.labels[0]!r} problems; it needs Y and N")


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


def _prepared(
    splits: Sequence[tuple[Corpus, Corpus]],
    pools: list[Sequence[Document]],
    lexicon: Optional[MaskingLexicon],
) -> tuple[list[tuple[Corpus, Corpus]], list[_Pool]]:
    """Check every (train, test) split, then prepare each distinct pool of
    ``pools`` once and mask every problem: the masked splits, and the pools."""
    for train, test in splits:
        check_author_disjoint(train, test)
        _require_labels(train, "train")
        _require_labels(test, "test")
    first = [pools.index(refs) for refs in pools]  # the first pool equal to each
    prepared = {i: _Pool.of(pools[i], lexicon) for i in dict.fromkeys(first)}
    masked = [
        tuple([replace(c, problems=mask_problems(c.problems, lexicon)) for c in split])
        for split in splits
    ]
    return masked, [prepared[i] for i in first]


def _calibrate(
    train_scores: Sequence[float], train_labels: Sequence[str], config: LambdaConfig
) -> CalibrationModel:
    calibration = fit_calibration(train_scores, train_labels)
    logger.info(
        "calibration: intercept=%.4f slope=%.4f separated=%s",
        calibration.intercept,
        calibration.slope,
        calibration.separated,
    )
    if calibration.separated:
        logger.warning("calibration separated the train split (order %d, refs %d): the slope is "
                       "capped at %g, so calibrated log LRs are unreliable",
                       config.order, config.refs, SLOPE_CAP)
    return calibration


def _report(
    config: LambdaConfig,
    calibration: CalibrationModel,
    train: Corpus,
    train_scores: Sequence[float],
    test: Corpus,
    test_scores: Sequence[float],
) -> EvaluationResult:
    """Apply a fitted calibration to both splits' scores and report."""

    def rows(corpus: Corpus, scores: Sequence[float]) -> tuple[ProblemResult, ...]:
        log_lrs = map(calibration.apply, scores)
        return tuple([
            ProblemResult(p.id, p.label, s, lr, decide(lr))
            for p, s, lr in zip(corpus.problems, scores, log_lrs)
        ])

    test_results = rows(test, test_scores)
    report = build_metrics_report([r.log_lr for r in test_results], test.labels)
    raw_same = [s for s, lab in zip(test_scores, test.labels) if lab == "Y"]
    raw_diff = [s for s, lab in zip(test_scores, test.labels) if lab == "N"]
    return EvaluationResult(
        config=config,
        calibration=calibration,
        report=report,
        cllr_raw=cllr_from_log_lrs(raw_same, raw_diff),
        train_results=rows(train, train_scores),
        test_results=test_results,
    )


def evaluate_corpus(
    train: Corpus,
    test: Corpus,
    config: LambdaConfig,
    lexicon: Optional[MaskingLexicon] = None,
    parallel: int = 1,
) -> EvaluationResult:
    """Run the full protocol: score train, calibrate, score test, report.

    Both splits are masked before any scoring, and the reference pool they
    share is masked and coded once.
    """
    refs = [train.reference_docs, test.reference_docs]
    [split], pools = _prepared([(train, test)], refs, lexicon)
    (result,) = _evaluate_cells(*split, pools, [config], parallel)
    return result


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

    Each row equals the metrics of ``evaluate_corpus`` on the cell's config,
    one row per cell (a grid that is empty or repeats a value raises
    ``ValueError``), but the work is shared: every cell's config is checked
    first, both splits and their pool are masked once, and each split is
    scored once for the whole grid (one process pool per split with
    ``parallel`` > 1).
    Each problem is counted once, at the grid's largest order and reference
    count, and each cell keeps only its document scores. Each cell is then
    calibrated and reported as ``evaluate_corpus`` does.
    """
    if not ref_counts or not orders:
        raise ValueError("sweep grids must be non-empty")
    for name, grid in (("refs", ref_counts), ("order", orders)):
        if len(set(grid)) != len(grid):
            raise ValueError(f"sweep grids must not repeat a value: {name} {list(grid)}")
    cells = [replace(base_config, refs=r, order=n) for r in ref_counts for n in orders]
    refs = [train.reference_docs, test.reference_docs]
    [split], pools = _prepared([(train, test)], refs, lexicon)
    return [
        {
            "refs": result.config.refs,
            "order": result.config.order,
            "accuracy": result.report.accuracy,
            "auc": result.report.auc,
            "cllr": result.report.cllr,
            "cllr_min": result.report.cllr_min,
            "cllr_cal": result.report.cllr_cal,
        }
        for result in _evaluate_cells(*split, pools, cells, parallel)
    ]


def _evaluate_cells(
    train: Corpus, test: Corpus, pools: Sequence[_Pool], cells: Sequence[LambdaConfig],
    parallel: int,
) -> list[EvaluationResult]:
    """The protocol on a checked split with masked problems, scored against
    the prepared (train, test) ``pools``, for configs that differ only in
    ``refs`` and ``order``: score each corpus once for all cells, then
    calibrate and report each cell."""
    logger.info("scoring %d train problems for %d cells", len(train.problems), len(cells))
    train_scores = _cell_totals(train, pools[0], cells, parallel)
    calibrations = [_calibrate(s, train.labels, c) for s, c in zip(train_scores, cells)]
    logger.info("scoring %d test problems for %d cells", len(test.problems), len(cells))
    test_scores = _cell_totals(test, pools[1], cells, parallel)
    return [
        _report(cfg, calibration, train, train_cell, test, test_cell)
        for cfg, calibration, train_cell, test_cell in zip(
            cells, calibrations, train_scores, test_scores
        )
    ]


def _cell_totals(
    corpus: Corpus, pool: _Pool, cells: Sequence[LambdaConfig], parallel: int
) -> list[tuple[float, ...]]:
    """Each cell's document scores against ``pool``, in problem order."""
    traces = _score_problems(corpus.problems, pool, cells, parallel)
    return list(zip(*([t.total for t in problem] for problem in traces)))


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
        return tuple([
            tuple([self.accuracy[i][i] - cell for cell in row])
            for i, row in enumerate(self.accuracy)
        ])

    @property
    def cllr_excess(self) -> tuple[tuple[float, ...], ...]:
        """Cell Cllr minus within-domain Cllr (positive = worse)."""
        return tuple([
            tuple([cell - self.cllr[i][i] for cell in row])
            for i, row in enumerate(self.cllr)
        ])

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
    and test corpora and reruns the protocol of ``evaluate_corpus`` on them,
    calibration included. The diagonal therefore reproduces the plain
    within-domain evaluation. Every domain is checked, then each domain's
    pool and every problem are masked once, before the first cell.
    """
    if len(corpora) < 2:
        raise ValueError("cross-domain runs need at least two corpora")
    names = tuple([name for name, _, _ in corpora])
    pairs = [(train, test) for _, train, test in corpora]
    splits, pools = _prepared(pairs, [train.reference_docs for train, _ in pairs], lexicon)
    acc_rows = []
    cllr_rows = []
    for name_i, (train_i, test_i) in zip(names, splits):
        acc_row = []
        cllr_row = []
        for name_j, pool in zip(names, pools):
            logger.info("cross cell problems=%s refs=%s", name_i, name_j)
            (result,) = _evaluate_cells(train_i, test_i, (pool, pool), [config], parallel)
            acc_row.append(result.report.accuracy)
            cllr_row.append(result.report.cllr)
        acc_rows.append(tuple(acc_row))
        cllr_rows.append(tuple(cllr_row))
    return CrossGenreResult(
        names=names, accuracy=tuple(acc_rows), cllr=tuple(cllr_rows)
    )
