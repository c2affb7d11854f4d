"""Authorship verification from grammar.

Topic-bearing words are masked out of tagged text, leaving a stream of
function words, punctuation, and POS placeholders. Smoothed n-gram models
over those streams capture an author's grammatical habits; an unknown
document is scored by the average log likelihood ratio of the known-author
model against models trained on sampled reference material, and the score is
calibrated into a forensic log likelihood ratio.
"""

from .calibration import (
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
from .corpus import (
    Corpus,
    Document,
    TaggedToken,
    VerificationProblem,
    load_corpus,
    parse_tagged_document,
    serialize_corpus,
)
from .errors import (
    CalibrationError,
    ContractError,
    CorpusError,
    DataError,
    GrammarLRError,
    LexiconError,
    ParseError,
    WorkerError,
)
from .masking import (
    MaskingLexicon,
    default_lexicon,
    load_lexicon,
    mask_corpus,
    mask_document,
    mask_sentence,
)
from .ngram import (
    BOS,
    EOS,
    UNK,
    DiscountSchedule,
    GrammarModel,
    Vocabulary,
    train,
    train_with_estimated_discounts,
)
from .protocol import (
    CrossGenreResult,
    EvaluationResult,
    cross_genre,
    evaluate_corpus,
    sweep_grid,
)
from .reporting import HighlightDoc, rank_sentences, render_highlight, zscore_bins
from .scoring import (
    LambdaConfig,
    LambdaTrace,
    TokenScore,
    lambda_document,
    sample_reference_sets,
    score_corpus,
    verify_problem,
)
from .synth import DEFAULT_ALPHABET, suffixed_alphabet, synth_corpus

__version__ = "0.1.0"

__all__ = [
    "BOS",
    "EOS",
    "UNK",
    "DEFAULT_ALPHABET",
    "CalibrationError",
    "CalibrationModel",
    "ContractError",
    "Corpus",
    "CorpusError",
    "CrossGenreResult",
    "DataError",
    "DiscountSchedule",
    "Document",
    "EvaluationResult",
    "GrammarLRError",
    "GrammarModel",
    "HighlightDoc",
    "LambdaConfig",
    "LambdaTrace",
    "LexiconError",
    "MaskingLexicon",
    "MetricsReport",
    "ParseError",
    "TaggedToken",
    "TokenScore",
    "VerificationProblem",
    "Vocabulary",
    "WorkerError",
    "build_metrics_report",
    "classification_metrics",
    "cllr_from_log_lrs",
    "cllr_min_from_log_lrs",
    "cross_genre",
    "decide",
    "default_lexicon",
    "evaluate_corpus",
    "fit_calibration",
    "lambda_document",
    "load_corpus",
    "load_lexicon",
    "log10_lr",
    "mask_corpus",
    "mask_document",
    "mask_sentence",
    "parse_tagged_document",
    "pav_fit",
    "rank_sentences",
    "render_highlight",
    "roc_auc",
    "sample_reference_sets",
    "score_corpus",
    "serialize_corpus",
    "suffixed_alphabet",
    "sweep_grid",
    "synth_corpus",
    "train",
    "train_with_estimated_discounts",
    "verify_problem",
    "zscore_bins",
]
