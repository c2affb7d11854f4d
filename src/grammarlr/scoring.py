"""Log-likelihood-ratio scoring of unknown documents against an author model.

The score of a token in context is the average, over r reference models, of
the log ratio between the known-author model's probability and a reference
model's probability. Sentence and document scores are sums over token
scores, so every document score decomposes exactly into per-token
contributions and traces stay audit-friendly.

Reference models are trained on sentence samples drawn from a pool of
documents by other authors; each sample has the same size as the
known-author training set so the comparison is like-for-like. All 1 + r
models of a problem are counted over one shared gram index and scored
together as one models x positions matrix by the array kernel in
``ngram``; models trained apart are each scored on their own count table
and their rows stacked into the same matrix. A corpus's reference pool is
gathered and coded once, and a problem scored for several reference counts
and orders (a sweep) is counted once, at the largest of each.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .corpus import Corpus, Document, Sentence, VerificationProblem
from .errors import ContractError, DataError, WorkerError
from .masking import MaskingLexicon, default_lexicon, mask_corpus, mask_document
from .ngram import (
    EOS,
    CountTable,
    DiscountSchedule,
    GrammarModel,
    Vocabulary,
    code_sentences,
    sentence_probs,
    token_codes,
)

SAMPLING_MODES = ("without_replacement", "with_replacement")


@dataclass(frozen=True)
class LambdaConfig:
    """Knobs for one scoring run.

    ``refs`` is the number of reference models averaged per token. With
    ``discount_mode`` set to "modified", each model estimates three
    count-binned discounts from its own training counts and ``discount`` is
    only the fallback; in "constant" mode ``discount`` is used directly.
    ``sampling`` requests how reference sentence sets are drawn; a
    without-replacement request silently degrades to with-replacement when
    the pool is smaller than the required sample.
    """

    order: int = 10
    refs: int = 100
    seed: int = 0
    discount: float = 0.75
    discount_mode: str = "constant"
    sampling: str = "without_replacement"

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"order must be >= 1: {self.order}")
        if self.refs < 1:
            raise ValueError(f"refs must be >= 1: {self.refs}")
        if not 0.0 < self.discount < 1.0:
            raise ValueError(f"discount must lie in (0, 1): {self.discount}")
        if self.discount_mode not in ("constant", "modified"):
            raise ValueError(f"unknown discount mode {self.discount_mode!r}")
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"unknown sampling mode {self.sampling!r}")

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "refs": self.refs,
            "seed": self.seed,
            "discount": self.discount,
            "discount_mode": self.discount_mode,
            "sampling": self.sampling,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LambdaConfig":
        return cls(**obj)


@dataclass(frozen=True)
class TokenScore:
    """Score of one scored position: sentence index, 1-based position within
    the sentence (the end marker sits at position m+1), and the averaged log
    ratio at that position."""

    token: str
    sentence_index: int
    position: int
    score: float


@dataclass(frozen=True)
class LambdaTrace:
    """Full decomposition of a document score.

    ``total`` equals the sum of ``sentence_scores`` equals the sum of token
    scores (checked at construction to a 1e-9 absolute tolerance).
    ``seed`` is the effective sampling seed actually used, which for
    problem-level runs is derived from the config seed and the problem id.
    """

    token_scores: tuple[TokenScore, ...]
    sentence_scores: tuple[float, ...]
    total: float
    config: LambdaConfig
    seed: int
    problem_id: Optional[str] = None

    def __post_init__(self) -> None:
        by_tokens = math.fsum(ts.score for ts in self.token_scores)
        by_sentences = math.fsum(self.sentence_scores)
        if abs(by_tokens - self.total) > 1e-9 or abs(by_sentences - self.total) > 1e-9:
            raise ContractError(
                "trace total does not decompose into sentence and token sums"
            )

    def to_json_dict(self) -> dict:
        return {
            "problem_id": self.problem_id,
            "config": self.config.to_json_dict(),
            "seed": self.seed,
            "total": self.total,
            "sentence_scores": list(self.sentence_scores),
            "token_scores": [
                {
                    "token": ts.token,
                    "sentence_index": ts.sentence_index,
                    "position": ts.position,
                    "lambda": ts.score,
                }
                for ts in self.token_scores
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LambdaTrace":
        return cls(
            token_scores=tuple(
                TokenScore(
                    token=ts["token"],
                    sentence_index=ts["sentence_index"],
                    position=ts["position"],
                    score=ts["lambda"],
                )
                for ts in obj["token_scores"]
            ),
            sentence_scores=tuple(obj["sentence_scores"]),
            total=obj["total"],
            config=LambdaConfig.from_json_dict(obj["config"]),
            seed=obj["seed"],
            problem_id=obj.get("problem_id"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ": "))

    @classmethod
    def from_json(cls, text: str) -> "LambdaTrace":
        return cls.from_json_dict(json.loads(text))


def derive_seed(seed: int, problem_id: str) -> int:
    """Stable per-problem sampling seed: independent of problem order within
    a corpus and identical across runs and platforms."""
    digest = hashlib.sha256(f"{seed}\x1f{problem_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def sample_reference_sets(
    pool: Sequence[Sentence],
    size: int,
    count: int,
    seed: int,
    sampling: str = "without_replacement",
) -> list[list[Sentence]]:
    """Draw ``count`` independent sentence samples of ``size`` from ``pool``.

    Sampling is uniform. Without replacement applies within a sample (never
    across samples) and degrades to with-replacement when the pool holds
    fewer than ``size`` sentences. A pool of exactly ``size`` therefore
    yields the whole pool, re-ordered, for every sample.
    """
    if size < 1:
        raise ValueError(f"sample size must be >= 1: {size}")
    if count < 1:
        raise ValueError(f"sample count must be >= 1: {count}")
    if not pool:
        raise DataError("reference pool is empty")
    if sampling not in SAMPLING_MODES:
        raise ValueError(f"unknown sampling mode {sampling!r}")
    replace_within = sampling == "with_replacement" or len(pool) < size
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        idx = rng.choice(len(pool), size=size, replace=replace_within)
        samples.append([pool[int(i)] for i in idx])
    return samples


def lambda_document(
    sentences: Sequence[Sentence],
    author_model: GrammarModel,
    reference_models: Sequence[GrammarModel],
    config: Optional[LambdaConfig] = None,
    seed: int = 0,
    problem_id: Optional[str] = None,
) -> LambdaTrace:
    """Score a document's sentences under an author model vs references.

    All models must share one order and one vocabulary, otherwise the token
    probabilities are not comparable and the result would be meaningless.
    Every position including the end-of-sentence transition is scored. Each
    model is scored on its own count table, and the rows are stacked into
    one models x positions matrix.
    """
    if not sentences:
        raise DataError("cannot score a document with no sentences")
    if not reference_models:
        raise ValueError("at least one reference model is required")
    for m in reference_models:
        if m.order != author_model.order:
            raise ContractError(
                f"model order mismatch: {m.order} vs {author_model.order}"
            )
        if m.vocab != author_model.vocab:
            raise ContractError("models scored together must share a vocabulary")
    if config is None:
        config = LambdaConfig(
            order=author_model.order, refs=len(reference_models), seed=seed
        )
    if not all(sentences):
        raise DataError("cannot score an empty sentence")
    probs = np.stack([m.token_probs(sentences) for m in (author_model, *reference_models)])
    return _trace(sentences, probs, config, seed, problem_id)


def _trace(
    sentences: Sequence[Sentence],
    probs: np.ndarray,
    config: LambdaConfig,
    seed: int,
    problem_id: Optional[str],
) -> LambdaTrace:
    """Score sentences from their (1 + r) x positions probability matrix,
    the author's row first: per position, the exactly rounded mean over
    references of the author's log probability minus the reference's."""
    # math.log once per distinct probability, then the exactly rounded mean
    # of the r log ratios at each position.
    values, where = np.unique(probs, return_inverse=True)
    logs = np.array([math.log(v) for v in values.tolist()])[where.reshape(probs.shape)]
    r = len(probs) - 1
    scores = iter([math.fsum(ratios.tolist()) / r for ratios in (logs[0] - logs[1:]).T])

    token_scores: list[TokenScore] = []
    sentence_scores: list[float] = []
    for si, sent in enumerate(sentences):
        per_token: list[float] = []
        for pos in range(1, len(sent) + 2):
            score = next(scores)
            display = sent[pos - 1] if pos <= len(sent) else EOS
            token_scores.append(
                TokenScore(token=display, sentence_index=si, position=pos, score=score)
            )
            per_token.append(score)
        sentence_scores.append(math.fsum(per_token))
    total = math.fsum(sentence_scores)
    return LambdaTrace(
        token_scores=tuple(token_scores),
        sentence_scores=tuple(sentence_scores),
        total=total,
        config=config,
        seed=seed,
        problem_id=problem_id,
    )


def _doc_sentences(docs: Sequence[Document], lexicon: Optional[MaskingLexicon]) -> list[Sentence]:
    sentences: list[Sentence] = []
    for doc in docs:
        if doc.is_tagged:
            doc = mask_document(doc, lexicon if lexicon is not None else default_lexicon())
        sentences.extend(doc.sentences)
    return sentences


@dataclass(frozen=True)
class _Pool:
    """What every problem scored against one reference pool shares: the
    pool's sentences, the vocabulary of their tokens and its token codes."""

    sentences: list[Sentence]
    vocab: Vocabulary
    codes: dict[str, int]

    @classmethod
    def of(
        cls, reference_docs: Sequence[Document], lexicon: Optional[MaskingLexicon] = None
    ) -> "_Pool":
        sentences = _doc_sentences(reference_docs, lexicon)
        vocab = Vocabulary.from_sentences(sentences)
        return cls(sentences, vocab, token_codes(vocab))


def _score_problem(
    problem: VerificationProblem,
    pool: _Pool,
    configs: Sequence[LambdaConfig],
    lexicon: Optional[MaskingLexicon] = None,
    totals: bool = False,
) -> list:
    """Score one problem for configs that differ only in ``refs`` and
    ``order``: each config's trace, or with ``totals`` only its total.

    The problem is counted once, at the largest order, over the author and
    the largest number of reference samples. The first r samples of that
    draw are the samples of r, and a model's counts at a lower order are its
    counts of the grams up to that length, so the kernel runs once per
    distinct order, on the table cut to it, and each config scores the
    author's row and its first r reference rows.
    """
    first = configs[0]
    if any(replace(c, refs=first.refs, order=first.order) != first for c in configs):
        raise ValueError("configs scored together may differ only in refs and order")
    known = _doc_sentences(problem.known_docs, lexicon)
    unknown = _doc_sentences(problem.unknown_docs, lexicon)
    if not known:
        raise DataError(f"problem {problem.id!r}: no known-author sentences")
    if not unknown:
        raise DataError(f"problem {problem.id!r}: no unknown-document sentences")
    if not pool.sentences:
        raise DataError(f"problem {problem.id!r}: no reference sentences")

    known_vocab = Vocabulary.from_sentences(known)
    seed = derive_seed(first.seed, problem.id)
    samples = sample_reference_sets(
        range(len(pool.sentences)),
        size=len(known),
        count=max(c.refs for c in configs),
        seed=seed,
        sampling=first.sampling,
    )
    # The pool's codes serve unless the known side adds tokens to the
    # vocabulary. One index for all 1 + r models: the known side and each
    # distinct sampled pool sentence are windowed once.
    codes = pool.codes
    if not known_vocab.items <= pool.vocab.items:
        codes = token_codes(Vocabulary(pool.vocab.items | known_vocab.items))
    drawn = np.unique(np.concatenate(samples))
    table = CountTable.from_sentences(
        code_sentences((*known, *(pool.sentences[i] for i in drawn)), codes),
        [range(len(known)), *(len(known) + np.searchsorted(drawn, s) for s in samples)],
        max(c.order for c in configs),
        len(codes),
    )
    unknown_codes = code_sentences(unknown, codes)
    probs = {}
    for order in {c.order for c in configs}:
        cut = table.truncated(order)
        if first.discount_mode == "modified":
            discounts = [
                DiscountSchedule.estimate_modified(coc, fallback=first.discount)
                for coc in cut.count_of_counts()
            ]
        else:
            discounts = [DiscountSchedule.constant(first.discount)] * cut.n_models
        probs[order] = sentence_probs(cut, discounts, unknown_codes)
    traces = (_trace(unknown, probs[c.order][: 1 + c.refs], c, seed, problem.id) for c in configs)
    return [t.total for t in traces] if totals else list(traces)


def verify_problem(
    problem: VerificationProblem,
    reference_docs: Sequence[Document],
    config: LambdaConfig,
    lexicon: Optional[MaskingLexicon] = None,
) -> LambdaTrace:
    """Run the full scoring pipeline for one verification problem.

    Tagged documents, the reference pool's included, are masked on every
    call (with the bundled lexicon unless another is given); masked
    documents are used as they are. The pool's sentences, their vocabulary
    and its token codes are built on every call too. ``score_corpus`` masks
    a whole corpus and builds these once, then scores each problem, so
    prefer it for many problems. One vocabulary, the pool's tokens plus
    the known side's, is shared by every model; unknown-document tokens
    outside it fall to the unknown token at scoring time. The sampling seed is
    derived from the config seed and the problem id. The models are counted
    once, over one index of the known side and the distinct sampled
    reference sentences; the trace equals that of ``lambda_document`` on
    the same models trained apart.
    """
    (trace,) = _score_problem(problem, _Pool.of(reference_docs, lexicon), [config], lexicon)
    return trace


def score_corpus(
    corpus: Corpus,
    config: LambdaConfig,
    lexicon: Optional[MaskingLexicon] = None,
    parallel: int = 1,
) -> list[LambdaTrace]:
    """Score every problem in a corpus, preserving problem order.

    The corpus, reference pool included, is masked once before any problem
    is scored (with the bundled lexicon unless another is given), so each
    tagged document is masked once per call, not once per problem. A
    malformed tagged document therefore fails before the first problem is
    scored. The pool's sentences, their vocabulary and its token codes are
    likewise built once per call (once per worker process). Each trace
    equals that of
    ``verify_problem`` on the same problem. To score many problems against
    one pool, call this (or ``evaluate_corpus``) rather than
    ``verify_problem`` in a loop.

    ``parallel`` > 1 fans problems out over a process pool. Each worker
    receives the masked pool and the config once, at start-up, and each job
    carries only its problem. Results are reduced in submission order so
    parallel runs are bit-identical to serial ones. A worker that dies
    raises ``WorkerError`` naming the first problem, in submission order,
    whose result was lost.
    """
    masked = mask_corpus(corpus, lexicon if lexicon is not None else default_lexicon())
    return [cells[0] for cells in _score_problems(masked, [config], parallel)]


def _score_problems(
    corpus: Corpus, configs: Sequence[LambdaConfig], parallel: int = 1, totals: bool = False
) -> list[list]:
    """Score every problem of a masked corpus for configs that differ only
    in ``refs`` and ``order``, as ``_score_problem`` does: per problem, in
    problem order, each config's trace or, with ``totals``, its total.

    The pool is prepared once, in this process or in each worker. See
    ``score_corpus`` for ``parallel``.
    """
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1: {parallel}")
    problems = corpus.problems
    if parallel == 1 or len(problems) <= 1:
        pool = _Pool.of(corpus.reference_docs)
        return [_score_problem(p, pool, configs, totals=totals) for p in problems]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    results: list[list] = []
    with ProcessPoolExecutor(
        max_workers=parallel,
        initializer=_init_worker,
        initargs=(corpus.reference_docs, configs, totals),
    ) as executor:
        try:
            for cells in executor.map(_verify_in_worker, problems):
                results.append(cells)
        except BrokenProcessPool as exc:
            raise WorkerError(
                f"problem {problems[len(results)].id!r}: a worker process died "
                "before returning its result"
            ) from exc
    return results


# Per-process state of a _score_problems worker: (pool, configs, totals), set
# once by the pool initializer so each job pickles only its problem.
_worker_job: tuple = ()


def _init_worker(
    reference_docs: tuple[Document, ...], configs: Sequence[LambdaConfig], totals: bool
) -> None:
    global _worker_job
    _worker_job = (_Pool.of(reference_docs), configs, totals)


def _verify_in_worker(problem: VerificationProblem) -> list:
    pool, configs, totals = _worker_job
    return _score_problem(problem, pool, configs, totals=totals)
