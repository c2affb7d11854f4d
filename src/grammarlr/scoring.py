"""Log-likelihood-ratio scoring of unknown documents against an author model.

The score of a token in context is the average, over r reference models, of
the log ratio between the known-author model's probability and a reference
model's probability. Sentence and document scores are sums over token
scores, so every document score decomposes exactly into per-token
contributions and traces stay audit-friendly.

Each position's mean is exactly rounded: it equals ``math.fsum`` of the r
log ratios over r, bit for bit. It is computed for all positions at once
as an array sum with error-free transformations, and only a column whose
compensated sum lies too near a rounding boundary is summed by
``math.fsum`` (see ``_exact_sums`` for the bound). Probabilities are logged
with ``math.log`` once per distinct value, all orders of a kernel call in
one pass: values are grouped by a multiplicative hash of their bits, and
each group is checked bit for bit (see ``_log_probs``). A ``LambdaTrace``
holds its positions as columns (scores, display tokens, sentence bounds)
and builds ``TokenScore`` objects only when they are asked for.

Reference models are trained on sentence samples drawn from a pool of
documents by other authors; each sample has the same size as the
known-author training set so the comparison is like-for-like. All 1 + r
models of a problem are counted over one shared gram index and scored
together as one models x positions matrix by the array kernel in
``ngram``; models trained apart are each scored on their own count table
and their rows stacked into the same matrix. Scoring hands ``ngram`` only
coded sentences: a reference pool is masked and coded once, its forms
numbered as first seen, and each problem gathers its samples' codes from
it as they are, codes its two sides (the known side's new forms numbered
next), counts them with ``CountTable.from_sentences`` and queries
``sentence_probs`` with the unknown document's gram ids: the counter hands
them over in constant mode, and modified mode encodes the document. A
problem scored for several reference counts and orders is counted once, at
the largest of each, and scored by one kernel call per discount list.

The scoring core reads masked problems and pools prepared by ``_Pool.of``
only: every caller enters it through ``_score_problems``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from bisect import bisect_left
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from itertools import accumulate, chain, pairwise
from typing import Optional, Sequence

import numpy as np

from .corpus import Corpus, Document, Sentence, VerificationProblem
from .errors import ContractError, DataError, WorkerError
from .masking import MaskingLexicon, default_lexicon, mask_problems
from .ngram import (
    EOS,
    UNK,
    CountTable,
    DiscountSchedule,
    GrammarModel,
    _code_with,
    _unique_inverse,
    code_sentences,
    ranges,
    sentence_probs,
    token_codes,
    token_stream,
)

SAMPLING_MODES = ("without_replacement", "with_replacement")

logger = logging.getLogger("grammarlr")


@dataclass(frozen=True)
class LambdaConfig:
    """Knobs for one scoring run.

    ``refs`` is the number of reference models averaged per token. With
    ``discount_mode`` set to "modified", each model estimates three
    count-binned discounts from its own training counts and ``discount`` is
    only the fallback; in "constant" mode ``discount`` is used directly.
    ``sampling`` requests how reference sentence sets are drawn; a
    without-replacement request degrades to with-replacement, with a
    logged warning, when the pool is smaller than the required sample.
    """

    order: int = 10
    refs: int = 100
    seed: int = 0
    discount: float = 0.75
    discount_mode: str = "constant"
    sampling: str = "without_replacement"

    def __post_init__(self) -> None:
        for name in ("order", "refs", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer: {value!r}")
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
        return asdict(self)

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


@dataclass(frozen=True, eq=False)
class LambdaTrace:
    """Full decomposition of a document score, held as columns.

    ``scores`` is a read-only float64 array with one score per scored
    position, sentence after sentence, each sentence's tokens then its end
    marker. ``tokens`` holds the display token of each position, and
    sentence ``i`` spans ``scores[bounds[i]:bounds[i + 1]]``.
    ``token_scores`` presents the same positions as ``TokenScore``s with
    Python float scores; it is built on first access and then kept.

    ``total`` equals the sum of ``sentence_scores`` equals the sum of token
    scores, all finite (checked at construction to a 1e-9 absolute
    tolerance). ``seed`` is the effective sampling seed actually used, which
    for problem-level runs is derived from the config seed and the problem
    id.

    The constructor takes the columns and the sentence scores;
    ``from_columns`` sums the sentences itself. ``from_json`` reads the
    ``TokenScore`` layout back and checks that it runs sentence by sentence
    with positions 1, 2, ... within each sentence. Traces are immutable,
    compare and hash by their ``TokenScore``s and the other fields, and
    pickle as their columns.
    """

    scores: np.ndarray
    tokens: tuple[str, ...]
    bounds: tuple[int, ...]
    sentence_scores: tuple[float, ...]
    total: float
    config: LambdaConfig
    seed: int
    problem_id: Optional[str] = None

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64).view()
        scores.flags.writeable = False
        tokens, bounds = tuple(self.tokens), tuple(self.bounds)
        sentence_scores = tuple(self.sentence_scores)
        if (
            scores.shape != (len(tokens),)
            or len(bounds) != len(sentence_scores) + 1
            or (bounds[0], bounds[-1]) != (0, len(tokens))
            or list(bounds) != sorted(bounds)
        ):
            raise ContractError("trace columns disagree in length")
        vars(self).update(
            scores=scores, tokens=tokens, bounds=bounds, sentence_scores=sentence_scores
        )
        try:  # fsum raises on inf - inf, and where finite parts overflow
            sums = (math.fsum(scores.tolist()), math.fsum(sentence_scores))
        except (ValueError, OverflowError):
            sums = (math.nan,)
        # A finite total within 1e-9 of each sum: no NaN or infinity passes.
        if not (math.isfinite(self.total) and all(abs(x - self.total) <= 1e-9 for x in sums)):
            raise ContractError(
                "trace total does not decompose into finite sentence and token sums"
            )

    @classmethod
    def from_columns(
        cls,
        scores: np.ndarray,
        tokens: Sequence[str],
        bounds: Sequence[int],
        config: LambdaConfig,
        seed: int,
        problem_id: Optional[str] = None,
    ) -> "LambdaTrace":
        """A trace of per-position scores: each sentence score is the
        exactly rounded sum of its slice, and the total that of the
        sentence scores."""
        values = np.asarray(scores, dtype=np.float64).tolist()
        sentence_scores = tuple([math.fsum(values[a:b]) for a, b in pairwise(bounds)])
        return cls(
            scores, tokens, bounds, sentence_scores, math.fsum(sentence_scores),
            config, seed, problem_id,
        )

    @cached_property
    def token_scores(self) -> tuple[TokenScore, ...]:
        values = self.scores.tolist()
        return tuple([
            TokenScore(self.tokens[i], si, i - a + 1, values[i])
            for si, (a, b) in enumerate(pairwise(self.bounds))
            for i in range(a, b)
        ])

    def _key(self) -> tuple:
        return (
            self.token_scores, self.sentence_scores, self.total,
            self.config, self.seed, self.problem_id,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self) -> tuple:
        return LambdaTrace, tuple([getattr(self, f.name) for f in fields(self)])

    def to_json_dict(self) -> dict:
        values, tokens = self.scores.tolist(), self.tokens
        return {
            "problem_id": self.problem_id,
            "config": self.config.to_json_dict(),
            "seed": self.seed,
            "total": self.total,
            "sentence_scores": list(self.sentence_scores),
            "token_scores": [
                {
                    "token": tokens[i],
                    "sentence_index": si,
                    "position": i - a + 1,
                    "lambda": values[i],
                }
                for si, (a, b) in enumerate(pairwise(self.bounds))
                for i in range(a, b)
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LambdaTrace":
        """Read a trace back from :meth:`to_json_dict`'s layout. A value
        that is not an object, a missing key, a value of the wrong type or
        an invalid one, and a layout that does not run sentence by sentence
        all raise :class:`ContractError`."""
        if not isinstance(obj, dict):
            raise ContractError(f"a trace must be a JSON object, not {type(obj).__name__}")
        try:
            entries = obj["token_scores"]
            sentence_scores = obj["sentence_scores"]
            index = [ts["sentence_index"] for ts in entries]
            in_range = not index or (index[0] >= 0 and index[-1] < len(sentence_scores))
            if index != sorted(index) or not in_range:
                raise ContractError("token scores must run sentence by sentence")
            bounds = [bisect_left(index, si) for si in range(len(sentence_scores) + 1)]
            positions = [i - bounds[si] + 1 for i, si in enumerate(index)]
            if [ts["position"] for ts in entries] != positions:
                raise ContractError("token positions must run 1, 2, ... within each sentence")
            return cls(
                np.array([ts["lambda"] for ts in entries], dtype=np.float64),
                [ts["token"] for ts in entries],
                bounds,
                sentence_scores,
                obj["total"],
                LambdaConfig.from_json_dict(obj["config"]),
                obj["seed"],
                obj.get("problem_id"),
            )
        except KeyError as exc:
            raise ContractError(f"trace lacks the key {exc.args[0]!r}") from exc
        except TypeError as exc:
            raise ContractError(f"trace holds a value of the wrong type: {exc}") from exc
        except ValueError as exc:
            raise ContractError(f"trace holds an invalid value: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ": "))

    @classmethod
    def from_json(cls, text: str) -> "LambdaTrace":
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ContractError(f"trace is not valid JSON: {exc}") from exc
        return cls.from_json_dict(obj)


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
    rows = _sample_indices(len(pool), size, count, seed, sampling)
    return [[pool[i] for i in row] for row in rows.tolist()]


def _sample_indices(pool_size: int, size: int, count: int, seed: int, sampling: str) -> np.ndarray:
    """The (count, size) matrix of pool indices whose row i is sample i of
    :func:`sample_reference_sets`, for arguments it accepts."""
    replace_within = sampling == "with_replacement" or pool_size < size
    rng = np.random.default_rng(seed)
    return np.stack([rng.choice(pool_size, size=size, replace=replace_within) for _ in range(count)])


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
    return _trace(_log_probs(probs), _layout(sentences), config, seed, problem_id)


# Knuth's multiplicative hash: 2**64 over the golden ratio, odd.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
# The most values grouped by hash (keys keep 63 - log2(values) bits, so a
# larger array collides more often); more are grouped by ``np.unique``.
_MAX_HASHED = 1 << 20


def _log_probs(probs: np.ndarray) -> np.ndarray:
    """``math.log`` of every probability, taken once per distinct value.
    (``np.log`` differs from ``math.log`` in the last bit on some inputs.)
    Values are grouped by a multiplicative hash of their bits (Knuth, TAOCP
    vol. 3, 6.4): the top bits of bits * ``_GOLDEN`` mod 2**64, leaving room
    for ``_unique_inverse``'s places. Each group is checked bit for bit; a
    collision, or more than ``_MAX_HASHED`` values, falls back to ``np.unique``."""
    bits = np.ascontiguousarray(probs, dtype=np.float64).view(np.uint64).reshape(-1)
    values = None
    if 0 < len(bits) <= _MAX_HASHED:
        shift = (len(bits) - 1).bit_length()
        keys = bits * _GOLDEN  # uint64 operands: numpy < 2 takes a Python int to float64
        keys >>= np.uint64(shift + 1)
        groups, where = _unique_inverse(keys.view(np.int64), 1 << (63 - shift))
        del keys
        first = np.empty(len(groups), dtype=np.uint64)
        first[where] = bits  # each group's bits, if its values share them
        if np.array_equal(first[where], bits):
            values = first.view(np.float64)
    if values is None:
        values, where = np.unique(probs, return_inverse=True)
    logs = np.fromiter(map(math.log, values.tolist()), dtype=np.float64, count=len(values))
    return logs[where.reshape(probs.shape)]


def _layout(sentences: Sequence[Sentence]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The display tokens of a document's scored positions, each sentence's
    tokens then its end marker, and the offsets where its sentences start
    (plus the end)."""
    tokens = tuple([t for sent in sentences for t in (*sent, EOS)])
    return tokens, tuple([*accumulate((len(sent) + 1 for sent in sentences), initial=0)])


def _trace(
    logs: np.ndarray,
    layout: tuple[tuple[str, ...], tuple[int, ...]],
    config: LambdaConfig,
    seed: int,
    problem_id: Optional[str],
) -> LambdaTrace:
    """Score a document from its (1 + r) x positions matrix of log
    probabilities, the author's row first: per position, the exactly
    rounded mean over references of the author's log probability minus the
    reference's."""
    r = len(logs) - 1
    return LambdaTrace.from_columns(
        _exact_sums(logs[0] - logs[1:]) / r, *layout, config, seed, problem_id
    )


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's error-free TwoSum: s = fl(a + b) and the e with a + b = s + e
    exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_sum_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Add the rows of ``x`` pairwise with TwoSum: the rounded row sum, and
    the rows of rounding errors, whose exact sum is what the rounded sum
    misses of the exact one."""
    if not len(x):
        return np.zeros(x.shape[1:]), x
    errors = []
    while len(x) > 1:
        half = len(x) // 2
        s, e = _two_sum(x[:half], x[half : 2 * half])
        errors.append(e)
        x = np.concatenate((s, x[2 * half :])) if len(x) % 2 else s
    return x[0], np.concatenate(errors) if errors else x[:0]


# The acceptance threshold's margin, and the least |y| it applies to: there
# half an ulp of y, shrunk by the margin, is still an exact normal number.
_MARGIN = 1.0 - 2.0**-20
_LEAST_CHECKED = 2.0**-968


def _exact_sums(rows: np.ndarray) -> np.ndarray:
    """The column sums of ``rows``, each equal bit for bit to ``math.fsum``
    of its column: exactly rounded, ties to even.

    The "faithful, then verify" scheme of Ogita, Rump & Oishi (2005,
    "Accurate Sum and Dot Product") and Rump, Ogita & Oishi (2008), in array
    form. With TwoSum error-free, every column's exact sum S is

        S = s + sum(e) = s + c + sum(e2) = y + t + sum(e2)

    where s and the errors e come from adding the rows pairwise (log2 r
    array passes rather than r), c and the errors e2 from adding the e
    likewise, and y + t = s + c from one more TwoSum. Where every e2 is
    zero, S = s + c exactly, so y = fl(s + c) is S rounded to nearest, ties
    to even, as ``math.fsum`` rounds it. Otherwise c2, the rounded sum of
    the n < r e2, is within about (n - 1) u sum|e2| of sum(e2)
    (u = 2**-53), and 2 r eps sum|e2| (eps = 2**-52) bounds that with room
    to spare, also for the rounding of sum|e2| itself, so

        |S - y| <= |t| + |c2| + 2 r eps sum|e2|.

    y is S correctly rounded when that bound is below half the gap from y
    to its nearer neighbour; the 2**-20 margin covers the two roundings in
    adding up the bound, and |y| >= 2**-968 keeps the threshold exact. Any
    other column (a zero or tiny y, a bound too close to the half gap, a
    non-finite value) is summed by ``math.fsum`` (Shewchuk 1997).
    """
    s, e = _two_sum_rows(rows)
    c, e2 = _two_sum_rows(e)
    y, t = _two_sum(s, c)
    spread = np.abs(e2).sum(axis=0)
    size = np.abs(y)
    half_gap = 0.5 * np.minimum(np.spacing(size), size - np.nextafter(size, 0.0))
    bound = np.abs(t) + np.abs(e2.sum(axis=0)) + 2 * len(rows) * np.finfo(np.float64).eps * spread
    exact = np.isfinite(y) & (y != 0.0) & (
        (spread == 0.0) | ((size >= _LEAST_CHECKED) & (bound < half_gap * _MARGIN))
    )
    for j in np.flatnonzero(~exact).tolist():
        y[j] = math.fsum(rows[:, j].tolist())
    return y


def _doc_sentences(docs: Sequence[Document]) -> list[Sentence]:
    return [sent for doc in docs for sent in doc.sentences]


class _FirstSeen(dict):
    """Each pool token, a ``TaggedToken`` or a masked string, -> the
    first-seen index of its masked form, which ``forms`` maps to that index."""

    def __init__(self, lexicon: MaskingLexicon) -> None:
        self.masked = lexicon._masked
        self.forms: dict[str, int] = {}

    def __missing__(self, token) -> int:
        form = token if isinstance(token, str) else self.masked[token]
        code = self[token] = self.forms.setdefault(form, len(self.forms))
        return code


@dataclass(frozen=True)
class _Pool:
    """What every problem scored against one reference pool shares: its
    masked forms, each mapped to its index in the order first seen, and its
    masked sentences' indices end to end (in the dtype ``code_sentences``
    would give), with each sentence's offset (plus the end)."""

    forms: dict[str, int]
    flat: np.ndarray
    offsets: np.ndarray

    @classmethod
    def of(
        cls, reference_docs: Sequence[Document], lexicon: Optional[MaskingLexicon] = None
    ) -> "_Pool":
        """Mask (with the bundled lexicon unless another is given) and code
        a pool in one pass, one lookup per token."""
        lookup = _FirstSeen(lexicon if lexicon is not None else default_lexicon())
        flat, lengths = _code_with(lookup, _doc_sentences(reference_docs), np.dtype(np.intp))
        dtype = np.min_scalar_type(len(lookup.forms) + 2)
        return cls(lookup.forms, flat.astype(dtype), np.append(0, np.cumsum(lengths)))


def _score_problem(
    problem: VerificationProblem,
    pool: _Pool,
    configs: Sequence[LambdaConfig],
) -> list[LambdaTrace]:
    """Score one masked problem against a non-empty pool for configs that
    differ only in ``refs`` and ``order``: each config's trace.

    The problem is counted once, at the largest order, over the author and
    the largest number of reference samples. The first r samples of that
    draw are the samples of r, and a model's counts at a lower order are its
    counts of the grams up to that length, so one kernel call returns every
    order of one discount list (modified mode estimates a list per order),
    and its probabilities, every order at once, are logged in one pass; each
    config scores the author's row and its first r reference rows of its
    order's log matrix.
    """
    first = configs[0]
    known = _doc_sentences(problem.known_docs)
    unknown = _doc_sentences(problem.unknown_docs)
    pool_size = len(pool.offsets) - 1
    seed = derive_seed(first.seed, problem.id)
    if first.sampling == "without_replacement" and pool_size < len(known):
        logger.warning("problem %r: %d reference sentences, fewer than a sample of %d; "
                       "sampling with replacement", problem.id, pool_size, len(known))
    samples = _sample_indices(
        pool_size, len(known), max(c.refs for c in configs), seed, first.sampling
    )
    # The codes number the pool's forms as the pool does, then the forms
    # only the known side holds, as first seen, so the models train on the
    # known side and each distinct drawn pool sentence, gathered as coded.
    codes = token_codes([*dict.fromkeys(chain(pool.forms, *known)), UNK])
    drawn, rows = _unique_inverse(samples.reshape(-1), pool_size)
    lengths = np.diff(pool.offsets)[drawn]
    drawn_flat = pool.flat[ranges(pool.offsets[drawn], lengths)]
    query = code_sentences(unknown, codes)
    # Only the grams the unknown document can read are counted, and the
    # counter hands over its gram ids, except in modified mode: its
    # discounts need every top-order window, so the counter does not see
    # the document, and it is encoded on the counted index.
    queries = len(unknown) if first.discount_mode == "constant" else 0
    sides = [(drawn_flat, lengths), code_sentences(known, codes), query][: 3 if queries else 2]
    models = [range(len(drawn), len(drawn) + len(known)), *rows.reshape(samples.shape)]
    top = max(c.order for c in configs)
    table = CountTable.from_sentences(
        *map(np.concatenate, zip(*sides)), models, top, len(codes), queries
    )
    ids = table.queried if queries else table.index.encode(*token_stream(*query, len(codes))[:2])
    logs, groups = {}, {}  # groups: the orders of each discount list
    for order in sorted({c.order for c in configs}):
        if first.discount_mode == "modified":
            discounts = tuple([
                DiscountSchedule.estimate_modified(coc, fallback=first.discount)
                for coc in table.truncated(order).count_of_counts()
            ])
        else:
            discounts = (DiscountSchedule.constant(first.discount),) * table.n_models
        groups.setdefault(discounts, []).append(order)
    for discounts, orders in groups.items():
        probs = sentence_probs(table.truncated(orders[-1]), discounts, ids, query[1], orders=orders)
        logs.update(zip(orders, _log_probs(probs)))
    layout = _layout(unknown)
    return [_trace(logs[c.order][: 1 + c.refs], layout, c, seed, problem.id) for c in configs]


def verify_problem(
    problem: VerificationProblem,
    reference_docs: Sequence[Document],
    config: LambdaConfig,
    lexicon: Optional[MaskingLexicon] = None,
) -> LambdaTrace:
    """Run the full scoring pipeline for one verification problem.

    The reference pool, which may repeat ids or hold the problem's own
    documents, is masked and coded in one pass, and the problem masked, on
    every call (with the bundled lexicon unless another is given).
    ``score_corpus`` prepares the pool once, then scores each problem, so
    prefer it for many problems. One vocabulary, the pool's tokens plus the
    known side's, is shared by every model; unknown-document tokens outside
    it fall to the unknown token at scoring time. The sampling seed is
    derived from the config seed and the problem id. The models are counted
    once, over one index of the known side and the distinct sampled
    reference sentences; the trace equals that of ``lambda_document`` on
    the same models trained apart.
    """
    pool = _Pool.of(reference_docs, lexicon)
    [(trace,)] = _score_problems(mask_problems([problem], lexicon), pool, [config], 1)
    return trace


def score_corpus(
    corpus: Corpus,
    config: LambdaConfig,
    lexicon: Optional[MaskingLexicon] = None,
    parallel: int = 1,
) -> list[LambdaTrace]:
    """Score every problem in a corpus, preserving problem order.

    Before any problem is scored, the reference pool is masked and coded in
    one pass, in this process, and each tagged problem document masked (with
    the bundled lexicon unless another is given), once per call, not once per
    problem. A malformed tagged document therefore fails first. Each
    trace equals that of ``verify_problem`` on the same problem. To score
    many problems against one pool, call this (or ``evaluate_corpus``)
    rather than ``verify_problem`` in a loop.

    ``parallel`` > 1 fans problems out over a process pool of at most one
    worker per problem. Each worker receives the prepared pool and the
    config once, at start-up, and each job carries only its problem. Results
    are reduced in submission order so parallel runs are bit-identical to
    serial ones. A worker that dies raises ``WorkerError`` naming the first
    problem, in submission order, whose result was lost.
    """
    pool = _Pool.of(corpus.reference_docs, lexicon)
    traces = _score_problems(mask_problems(corpus.problems, lexicon), pool, [config], parallel)
    return [cells[0] for cells in traces]


def _score_problems(
    problems: Sequence[VerificationProblem],
    pool: _Pool,
    configs: Sequence[LambdaConfig],
    parallel: int,
) -> list[list[LambdaTrace]]:
    """The one entry into scoring: score masked problems against a reference
    pool prepared by ``_Pool.of`` for configs that differ only in ``refs``
    and ``order``, as ``_score_problem`` does: per problem, in problem
    order, each config's trace.

    Configs that differ in more than ``refs`` and ``order`` raise
    ``ValueError``, and an empty pool ``DataError``, here, before any
    problem is scored or any worker starts. Each worker receives the
    prepared pool once, at start-up. See ``score_corpus`` for ``parallel``.
    """
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1: {parallel}")
    first = configs[0]
    if any(replace(c, refs=first.refs, order=first.order) != first for c in configs[1:]):
        raise ValueError("configs scored together may differ only in refs and order")
    if problems and len(pool.offsets) == 1:
        raise DataError("reference pool is empty")
    if parallel == 1 or len(problems) <= 1:
        return [_score_problem(p, pool, configs) for p in problems]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    results: list[list[LambdaTrace]] = []
    with ProcessPoolExecutor(
        max_workers=min(parallel, len(problems)),
        initializer=_init_worker,
        initargs=(pool, configs),
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


# Per-process state of a _score_problems worker: (pool, configs), set once
# by the pool initializer so each job pickles only its problem.
_worker_job: tuple = ()


def _init_worker(pool: _Pool, configs: Sequence[LambdaConfig]) -> None:
    global _worker_job
    _worker_job = (pool, configs)


def _verify_in_worker(problem: VerificationProblem) -> list[LambdaTrace]:
    pool, configs = _worker_job
    return _score_problem(problem, pool, configs)
