"""Smoothed n-gram language models over masked token streams.

The model counts every n-gram window, for each order n up to N, over
sentences padded with exactly n begin markers on the left and one end marker
on the right. That convention makes the count of any begin-marker run equal
the number of training sentences, keeps sentence boundaries informative, and
gives every order its own complete count table.

Probabilities use interpolated Kneser-Ney smoothing with absolute
discounting. Top-order numerators use raw counts; lower orders use
continuation counts (the number of distinct left extensions). The backoff
weight at each level redistributes exactly the mass removed by discounting,
computed over the same count table the numerators use, so the conditional
distribution at every level sums to one. The recursion bottoms out in a
uniform distribution over the vocabulary plus the end marker.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ModelFormatError

BOS = "<BOS>"
EOS = "<EOS>"
UNK = "<UNK>"

_MAGIC = b"GLRM"
_FORMAT_VERSION = 1

# Discounts must stay strictly inside (0, 1): positive so singleton mass is
# actually redistributed, below one so no stored count is discounted to zero.
_MIN_DISCOUNT = 1e-3
_MAX_DISCOUNT = 1.0 - 1e-3


@dataclass(frozen=True)
class Vocabulary:
    """The closed token set of a model, always containing the unknown token.

    Begin/end markers are pseudo-tokens and may never be vocabulary items.
    ``map`` sends out-of-vocabulary tokens to the unknown token.
    """

    items: frozenset[str]

    def __post_init__(self) -> None:
        if UNK not in self.items:
            raise ValueError("vocabulary must contain the unknown token")
        for reserved in (BOS, EOS):
            if reserved in self.items:
                raise ValueError(f"vocabulary must not contain {reserved!r}")
        for tok in self.items:
            if not isinstance(tok, str) or not tok:
                raise ValueError(f"vocabulary items must be non-empty strings: {tok!r}")

    @classmethod
    def from_sentences(cls, sentences: Iterable[Sequence[str]]) -> "Vocabulary":
        toks: set[str] = set()
        for sent in sentences:
            toks.update(sent)
        if BOS in toks or EOS in toks:
            raise ValueError("sentences must not contain begin/end pseudo-tokens")
        toks.add(UNK)
        return cls(frozenset(toks))

    def map(self, token: str) -> str:
        return token if token in self.items else UNK

    def __contains__(self, token: str) -> bool:
        return token in self.items

    def __len__(self) -> int:
        return len(self.items)

    def sorted_items(self) -> list[str]:
        return sorted(self.items)


@dataclass(frozen=True)
class DiscountSchedule:
    """Absolute-discount schedule: one constant, or three count-binned values.

    In modified mode counts of 1, 2, and 3-or-more receive separate
    discounts. Every discount lies strictly in (0, 1).
    """

    mode: str
    constant_d: float = 0.75
    bins: Optional[tuple[float, float, float]] = None

    def __post_init__(self) -> None:
        if self.mode not in ("constant", "modified"):
            raise ValueError(f"unknown discount mode {self.mode!r}")
        if self.mode == "constant":
            if not 0.0 < self.constant_d < 1.0:
                raise ValueError(f"discount must lie in (0, 1): {self.constant_d}")
        else:
            if self.bins is None or len(self.bins) != 3:
                raise ValueError("modified mode requires three discount bins")
            for d in self.bins:
                if not 0.0 < d < 1.0:
                    raise ValueError(f"discount must lie in (0, 1): {d}")

    @classmethod
    def constant(cls, d: float = 0.75) -> "DiscountSchedule":
        return cls(mode="constant", constant_d=d)

    @classmethod
    def modified(cls, d1: float, d2: float, d3: float) -> "DiscountSchedule":
        return cls(mode="modified", constant_d=0.75, bins=(d1, d2, d3))

    @classmethod
    def estimate_modified(
        cls, count_of_counts: Mapping[int, int], fallback: float = 0.75
    ) -> "DiscountSchedule":
        """Estimate the three bins from count-of-count statistics.

        Uses the standard leave-one-out closed form d_k = k - (k+1) Y
        n_{k+1}/n_k with Y = n_1/(n_1 + 2 n_2), falling back to ``fallback``
        for bins whose statistics are empty and clamping everything into
        (0, 1).
        """
        n = [count_of_counts.get(i, 0) for i in (1, 2, 3, 4)]
        y = n[0] / (n[0] + 2.0 * n[1]) if (n[0] + 2 * n[1]) > 0 else 0.0
        ds = []
        for k in (1, 2, 3):
            nk, nk1 = n[k - 1], n[k]
            if nk > 0 and y > 0.0:
                ds.append(k - (k + 1) * y * nk1 / nk)
            else:
                ds.append(fallback)
        clamped = tuple(min(max(d, _MIN_DISCOUNT), _MAX_DISCOUNT) for d in ds)
        return cls.modified(*clamped)

    def discount_for(self, count: int) -> float:
        """D(k): the amount subtracted from a gram with count k."""
        if count <= 0:
            return 0.0
        if self.mode == "constant":
            return self.constant_d
        return self.bins[min(count, 3) - 1]

    def removed_mass(self, n1: int, n2: int, n3plus: int) -> float:
        """Total discount mass over a context given its count-of-count bins."""
        if self.mode == "constant":
            return self.constant_d * (n1 + n2 + n3plus)
        d1, d2, d3 = self.bins
        return d1 * n1 + d2 * n2 + d3 * n3plus


def _count_raw(
    sentences: Sequence[tuple[str, ...]], order: int
) -> dict[tuple[str, ...], int]:
    """Count all n-gram windows, n = 1..order, with per-order padding."""
    raw: dict[tuple[str, ...], int] = defaultdict(int)
    for n in range(1, order + 1):
        pad = (BOS,) * n
        for sent in sentences:
            padded = pad + sent + (EOS,)
            for i in range(len(padded) - n + 1):
                raw[padded[i : i + n]] += 1
    return dict(raw)


class GrammarModel:
    """An order-N Kneser-Ney model with queryable count statistics.

    Instances are effectively immutable after construction. Build them with
    :func:`train`; everything beyond the raw count table is derived
    deterministically, so serialization only persists raw counts and
    reconstruction is exact.
    """

    def __init__(
        self,
        order: int,
        vocab: Vocabulary,
        discounts: DiscountSchedule,
        sentence_count: int,
        raw_counts: dict[tuple[str, ...], int],
    ) -> None:
        if order < 1:
            raise ValueError(f"order must be >= 1: {order}")
        if sentence_count < 1:
            raise ValueError("model requires at least one training sentence")
        self.order = order
        self.vocab = vocab
        self.discounts = discounts
        self.sentence_count = sentence_count
        self.raw_counts = raw_counts
        self._build_derived()

    def _build_derived(self) -> None:
        order = self.order
        raw = self.raw_counts

        # Continuation counts: top order keeps raw counts, every lower order
        # counts distinct left extensions found in the next order up.
        ckn: dict[tuple[str, ...], int] = {}
        extenders: dict[tuple[str, ...], set[str]] = defaultdict(set)
        for gram, count in raw.items():
            if count <= 0:
                continue
            if len(gram) == order:
                ckn[gram] = count
            if len(gram) >= 2:
                extenders[gram[1:]].add(gram[0])
        for gram, lefts in extenders.items():
            if len(gram) < order:
                ckn[gram] = len(lefts)
        self.continuation_counts = ckn

        # Per-context totals and count-of-count bins over the same table the
        # numerators use; grams ending in the begin marker are not legal
        # continuations and are skipped.
        totals: dict[tuple[str, ...], int] = defaultdict(int)
        bins: dict[tuple[str, ...], list[int]] = defaultdict(lambda: [0, 0, 0])
        for gram, count in ckn.items():
            if gram[-1] == BOS:
                continue
            ctx = gram[:-1]
            totals[ctx] += count
            bins[ctx][min(count, 3) - 1] += 1
        self._ctx_total = dict(totals)
        self._ctx_bins = {ctx: tuple(b) for ctx, b in bins.items()}

    # ------------------------------------------------------------------
    # count queries

    def _map_gram(self, gram: Sequence[str]) -> tuple[str, ...]:
        return tuple(
            tok if tok in (BOS, EOS) else self.vocab.map(tok) for tok in gram
        )

    def count(self, gram: Sequence[str]) -> int:
        """Raw count of a gram (1 <= length <= order) under padded counting."""
        if not 1 <= len(gram) <= self.order:
            raise ValueError(f"gram length must be in 1..{self.order}: {len(gram)}")
        return self.raw_counts.get(self._map_gram(gram), 0)

    def continuation_count(self, gram: Sequence[str]) -> int:
        """Modified count: raw at the top order, distinct-left-extension below."""
        if not 1 <= len(gram) <= self.order:
            raise ValueError(f"gram length must be in 1..{self.order}: {len(gram)}")
        return self.continuation_counts.get(self._map_gram(gram), 0)

    def prefix_type_count(
        self, gram: Sequence[str], r: int, at_least: bool = False
    ) -> int:
        """Number of token types t with raw count of t,gram equal to r.

        With ``at_least`` the condition becomes >= r. ``gram`` may be empty.
        t ranges over the vocabulary and the begin marker.
        """
        gram = self._type_count_gram(gram, r)
        return self._count_types(
            (self.raw_counts.get((t,) + gram, 0) for t in (*self.vocab.items, BOS)),
            r,
            at_least,
        )

    def suffix_type_count(
        self, gram: Sequence[str], r: int, at_least: bool = False
    ) -> int:
        """Number of token types t with raw count of gram,t equal to r.

        t ranges over the vocabulary and the end marker.
        """
        gram = self._type_count_gram(gram, r)
        return self._count_types(
            (self.raw_counts.get(gram + (t,), 0) for t in (*self.vocab.items, EOS)),
            r,
            at_least,
        )

    def _type_count_gram(self, gram: Sequence[str], r: int) -> tuple[str, ...]:
        if r < 1:
            raise ValueError(f"r must be >= 1: {r}")
        if len(gram) > self.order - 1:
            raise ValueError(f"gram length must be <= {self.order - 1}")
        return self._map_gram(gram)

    @staticmethod
    def _count_types(counts: Iterable[int], r: int, at_least: bool) -> int:
        if at_least:
            return sum(1 for c in counts if c >= r)
        return sum(1 for c in counts if c == r)

    # ------------------------------------------------------------------
    # probabilities

    def prob(self, token: str, context: Sequence[str] = ()) -> float:
        """Smoothed conditional probability of ``token`` after ``context``.

        ``token`` may be the end marker but never the begin marker; both the
        token and the context are mapped through the vocabulary. Longer
        contexts are truncated to the most recent order-1 tokens.
        """
        if token == BOS:
            raise ValueError("the begin marker has no conditional probability")
        t = EOS if token == EOS else self.vocab.map(token)
        ctx = self._map_gram(context)
        if self.order == 1:
            ctx = ()
        elif len(ctx) > self.order - 1:
            ctx = ctx[len(ctx) - (self.order - 1) :]
        return self._p(t, ctx)

    def logprob(self, token: str, context: Sequence[str] = ()) -> float:
        return math.log(self.prob(token, context))

    def _p(self, t: str, ctx: tuple[str, ...]) -> float:
        if not ctx:
            base = 1.0 / (len(self.vocab) + 1)
            total = self._ctx_total.get((), 0)
            if total == 0:
                return base
            c = self.continuation_counts.get((t,), 0)
            alpha = max(c - self.discounts.discount_for(c), 0.0) / total
            n1, n2, n3p = self._ctx_bins[()]
            gamma = self.discounts.removed_mass(n1, n2, n3p) / total
            return alpha + gamma * base
        if self.raw_counts.get(ctx, 0) == 0:
            # Unseen context: no mass to discount, pure backoff.
            return self._p(t, ctx[1:])
        total = self._ctx_total[ctx]
        c = self.continuation_counts.get(ctx + (t,), 0)
        alpha = max(c - self.discounts.discount_for(c), 0.0) / total
        n1, n2, n3p = self._ctx_bins[ctx]
        gamma = self.discounts.removed_mass(n1, n2, n3p) / total
        return alpha + gamma * self._p(t, ctx[1:])

    def sentence_logprob(self, sentence: Sequence[str]) -> float:
        """Log probability of a sentence including its end-marker transition."""
        if not sentence:
            raise ValueError("cannot score an empty sentence")
        mapped = [self.vocab.map(tok) for tok in sentence]
        history = (BOS,) * (self.order - 1)
        logs = []
        for t in [*mapped, EOS]:
            logs.append(math.log(self._p(t, history)))
            if t != EOS and self.order > 1:
                history = (history + (t,))[-(self.order - 1) :]
        return math.fsum(logs)

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrammarModel):
            return NotImplemented
        return (
            self.order == other.order
            and self.vocab == other.vocab
            and self.discounts == other.discounts
            and self.sentence_count == other.sentence_count
            and self.raw_counts == other.raw_counts
        )

    def __repr__(self) -> str:
        return (
            f"GrammarModel(order={self.order}, vocab={len(self.vocab)}, "
            f"sentences={self.sentence_count}, grams={len(self.raw_counts)})"
        )


def _count_training(
    sentences: Iterable[Sequence[str]], order: int, vocab: Optional[Vocabulary]
) -> tuple[Vocabulary, int, dict[tuple[str, ...], int]]:
    """Validate training sentences, map them through the vocabulary and count.

    Returns the vocabulary (built from the sentences when none is given), the
    sentence count and the raw count table.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1: {order}")
    sents = [tuple(s) for s in sentences]
    if not sents:
        raise ValueError("training requires at least one sentence")
    for s in sents:
        if not s:
            raise ValueError("training sentences must be non-empty")
    if vocab is None:
        vocab = Vocabulary.from_sentences(sents)
    mapped = [tuple(vocab.map(t) for t in s) for s in sents]
    return vocab, len(mapped), _count_raw(mapped, order)


def train(
    sentences: Iterable[Sequence[str]],
    order: int,
    discounts: Optional[DiscountSchedule] = None,
    vocab: Optional[Vocabulary] = None,
) -> GrammarModel:
    """Train a model of the given order on masked sentences.

    Tokens outside ``vocab`` are replaced by the unknown token before
    counting; with no vocabulary given, one is built from the sentences
    themselves. Requires at least one non-empty sentence.
    """
    vocab, n_sents, raw = _count_training(sentences, order, vocab)
    if discounts is None:
        discounts = DiscountSchedule.constant()
    return GrammarModel(order, vocab, discounts, n_sents, raw)


def train_with_estimated_discounts(
    sentences: Iterable[Sequence[str]],
    order: int,
    vocab: Optional[Vocabulary] = None,
    fallback: float = 0.75,
) -> GrammarModel:
    """Train with modified discounts estimated from top-order counts.

    Validates and counts exactly as :func:`train` does.
    """
    vocab, n_sents, raw = _count_training(sentences, order, vocab)
    coc = Counter(c for g, c in raw.items() if len(g) == order)
    discounts = DiscountSchedule.estimate_modified(coc, fallback=fallback)
    return GrammarModel(order, vocab, discounts, n_sents, raw)


# ----------------------------------------------------------------------
# serialization

def serialize_model(model: GrammarModel) -> bytes:
    """Serialize to bytes: magic, version, length, checksum, payload.

    The payload is compressed JSON holding only primary state (order,
    discounts, vocabulary, sentence count, raw counts); derived tables are
    rebuilt on load, so a round trip reproduces the model exactly.
    """
    discounts = {
        "mode": model.discounts.mode,
        "constant_d": model.discounts.constant_d,
        "bins": list(model.discounts.bins) if model.discounts.bins else None,
    }
    payload = {
        "order": model.order,
        "sentence_count": model.sentence_count,
        "discounts": discounts,
        "vocab": model.vocab.sorted_items(),
        "raw_counts": [[list(g), c] for g, c in sorted(model.raw_counts.items())],
    }
    blob = zlib.compress(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    digest = hashlib.sha256(blob).digest()
    return (
        _MAGIC
        + _FORMAT_VERSION.to_bytes(2, "big")
        + len(blob).to_bytes(8, "big")
        + digest
        + blob
    )


def deserialize_model(data: bytes) -> GrammarModel:
    """Inverse of :func:`serialize_model` with integrity checks."""
    header_len = len(_MAGIC) + 2 + 8 + 32
    if len(data) < header_len:
        raise ModelFormatError("model blob is too short to hold a header")
    if data[: len(_MAGIC)] != _MAGIC:
        raise ModelFormatError("bad magic: not a serialized grammar model")
    version = int.from_bytes(data[4:6], "big")
    if version != _FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {version}")
    blob_len = int.from_bytes(data[6:14], "big")
    digest = data[14:46]
    blob = data[46:]
    if len(blob) != blob_len:
        raise ModelFormatError(
            f"model blob is truncated or padded: expected {blob_len} bytes, got {len(blob)}"
        )
    if hashlib.sha256(blob).digest() != digest:
        raise ModelFormatError("model checksum mismatch: data is corrupt")
    try:
        payload = json.loads(zlib.decompress(blob).decode("utf-8"))
    except (zlib.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot decode model payload: {exc}") from exc
    try:
        dis = payload["discounts"]
        discounts = DiscountSchedule(
            mode=dis["mode"],
            constant_d=dis["constant_d"],
            bins=tuple(dis["bins"]) if dis["bins"] else None,
        )
        vocab = Vocabulary(frozenset(payload["vocab"]))
        raw = {tuple(g): int(c) for g, c in payload["raw_counts"]}
        return GrammarModel(
            payload["order"], vocab, discounts, payload["sentence_count"], raw
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"model payload is malformed: {exc}") from exc


def dump_model(model: GrammarModel) -> str:
    """Human-readable dump of the model's primary state, for inspection."""
    lines = [
        f"order: {model.order}",
        f"sentences: {model.sentence_count}",
        f"discounts: {model.discounts}",
        f"vocabulary ({len(model.vocab)}): {' '.join(model.vocab.sorted_items())}",
        "raw counts:",
    ]
    for gram, count in sorted(model.raw_counts.items()):
        lines.append(f"  {' '.join(gram)}\t{count}")
    return "\n".join(lines) + "\n"
