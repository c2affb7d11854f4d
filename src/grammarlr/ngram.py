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

Every probability comes from one array kernel, :func:`kneser_ney_probs`.
Tokens are integer codes, and a :class:`GramIndex` gives each gram an
integer id keyed by (id of its first n - 1 tokens, code of its last), one
sorted key array per length, so each gram's context (``gram[:-1]``) and
suffix (``gram[1:]``) are ids too. A :class:`CountTable` holds the counts of
one or many models over one index. Continuation counts, context totals and
count-of-count bins are ``bincount`` reductions over suffix and context
ids, and all models are evaluated together, level by level, as one
models x positions array. The scoring pipeline counts once per problem: it
windows the known side and each distinct sampled reference sentence once,
and each of the 1 + r models is the count of its sentences' gram ids. A
:class:`GrammarModel` keeps only its raw count table and indexes it alone on
its first probability query.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

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


# ----------------------------------------------------------------------
# the array kernel

def token_codes(vocab: Vocabulary) -> dict[str, int]:
    """Integer codes of a model's tokens: the sorted vocabulary, then the
    begin marker, then the end marker. A gram index over this vocabulary
    has ``len(vocab) + 2`` codes."""
    codes = {tok: i for i, tok in enumerate(vocab.sorted_items())}
    codes[BOS] = len(codes)
    codes[EOS] = len(codes)
    return codes


def token_stream(
    sentences: Sequence[Sequence[int]], width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate coded sentences into one padded stream.

    Each sentence becomes its begin marker, its tokens and its end marker.
    Returns the token codes, each position's predecessor (a sentence's
    first position is its own predecessor: an endless begin-marker run, so
    the gram of length n ending there is n begin markers), and the position
    at which each sentence starts.
    """
    bos, eos = width - 2, width - 1
    tokens: list[int] = []
    starts = []
    for sent in sentences:
        starts.append(len(tokens))
        tokens.append(bos)
        tokens.extend(sent)
        tokens.append(eos)
    starts_arr = np.array(starts, dtype=np.int64)
    prev = np.arange(-1, len(tokens) - 1, dtype=np.int64)
    prev[starts_arr] = starts_arr
    return np.array(tokens, dtype=np.int64), prev, starts_arr


def _closure(grams: Iterable[tuple[str, ...]]) -> set[tuple[str, ...]]:
    """The grams together with all their non-empty prefixes and suffixes."""
    closed = set(grams)
    todo = list(closed)
    while todo:
        gram = todo.pop()
        for part in (gram[:-1], gram[1:]):
            if part and part not in closed:
                closed.add(part)
                todo.append(part)
    return closed


class GramIndex:
    """Integer ids for a gram set closed under prefixes and suffixes.

    Id 0 is the empty gram, the root context. The grams of length n take the
    next ids, in the order of their key ``context id * width + last code``,
    so each length is one sorted key array and a gram's context
    (``gram[:-1]``) and last token are read off its key. ``suffix`` holds
    the id of ``gram[1:]``. A gram outside the index has the id ``missing``,
    one past the last id.
    """

    def __init__(
        self, order: int, width: int, keys: list[np.ndarray], suffix: np.ndarray
    ) -> None:
        self.order = order
        self.width = width
        self.keys = keys
        sizes = [1] + [len(k) for k in keys]
        self.starts = np.cumsum([0] + sizes)
        self.size = int(self.starts[-1])
        self.missing = self.size
        all_keys = np.concatenate([np.zeros(1, dtype=np.int64), *keys])
        self.context = all_keys // width
        self.last = all_keys % width
        self.last[0] = -1
        self.level = np.repeat(np.arange(order + 1), sizes)
        self.suffix = suffix

    @classmethod
    def from_stream(
        cls, tokens: np.ndarray, prev: np.ndarray, order: int, width: int
    ) -> tuple["GramIndex", np.ndarray]:
        """Index every gram of a padded stream (see :func:`token_stream`).

        Also returns the ids :meth:`encode` would give the stream.
        """
        n_pos = len(tokens)
        ids = np.empty((order, n_pos + 1), dtype=np.int64)
        keys, suffixes = [], [np.zeros(1, dtype=np.int64)]
        start = 1
        context = shorter = np.zeros(n_pos, dtype=np.int64)
        for n in range(1, order + 1):
            if n > 1:
                context = ids[n - 2, prev]
            level_keys, inverse = np.unique(context * width + tokens, return_inverse=True)
            level_ids = start + inverse.reshape(-1)
            # gram[1:] of the gram ending at a position is the gram one
            # shorter ending there.
            suffix = np.empty(len(level_keys), dtype=np.int64)
            suffix[level_ids - start] = shorter
            ids[n - 1, :n_pos] = shorter = level_ids
            keys.append(level_keys)
            suffixes.append(suffix)
            start += len(level_keys)
        index = cls(order, width, keys, np.concatenate(suffixes))
        ids[:, n_pos] = index.missing
        return index, ids

    @classmethod
    def from_grams(
        cls, grams: Iterable[tuple[str, ...]], order: int, codes: Mapping[str, int]
    ) -> tuple["GramIndex", dict[tuple[str, ...], int]]:
        """Index the grams, their prefixes and their suffixes.

        Also returns each gram's id.
        """
        width = len(codes)
        by_length: list[list[tuple[str, ...]]] = [[] for _ in range(order + 1)]
        for gram in _closure(grams):
            by_length[len(gram)].append(gram)
        ids: dict[tuple[str, ...], int] = {(): 0}
        keys, suffixes = [], [np.zeros(1, dtype=np.int64)]
        start = 1
        for grams_n in by_length[1:]:
            keyed = sorted((ids[g[:-1]] * width + codes[g[-1]], g) for g in grams_n)
            for rank, (_, gram) in enumerate(keyed):
                ids[gram] = start + rank
            keys.append(np.array([k for k, _ in keyed], dtype=np.int64))
            suffixes.append(np.array([ids[g[1:]] for _, g in keyed], dtype=np.int64))
            start += len(keyed)
        return cls(order, width, keys, np.concatenate(suffixes)), ids

    def encode(self, tokens: np.ndarray, prev: np.ndarray) -> np.ndarray:
        """Ids of the grams ending at each position of a token stream.

        ``prev`` gives each position's predecessor, as :func:`token_stream`
        does, or -1 where the stream has none. Row n - 1 holds the grams of
        length n. The result has one extra last column, ``missing``, so
        that predecessor -1 reads as a gram outside the index.
        """
        ids = np.full((self.order, len(tokens) + 1), self.missing, dtype=np.int64)
        context = np.zeros(len(tokens), dtype=np.int64)
        for n, keys in enumerate(self.keys, start=1):
            if n > 1:
                context = ids[n - 2, prev]
            if len(keys) == 0:
                continue
            query = context * self.width + tokens
            at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
            ids[n - 1, :-1] = np.where(keys[at] == query, self.starts[n] + at, self.missing)
        return ids


class CountTable:
    """Raw counts of one or more models over one :class:`GramIndex`.

    ``keys`` is sorted and holds ``gram id * n_models + model`` for every
    gram a model counts, with the count at the same place in ``counts``, so
    the entries of one gram are adjacent. Each model also holds the root
    and, where its grams are not closed under prefixes and suffixes, the
    missing parts, with count 0.
    """

    def __init__(
        self, index: GramIndex, n_models: int, keys: np.ndarray, counts: np.ndarray
    ) -> None:
        self.index = index
        self.n_models = n_models
        self.keys = keys
        self.counts = counts

    @classmethod
    def from_sentences(
        cls,
        sentences: Sequence[Sequence[int]],
        models: Sequence[Sequence[int]],
        order: int,
        width: int,
    ) -> "CountTable":
        """Count several models over one index of coded sentences.

        ``models[m]`` lists the numbers of model m's training sentences,
        repeats allowed. Each sentence is windowed once, however many models
        train on it; a model's counts are the counts of its sentences' gram
        ids.
        """
        tokens, prev, starts = token_stream(sentences, width)
        index, ids = GramIndex.from_stream(tokens, prev, order, width)
        rows = np.concatenate([np.asarray(m, dtype=np.int64) for m in models])
        spans = np.diff(np.append(starts, len(tokens)))[rows]
        positions = np.repeat(starts[rows] - np.cumsum(spans) + spans, spans)
        positions += np.arange(len(positions))
        model_of = np.repeat(np.repeat(np.arange(len(models)), [len(m) for m in models]), spans)
        n_models = len(models)
        keys, counts = np.unique(
            np.concatenate(
                [np.arange(n_models), (ids[:, positions] * n_models + model_of).reshape(-1)]
            ),
            return_counts=True,
        )
        counts[:n_models] = 0  # the roots
        return cls(index, n_models, keys, counts)

    @classmethod
    def from_raw(
        cls, raws: Sequence[Mapping[tuple[str, ...], int]], order: int, codes: Mapping[str, int]
    ) -> "CountTable":
        """Tabulate raw count tables over one index of the union of their
        grams."""
        index, ids = GramIndex.from_grams(set().union(*raws), order, codes)
        keys: list[int] = []
        counts: list[int] = []
        for m, raw in enumerate(raws):
            for gram in _closure(raw) | {()}:
                keys.append(ids[gram] * len(raws) + m)
                counts.append(raw.get(gram, 0))
        by_key = np.argsort(np.array(keys, dtype=np.int64))
        return cls(
            index,
            len(raws),
            np.array(keys, dtype=np.int64)[by_key],
            np.array(counts, dtype=np.int64)[by_key],
        )

    def count_of_counts(self) -> list[dict[int, int]]:
        """Per model, how many top-order grams have each count 1..4."""
        model = self.keys % self.n_models
        top = self.index.level[self.keys // self.n_models] == self.index.order
        per_count = [
            np.bincount(model[top & (self.counts == k)], minlength=self.n_models)
            for k in (1, 2, 3, 4)
        ]
        return [dict(zip((1, 2, 3, 4), row)) for row in np.stack(per_count, axis=1).tolist()]


# Queries evaluated per block: bounds the models x queries scratch arrays.
_QUERY_BLOCK = 1 << 12


def kneser_ney_probs(
    table: CountTable,
    discounts: Sequence[DiscountSchedule],
    tokens: np.ndarray,
    prev: np.ndarray,
    positions: np.ndarray,
) -> np.ndarray:
    """Interpolated Kneser-Ney probabilities of every model at every query.

    The queries are the tokens at ``positions`` of a coded stream, each
    after the tokens before it: ``tokens`` and ``prev`` as
    :meth:`GramIndex.encode` takes them. ``discounts[m]`` is model m's
    schedule. Returns an array of shape (models, queries).

    Each model's continuation counts (raw at the top order, distinct left
    extensions below), context totals and count-of-count bins are
    reductions over the table's suffix and context ids; grams ending in the
    begin marker are not continuations. Evaluation runs from the root up,
    one level at a time for all models and queries, with the operations of
    the scalar recursion in the same order: alpha = max(c - D(c), 0) /
    total, gamma = removed mass / total, p = alpha + gamma * p_lower. A
    context the model has not seen passes p_lower through; the root backs
    off to the uniform 1 / (|V| + 1).
    """
    index = table.index
    keys, counts, n_models = table.keys, table.counts, table.n_models
    model = keys % n_models
    gram_id = keys // n_models
    level = index.level[gram_id]

    def locate(grams: np.ndarray, models: np.ndarray) -> np.ndarray:
        """Entries of grams the models hold (tables are closed, so all are)."""
        return np.searchsorted(keys, grams * n_models + models)

    # Continuation counts: raw at the top order, distinct left extensions
    # (entries whose suffix is the gram) below.
    extends = (counts > 0) & (level >= 2)
    suffix_at = locate(index.suffix[gram_id[extends]], model[extends])
    ckn = np.where(level == index.order, counts, np.bincount(suffix_at, minlength=len(keys)))
    # Context totals and count-of-count bins over the same counts.
    counted = (ckn > 0) & (index.last[gram_id] != index.width - 2)
    context_at = locate(index.context[gram_id[counted]], model[counted])
    c_counted = ckn[counted]
    total = np.bincount(context_at, weights=c_counted, minlength=len(keys))
    n1, n2, n3 = (
        np.bincount(context_at[sel], minlength=len(keys))
        for sel in (c_counted == 1, c_counted == 2, c_counted >= 3)
    )

    # Per entry, under its model's schedule: as a gram, the alpha numerator
    # max(c - D(c), 0); as a context, its total and gamma. A context the
    # model has not seen, or whose total is 0, gets total inf and gamma 1,
    # so that alpha + gamma * p_lower is exactly p_lower.
    schedule_ids = {s: i for i, s in enumerate(dict.fromkeys(discounts))}
    schedule_of = np.array([schedule_ids[s] for s in discounts])[model]
    discount = np.array([[s.discount_for(c) for c in range(4)] for s in schedule_ids])
    numerator = np.maximum(ckn - discount[schedule_of, np.clip(ckn, 0, 3)], 0.0)
    removed = np.empty(len(keys))
    for schedule, i in schedule_ids.items():
        mine = schedule_of == i
        removed[mine] = schedule.removed_mass(n1[mine], n2[mine], n3[mine])
    usable = (total > 0) & ((counts > 0) | (gram_id == 0))
    gamma = np.where(usable, removed / np.where(usable, total, 1.0), 1.0)
    total = np.where(usable, total, np.inf)

    # The entries of gram g are first[g]:first[g + 1]; a gram outside the
    # index has none.
    first = np.zeros(index.size + 2, dtype=np.int64)
    np.cumsum(np.bincount(gram_id, minlength=index.size + 1), out=first[1:])

    def gather(query: np.ndarray, *columns: tuple[np.ndarray, float]) -> list[np.ndarray]:
        """(models, queries) arrays of per-entry values at each query gram,
        with the fill value where a model does not hold the gram."""
        start, held = first[query], first[query + 1] - first[query]
        entry = np.repeat(start - np.cumsum(held) + held, held) + np.arange(held.sum())
        where = (model[entry], np.repeat(np.arange(len(query)), held))
        out = []
        for values, fill in columns:
            dense = np.full((n_models, len(query)), fill)
            dense[where] = values[entry]
            out.append(dense)
        return out

    ids = index.encode(tokens, prev)
    grams = ids[:, positions]
    contexts = np.zeros_like(grams)
    contexts[1:] = ids[:-1, prev[positions]]
    block = max(1, _QUERY_BLOCK // n_models)
    out = np.empty((n_models, len(positions)))
    for lo in range(0, len(positions), block):
        p = np.full((n_models, len(positions[lo : lo + block])), 1.0 / (index.width - 1))
        for n in range(index.order):
            (alpha_numerator,) = gather(grams[n, lo : lo + block], (numerator, 0.0))
            context_total, context_gamma = gather(
                contexts[n, lo : lo + block], (total, np.inf), (gamma, 1.0)
            )
            p = alpha_numerator / context_total + context_gamma * p
        out[:, lo : lo + block] = p
    return out


# Conditional distributions a model keeps for repeated prob() queries.
_KEPT_DISTRIBUTIONS = 1024


class GrammarModel:
    """An order-N Kneser-Ney model with queryable count statistics.

    Instances are effectively immutable after construction. Build them with
    :func:`train`. The raw count table is the whole state: queries answer
    from it, probabilities through :func:`kneser_ney_probs` over an index
    of its grams built on the first probability query, and serialization
    persists only it, so reconstruction is exact.
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
        self._kernel: Optional[tuple[dict[str, int], CountTable]] = None
        self._distributions: dict[tuple[str, ...], list[float]] = {}

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
        gram = self._map_gram(gram)
        if len(gram) == self.order:
            return self.raw_counts.get(gram, 0)
        return sum(
            1
            for t in (*self.vocab.items, BOS, EOS)
            if self.raw_counts.get((t,) + gram, 0) > 0
        )

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

    def _kernel_table(self) -> tuple[dict[str, int], CountTable]:
        """Token codes and the count table of this model alone."""
        if self._kernel is None:
            codes = token_codes(self.vocab)
            self._kernel = (codes, CountTable.from_raw([self.raw_counts], self.order, codes))
        return self._kernel

    def prob(self, token: str, context: Sequence[str] = ()) -> float:
        """Smoothed conditional probability of ``token`` after ``context``.

        ``token`` may be the end marker but never the begin marker; both the
        token and the context are mapped through the vocabulary. Longer
        contexts are truncated to the most recent order-1 tokens. The whole
        distribution after a context is computed at once and kept for the
        next queries in that context.
        """
        if token == BOS:
            raise ValueError("the begin marker has no conditional probability")
        t = EOS if token == EOS else self.vocab.map(token)
        ctx = self._map_gram(context)
        if self.order == 1:
            ctx = ()
        elif len(ctx) > self.order - 1:
            ctx = ctx[len(ctx) - (self.order - 1) :]
        codes, table = self._kernel_table()
        dist = self._distributions.get(ctx)
        if dist is None:
            # Every token code follows the last context token.
            width, n = len(codes), len(ctx)
            tokens = np.array([*(codes[tok] for tok in ctx), *range(width)], dtype=np.int64)
            prev = np.append(np.arange(-1, n - 1), np.full(width, n - 1)).astype(np.int64)
            dist = kneser_ney_probs(
                table, [self.discounts], tokens, prev, np.arange(n, n + width)
            )[0].tolist()
            if len(self._distributions) >= _KEPT_DISTRIBUTIONS:
                self._distributions.clear()
            self._distributions[ctx] = dist
        return dist[codes[t]]

    def logprob(self, token: str, context: Sequence[str] = ()) -> float:
        return math.log(self.prob(token, context))

    def sentence_logprob(self, sentence: Sequence[str]) -> float:
        """Log probability of a sentence including its end-marker transition."""
        if not sentence:
            raise ValueError("cannot score an empty sentence")
        codes, table = self._kernel_table()
        coded = [codes[self.vocab.map(tok)] for tok in sentence]
        probs = sentence_probs(table, [self.discounts], [coded])[0]
        return math.fsum(math.log(p) for p in probs.tolist())

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


def sentence_probs(
    table: CountTable,
    discounts: Sequence[DiscountSchedule],
    sentences: Sequence[Sequence[int]],
) -> np.ndarray:
    """Probabilities of every token and end marker of coded sentences, in
    order, under every model of a table: shape (models, positions)."""
    tokens, prev, starts = token_stream(sentences, table.index.width)
    scored = np.ones(len(tokens), dtype=bool)
    scored[starts] = False
    return kneser_ney_probs(table, discounts, tokens, prev, np.flatnonzero(scored))


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
        order = payload["order"]
        raw = _checked_counts(payload["raw_counts"], order, vocab)
        return GrammarModel(order, vocab, discounts, payload["sentence_count"], raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"model payload is malformed: {exc}") from exc


def _checked_counts(
    entries: Iterable, order: int, vocab: Vocabulary
) -> dict[tuple[str, ...], int]:
    """A payload's raw count table, rejecting what no training run makes.

    Each gram is a list of 1..order tokens from the vocabulary and the two
    markers, each count a positive integer, and no gram appears twice.
    """
    if type(order) is not int:
        raise ValueError(f"order must be an integer: {order!r}")
    tokens = vocab.items | {BOS, EOS}
    raw: dict[tuple[str, ...], int] = {}
    for gram, count in entries:
        if not isinstance(gram, list) or not 1 <= len(gram) <= order:
            raise ValueError(f"gram {gram!r} is not a list of 1..{order} tokens")
        gram = tuple(gram)
        for tok in gram:
            if not isinstance(tok, str) or tok not in tokens:
                raise ValueError(f"gram {gram!r} holds a token outside the vocabulary")
        if type(count) is not int or count <= 0:
            raise ValueError(f"gram {gram!r} has count {count!r}, not a positive integer")
        if gram in raw:
            raise ValueError(f"gram {gram!r} appears twice")
        raw[gram] = count
    return raw


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
