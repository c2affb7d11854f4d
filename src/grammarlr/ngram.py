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
Sentences reach it coded (their codes end to end and their lengths, the
packed ids of KenLM, Heafield 2011) by one coder, :func:`code_sentences`,
one layout, :func:`token_stream`, one counter,
:meth:`CountTable.from_sentences`, and one query, :func:`sentence_probs`.
The kernel reads its queries as gram ids, whoever builds them: a counter
that counted for them hands over the ids it windowed
(:attr:`CountTable.queried`), and other callers encode their stream with
:meth:`GramIndex.encode`.
Codes number a vocabulary's forms in any order, the markers last: a model
numbers its sorted vocabulary, scoring its forms as first seen.
A :class:`GramIndex`, built by :meth:`GramIndex.from_stream`, gives each
gram an integer id keyed by (id of its first n - 1 tokens, code of its
last), one sorted key array per length, so each gram's context
(``gram[:-1]``) and suffix (``gram[1:]``) are ids too. A :class:`CountTable`
holds the counts of one or many models over one index. A level's gram keys
are grouped by :func:`_unique_inverse`: ranked over their range where it is
dense, at most ``_DENSE`` times their number, and otherwise sorted once,
packed above their places. Its (gram, model) keys are counted by
``np.unique``. Continuation counts, context totals and count-of-count bins
are ``bincount`` reductions over suffix and context ids, and all models are
evaluated together as one models x positions array, in one walk up the
levels that returns every requested order up to N: a lower order differs
only in its top level's counts. The statistics are built only for the
entries of the grams the queries reach: their contexts, the grams they read
as numerators or as children of those contexts, and the extensions that
make up those children's continuation counts. No other entry is read or
computed. When every model has the same constant schedule, as at the
paper's defaults, its discount is one number: no entry looks up a schedule.

The scoring pipeline counts once per problem: it windows the known side and
each distinct sampled reference sentence once, and each of the 1 + r models
is the count of its sentences' gram ids. With constant discounts, at every
order, the counted sentences end with the ones it will score, and the
counter keeps only the grams the kernel reads for them (see
:meth:`GramIndex.from_stream`), each with every window of it, so kept counts
are full counts and the probabilities are those of the full table bit for
bit; at the paper's defaults (order 10, 100 references) that is about a
third of the entries. The counter indexes the scored sentences' windows at
every level, as it does the counted ones, and keeps their ids, so they are
windowed once. Modified discounts and :func:`train` count every window, as
count-of-count statistics need: they count the training sentences alone,
and the scored sentences are encoded on the counted index. Ids are sorted
by gram length, so a table counted at order N holds the table of every
lower order as a prefix (:meth:`CountTable.truncated`), and one kept for
queries at order N holds what they read at any lower order. :func:`train`
counts with one model, and that one-model table is the whole count store of
the :class:`GrammarModel` it makes: count queries (through :meth:`GramIndex.encode` of the gram) and
equality read it, and only :attr:`GrammarModel.raw_counts` spells it as a
gram -> count mapping.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

BOS = "<BOS>"
EOS = "<EOS>"
UNK = "<UNK>"

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
        toks = set(chain.from_iterable(sentences))
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
        _check_discount(self.constant_d)
        if self.mode == "constant":
            if self.bins is not None:
                raise ValueError("constant mode takes no discount bins")
        else:
            if self.bins is None or len(self.bins) != 3:
                raise ValueError("modified mode requires three discount bins")
            object.__setattr__(self, "bins", tuple(self.bins))  # hashable, as schedules are keyed
            for d in self.bins:
                _check_discount(d)

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


def _check_discount(d: float) -> None:
    if isinstance(d, bool) or not isinstance(d, (int, float)):
        raise ValueError(
            f"discount must be a float and lie in (0, 1), not a {type(d).__name__}: {d!r}"
        )
    if not 0.0 < d < 1.0:
        raise ValueError(f"discount must lie in (0, 1): {d!r}")


# ----------------------------------------------------------------------
# the array kernel

def token_codes(forms: Sequence[str]) -> dict[str, int]:
    """Integer codes of a vocabulary's forms, the unknown token among them:
    the forms in the order given (no probability depends on it), then the
    begin and end markers. A gram index over them has ``len(forms) + 2``."""
    codes = {tok: i for i, tok in enumerate(forms)}
    codes[BOS] = len(codes)
    codes[EOS] = len(codes)
    return codes


def code_sentences(
    sentences: Sequence[Sequence[str]], codes: Mapping[str, int], markers: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Code sentences with a model's token codes (see :func:`token_codes`):
    every sentence's codes, end to end, in the narrowest unsigned dtype that
    holds the codes, and each sentence's length.

    Tokens outside the vocabulary are coded as the unknown token, and so are
    the begin and end markers wherever a sentence holds them, unless
    ``markers`` is set: then they keep their codes, as in a gram.
    """
    unk = codes[UNK]
    lookup = defaultdict(lambda: unk, codes if markers else {**codes, BOS: unk, EOS: unk})
    return _code_with(lookup, sentences, np.min_scalar_type(len(codes) - 1))


def _code_with(codes: dict, sentences: Sequence, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """The one token -> code loop: ``codes[token]`` of every token of every
    sentence, end to end, in ``dtype``, and each sentence's length. A token
    ``codes`` lacks is coded by its ``__missing__``."""
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    return np.fromiter(map(codes.__getitem__, chain.from_iterable(sentences)), dtype), lengths


def token_stream(
    flat: np.ndarray, lengths: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lay coded sentences out as one padded stream, in ``flat``'s dtype.

    Each sentence becomes its begin marker, its tokens and its end marker.
    Returns the token codes, each position's predecessor (a sentence's
    first position is its own predecessor: an endless begin-marker run, so
    the gram of length n ending there is n begin markers), and the position
    at which each sentence starts.
    """
    ends = np.cumsum(lengths + 2)
    starts = ends - lengths - 2
    tokens = np.full(len(flat) + 2 * len(lengths), width - 1, dtype=flat.dtype)
    tokens[starts] = width - 2
    inner = np.ones(len(tokens), dtype=bool)
    inner[starts] = inner[ends - 1] = False
    tokens[inner] = flat
    prev = np.arange(-1, len(tokens) - 1, dtype=np.int64)
    prev[starts] = starts
    return tokens, prev, starts


def ranges(begin: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions ``begin[i]``, ..., ``begin[i] + lengths[i] - 1`` of
    every i, one range after another."""
    return np.repeat(begin - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


# A key range at most this many times the number of keys is ranked, not
# sorted: one pass over the range costs less than a sort of the keys.
_DENSE = 8


def _unique_inverse(values: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` of int64 values in
    [0, ``bound``). Where the range is dense (``bound`` at most ``_DENSE``
    times the number of values), by rank: the values present, marked on the
    range, are numbered in order, and each value reads its number. Otherwise
    by one plain sort: each value is packed above its place, so the sorted
    packed values give the sorted values and, below them, where each came
    from. Where the packed values would not fit in 63 bits, it is
    ``np.unique`` itself."""
    if bound <= _DENSE * len(values):
        present = np.zeros(bound, dtype=bool)
        present[values] = True
        unique = np.flatnonzero(present)
        rank = np.empty(bound, dtype=np.int64)
        rank[unique] = np.arange(len(unique))
        return unique, rank[values]
    shift = max(len(values) - 1, 0).bit_length()
    if max(bound - 1, 0).bit_length() + shift > 63:
        unique, inverse = np.unique(values, return_inverse=True)
        return unique, inverse.reshape(-1)
    packed = values << shift
    packed |= np.arange(len(values))
    packed.sort()
    place = packed & ((1 << shift) - 1)  # each sorted value's place
    packed >>= shift
    new = np.ones(len(values), dtype=bool)
    np.not_equal(packed[1:], packed[:-1], out=new[1:])
    unique = packed[new]
    # The packed array, spent, takes each sorted value's rank: fewer fresh
    # pages than a new array per step.
    np.cumsum(new, out=packed)
    packed -= 1
    inverse = np.empty(len(values), dtype=np.int64)
    inverse[place] = packed
    return unique, inverse


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
        cls,
        tokens: np.ndarray,
        prev: np.ndarray,
        order: int,
        width: int,
        queried_from: Optional[int] = None,
    ) -> tuple["GramIndex", np.ndarray]:
        """Index the grams of a token stream, or only those queries read.

        ``prev`` gives each position's predecessor, as :func:`token_stream`
        does, or -1 where no gram reaches back past the position: only the
        gram of length 1 ends there. With ``queried_from`` None, the
        default, every gram is indexed. Otherwise the positions from
        ``queried_from`` on are a queried stream, windowed beside the rest,
        and a gram is kept when

        - the queried stream holds it: a query gram, or a query's context;
        - the queried stream holds its context (``gram[:-1]``), the root
          included: a child of a context a query asks;
        - its suffix (``gram[1:]``) is kept by one of the two rules above:
          an extension, whose existence makes up a read gram's continuation
          count.

        These are the grams :func:`kneser_ney_probs` reads for the queries.
        The kept set is closed under prefixes and suffixes, so a level only
        windows the positions whose context was kept one level down, and a
        gram is kept or dropped with every window of it. A window's context
        and suffix fix whether its gram is kept, so each level drops its
        windows before they are sorted into keys. Also returns the ids
        :meth:`encode` would give every position, except that a gram the
        index lacks has an id at or past ``missing``, not ``missing``
        itself: read them clipped to ``missing``, as the kernel does.
        """
        n_pos = len(tokens)
        # Past every id: a gram that does not exist or is dropped. The
        # extra last column answers predecessor -1.
        absent = order * n_pos + 1
        ids = np.full((order, n_pos + 1), absent, dtype=np.int64)
        keys, suffixes = [], [np.zeros(1, dtype=np.int64)]
        low = 0  # the first id one level down
        start = 1
        at = np.arange(n_pos)  # the positions a gram of length n ends at
        context = shorter = np.zeros(n_pos, dtype=np.int64)
        # Per id: whether the queried stream holds the gram, and whether it
        # is read (held, or a child of a held gram). The root is both.
        held = np.zeros(absent, dtype=bool)
        read = held.copy()
        held[0] = read[0] = True
        for n in range(1, order + 1):
            if n > 1:
                context = ids[n - 2, prev[at]]
                reaches = context != absent
                at, context = at[reaches], context[reaches]
                # gram[1:] of the gram ending at a position is the gram one
                # shorter ending there.
                shorter = ids[n - 2, at]
                if queried_from is not None:
                    # A held gram is a child of its context, which is held
                    # too, so the second and third rules keep all the first
                    # does.
                    keep = held[context] | read[shorter]
                    if not keep.all():
                        at, context, shorter = at[keep], context[keep], shorter[keep]
            level_keys, inverse = _unique_inverse(
                (context - low) * width + tokens[at], (start - low) * width
            )
            level_keys += low * width
            suffix = np.empty(len(level_keys), dtype=np.int64)
            suffix[inverse] = shorter
            if queried_from is not None:
                # ``at`` ascends, so the queried windows come last.
                mine = start + inverse[np.searchsorted(at, queried_from) :]
                held[mine] = True
                read[start : start + len(level_keys)] = held[level_keys // width]
                read[mine] = True
            ids[n - 1, at] = start + inverse
            keys.append(level_keys)
            suffixes.append(suffix)
            low, start = start, start + len(level_keys)
        return cls(order, width, keys, np.concatenate(suffixes)), ids

    def truncated(self, order: int) -> "GramIndex":
        """The index of the grams up to length ``order``: ids are sorted by
        length, so it keeps a prefix of every array and every id."""
        if not 1 <= order <= self.order:
            raise ValueError(f"order must be in 1..{self.order}: {order}")
        if order == self.order:
            return self
        suffix = self.suffix[: self.starts[order + 1]]
        return GramIndex(order, self.width, self.keys[:order], suffix)

    def spell(self, names: Sequence[str]) -> list[tuple[str, ...]]:
        """Every gram, by id, as the tuple of ``names[code]`` of its tokens."""
        grams: list[tuple[str, ...]] = [()]
        # A gram's context has a smaller id than the gram.
        for context, last in zip(self.context[1:].tolist(), self.last[1:].tolist()):
            grams.append(grams[context] + (names[last],))
        return grams

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
    the entries of one gram are adjacent. Each model also holds the root,
    with count 0, and every entry past the roots counts at least 1 (the
    kernel and the model's count queries assume both). A table counted for
    queries holds their gram ids in ``queried`` (None otherwise), as
    :meth:`GramIndex.encode` gives them for the queries' stream: the
    counter has indexed them, so no caller encodes them again. A query gram
    that no model counts has an id and no entries.
    """

    def __init__(
        self, index: GramIndex, n_models: int, keys: np.ndarray, counts: np.ndarray,
        queried: Optional[np.ndarray] = None,
    ) -> None:
        self.index = index
        self.n_models = n_models
        self.keys = keys
        self.counts = counts
        self.queried = queried

    @classmethod
    def from_sentences(
        cls,
        flat: np.ndarray,
        lengths: np.ndarray,
        models: Sequence[Sequence[int]],
        order: int,
        width: int,
        queries: int = 0,
    ) -> "CountTable":
        """Count several models over one index of coded sentences (see
        :func:`code_sentences`), laid out by :func:`token_stream`.

        ``models[m]`` lists the numbers of model m's training sentences,
        repeats allowed. Each sentence is windowed once, however many models
        train on it; a model's counts are the counts of its sentences' gram
        ids. The last ``queries`` sentences are the ones that will be
        scored, which no model trains on: only the grams
        :func:`kneser_ney_probs` reads for them are indexed and counted (see
        :meth:`GramIndex.from_stream`), each with its full count, so their
        probabilities at this order or any lower one are exactly those of
        the full table, but count-of-count statistics are not (see
        :meth:`count_of_counts`). The table keeps the ids of their stream
        alone, as ``queried``.

        Counts are tabulated one level at a time: each level's windows are
        gathered, the dropped ones left out, and the rest counted by one
        ``np.unique``. The levels' blocks follow the roots in order of
        length, as ids do.
        """
        tokens, prev, starts = token_stream(flat, lengths, width)
        bounds = np.append(starts, len(tokens))
        queried_from = int(bounds[len(lengths) - queries]) if queries else None
        index, ids = GramIndex.from_stream(tokens, prev, order, width, queried_from)
        # Clipped to ``missing``, as encode gives them, into a new array, so
        # that the ids of the counted windows are not kept.
        queried = np.minimum(ids[:, queried_from:], index.missing) if queries else None
        rows = np.concatenate([np.asarray(m, dtype=np.int64) for m in models])
        spans = np.diff(bounds)[rows]
        positions = ranges(bounds[rows], spans)
        model_of = np.repeat(np.repeat(np.arange(len(models)), [len(m) for m in models]), spans)
        n_models = len(models)
        # Ids ascend with gram length, so each level's entries are one block
        # of the sorted keys, after the roots (count 0).
        keys, counts = [np.arange(n_models)], [np.zeros(n_models, dtype=np.int64)]
        for level_ids in ids:
            windows = level_ids[positions] * n_models + model_of
            if queries:
                windows = windows[windows < index.missing * n_models]  # not dropped
            level_keys, level_counts = np.unique(windows, return_counts=True)
            keys.append(level_keys)
            counts.append(level_counts)
        return cls(index, n_models, np.concatenate(keys), np.concatenate(counts), queried)

    def truncated(self, order: int) -> "CountTable":
        """The counts of the grams up to length ``order``, as if counted at
        that order: a prefix of the sorted entries, over the truncated
        index. ``queried`` is kept as it is: the kernel reads its rows up to
        ``order``, and an id at or past the cut index's size as missing."""
        index = self.index.truncated(order)
        if index is self.index:
            return self
        end = np.searchsorted(self.keys, index.size * self.n_models)
        return CountTable(index, self.n_models, self.keys[:end], self.counts[:end], self.queried)

    def count_of_counts(self) -> list[dict[int, int]]:
        """Per model, how many top-order grams have each count 1..4. Only a
        table counted without queries holds every top-order gram, so a
        table counted for queries is refused."""
        if self.queried is not None:
            raise ValueError("count-of-counts need a table counted without queries")
        # The top level's entries are the block of the sorted keys from its
        # first gram id on.
        top = np.searchsorted(self.keys, self.index.starts[self.index.order] * self.n_models)
        model, counts = self.keys[top:] % self.n_models, self.counts[top:]
        per_count = [
            np.bincount(model[counts == k], minlength=self.n_models) for k in (1, 2, 3, 4)
        ]
        return [dict(zip((1, 2, 3, 4), row)) for row in np.stack(per_count, axis=1).tolist()]


def kneser_ney_probs(
    table: CountTable,
    discounts: Sequence[DiscountSchedule],
    ids: np.ndarray,
    prev: np.ndarray,
    positions: np.ndarray,
    orders: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Interpolated Kneser-Ney probabilities of every model at every query.

    The queries are the tokens at ``positions`` of a coded stream, each
    after the tokens before it: ``ids`` as :meth:`GramIndex.encode` gives
    them (or :attr:`CountTable.queried`), ``prev`` as it takes them. Rows
    past the table's order are not read and an id at or past its index's
    size is missing, so ids counted at a higher order serve a truncated
    table. ``discounts[m]`` is model m's schedule. ``orders`` lists
    orders in 1..N, N the table's order, by default N alone; order o's rows
    are those of the table truncated to o. Returns an array of shape
    (orders, models, queries).

    Each model's continuation counts (raw at the top order, distinct left
    extensions below), context totals and count-of-count bins are
    reductions over the table's suffix and context ids; grams ending in the
    begin marker are not continuations. Evaluation runs from the root up,
    one level at a time for all models and queries, with the operations of
    the scalar recursion in the same order: alpha = max(c - D(c), 0) /
    total, gamma = removed mass / total, p = alpha + gamma * p_lower. The
    root backs off to the uniform 1 / (|V| + 1). A level updates p only at
    the (model, query) pairs whose model holds the query's context: a
    closed table that lacks a context lacks every gram under it, so there
    the recursion passes p_lower through, and leaving p as it is gives the
    same value. Levels 0 and 1 are computed per token code, read off the
    query's unigram (a code the index lacks reads as "no unigram", the same
    values): every model holds the root, and level-1 contexts are unigrams.
    When every model has the same constant schedule, its discount d is one
    number: the numerator is max(c - d, 0), equal to max(c - D(c), 0) since
    D(0) = 0, and the removed mass d times the number of counted children,
    one ``bincount``, equal to d (n1 + n2 + n3) since the n are integers.
    A lower order o differs from N only in taking raw counts at level o, as
    numerators and summed into the totals of level o - 1, so every order
    comes from one walk: at level o - 1 a copy of p is stepped with raw
    statistics, built only at the levels that some lower order needs.

    The statistics are built only where the queries reach. The queries'
    contexts and the root are *asked*: a query reads their total, gamma
    and own count. The query grams and the children of asked contexts are
    *read*: a query reads their continuation counts, as numerators or
    summed into an asked context's total and count-of-count bins. Below the
    top order, a read gram's continuation count is the number of its
    *extensions*, the grams at level 2 or more whose suffix it is. The
    reductions run over the entries of these three kinds of gram alone, in
    table order, so each value a query reads comes from the same operands,
    in the same order, as over the whole table, and the probabilities are
    the same bit for bit. Entries of other grams are not computed at all,
    and values at entries that are only extensions (their own continuation
    counts, say) miss some of their operands and are left stale. No query
    reads either. When every gram is reached, the table's arrays are read
    as they are, with no copy.

    A reduction finds model m's entry of gram g, the suffix of an
    extension or the context of a read gram, by lookup rather than by a
    search of the sorted keys: the entries of g are a run that starts at
    ``first[g]``, and a rank map gives m's place in that run. The map has
    one row per asked or read gram and one column per model, in the
    narrowest unsigned type that holds ``n_models - 1``: one byte per
    (gram, model) up to 256 models, two bytes up to 65,536.
    """
    index = table.index
    orders = [index.order] if orders is None else list(orders)
    if not orders or not all(1 <= o <= index.order for o in orders):
        raise ValueError(f"orders must be a non-empty list in 1..{index.order}: {orders}")
    lower = sorted(set(orders) - {index.order})
    keys, counts, n_models = table.keys, table.counts, table.n_models
    gram_id = keys // n_models

    grams = np.minimum(ids[: index.order, positions], index.missing)
    contexts = np.zeros_like(grams)
    contexts[1:] = np.minimum(ids[: index.order - 1, prev[positions]], index.missing)

    # What the queries reach, marked per gram id; the extra last slot is
    # ``missing``. The root is always asked: the level-0 table reads it.
    asked = np.zeros(index.size + 1, dtype=bool)
    asked[contexts] = asked[0] = True
    child = asked[index.context]
    child[0] = False  # the root is its own context, not its own child
    read = np.append(child, False)
    read[grams] = True
    extension = (index.level >= 2) & read[index.suffix]
    looked = (read | asked)[:-1]
    reached = looked | extension
    if not reached.all():  # else the table's arrays are read as they are
        entries = np.flatnonzero(reached[gram_id])
        keys, counts, gram_id = keys[entries], counts[entries], gram_id[entries]
    small = np.min_scalar_type(n_models - 1)
    model = (keys % n_models).astype(small)

    # The entries of gram g are first[g]:first[g + 1]; a gram outside the
    # index, or one no query reaches, has none. Lookups ask only for asked
    # or read grams: model m's entry of such a gram g is the
    # ``rank[row[g] * n_models + m]``-th of g's entries.
    first = np.zeros(index.size + 2, dtype=np.int64)
    np.cumsum(np.bincount(gram_id, minlength=index.size + 1), out=first[1:])
    row = np.cumsum(looked) * looked  # row 0 takes the entries of other grams
    rank = np.empty((np.count_nonzero(looked) + 1) * n_models, dtype=small)
    rank[row[gram_id] * n_models + model] = np.arange(len(keys)) - first[gram_id]
    level_at = first[index.starts]  # level l's entries are level_at[l]:level_at[l + 1]

    def locate(grams: np.ndarray, models: np.ndarray) -> np.ndarray:
        """Entries of asked or read grams the models hold (tables are
        closed, so all are)."""
        return first[grams] + rank[row[grams] * n_models + models]

    schedule_ids = {s: i for i, s in enumerate(dict.fromkeys(discounts))}
    only, *others = schedule_ids
    constant = only.constant_d if not others and only.mode == "constant" else None
    if constant is None:
        schedule_of = np.array([schedule_ids[s] for s in discounts], dtype=small)[model]
        discount = np.array([[s.discount_for(c) for c in range(4)] for s in schedule_ids])
    unigrams = slice(level_at[1], level_at[2])
    per_code_at = (slice(None), model[unigrams], index.last[gram_id[unigrams]])

    def statistics(lo: int, ckn: np.ndarray, counted: np.ndarray) -> tuple:
        """Per entry lo, lo + 1, ... of ``ckn``, under its model's schedule:
        as a gram, the alpha numerator max(c - D(c), 0) of ``ckn``; as a
        context, the total and gamma of its ``counted`` children, or inf and
        1 where it is not usable (total 0).
        The children of these entries' contexts must be among them. Also
        the unigrams' three as models x codes tables, the last column for
        "no unigram", where the entries hold the unigrams."""
        part = slice(lo, lo + len(ckn))
        gram = gram_id[part]
        counted = counted & (ckn > 0) & (index.last[gram] != index.width - 2)
        context_at = locate(index.context[gram[counted]], model[part][counted]) - lo
        c_counted = ckn[counted]
        total = np.bincount(context_at, weights=c_counted, minlength=len(ckn))
        usable = total > 0
        gamma = np.ones(len(ckn))
        if constant is not None:
            numerator = np.maximum(ckn - constant, 0.0)
            removed = constant * np.bincount(context_at, minlength=len(ckn))
            np.divide(removed, total, out=gamma, where=usable)
        else:
            n1, n2, n3 = (
                np.bincount(context_at[sel], minlength=len(ckn))
                for sel in (c_counted == 1, c_counted == 2, c_counted >= 3)
            )
            schedules = schedule_of[part]
            numerator = np.maximum(ckn - discount[schedules, np.clip(ckn, 0, 3)], 0.0)
            # Gamma at the usable entries, one schedule at a time.
            at = np.flatnonzero(usable)
            for schedule, i in schedule_ids.items():
                mine = at[schedules[at] == i]
                gamma[mine] = schedule.removed_mass(n1[mine], n2[mine], n3[mine]) / total[mine]
        total = np.where(usable, total, np.inf)
        per_code = np.empty((3, n_models, index.width + 1))
        per_code[0], per_code[1], per_code[2] = 0.0, np.inf, 1.0
        if lo <= unigrams.start:
            own = slice(unigrams.start - lo, unigrams.stop - lo)
            per_code[per_code_at] = numerator[own], total[own], gamma[own]
        return lo, numerator, total, gamma, per_code

    # Continuation counts: raw at the top order, distinct left extensions
    # (entries whose suffix is the gram) below. Totals and count-of-count
    # bins of the asked contexts over the same counts.
    extends = extension[gram_id]
    ckn = np.bincount(locate(index.suffix[gram_id[extends]], model[extends]), minlength=len(keys))
    top = level_at[index.order]
    ckn[top:] = counts[top:]
    stats = statistics(0, ckn, child[gram_id])
    raw = None
    if lower:
        # Order o reads raw statistics at levels o - 1 and o alone.
        lo, hi = level_at[lower[0] - 1], level_at[lower[-1] + 1]
        counted = child[gram_id[lo:hi]] & np.isin(index.level[gram_id[lo:hi]], lower)
        raw = statistics(lo, counts[lo:hi], counted)

    def held(query: np.ndarray, lo: int) -> tuple[np.ndarray, np.ndarray]:
        """The entries of each query gram, counted from entry ``lo``, and
        the flat position ``model * n_queries + query`` of each in ``p``."""
        count = first[query + 1] - first[query]
        entry = ranges(first[query] - lo, count)
        at = np.multiply(model[lo:][entry], n_queries, dtype=np.int64)
        return entry, at + np.repeat(np.arange(n_queries), count)

    # A gram a model does not hold has alpha numerator 0; a context it does
    # not hold leaves p as it is (see the docstring).
    n_queries = len(positions)
    alpha = np.empty((n_models, n_queries))
    unigram_code = np.append(index.last, index.width)  # of a unigram id; "no unigram" for missing

    def step(p, n: int, lo: int, numerator, total, gamma, per_code) -> np.ndarray:
        """p after level n: in place from level 2 on, a new array below."""
        if n == 0:
            root = np.s_[:n_models, None]  # model m's root is entry m
            return (per_code[0] / total[root] + gamma[root] * p)[:, unigram_code[grams[0]]]
        entry, at = held(grams[n], lo)
        alpha.fill(0.0)
        flat_alpha, flat_p = alpha.reshape(-1), p.reshape(-1)
        flat_alpha[at] = numerator[entry]
        if n == 1:
            column = unigram_code[contexts[1]]
            return alpha / per_code[1][:, column] + per_code[2][:, column] * p
        entry, at = held(contexts[n], lo)
        flat_p[at] = flat_alpha[at] / total[entry] + gamma[entry] * flat_p[at]
        return p

    kept, p = {}, 1.0 / (index.width - 1)
    for n in range(index.order):
        if n + 1 in lower:
            kept[n + 1] = step(p.copy() if n > 1 else p, n, *raw)
        p = kept[index.order] = step(p, n, *stats)
    return np.stack([kept[o] for o in orders])


# Conditional distributions a model keeps for repeated prob() queries.
_KEPT_DISTRIBUTIONS = 1024


class GrammarModel:
    """An order-N Kneser-Ney model with queryable count statistics.

    Instances are effectively immutable after construction. Build them with
    :func:`train`. The model's state is its one-model :class:`CountTable`,
    with one entry per gram id: probabilities come from it through
    :func:`kneser_ney_probs`, and every count query and equality read it.
    ``raw_counts`` spells the table as a gram -> count mapping on each read.
    """

    def __init__(
        self,
        order: int,
        vocab: Vocabulary,
        discounts: DiscountSchedule,
        sentence_count: int,
        table: CountTable,
    ) -> None:
        if order < 1:
            raise ValueError(f"order must be >= 1: {order}")
        if not isinstance(sentence_count, int) or isinstance(sentence_count, bool):
            raise ValueError(f"sentence count must be an integer: {sentence_count!r}")
        if sentence_count < 1:
            raise ValueError("model requires at least one training sentence")
        if (table.n_models, table.index.order, table.index.width) != (1, order, len(vocab) + 2):
            raise ValueError(f"count table does not fit an order-{order} model of {len(vocab)} tokens")
        self.order = order
        self.vocab = vocab
        self.discounts = discounts
        self.sentence_count = sentence_count
        self.table = table
        self._codes = token_codes(vocab.sorted_items())
        self._distributions: dict[tuple[int, ...], list[float]] = {}

    @property
    def raw_counts(self) -> Mapping[tuple[str, ...], int]:
        """Every gram the model counted, with its count, read-only: spelled on each read."""
        grams = self.table.index.spell(list(self._codes))
        keys, counts = self.table.keys.tolist(), self.table.counts.tolist()
        return MappingProxyType({grams[g]: c for g, c in zip(keys, counts) if c})

    # ------------------------------------------------------------------
    # count queries

    def _coded(self, gram: Sequence[str]) -> list[int]:
        """Token codes; a token outside the vocabulary is the unknown token."""
        return code_sentences([gram], self._codes, markers=True)[0].tolist()

    def _id(self, gram: Sequence[str]) -> int:
        """The gram's id, ``missing`` where the model lacks it: the id
        :meth:`GramIndex.encode` gives its last token. The empty gram is
        the root, id 0."""
        if not gram:
            return 0
        n = len(gram)
        ids = self.table.index.encode(np.array(self._coded(gram)), np.arange(-1, n - 1))
        return int(ids[n - 1, n - 1])

    def count(self, gram: Sequence[str]) -> int:
        """Raw count of a gram (1 <= length <= order) under padded counting."""
        if not 1 <= len(gram) <= self.order:
            raise ValueError(f"gram length must be in 1..{self.order}: {len(gram)}")
        gram_id = self._id(gram)
        return int(self.table.counts[gram_id]) if gram_id < self.table.index.missing else 0

    def _extensions(self, gram: Sequence[str], left: bool) -> tuple[list[int], list[int]]:
        """The counts of the grams t,gram (``left``) or gram,t the table holds,
        with the code of each one's t. ``gram`` is shorter than the order."""
        index, n = self.table.index, len(gram)
        gram_id, lo = self._id(gram), int(index.starts[n + 1])
        if left:  # the grams one longer whose suffix is the gram
            ids = outer = lo + (index.suffix[lo : index.starts[n + 2]] == gram_id).nonzero()[0]
            for _ in range(n):  # up to each one's first token
                outer = index.context[outer]
        else:  # the gram's children share its context: one run of ids
            span = np.searchsorted(index.keys[n], [gram_id * index.width, (gram_id + 1) * index.width])
            ids = outer = slice(*(lo + span).tolist())
        return self.table.counts[ids].tolist(), index.last[outer].tolist()

    def continuation_count(self, gram: Sequence[str]) -> int:
        """Modified count: raw at the top order, distinct-left-extension below."""
        if not 1 <= len(gram) <= self.order:
            raise ValueError(f"gram length must be in 1..{self.order}: {len(gram)}")
        if len(gram) == self.order:
            return self.count(gram)
        return len(self._extensions(gram, left=True)[0])

    def prefix_type_count(self, gram: Sequence[str], r: int, at_least: bool = False) -> int:
        """Number of token types t with raw count of t,gram equal to r.

        With ``at_least`` the condition becomes >= r. ``gram`` may be empty.
        t ranges over the vocabulary and the begin marker.
        """
        return self._type_count(gram, r, at_least, left=True)

    def suffix_type_count(self, gram: Sequence[str], r: int, at_least: bool = False) -> int:
        """Number of token types t with raw count of gram,t equal to r.

        t ranges over the vocabulary and the end marker.
        """
        return self._type_count(gram, r, at_least, left=False)

    def _type_count(self, gram: Sequence[str], r: int, at_least: bool, left: bool) -> int:
        if r < 1:
            raise ValueError(f"r must be >= 1: {r}")
        if len(gram) > self.order - 1:
            raise ValueError(f"gram length must be <= {self.order - 1}")
        counts, tokens = self._extensions(gram, left)
        # t is never the end marker on the left or the begin marker on the right.
        excluded = self._codes[EOS if left else BOS]
        return sum(c >= r if at_least else c == r for c, t in zip(counts, tokens) if t != excluded)

    # ------------------------------------------------------------------
    # probabilities

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
        # The last order - 1 tokens of the context (none at order 1), then the token.
        *ctx, code = self._coded([*context[max(len(context) - self.order + 1, 0) :], token])
        ctx = tuple(ctx)
        dist = self._distributions.get(ctx)
        if dist is None:
            # Every token code follows the last context token.
            width, n = len(self._codes), len(ctx)
            tokens = np.array([*ctx, *range(width)], dtype=np.int64)
            prev = np.append(np.arange(-1, n - 1), np.full(width, n - 1)).astype(np.int64)
            ids = self.table.index.encode(tokens, prev)
            dist = kneser_ney_probs(
                self.table, [self.discounts], ids, prev, np.arange(n, n + width)
            )[0, 0].tolist()
            if len(self._distributions) >= _KEPT_DISTRIBUTIONS:
                self._distributions.clear()
            self._distributions[ctx] = dist
        return dist[code]

    def logprob(self, token: str, context: Sequence[str] = ()) -> float:
        return math.log(self.prob(token, context))

    def token_probs(self, sentences: Sequence[Sequence[str]]) -> np.ndarray:
        """Probabilities of every token and end marker of sentences, in order,
        with tokens outside the vocabulary mapped to the unknown token."""
        flat, lengths = code_sentences(sentences, self._codes)
        ids = self.table.index.encode(*token_stream(flat, lengths, len(self._codes))[:2])
        return sentence_probs(self.table, [self.discounts], ids, lengths)[0]

    def sentence_logprob(self, sentence: Sequence[str]) -> float:
        """Log probability of a sentence including its end-marker transition."""
        if not sentence:
            raise ValueError("cannot score an empty sentence")
        return math.fsum(math.log(p) for p in self.token_probs([sentence]).tolist())

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrammarModel):
            return NotImplemented
        return (
            self.order == other.order
            and self.vocab == other.vocab
            and self.discounts == other.discounts
            and self.sentence_count == other.sentence_count
            and all(map(np.array_equal, self.table.index.keys, other.table.index.keys))
            and np.array_equal(self.table.counts, other.table.counts)
        )

    def __repr__(self) -> str:
        return (
            f"GrammarModel(order={self.order}, vocab={len(self.vocab)}, "
            f"sentences={self.sentence_count}, grams={np.count_nonzero(self.table.counts)})"
        )


def sentence_probs(
    table: CountTable,
    discounts: Sequence[DiscountSchedule],
    ids: np.ndarray,
    lengths: np.ndarray,
    orders: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Probabilities of every token and end marker of sentences of
    ``lengths`` tokens, in order, under every model of a table: shape
    (models, positions), or (orders, models, positions) for a list of
    ``orders``, as :func:`kneser_ney_probs` takes them. ``ids`` are the gram
    ids of the sentences' stream (see :func:`token_stream`), as
    :meth:`GramIndex.encode` gives them or :attr:`CountTable.queried` holds
    them."""
    scored = np.ones(ids.shape[1] - 1, dtype=bool)
    scored[np.cumsum(lengths + 2) - lengths - 2] = False  # the begin markers
    # A scored position follows the position before it.
    prev = np.arange(-1, len(scored) - 1)
    probs = kneser_ney_probs(table, discounts, ids, prev, np.flatnonzero(scored), orders)
    return probs[0] if orders is None else probs


def train(
    sentences: Iterable[Sequence[str]],
    order: int,
    discounts: Optional[DiscountSchedule] = None,
    vocab: Optional[Vocabulary] = None,
) -> GrammarModel:
    """Train a model of the given order on masked sentences.

    Tokens outside ``vocab`` are replaced by the unknown token before
    counting; with no vocabulary given, one is built from the sentences
    themselves. The sentences are counted as one model of
    :meth:`CountTable.from_sentences`, and the model keeps that table.
    Requires at least one non-empty sentence.
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
    codes = token_codes(vocab.sorted_items())
    table = CountTable.from_sentences(
        *code_sentences(sents, codes), [range(len(sents))], order, len(codes)
    )
    return GrammarModel(
        order, vocab, discounts or DiscountSchedule.constant(), len(sents), table
    )


def train_with_estimated_discounts(
    sentences: Iterable[Sequence[str]],
    order: int,
    vocab: Optional[Vocabulary] = None,
    fallback: float = 0.75,
) -> GrammarModel:
    """:func:`train`, with modified discounts estimated from the model's
    top-order counts."""
    model = train(sentences, order, vocab=vocab)
    (coc,) = model.table.count_of_counts()
    # The model is new and has answered no query yet.
    model.discounts = DiscountSchedule.estimate_modified(coc, fallback=fallback)
    return model
