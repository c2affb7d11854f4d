"""Independent reference implementations used only by tests.

Everything here recomputes results from first principles: counts by literal
window enumeration over padded sentences, type statistics by iterating the
whole candidate token set, smoothing by a direct transcription of the
recursion, and isotonic regression by exhaustive search over contiguous
partitions in exact rational arithmetic. Nothing is shared with the package
internals beyond the pseudo-token spellings.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import chain

BOS = "<BOS>"
EOS = "<EOS>"
UNK = "<UNK>"


def oracle_raw_counts(sentences, order):
    """All n-gram window counts, n = 1..order, each order padded with n
    begin markers and one end marker."""
    counts = Counter()
    for n in range(1, order + 1):
        for sent in sentences:
            padded = [BOS] * n + list(sent) + [EOS]
            for start in range(0, len(padded) - n + 1):
                counts[tuple(padded[start : start + n])] += 1
    return counts


def oracle_continuation_count(raw, gram, order, vocab_items):
    """Raw count at the top order; otherwise the number of distinct left
    extensions, found by trying every candidate token explicitly."""
    gram = tuple(gram)
    if len(gram) == order:
        return raw.get(gram, 0)
    return sum(1 for t in chain(vocab_items, [BOS]) if raw.get((t,) + gram, 0) >= 1)


def oracle_prefix_type_count(raw, gram, r, vocab_items, at_least=False):
    gram = tuple(gram)
    hits = 0
    for t in chain(sorted(vocab_items), [BOS]):
        c = raw.get((t,) + gram, 0)
        if (at_least and c >= r) or (not at_least and c == r):
            hits += 1
    return hits


def oracle_suffix_type_count(raw, gram, r, vocab_items, at_least=False):
    gram = tuple(gram)
    hits = 0
    for t in chain(sorted(vocab_items), [EOS]):
        c = raw.get(gram + (t,), 0)
        if (at_least and c >= r) or (not at_least and c == r):
            hits += 1
    return hits


def _oracle_discount(discounts, count):
    if count <= 0:
        return 0.0
    if discounts.mode == "constant":
        return discounts.constant_d
    return discounts.bins[min(count, 3) - 1]


def oracle_kn_prob(raw, order, discounts, vocab_items, token, context):
    """Direct transcription of the smoothing recursion.

    ``raw`` must come from already-vocabulary-mapped sentences;
    ``vocab_items`` is the token set including the unknown token. The
    caller's context is truncated to the last order-1 tokens here.
    """
    assert token != BOS
    ctx = tuple(context)
    if order == 1:
        ctx = ()
    elif len(ctx) > order - 1:
        ctx = ctx[len(ctx) - (order - 1) :]

    def ckn(gram):
        return oracle_continuation_count(raw, gram, order, vocab_items)

    def level(t, g):
        candidates = list(chain(sorted(vocab_items), [EOS]))
        if len(g) == 0:
            total = sum(ckn((t2,)) for t2 in candidates)
            base = 1.0 / (len(vocab_items) + 1)
            if total == 0:
                return base
            c = ckn((t,))
            alpha = max(c - _oracle_discount(discounts, c), 0.0) / total
            removed = sum(
                _oracle_discount(discounts, ckn((t2,)))
                for t2 in candidates
                if ckn((t2,)) >= 1
            )
            return alpha + (removed / total) * base
        if raw.get(g, 0) == 0:
            return level(t, g[1:])
        total = sum(ckn(g + (t2,)) for t2 in candidates)
        c = ckn(g + (t,))
        alpha = max(c - _oracle_discount(discounts, c), 0.0) / total
        removed = sum(
            _oracle_discount(discounts, ckn(g + (t2,)))
            for t2 in candidates
            if ckn(g + (t2,)) >= 1
        )
        return alpha + (removed / total) * level(t, g[1:])

    return level(token, ctx)


def scalar_kn_tables(raw, order):
    """Per-gram continuation counts and per-context totals and count bins of
    a raw table, by plain loops over its grams."""
    lefts = {}
    for gram, count in raw.items():
        if count > 0 and len(gram) >= 2:
            lefts.setdefault(gram[1:], set()).add(gram[0])
    ckn = {g: c for g, c in raw.items() if len(g) == order and c > 0}
    ckn.update((g, len(ts)) for g, ts in lefts.items() if len(g) < order)
    totals, bins = {}, {}
    for gram, c in ckn.items():
        if gram[-1] == BOS:
            continue
        totals[gram[:-1]] = totals.get(gram[:-1], 0) + c
        b = bins.setdefault(gram[:-1], [0, 0, 0])
        b[min(c, 3) - 1] += 1
    return ckn, totals, bins


def scalar_kn_prob(raw, tables, order, discounts, vocab_size, token, context):
    """The smoothing recursion one query at a time, with the floating-point
    operations in the order the package promises: alpha = max(c - D(c), 0)
    / total, gamma = removed mass / total, p = alpha + gamma * p_lower. The
    package must agree with it exactly, not just closely."""
    ckn, totals, bins = tables
    ctx = tuple(context)[-(order - 1) :] if order > 1 else ()

    def removed(n1, n2, n3):
        if discounts.mode == "constant":
            return discounts.constant_d * (n1 + n2 + n3)
        d1, d2, d3 = discounts.bins
        return d1 * n1 + d2 * n2 + d3 * n3

    def level(g):
        if not g:
            base = 1.0 / (vocab_size + 1)
            if totals.get((), 0) == 0:
                return base
            c = ckn.get((token,), 0)
            alpha = max(c - _oracle_discount(discounts, c), 0.0) / totals[()]
            return alpha + removed(*bins[()]) / totals[()] * base
        if raw.get(g, 0) == 0:
            return level(g[1:])
        c = ckn.get(g + (token,), 0)
        alpha = max(c - _oracle_discount(discounts, c), 0.0) / totals[g]
        return alpha + removed(*bins[g]) / totals[g] * level(g[1:])

    return level(ctx)


def oracle_sentence_logprob(raw, order, discounts, vocab_items, sentence):
    total = 0.0
    history = [BOS] * (order - 1)
    for t in list(sentence) + [EOS]:
        total += math.log(
            oracle_kn_prob(raw, order, discounts, vocab_items, t, tuple(history))
        )
        if t != EOS and order > 1:
            history = (history + [t])[-(order - 1) :]
    return total


def oracle_lambda_document(
    unknown_sentences, known_sentences, reference_sentence_sets, order, discounts, vocab_items
):
    """Per-token average log ratios, fully recomputed per query.

    Returns (token_scores, sentence_scores, total) where token_scores is a
    flat list in scoring order.
    """
    raw_author = oracle_raw_counts(known_sentences, order)
    raw_refs = [oracle_raw_counts(s, order) for s in reference_sentence_sets]
    token_scores = []
    sentence_scores = []
    for sent in unknown_sentences:
        mapped = [t if t in vocab_items else UNK for t in sent]
        history = [BOS] * (order - 1)
        per_sent = []
        for t in mapped + [EOS]:
            lp_a = math.log(
                oracle_kn_prob(raw_author, order, discounts, vocab_items, t, tuple(history))
            )
            ratios = [
                lp_a
                - math.log(
                    oracle_kn_prob(rr, order, discounts, vocab_items, t, tuple(history))
                )
                for rr in raw_refs
            ]
            score = sum(ratios) / len(raw_refs)
            token_scores.append(score)
            per_sent.append(score)
            if t != EOS and order > 1:
                history = (history + [t])[-(order - 1) :]
        sentence_scores.append(sum(per_sent))
    return token_scores, sentence_scores, sum(sentence_scores)


def oracle_isotonic(scores, labels):
    """Exhaustive least-squares monotone fit.

    Ties in the scores are merged first (a monotone function of the score
    cannot separate them), then every contiguous partition of the merged
    atoms is tried; partitions whose block means decrease are infeasible.
    All arithmetic is exact rational, so the returned fitted values are the
    unique isotonic solution with no floating-point ambiguity.
    """
    y = [1 if lab == "Y" else 0 for lab in labels]
    n = len(y)
    order_idx = sorted(range(n), key=lambda i: scores[i])
    atoms = []  # (label_sum, size, [original indices])
    prev = None
    for i in order_idx:
        if prev is not None and scores[i] == prev:
            atoms[-1][0] += y[i]
            atoms[-1][1] += 1
            atoms[-1][2].append(i)
        else:
            atoms.append([y[i], 1, [i]])
        prev = scores[i]

    m = len(atoms)
    best_sse = None
    best_fit = None
    for mask in range(1 << (m - 1)) if m > 1 else [0]:
        # bit b set: boundary after atom b
        blocks = []
        current = [0, 0, []]
        for b, atom in enumerate(atoms):
            current[0] += atom[0]
            current[1] += atom[1]
            current[2].extend(atom[2])
            if b == m - 1 or (mask >> b) & 1:
                blocks.append(current)
                current = [0, 0, []]
        means = [Fraction(s, size) for s, size, _ in blocks]
        if any(means[k] > means[k + 1] for k in range(len(means) - 1)):
            continue
        sse = Fraction(0)
        fit = [Fraction(0)] * n
        for (s, size, idxs), mean in zip(blocks, means):
            for i in idxs:
                fit[i] = mean
                sse += (Fraction(y[i]) - mean) ** 2
        if best_sse is None or sse < best_sse:
            best_sse = sse
            best_fit = fit
    return [float(v) for v in best_fit]
