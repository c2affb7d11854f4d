"""Independent reference implementations used only by tests.

Everything here recomputes results from first principles: counts by literal
window enumeration over padded sentences, type statistics by iterating the
whole candidate token set, smoothing by a direct transcription of the
recursion, and isotonic regression by exhaustive search over contiguous
partitions in exact rational arithmetic, tagged-text parsing by the
earlier dataclass-token parser transcribed whole, the counter by its
earlier every-window form, the grams it keeps for queries by its three
rules over every window, the array kernel by its earlier whole-table
form, the reference sampler by its earlier sample-by-sample form, and the
PAV fit, ROC AUC, confusion counts and Cllr_min by their earlier index-loop
forms, each also transcribed whole, a prepared reference pool by its
earlier mask-then-code composition, and the logging of a probability array
by its earlier ``np.unique`` form. Nothing is shared with the package
internals beyond the pseudo-token spellings, the tagged format's labels,
the count table (its index and table classes) and discount schedules
that the whole-table kernel reads as its inputs, the Cllr that the
Cllr_min oracle reads off its recalibrated log LRs, and the document
masking, vocabulary and token codes that the pool composition is made of.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat

import numpy as np

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


# The counter as it was when it indexed and counted every window of every
# training sentence, transcribed whole with its indexer. The counter that
# keeps only the windows a questioned document can read must give the same
# count for every gram it keeps, and the same probabilities.


def oracle_count_table(sentences, models, order, width):
    """Count several models over one index of every gram of coded
    sentences: ``models[m]`` lists the numbers of model m's training
    sentences, repeats allowed. Returns the package's ``CountTable``."""
    from grammarlr.ngram import CountTable, GramIndex

    # The padded stream: each sentence is its begin marker, its tokens and
    # its end marker, and a sentence's first position is its own predecessor.
    bos, eos = width - 2, width - 1
    stream, starts = [], []
    for sent in sentences:
        starts.append(len(stream))
        stream.extend([bos, *sent, eos])
    tokens = np.array(stream, dtype=np.int64)
    starts = np.array(starts, dtype=np.int64)
    prev = np.arange(-1, len(tokens) - 1, dtype=np.int64)
    prev[starts] = starts

    # Every gram, level by level, keyed by (context id, last code).
    n_pos = len(tokens)
    ids = np.full((order, n_pos + 1), -1, dtype=np.int64)
    keys, suffixes = [], [np.zeros(1, dtype=np.int64)]
    start = 1
    at = np.arange(n_pos)
    context = shorter = np.zeros(n_pos, dtype=np.int64)
    for n in range(1, order + 1):
        if n > 1:
            context = ids[n - 2, prev[at]]
            reaches = context >= 0
            at, context = at[reaches], context[reaches]
            shorter = ids[n - 2, at]
        level_keys, inverse = np.unique(context * width + tokens[at], return_inverse=True)
        level_ids = start + inverse.reshape(-1)
        suffix = np.empty(len(level_keys), dtype=np.int64)
        suffix[level_ids - start] = shorter
        ids[n - 1, at] = level_ids
        keys.append(level_keys)
        suffixes.append(suffix)
        start += len(level_keys)
    index = GramIndex(order, width, keys, np.concatenate(suffixes))
    ids[ids < 0] = index.missing

    # Each model counts its sentences' gram ids, one window per row drawn.
    rows = np.concatenate([np.asarray(m, dtype=np.int64) for m in models])
    spans = np.diff(np.append(starts, len(tokens)))[rows]
    positions = np.repeat(starts[rows] - np.cumsum(spans) + spans, spans)
    positions += np.arange(len(positions))
    model_of = np.repeat(np.repeat(np.arange(len(models)), [len(m) for m in models]), spans)
    n_models = len(models)
    table_keys, counts = np.unique(
        np.concatenate(
            [np.arange(n_models), (ids[:, positions] * n_models + model_of).reshape(-1)]
        ),
        return_counts=True,
    )
    counts[:n_models] = 0  # the roots
    return CountTable(index, n_models, table_keys, counts)


def oracle_query_kept_grams(sentences, queries, order, width):
    """The grams a counter of ``sentences`` for ``queries`` keeps, by its
    three rules, as tuples of codes, the root ``()`` included: of every gram
    of the sentences and the queries, each gram the queries hold, each child
    of a gram they hold, and each gram whose suffix is one of those two.
    Grams are read off each sentence padded with ``order`` begin markers
    (code ``width - 2``) and one end marker (``width - 1``)."""
    bos, eos = width - 2, width - 1

    def grams(sents):
        found = set()
        for sent in sents:
            padded = [bos] * order + list(sent) + [eos]
            for end in range(order, len(padded) + 1):
                found.update(tuple(padded[end - n : end]) for n in range(1, order + 1))
        return found

    held = grams(queries) | {()}

    def read(gram):
        return gram in held or gram[:-1] in held

    return {()} | {g for g in grams(sentences) | held if read(g) or read(g[1:])}


# The Kneser-Ney array kernel as it was when it built its statistics for
# every entry of the count table, transcribed whole. The kernel that builds
# them only where the queries reach must agree with it bit for bit.

_ORACLE_QUERY_BLOCK = 1 << 12


def whole_table_kneser_ney_probs(table, discounts, tokens, prev, positions):
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
    block = max(1, _ORACLE_QUERY_BLOCK // n_models)
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


def oracle_log_probs(probs):
    """``math.log`` of every probability, taken once per distinct value as
    ``np.unique`` groups them: the scorer's logging as it was before it
    grouped values by a hash of their bits."""
    values, where = np.unique(probs, return_inverse=True)
    logs = np.fromiter(map(math.log, values.tolist()), dtype=np.float64, count=len(values))
    return logs[where.reshape(probs.shape)]


def oracle_trace_json(sentences, probs, config_dict, seed, problem_id):
    """The JSON of a document's score trace, by the per-position loop.

    ``probs`` is the (1 + r) x positions probability matrix, the author's
    row first, one column per token and end marker. Each position scores
    ``math.fsum`` of the r log ratios over r; each sentence, ``math.fsum``
    of its position scores; the total, ``math.fsum`` of the sentence
    scores.
    """
    logs = [[math.log(p) for p in row] for row in probs.tolist()]
    r = len(logs) - 1
    column = 0
    token_scores = []
    sentence_scores = []
    for si, sent in enumerate(sentences):
        per_token = []
        for pos, token in enumerate([*sent, EOS], start=1):
            score = math.fsum(logs[0][column] - ref[column] for ref in logs[1:]) / r
            column += 1
            token_scores.append(
                {"token": token, "sentence_index": si, "position": pos, "lambda": score}
            )
            per_token.append(score)
        sentence_scores.append(math.fsum(per_token))
    obj = {
        "problem_id": problem_id,
        "config": config_dict,
        "seed": seed,
        "total": math.fsum(sentence_scores),
        "sentence_scores": sentence_scores,
        "token_scores": token_scores,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ": "))


def oracle_sample_reference_sets(pool, size, count, seed, sampling="without_replacement"):
    """``count`` samples of ``size`` items of ``pool``, drawn one sample at a
    time as the sampler drew them before it drew an index matrix: one
    ``Generator.choice`` call per sample, with replacement when asked for or
    when the pool holds fewer than ``size`` items."""
    replace_within = sampling == "with_replacement" or len(pool) < size
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        idx = rng.choice(len(pool), size=size, replace=replace_within)
        samples.append([pool[int(i)] for i in idx])
    return samples


# The metrics as they were before they grouped on numpy: ties, PAV atoms
# and the confusion table found by index loops over the items. Each function
# below is that version transcribed whole; the fitted and returned values
# must equal the package's bit for bit.


def _oracle_check_labels(labels):
    y = np.empty(len(labels))
    for i, lab in enumerate(labels):
        if lab == "Y":
            y[i] = 1.0
        elif lab == "N":
            y[i] = 0.0
        else:
            raise ValueError(f"labels must be 'Y' or 'N': {lab!r}")
    return y


def oracle_pav_fit(scores, labels):
    y = _oracle_check_labels(labels)
    x = np.asarray(scores, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("scores must be a non-empty 1-d sequence")
    if x.size != y.size:
        raise ValueError("scores and labels must have equal length")
    if not np.all(np.isfinite(x)):
        raise ValueError("scores must be finite")

    order = np.argsort(x, kind="stable")
    # atoms as [sum_of_labels, item_count, list_of_original_positions]
    atoms = []
    prev_score = None
    for idx in order:
        score = x[idx]
        if prev_score is not None and score == prev_score:
            atoms[-1][0] += int(y[idx])
            atoms[-1][1] += 1
            atoms[-1][2].append(int(idx))
        else:
            atoms.append([int(y[idx]), 1, [int(idx)]])
        prev_score = score

    blocks = []
    for atom in atoms:
        blocks.append(atom)
        # pool while the mean sequence decreases
        while len(blocks) >= 2:
            s1, n1, i1 = blocks[-2]
            s2, n2, i2 = blocks[-1]
            if s1 * n2 > s2 * n1:  # mean(prev) > mean(last), exact in ints
                blocks[-2:] = [[s1 + s2, n1 + n2, i1 + i2]]
            else:
                break

    fitted = np.empty(x.size)
    for s, n, idxs in blocks:
        value = s / n
        for idx in idxs:
            fitted[idx] = value
    return fitted


def oracle_cllr_min_from_log_lrs(same_source, different_source):
    from grammarlr.calibration import cllr_from_log_lrs

    full = cllr_from_log_lrs(same_source, different_source)
    scores = [*same_source, *different_source]
    labels = ["Y"] * len(same_source) + ["N"] * len(different_source)
    fitted = oracle_pav_fit(scores, labels)
    prior = math.log(len(same_source) / len(different_source))
    # Pure runs at the extremes would map to infinite LRs; add-one smoothing
    # over each run's size keeps them finite while vanishing as runs grow.
    run_zero = int(np.sum(fitted == 0.0))
    run_one = int(np.sum(fitted == 1.0))
    log_lrs = np.empty(len(scores))
    for i, p in enumerate(fitted):
        if p <= 0.0:
            p = 1.0 / (run_zero + 2.0)
        elif p >= 1.0:
            p = (run_one + 1.0) / (run_one + 2.0)
        log_lrs[i] = math.log(p / (1.0 - p)) - prior
    n_same = len(same_source)
    floor = cllr_from_log_lrs(log_lrs[:n_same], log_lrs[n_same:])
    return floor, full - floor


def oracle_roc_auc(scores, labels):
    y = _oracle_check_labels(labels)
    x = np.asarray(scores, dtype=float)
    if x.size != y.size or x.size == 0:
        raise ValueError("scores and labels must be non-empty and equal length")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC requires both classes")
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size)
    i = 0
    sorted_x = x[order]
    while i < x.size:
        j = i
        while j + 1 < x.size and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    rank_sum = float(np.sum(ranks[y == 1.0]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def oracle_classification_metrics(decisions, labels):
    if len(decisions) != len(labels) or not decisions:
        raise ValueError("decisions and labels must be non-empty and equal length")
    tp = fn = fp = tn = 0
    for dec, lab in zip(decisions, labels):
        if dec not in ("Y", "N"):
            raise ValueError(f"decisions must be 'Y' or 'N': {dec!r}")
        if lab not in ("Y", "N"):
            raise ValueError(f"labels must be 'Y' or 'N': {lab!r}")
        if lab == "Y":
            tp += dec == "Y"
            fn += dec == "N"
        else:
            fp += dec == "Y"
            tn += dec == "N"
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


# The tagged-text parser as it was before tokens became tuples: a frozen
# dataclass token validated in its constructor, a stream with None for each
# hard break, and a separate segmentation pass. It raises OracleParseError
# wherever that parser raised ParseError, with the same message.

ORACLE_POS_LABELS = frozenset(
    {"NOUN", "PROPN", "VERB", "ADJ", "ADV", "PRON", "DET", "ADP", "CONJ", "PART",
     "NUM", "PUNCT", "SYM", "OTHER"}
)
ORACLE_TERMINALS = frozenset({".", "!", "?", "…"})


class OracleParseError(Exception):
    pass


@dataclass(frozen=True)
class OracleToken:
    surface: str
    pos: str

    def __post_init__(self):
        if not self.surface:
            raise OracleParseError("token surface must be non-empty")
        if "\t" in self.surface or "\n" in self.surface:
            raise OracleParseError(f"token surface contains format characters: {self.surface!r}")
        if self.pos not in ORACLE_POS_LABELS:
            raise OracleParseError(f"unknown POS label {self.pos!r}")


def oracle_segment(items):
    sentences, current = [], []
    for item in items:
        if item is None:
            if current:
                sentences.append(current)
            current = []
            continue
        current.append(item)
        if item.surface in ORACLE_TERMINALS:
            sentences.append(current)
            current = []
    if current:
        sentences.append(current)
    return sentences


def oracle_parse_tagged(text, doc_id):
    """Sentences of (surface, pos) pairs for ``surface<TAB>pos`` lines."""
    if not isinstance(doc_id, str) or not doc_id:
        raise OracleParseError(f"document id must be a non-empty string: {doc_id!r}")
    lines = text.splitlines() if isinstance(text, str) else text
    stream = []
    saw_token = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.strip() == "<NL>":
            stream.append(None)
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise OracleParseError(
                f"{doc_id}: line {lineno}: expected 'surface<TAB>pos', got {len(fields)} field(s)"
            )
        surface, pos = fields
        if not surface:
            raise OracleParseError(f"{doc_id}: line {lineno}: empty surface")
        if pos not in ORACLE_POS_LABELS:
            raise OracleParseError(f"{doc_id}: line {lineno}: unknown POS label {pos!r}")
        if surface == "...":
            surface = "…"
        stream.append(OracleToken(surface, pos))
        saw_token = True
    if not saw_token:
        raise OracleParseError(f"{doc_id}: empty document")
    return [[(t.surface, t.pos) for t in sent] for sent in oracle_segment(stream)]


def oracle_masked_pool(docs, lexicon):
    """A reference pool prepared by masking, then coding: ``mask_document``
    of each pool document, the vocabulary of the masked sentences and the
    token codes of its sorted items, and the masked sentences coded end to
    end by the earlier ``code_sentences``, with each sentence's offset (plus
    the end)."""
    from grammarlr.masking import mask_document
    from grammarlr.ngram import Vocabulary, token_codes

    sentences = [s for d in docs for s in mask_document(d, lexicon).sentences]
    vocab = Vocabulary.from_sentences(sentences)
    codes = token_codes(vocab.sorted_items())
    unk = codes[UNK]
    lookup = {**codes, BOS: unk, EOS: unk}
    flat = np.fromiter(
        map(lookup.get, chain.from_iterable(sentences), repeat(unk)),
        np.min_scalar_type(len(codes) - 1),
    )
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    return vocab, codes, flat, np.append(0, np.cumsum(lengths))
