import math
import pickle
import random
from collections import Counter
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (
    oracle_continuation_count,
    oracle_count_table,
    oracle_kn_prob,
    oracle_prefix_type_count,
    oracle_query_kept_grams,
    oracle_raw_counts,
    oracle_sentence_logprob,
    oracle_suffix_type_count,
    scalar_kn_prob,
    scalar_kn_tables,
    whole_table_kneser_ney_probs,
)

from grammarlr import ngram, scoring
from grammarlr.ngram import (
    BOS,
    EOS,
    UNK,
    CountTable,
    DiscountSchedule,
    GramIndex,
    GrammarModel,
    Vocabulary,
    kneser_ney_probs,
    sentence_probs,
    token_codes,
    token_stream,
    train,
    train_with_estimated_discounts,
)
from grammarlr.scoring import LambdaConfig, lambda_document, verify_problem
from grammarlr.synth import synth_corpus

ALPHABET = ("a", "b", "c", "d", "e")


def coded(sentences):
    """Sentences of integer codes as coded sentences: their codes end to
    end and their lengths."""
    return (
        np.array([c for sent in sentences for c in sent], dtype=np.int64),
        np.array([len(sent) for sent in sentences], dtype=np.int64),
    )


def random_sentences(rng, max_sents=6, max_len=7, alphabet=ALPHABET):
    return [
        tuple(rng.choice(alphabet) for _ in range(rng.randrange(1, max_len + 1)))
        for _ in range(rng.randrange(1, max_sents + 1))
    ]


def random_schedule(rng):
    if rng.random() < 0.5:
        return DiscountSchedule.constant(rng.uniform(0.1, 0.9))
    return DiscountSchedule.modified(
        rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
    )


class TestVocabulary:
    def test_requires_unknown_token(self):
        with pytest.raises(ValueError, match="unknown token"):
            Vocabulary(frozenset({"a"}))

    def test_rejects_pseudo_tokens(self):
        for bad in (BOS, EOS):
            with pytest.raises(ValueError):
                Vocabulary(frozenset({UNK, bad}))

    def test_from_sentences(self):
        v = Vocabulary.from_sentences([("a", "b"), ("b", "c")])
        assert v.items == frozenset({"a", "b", "c", UNK})
        assert len(v) == 4
        assert "a" in v and "z" not in v

    def test_from_sentences_rejects_pseudo_tokens(self):
        with pytest.raises(ValueError):
            Vocabulary.from_sentences([("a", BOS)])

    def test_map(self):
        v = Vocabulary(frozenset({"a", UNK}))
        assert v.map("a") == "a"
        assert v.map("z") == UNK
        assert v.map(UNK) == UNK


class TestDiscountSchedule:
    def test_constant_bounds(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="lie in"):
                DiscountSchedule.constant(bad)
        assert DiscountSchedule.constant(0.5).constant_d == 0.5

    @pytest.mark.parametrize("bad", [np.float32(0.5), "0.5", None, True])
    def test_constant_of_a_wrong_type_names_the_type(self, bad):
        with pytest.raises(ValueError, match=f"must be a float .*, not a {type(bad).__name__}:"):
            DiscountSchedule.constant(bad)

    def test_modified_requires_bins(self):
        with pytest.raises(ValueError, match="three discount bins"):
            DiscountSchedule(mode="modified")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown discount mode"):
            DiscountSchedule(mode="turbo")

    def test_bins_are_kept_as_a_tuple(self):
        """Bins given as a list are stored as a tuple: the schedule equals
        and hashes as its tuple twin, and a model scores with it."""
        listed = DiscountSchedule(mode="modified", bins=[0.4, 0.5, 0.6])
        twin = DiscountSchedule.modified(0.4, 0.5, 0.6)
        assert listed.bins == (0.4, 0.5, 0.6)
        assert listed == twin and hash(listed) == hash(twin)
        model = train([("a", "b"), ("a", "c")], order=2, discounts=listed)
        assert model.prob("b", ("a",)) == train(
            [("a", "b"), ("a", "c")], order=2, discounts=twin
        ).prob("b", ("a",))

    def test_discount_for(self):
        const = DiscountSchedule.constant(0.75)
        assert const.discount_for(0) == 0.0
        assert const.discount_for(1) == 0.75
        assert const.discount_for(9) == 0.75
        mod = DiscountSchedule.modified(0.3, 0.5, 0.7)
        assert mod.discount_for(1) == 0.3
        assert mod.discount_for(2) == 0.5
        assert mod.discount_for(3) == 0.7
        assert mod.discount_for(100) == 0.7

    def test_removed_mass(self):
        const = DiscountSchedule.constant(0.5)
        assert const.removed_mass(2, 3, 4) == 0.5 * 9
        mod = DiscountSchedule.modified(0.3, 0.5, 0.7)
        assert mod.removed_mass(2, 3, 4) == pytest.approx(0.6 + 1.5 + 2.8)

    def test_estimate_modified_closed_form(self):
        # n1=10, n2=5, n3=4, n4=2: Y = 0.5, so d1 = 0.5, d2 = 0.8 and the
        # raw d3 = 2.0 must clamp to the upper bound.
        sched = DiscountSchedule.estimate_modified({1: 10, 2: 5, 3: 4, 4: 2})
        assert sched.bins[0] == pytest.approx(0.5)
        assert sched.bins[1] == pytest.approx(0.8)
        assert sched.bins[2] == pytest.approx(0.999)

    def test_estimate_modified_empty_stats_falls_back(self):
        sched = DiscountSchedule.estimate_modified({}, fallback=0.6)
        assert sched.bins == (0.6, 0.6, 0.6)

    def test_estimate_modified_always_in_bounds(self):
        rng = random.Random(3)
        for _ in range(200):
            coc = {k: rng.randrange(0, 20) for k in (1, 2, 3, 4)}
            sched = DiscountSchedule.estimate_modified(coc)
            assert all(0.0 < d < 1.0 for d in sched.bins)

    def test_backoff_mass_strictly_increases_with_constant_discount(self):
        # gamma(g) = removed_mass / total continuation mass; the counts do
        # not depend on the discount, so a larger constant D must strictly
        # raise gamma for every observed context.
        rng = random.Random(23)
        checked = 0
        for _ in range(10):
            sents = random_sentences(rng)
            order = rng.randrange(2, 5)
            model = train(sents, order=order)
            items = model.vocab.sorted_items() + [EOS]
            contexts = {tuple(s)[:k] for s in sents for k in range(1, order)}
            for gram in contexts:
                if model.count(gram) == 0:
                    continue
                counts = [model.continuation_count(gram + (t,)) for t in items]
                n1 = sum(1 for c in counts if c == 1)
                n2 = sum(1 for c in counts if c == 2)
                n3p = sum(1 for c in counts if c >= 3)
                total = sum(counts)
                gammas = [
                    DiscountSchedule.constant(d).removed_mass(n1, n2, n3p) / total
                    for d in (0.2, 0.5, 0.8)
                ]
                assert gammas[0] < gammas[1] < gammas[2], gram
                checked += 1
        assert checked > 20


class TestCountingConvention:
    """Counts for the two-sentence corpus {"a b", "a c"} at order 2."""

    @pytest.fixture()
    def model(self):
        return train([("a", "b"), ("a", "c")], order=2)

    def test_begin_marker_runs_count_sentences(self, model):
        assert model.count([BOS]) == 2
        assert model.count([BOS, BOS]) == 2

    def test_end_marker_counts_sentences(self, model):
        assert model.count([EOS]) == 2

    def test_unigrams_and_bigrams(self, model):
        assert model.count(["a"]) == 2
        assert model.count(["b"]) == 1
        assert model.count([BOS, "a"]) == 2
        assert model.count(["a", "b"]) == 1
        assert model.count(["b", EOS]) == 1
        assert model.count(["b", "a"]) == 0

    def test_continuation_counts(self, model):
        # Top order: raw counts. Below: distinct left extensions.
        assert model.continuation_count([BOS, "a"]) == 2
        assert model.continuation_count(["a", "b"]) == 1
        assert model.continuation_count(["a"]) == 1  # only BOS precedes a
        assert model.continuation_count(["b"]) == 1
        assert model.continuation_count([EOS]) == 2  # b and c both end sentences

    def test_gram_length_bounds(self, model):
        with pytest.raises(ValueError):
            model.count([])
        with pytest.raises(ValueError):
            model.count(["a", "b", "c"])

    def test_prefix_suffix_type_counts(self, model):
        # Types t with c(t, a) == 1: none (BOS a has count 2).
        assert model.prefix_type_count(["a"], 1) == 0
        assert model.prefix_type_count(["a"], 2) == 1
        assert model.prefix_type_count(["a"], 1, at_least=True) == 1
        # Types t with c(a, t) == 1: b and c.
        assert model.suffix_type_count(["a"], 1) == 2
        # Unigram table: types with count 1 are b and c.
        assert model.prefix_type_count([], 1) == 2
        assert model.suffix_type_count([], 2) == 2  # a and EOS


class TestPencilProbabilities:
    """Hand-derived smoothed probabilities for {"a b", "a c"}, D = 0.75."""

    @pytest.fixture()
    def model(self):
        return train([("a", "b"), ("a", "c")], order=2)

    def test_unigram_level(self, model):
        # Continuation table: a:1, b:1, c:1, EOS:2, total 5. Uniform base
        # 1/5 over {a,b,c,UNK,EOS}. alpha(b) = (1-.75)/5, removed = 4*.75.
        assert model.prob("b") == pytest.approx(0.05 + 0.6 * 0.2, abs=1e-15)
        assert model.prob("b") == pytest.approx(0.17, abs=1e-12)

    def test_bigram_level(self, model):
        # After "a": suffix counts b:1, c:1, total 2; alpha = 0.125,
        # gamma = 1.5/2, backoff 0.17.
        assert model.prob("b", ["a"]) == pytest.approx(0.2525, abs=1e-12)

    def test_unknown_token_maps(self, model):
        assert model.prob("zzz", ["a"]) == model.prob(UNK, ["a"])
        assert model.prob("b", ["zzz"]) == model.prob("b", [UNK])

    def test_begin_marker_rejected(self, model):
        with pytest.raises(ValueError, match="begin marker"):
            model.prob(BOS)
        with pytest.raises(ValueError):
            model.logprob(BOS, ["a"])

    def test_context_truncation(self, model):
        assert model.prob("b", ["x", "y", "a"]) == model.prob("b", ["a"])

    def test_unseen_context_is_pure_backoff(self, model):
        # UNK never occurs, so conditioning on it must reduce exactly to the
        # shorter context with no extra discounting.
        assert model.prob("b", ["zzz"]) == model.prob("b")

    def test_end_marker_scoreable(self, model):
        assert 0.0 < model.prob(EOS, ["b"]) < 1.0

    def test_logprob(self, model):
        assert model.logprob("b", ["a"]) == pytest.approx(math.log(0.2525), abs=1e-12)


class TestNormalization:
    def test_sums_to_one_everywhere(self):
        rng = random.Random(17)
        for _ in range(30):
            sents = random_sentences(rng)
            order = rng.randrange(1, 5)
            model = train(sents, order=order, discounts=random_schedule(rng))
            items = model.vocab.sorted_items() + [EOS]
            contexts = [(), ("a",), ("zzz",), (BOS,) * max(order - 1, 1)]
            contexts += [tuple(rng.choice(ALPHABET) for _ in range(order))]
            for ctx in contexts:
                total = math.fsum(model.prob(t, ctx) for t in items)
                assert total == pytest.approx(1.0, abs=1e-9), (sents, order, ctx)

    def test_probabilities_positive(self):
        rng = random.Random(18)
        for _ in range(10):
            sents = random_sentences(rng)
            model = train(sents, order=3)
            for t in model.vocab.sorted_items() + [EOS]:
                assert model.prob(t, ("a",)) > 0.0


class TestKeptDistributions:
    def test_evicted_distributions_give_the_same_probabilities(self, monkeypatch):
        """A model that keeps at most 2 distributions drops them all when a
        third context is queried, and every query, before and after, equals
        that of a fresh model."""
        monkeypatch.setattr(ngram, "_KEPT_DISTRIBUTIONS", 2)
        rng = random.Random(191)
        sents = random_sentences(rng, max_sents=8)
        vocab = Vocabulary.from_sentences([ALPHABET])
        model = train(sents, 3, vocab=vocab)
        contexts = [(), ("a",), ("b", "c"), ("d", "e")]
        queries = [(t, ctx) for _ in range(2) for ctx in contexts for t in (*ALPHABET, EOS)]
        got, kept = [], []
        for token, ctx in queries:
            got.append(model.prob(token, ctx))
            kept.append(len(model._distributions))
        assert got == [train(sents, 3, vocab=vocab).prob(t, ctx) for t, ctx in queries]
        assert kept[:: len(ALPHABET) + 1] == [1, 2] * 4


class TestAgainstOracles:
    def test_raw_counts_match(self):
        rng = random.Random(23)
        for _ in range(40):
            sents = random_sentences(rng)
            order = rng.randrange(1, 5)
            model = train(sents, order=order)
            assert model.raw_counts == dict(oracle_raw_counts(sents, order))

    def test_continuation_counts_match(self):
        rng = random.Random(29)
        for _ in range(25):
            sents = random_sentences(rng)
            order = rng.randrange(1, 4)
            model = train(sents, order=order)
            raw = oracle_raw_counts(sents, order)
            items = model.vocab.sorted_items()
            grams = list(raw.keys()) + [("q",), ("a", "q")[: order or 1]]
            for gram in grams:
                if not 1 <= len(gram) <= order:
                    continue
                assert model.continuation_count(gram) == oracle_continuation_count(
                    raw, gram, order, items
                ), (sents, order, gram)

    def test_type_counts_match(self):
        rng = random.Random(31)
        for _ in range(25):
            sents = random_sentences(rng)
            order = rng.randrange(2, 5)
            model = train(sents, order=order)
            raw = oracle_raw_counts(sents, order)
            items = model.vocab.sorted_items()
            grams = [()] + [
                g[1:] for g in raw if 1 <= len(g) - 1 <= order - 1
            ]
            for gram in grams[:40]:
                for r in (1, 2, 3):
                    for at_least in (False, True):
                        assert model.prefix_type_count(
                            gram, r, at_least=at_least
                        ) == oracle_prefix_type_count(raw, gram, r, items, at_least), (
                            "prefix", sents, order, gram, r, at_least,
                        )
                        if gram and gram[-1] == BOS:
                            continue
                        assert model.suffix_type_count(
                            gram, r, at_least=at_least
                        ) == oracle_suffix_type_count(raw, gram, r, items, at_least), (
                            "suffix", sents, order, gram, r, at_least,
                        )

    def test_probabilities_match(self):
        rng = random.Random(37)
        for _ in range(20):
            sents = random_sentences(rng, max_sents=4, max_len=5)
            order = rng.randrange(1, 4)
            sched = random_schedule(rng)
            model = train(sents, order=order, discounts=sched)
            raw = oracle_raw_counts(sents, order)
            items = model.vocab.sorted_items()
            for _ in range(15):
                token = rng.choice(items + [EOS])
                ctx = tuple(
                    rng.choice(items + [BOS]) for _ in range(rng.randrange(0, order + 1))
                )
                expected = oracle_kn_prob(raw, order, sched, items, token, ctx)
                assert model.prob(token, ctx) == pytest.approx(expected, abs=1e-12), (
                    sents, order, sched, token, ctx,
                )

    def test_probabilities_equal_scalar_recursion_exactly(self):
        rng = random.Random(53)
        for _ in range(40):
            sents = random_sentences(rng, max_sents=6, max_len=7)
            order = rng.randrange(1, 6)
            sched = random_schedule(rng)
            model = train(sents, order=order, discounts=sched)
            raw = model.raw_counts
            tables = scalar_kn_tables(raw, order)
            items = model.vocab.sorted_items()
            for _ in range(20):
                token = rng.choice(items + [EOS])
                ctx = tuple(
                    rng.choice(items + [BOS]) for _ in range(rng.randrange(0, order + 1))
                )
                expected = scalar_kn_prob(raw, tables, order, sched, len(items), token, ctx)
                assert model.prob(token, ctx) == expected, (sents, order, sched, token, ctx)
            history = (BOS,) * (order - 1)
            logs = []
            for t in [*sents[0], EOS]:
                logs.append(math.log(scalar_kn_prob(raw, tables, order, sched, len(items), t, history)))
                history = (*history, t)[1:]
            assert model.sentence_logprob(sents[0]) == math.fsum(logs)

    def test_sentence_logprob_matches(self):
        rng = random.Random(41)
        for _ in range(15):
            sents = random_sentences(rng, max_sents=4, max_len=5)
            order = rng.randrange(1, 4)
            sched = random_schedule(rng)
            model = train(sents, order=order, discounts=sched)
            raw = oracle_raw_counts(sents, order)
            items = model.vocab.sorted_items()
            target = tuple(rng.choice(ALPHABET) for _ in range(rng.randrange(1, 6)))
            mapped = tuple(model.vocab.map(t) for t in target)
            expected = oracle_sentence_logprob(raw, order, sched, items, mapped)
            assert model.sentence_logprob(target) == pytest.approx(expected, abs=1e-9)


class TestTraining:
    def test_requires_sentences(self):
        with pytest.raises(ValueError, match="at least one sentence"):
            train([], order=2)
        with pytest.raises(ValueError, match="at least one sentence"):
            train_with_estimated_discounts([], order=2)

    def test_rejects_empty_sentence(self):
        with pytest.raises(ValueError, match="non-empty"):
            train([("a",), ()], order=2)
        with pytest.raises(ValueError, match="non-empty"):
            train_with_estimated_discounts([("a", "b"), ()], order=2)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError, match="order"):
            train([("a",)], order=0)
        with pytest.raises(ValueError, match="order"):
            train_with_estimated_discounts([("a",)], order=0)

    def test_explicit_vocab_maps_oov(self):
        vocab = Vocabulary(frozenset({"a", UNK}))
        model = train([("a", "z")], order=2, vocab=vocab)
        assert model.count([UNK]) == 1
        assert model.count(["z"]) == 1  # query-side mapping hits the same cell
        assert model.count(["a", UNK]) == 1
        # A marker inside a sentence is a token outside the vocabulary too.
        model = train([("a", BOS, "a", EOS)], order=2, vocab=vocab)
        assert model.count([BOS]) == 1
        assert model.count([EOS]) == 1
        assert model.count([UNK]) == 2
        assert model.count(["a", UNK]) == 2
        assert model.sentence_logprob(("a", BOS)) == model.sentence_logprob(("a", EOS))
        assert model.sentence_logprob(("a", BOS)) == model.sentence_logprob(("a", UNK))

    def test_sentence_count_recorded(self):
        model = train([("a",), ("b",), ("a",)], order=1)
        assert model.sentence_count == 3

    def test_deterministic(self):
        sents = [("a", "b"), ("c",)]
        assert train(sents, order=3) == train(sents, order=3)

    def test_estimated_discounts_mode(self):
        rng = random.Random(43)
        sents = random_sentences(rng, max_sents=10, max_len=8)
        model = train_with_estimated_discounts(sents, order=2)
        assert model.discounts.mode == "modified"
        assert all(0.0 < d < 1.0 for d in model.discounts.bins)
        total = math.fsum(
            model.prob(t, ("a",)) for t in model.vocab.sorted_items() + [EOS]
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_sentence_logprob_rejects_empty(self):
        model = train([("a",)], order=2)
        with pytest.raises(ValueError, match="empty"):
            model.sentence_logprob(())

    def test_constructor_guards(self):
        vocab = Vocabulary(frozenset({UNK}))
        sched = DiscountSchedule.constant()
        with pytest.raises(ValueError):
            GrammarModel(0, vocab, sched, 1, {})
        with pytest.raises(ValueError):
            GrammarModel(1, vocab, sched, 0, {})

    def test_table_that_does_not_fit_is_rejected(self):
        """A model takes only a one-model table counted at its order over
        its vocabulary and the two markers."""
        sentences = [("a", "b", "a"), ("b", "a")]
        model = train(sentences, order=2)
        vocab, sched = model.vocab, model.discounts
        wider = Vocabulary(vocab.items | {"c"})
        shared = CountTable.from_sentences(*coded([[0, 1], [1, 0]]), [[0], [1]], 2, 5)
        for order, vocab_, table in (
            (3, vocab, model.table),  # an order-2 table under an order-3 model
            (1, vocab, model.table),
            (2, wider, model.table),
            (2, vocab, shared),  # two models' counts
        ):
            with pytest.raises(ValueError, match="does not fit"):
                GrammarModel(order, vocab_, sched, len(sentences), table)
        assert GrammarModel(2, vocab, sched, len(sentences), model.table) == model

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: DiscountSchedule("constant", 0.75, {"x": 1}), "no discount bins"),
            (lambda: DiscountSchedule("constant", 0.75, [0.1, 0.2, 0.3]), "no discount bins"),
            (lambda: DiscountSchedule("modified", "zz", (0.1, 0.2, 0.3)), "lie in"),
            (lambda: DiscountSchedule("modified", 7.0, (0.1, 0.2, 0.3)), "lie in"),
            (lambda: _with_sentence_count(True), "sentence count must be an integer"),
            (lambda: _with_sentence_count(2.5), "sentence count must be an integer"),
        ],
        ids=[
            "constant-bins-object", "constant-bins-list", "modified-discount-string",
            "modified-discount-out-of-range", "sentence-count-bool", "sentence-count-fraction",
        ],
    )
    def test_field_no_model_has(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


def _with_sentence_count(sentence_count):
    """A trained model's fields, with another sentence count."""
    model = train([("a", "b"), ("a", "c")], order=2)
    return GrammarModel(model.order, model.vocab, model.discounts, sentence_count, model.table)


class TestCountTableKept:
    """A trained model scores on the table it was counted with, and its count
    queries, equality and pickling read that table alone."""

    @pytest.fixture()
    def model(self):
        rng = random.Random(47)
        return train(
            random_sentences(rng, max_sents=8),
            order=3,
            discounts=DiscountSchedule.modified(0.4, 0.6, 0.8),
        )

    @pytest.fixture()
    def spell_calls(self, monkeypatch):
        calls = []
        real = GramIndex.spell

        def spy(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(GramIndex, "spell", spy)
        return calls

    @pytest.mark.parametrize("fit", [train, train_with_estimated_discounts])
    def test_trained_models_never_spell_their_table(self, spell_calls, fit):
        """Queries, scoring, equality and printing read the table alone;
        only ``raw_counts`` spells it, once per read, and nothing is kept."""
        rng = random.Random(181)
        vocab = Vocabulary.from_sentences([ALPHABET])
        training = [random_sentences(rng) for _ in range(4)]
        author, *refs = (fit(sentences, 4, vocab=vocab) for sentences in training)
        twin = fit(training[0], 4, vocab=vocab)
        spell_calls.clear()
        assert author.count(("a",)) > 0
        assert author.continuation_count(("a",)) > 0
        author.prefix_type_count(("a",), 1)
        author.suffix_type_count(("a",), 1, at_least=True)
        assert author == twin and author != refs[0]
        repr(author)
        author.prob("a", ("b", "c"))
        author.sentence_logprob(("a", "b", "e"))
        lambda_document([("a", "c"), ("d",)], author, refs)
        assert spell_calls == []
        for _ in range(2):
            assert author.raw_counts
            assert len(spell_calls) == 1 and "raw_counts" not in vars(author)
            spell_calls.clear()

    def test_count_reads_the_table(self, spell_calls):
        """Every count query looks its gram up in the table and never spells
        it, and ``count`` agrees with the spelled raw counts on another
        model's grams and on grams no model counts."""
        rng = random.Random(191)
        vocab = Vocabulary.from_sentences([ALPHABET])
        sentences, others = random_sentences(rng), random_sentences(rng)
        model = train(sentences, 4, vocab=vocab)
        absent = [(EOS, "a"), (BOS, EOS), ("a", BOS), ("z",), ("e", "z", "a", EOS)]
        grams = [*train(others, 4, vocab=vocab).raw_counts, *absent]
        spelled = train(sentences, 4, vocab=vocab).raw_counts
        spell_calls.clear()
        got = [model.count(g) for g in grams]
        for gram in grams:
            model.continuation_count(gram)
            if len(gram) < model.order:
                model.prefix_type_count(gram, 1)
                model.suffix_type_count(gram, 2, at_least=True)
        assert spell_calls == []
        mapped = [tuple(t if t in (BOS, EOS) else vocab.map(t) for t in g) for g in grams]
        assert got == [spelled.get(g, 0) for g in mapped]
        assert any(got) and not all(got)

    def test_equality_discriminates(self, model):
        other = train([("a",)], order=1)
        assert model != other
        assert model != "not a model"

    def test_equality_is_raw_count_equality(self):
        """``==`` compares tables, and agrees with comparing the fields and
        the raw counts on pairs of models whose sentences differ in one
        sentence, at most: the same, another of the list, or a new one."""
        rng = random.Random(197)

        def fields(m):
            return m.order, m.vocab, m.discounts, m.sentence_count, dict(m.raw_counts)

        outcomes = []
        for _ in range(60):
            sents = random_sentences(rng, max_sents=4, max_len=3, alphabet=ALPHABET[:3])
            other = list(sents)
            pick = [*sents, *random_sentences(rng, max_sents=1, max_len=3, alphabet=ALPHABET[:3])]
            other[rng.randrange(len(other))] = rng.choice(pick)
            order, schedule = rng.randrange(1, 4), random_schedule(rng)
            a, b = (train(s, order, discounts=schedule) for s in (sents, other))
            same = fields(a) == fields(b)
            assert (a == b) is same and (b == a) is same, (sents, other, order)
            outcomes.append(same)
        assert any(outcomes) and not all(outcomes)

    def test_pickles_after_every_query(self, model):
        """A model that has answered every kind of query pickles, and the
        copy equals it."""
        model.count(("a",))
        model.continuation_count(("a",))
        model.prefix_type_count(("a",), 1)
        model.suffix_type_count((), 1, at_least=True)
        model.prob("b", ("a",))
        model.sentence_logprob(("a", "c"))
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model and clone.prob("b", ("a",)) == model.prob("b", ("a",))


# Coded sentences over four tokens (codes 0-3; 4 and 5 are the markers), a
# few repeated, and models that train on repeated sentence numbers.
@st.composite
def counted_models(draw):
    sentence = st.lists(st.integers(0, 3), min_size=1, max_size=6)
    distinct = draw(st.lists(sentence, min_size=1, max_size=4))
    sentences = distinct + draw(st.lists(st.sampled_from(distinct), max_size=3))
    model = st.lists(st.integers(0, len(sentences) - 1), min_size=1, max_size=6)
    return sentences, draw(st.lists(model, min_size=1, max_size=4))


class TestCountOfCounts:
    """A table's count-of-counts are, per model, how many of its top-order
    grams count 1, 2, 3 and 4, as the every-window oracle counts them. A
    table counted for queries holds only the grams they read, so it has
    none to give."""

    @settings(max_examples=50, deadline=None)
    @given(counted=counted_models(), order=st.integers(1, 6), data=st.data())
    def test_equal_the_oracle(self, counted, order, data):
        sentences, models = counted
        low = data.draw(st.integers(1, order))
        table = CountTable.from_sentences(*coded(sentences), models, order, 6).truncated(low)
        want = []
        for rows in models:
            raw = oracle_raw_counts([sentences[i] for i in rows], low)
            top = Counter(c for gram, c in raw.items() if len(gram) == low)
            want.append({k: top[k] for k in (1, 2, 3, 4)})
        assert table.count_of_counts() == want

    def test_a_table_counted_for_queries_is_refused(self):
        table = CountTable.from_sentences(*coded([[0, 1, 2], [1, 2]]), [[0]], 3, 6, queries=1)
        for cut in (table, table.truncated(2)):
            with pytest.raises(ValueError, match="without queries"):
                cut.count_of_counts()


class TestTruncatedTable:
    """A table counted at order N and cut to n < N is the table counted at
    order n, array for array: the sweep scores every order of its grid from
    one count."""

    @settings(max_examples=50, deadline=None)
    @given(
        counted=counted_models(),
        orders=st.lists(st.integers(1, 6), min_size=2, max_size=2, unique=True),
    )
    def test_equals_counting_at_the_lower_order(self, counted, orders):
        sentences, models = counted
        low, high = sorted(orders)
        cut = CountTable.from_sentences(*coded(sentences), models, high, 6).truncated(low)
        direct = CountTable.from_sentences(*coded(sentences), models, low, 6)
        assert cut.index.order == direct.index.order == low
        for got, want in zip(cut.index.keys, direct.index.keys, strict=True):
            assert np.array_equal(got, want)
        assert np.array_equal(cut.index.suffix, direct.index.suffix)
        assert np.array_equal(cut.index.starts, direct.index.starts)
        assert cut.n_models == direct.n_models
        assert np.array_equal(cut.keys, direct.keys)
        assert np.array_equal(cut.counts, direct.counts)
        assert cut.count_of_counts() == direct.count_of_counts()

    def test_own_order_is_the_table_and_others_are_rejected(self):
        table = CountTable.from_sentences(*coded([[0, 1, 2]]), [[0]], 3, 6)
        assert table.truncated(3) is table
        for order in (0, 4):
            with pytest.raises(ValueError, match="order"):
                table.truncated(order)



discount_schedules = st.one_of(
    st.floats(0.05, 0.95).map(DiscountSchedule.constant),
    st.tuples(*[st.floats(0.05, 0.95)] * 3).map(lambda bins: DiscountSchedule.modified(*bins)),
)


@st.composite
def scored_tables(draw):
    """A table of :func:`counted_models` at order 1-6, possibly cut to a
    lower order, and one schedule per model from a pool of up to three, so
    that models share schedules or mix the two modes."""
    sentences, models = draw(counted_models())
    order = draw(st.integers(1, 6))
    table = CountTable.from_sentences(*coded(sentences), models, order, 6).truncated(
        draw(st.integers(1, order))
    )
    pool = draw(st.lists(discount_schedules, min_size=1, max_size=3))
    schedules = st.lists(st.sampled_from(pool), min_size=len(models), max_size=len(models))
    return table, draw(schedules)


class TestDemandDrivenKernel:
    """The kernel builds its statistics only where the queries reach, and
    gives the same probabilities, bit for bit, as the kernel that built them
    for the whole table."""

    @settings(max_examples=150, deadline=None)
    @given(
        scored=scored_tables(),
        queries=st.lists(st.lists(st.integers(0, 3), max_size=7), max_size=3),
    )
    def test_sentence_streams(self, scored, queries):
        table, discounts = scored
        tokens, prev, starts = token_stream(*coded(queries), 6)
        positions = np.setdiff1d(np.arange(len(tokens)), starts)
        want = whole_table_kneser_ney_probs(table, discounts, tokens, prev, positions)
        got = sentence_probs(table, discounts, table.index.encode(tokens, prev), coded(queries)[1])
        assert got.shape == (table.n_models, len(positions))
        assert np.array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(scored=scored_tables(), context=st.lists(st.integers(0, 5), max_size=7))
    def test_distribution_streams(self, scored, context):
        """One context, the markers allowed in it, then every code after it,
        as ``GrammarModel.prob`` queries: an end marker in the context makes
        a context no model holds."""
        table, discounts = scored
        n = len(context)
        tokens = np.array([*context, *range(6)], dtype=np.int64)
        prev = np.append(np.arange(-1, n - 1), np.full(6, n - 1)).astype(np.int64)
        positions = np.arange(n, n + 6)
        want = whole_table_kneser_ney_probs(table, discounts, tokens, prev, positions)
        ids = table.index.encode(tokens, prev)
        assert np.array_equal(kneser_ney_probs(table, discounts, ids, prev, positions)[0], want)

    @settings(max_examples=150, deadline=None)
    @given(
        scored=scored_tables(),
        stream=st.lists(st.tuples(st.integers(0, 5), st.booleans(), st.booleans()), max_size=12),
    )
    def test_raw_tables_with_cut_streams(self, scored, stream):
        """A table queried on a stream of any codes, the markers included,
        where some positions have predecessor -1 and any subset of
        positions, none included, is scored."""
        table, discounts = scored
        tokens = np.array([code for code, _, _ in stream], dtype=np.int64)
        prev = np.array(
            [i - 1 if joined and i else -1 for i, (_, joined, _) in enumerate(stream)],
            dtype=np.int64,
        )
        positions = np.flatnonzero([queried for _, _, queried in stream]).astype(np.int64)
        want = whole_table_kneser_ney_probs(table, discounts, tokens, prev, positions)
        ids = table.index.encode(tokens, prev)
        got = kneser_ney_probs(table, discounts, ids, prev, positions)[0]
        assert got.shape == (table.n_models, len(positions))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("mode", ["constant", "modified"])
    def test_paper_defaults(self, mode, monkeypatch):
        """Every kernel call of a synthetic problem scored at the paper's
        defaults (order 10, 100 references), where the questioned
        document's queries reach only part of the table, against the
        whole-table kernel on the table that counts every window. In
        constant mode the counter sees the document, keeps only what its
        queries read and hands over its gram ids, and nothing encodes it; in
        modified mode the counter does not see it, and it is encoded."""
        corpus = synth_corpus(seed=3, authors=5, sentences_per_doc=12)
        count, query = CountTable.from_sentences.__func__, scoring.sentence_probs
        encode = GramIndex.encode
        counted, encoded, same = [], [], []
        scored_after = []  # what was encoded when each query came, before the oracle encodes

        def counting(cls, flat, lengths, models, order, width, queries=0):
            table = count(cls, flat, lengths, models, order, width, queries)
            ends = np.cumsum(lengths).tolist()
            sentences = [flat[a:b].tolist() for a, b in pairwise([0, *ends])]
            # The training sentences: all but the last ``queries``, the document.
            training = sentences[: len(sentences) - queries]
            full = oracle_count_table(training, models, order, width)
            counted.append((table, full, sentences[len(training) :]))
            return table

        def encoding(index, tokens, prev):
            encoded.append((tokens, prev))
            return encode(index, tokens, prev)

        def checked(table, discounts, ids, lengths, orders=None):
            got = query(table, discounts, ids, lengths, orders=orders)
            scored_after.append(list(encoded))
            if mode == "constant":  # the document the counter saw
                assert lengths.tolist() == list(map(len, counted[-1][2]))
                tokens, prev, _ = token_stream(*coded(counted[-1][2]), table.index.width)
            else:  # the stream scoring encoded
                tokens, prev = scored_after[-1][-1]
            assert len(tokens) == int(np.sum(lengths + 2)) == ids.shape[1] - 1
            positions = np.setdiff1d(np.arange(len(tokens)), np.cumsum(lengths + 2) - lengths - 2)
            for order, probs in zip(orders or [table.index.order], got, strict=True):
                full = counted[-1][1].truncated(order)
                want = whole_table_kneser_ney_probs(full, discounts, tokens, prev, positions)
                same.append(np.array_equal(probs, want))
            return got

        monkeypatch.setattr(CountTable, "from_sentences", classmethod(counting))
        monkeypatch.setattr(GramIndex, "encode", encoding)
        monkeypatch.setattr(scoring, "sentence_probs", checked)
        config = LambdaConfig(order=10, refs=100, discount_mode=mode)
        verify_problem(corpus.problems[0], corpus.reference_docs, config)
        assert same and all(same)
        ((table, full, document),) = counted
        if mode == "constant":
            assert document and scored_after == [[]]
            assert len(table.keys) <= 0.6 * len(full.keys)
        else:
            assert not document and [len(e) for e in scored_after] == [1]
            assert np.array_equal(table.keys, full.keys)
            assert np.array_equal(table.counts, full.counts)

    @pytest.mark.parametrize("n_models", [255, 256, 257])
    def test_entry_ranks_wider_than_a_byte(self, n_models):
        """A gram's entries are found by each one's place in the gram's run,
        held in one byte up to 256 models and in two above. Every model
        holds the root, so its run reaches place ``n_models - 1``."""
        rng = np.random.default_rng(n_models)
        sentences = [rng.integers(0, 4, rng.integers(1, 8)).tolist() for _ in range(40)]
        models = [rng.integers(0, 40, rng.integers(1, 6)).tolist() for _ in range(n_models)]
        pool = [DiscountSchedule.constant(0.6), DiscountSchedule.modified(0.4, 0.7, 0.9)]
        discounts = [pool[m % 2] for m in range(n_models)]
        table = CountTable.from_sentences(*coded(sentences), models, 4, 6)
        queries = [rng.integers(0, 4, 9).tolist() for _ in range(3)]
        tokens, prev, starts = token_stream(*coded(queries), 6)
        positions = np.setdiff1d(np.arange(len(tokens)), starts)
        ids = table.index.encode(tokens, prev)
        got = kneser_ney_probs(table, discounts, ids, prev, positions, orders=[2, 4])
        for order, probs in zip([2, 4], got, strict=True):
            cut = table.truncated(order)
            want = whole_table_kneser_ney_probs(cut, discounts, tokens, prev, positions)
            assert np.array_equal(probs, want), order

    @pytest.mark.parametrize("seed", range(5))
    def test_entries_no_query_reaches(self, seed):
        """One token queried without context reaches the unigrams and, as
        extensions, the bigrams, but no trigram: the kernel reads a trained
        order-4 model's table through a copy of the reached entries. A
        table counted for that token as a sentence holds only what the
        sentence's queries reach, and is read as it is. Both equal the
        whole-table kernel on the table of every window."""
        rng = random.Random(seed)
        sentences = random_sentences(rng, max_sents=8)
        schedule = random_schedule(rng)
        model = train(sentences, order=4, discounts=schedule)
        assert len(model.table.index.keys[2]) > 0  # some entries are not reached
        training = [[token_codes(model.vocab.sorted_items())[t] for t in s] for s in sentences]
        token = rng.randrange(len(model.vocab))
        tokens, prev, positions = np.array([token]), np.array([-1]), np.array([0])
        want = whole_table_kneser_ney_probs(model.table, [schedule], tokens, prev, positions)
        ids = model.table.index.encode(tokens, prev)
        got = kneser_ney_probs(model.table, [schedule], ids, prev, positions)[0]
        assert np.array_equal(got, want)

        width = model.table.index.width
        kept = CountTable.from_sentences(
            *coded([*training, [token]]), [range(len(training))], 4, width, queries=1
        )
        tokens, prev, starts = token_stream(*coded([[token]]), width)
        positions = np.setdiff1d(np.arange(len(tokens)), starts)
        want = whole_table_kneser_ney_probs(model.table, [schedule], tokens, prev, positions)
        ids = kept.index.encode(tokens, prev)
        got = kneser_ney_probs(kept, [schedule], ids, prev, positions)[0]
        assert np.array_equal(got, want)


class TestKernelOrders:
    """One kernel call returns every requested order, each equal bit for
    bit to the whole-table kernel on the table truncated to it."""

    @settings(max_examples=150, deadline=None)
    @given(
        scored=scored_tables(),
        queries=st.lists(st.lists(st.integers(0, 3), max_size=7), max_size=3),
        data=st.data(),
    )
    def test_every_order_equals_the_truncated_table(self, scored, queries, data):
        table, discounts = scored
        top = table.index.order
        orders = data.draw(st.lists(st.integers(1, top), min_size=1, max_size=top, unique=True))
        tokens, prev, starts = token_stream(*coded(queries), 6)
        positions = np.setdiff1d(np.arange(len(tokens)), starts)
        ids = table.index.encode(tokens, prev)
        got = kneser_ney_probs(table, discounts, ids, prev, positions, orders=orders)
        assert got.shape == (len(orders), table.n_models, len(positions))
        for order, probs in zip(orders, got):
            cut = table.truncated(order)
            want = whole_table_kneser_ney_probs(cut, discounts, tokens, prev, positions)
            assert np.array_equal(probs, want), order

    def test_orders_outside_the_table_are_rejected(self):
        table = CountTable.from_sentences(*coded([[0, 1, 2]]), [[0]], 3, 6)
        tokens, prev, _ = token_stream(*coded([[0, 1]]), 6)
        for orders in ([], [0], [4], [2, 4]):
            with pytest.raises(ValueError, match="orders"):
                kneser_ney_probs(
                    table, [DiscountSchedule.constant()], tokens, prev, np.arange(1, 4), orders
                )

    @settings(max_examples=60, deadline=None)
    @given(
        sentences=st.lists(
            st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=6), min_size=1, max_size=5
        ),
        order=st.integers(2, 5),
        schedule=discount_schedules,
    )
    def test_prob_without_context(self, sentences, order, schedule):
        """With no context, every query's predecessor is -1, so it has no
        unigram context and reads the unigram level alone."""
        model = train(sentences, order=order, discounts=schedule)
        items = [*model.vocab.sorted_items(), EOS]
        width = len(items) + 1
        codes = np.arange(width)
        want = whole_table_kneser_ney_probs(
            model.table, [schedule], codes, np.full(width, -1), codes
        )[0]
        tables = scalar_kn_tables(model.raw_counts, order)
        for t in items:
            got = model.prob(t, ())
            assert got == want[token_codes(model.vocab.sorted_items())[t]]
            assert got == scalar_kn_prob(
                model.raw_counts, tables, order, schedule, len(items) - 1, t, ()
            )


class TestQueryFilteredCounting:
    """Counting for known queries keeps only the grams the kernel can read
    for them, each with its full count, and the kernel gives the same
    probabilities on that table as the whole-table kernel on the table of
    every window; counting without queries is that table."""

    @settings(max_examples=50, deadline=None)
    @given(counted=counted_models(), order=st.integers(1, 6))
    def test_without_queries_every_window_is_counted(self, counted, order):
        sentences, models = counted
        got = CountTable.from_sentences(*coded(sentences), models, order, 6)
        want = oracle_count_table(sentences, models, order, 6)
        for got_keys, want_keys in zip(got.index.keys, want.index.keys, strict=True):
            assert np.array_equal(got_keys, want_keys)
        assert np.array_equal(got.index.suffix, want.index.suffix)
        assert np.array_equal(got.keys, want.keys)
        assert np.array_equal(got.counts, want.counts)

    @pytest.mark.parametrize("filtered", [False, True])
    @settings(max_examples=100, deadline=None)
    @given(
        counted=counted_models(),
        queries=st.lists(st.lists(st.integers(0, 3), max_size=7), min_size=1, max_size=3),
        order=st.integers(1, 6),
        data=st.data(),
    )
    def test_every_entry_past_the_roots_counts_at_least_one(
        self, filtered, counted, queries, order, data
    ):
        """Each model's root is its entry with count 0, and every other
        entry of a counted table, cut to any order, counts at least 1."""
        sentences, models = counted
        queries = queries if filtered else []
        table = CountTable.from_sentences(
            *coded([*sentences, *queries]), models, order, 6, queries=len(queries)
        ).truncated(data.draw(st.integers(1, order)))
        n = table.n_models
        assert table.keys[:n].tolist() == list(range(n))
        assert table.counts[:n].tolist() == [0] * n
        assert table.counts[n:].min(initial=1) >= 1

    @settings(max_examples=200, deadline=None)
    @given(
        counted=counted_models(),
        queries=st.lists(st.lists(st.integers(0, 3), max_size=7), max_size=3),
        order=st.integers(1, 6),
        data=st.data(),
    )
    def test_kept_counts_and_probabilities_equal_the_full_table(
        self, counted, queries, order, data
    ):
        sentences, models = counted
        low = data.draw(st.one_of(st.none(), st.integers(1, order)))
        table = CountTable.from_sentences(
            *coded([*sentences, *queries]), models, order, 6, queries=len(queries)
        )
        full = oracle_count_table(sentences, models, order, 6)
        if low is not None:
            table, full = table.truncated(low), full.truncated(low)
        pool = data.draw(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3))
        discounts = [DiscountSchedule.constant(data.draw(st.sampled_from(pool))) for _ in models]

        tokens, prev, starts = token_stream(*coded(queries), 6)
        positions = np.setdiff1d(np.arange(len(tokens)), starts)
        want = whole_table_kneser_ney_probs(full, discounts, tokens, prev, positions)
        encoded = table.index.encode(tokens, prev)
        # A table counted for queries also answers on the ids it holds, the
        # ones scoring hands the kernel.
        for ids in [encoded, table.queried] if queries else [encoded]:
            got = kneser_ney_probs(table, discounts, ids, prev, positions)[0]
            assert np.array_equal(got, want)

        def entries(t):
            grams = t.index.spell(range(6))
            n = t.n_models
            return {
                (grams[k // n], k % n): c for k, c in zip(t.keys.tolist(), t.counts.tolist())
            }

        kept, every = entries(table), entries(full)
        assert kept.items() <= every.items()

    @settings(max_examples=200, deadline=None)
    @given(
        counted=counted_models(),
        # Code 4 is a form no counted sentence holds.
        queries=st.lists(st.lists(st.integers(0, 4), max_size=7), min_size=1, max_size=3),
        order=st.integers(1, 6),
    )
    @example(counted=([[0, 1]], [[0]]), queries=[[4]], order=1)
    @example(counted=([[0, 1, 2]], [[0]]), queries=[[0, 1, 2], [3, 1, 2]], order=3)
    @example(counted=([[0, 1]], [[0]]), queries=[[0, 1, 0, 1, 0, 1, 0]], order=6)
    def test_keeps_exactly_the_grams_its_rules_name(self, counted, queries, order):
        """The index holds each gram the three rules name once, and no
        other; the table holds every model's entry of each, with its full
        count, and no other entry."""
        sentences, models = counted
        table = CountTable.from_sentences(
            *coded([*sentences, *queries]), models, order, 7, queries=len(queries)
        )
        kept = oracle_query_kept_grams(sentences, queries, order, 7)
        grams = table.index.spell(range(7))
        assert len(grams) == len(kept) and set(grams) == kept

        def entries(t):
            spelled, n = t.index.spell(range(7)), t.n_models
            return {
                (spelled[k // n], k % n): c for k, c in zip(t.keys.tolist(), t.counts.tolist())
            }

        full = entries(oracle_count_table(sentences, models, order, 7))
        assert entries(table) == {key: c for key, c in full.items() if key[0] in kept}


class TestUniqueInverse:
    """The level keys' unique, a rank over a dense range or one plain sort
    of values packed above their places, is ``np.unique(values,
    return_inverse=True)``, and is that call itself where the packed values
    would not fit in 63 bits."""

    @staticmethod
    def check(values, bound):
        values = np.array(values, dtype=np.int64)
        want_unique, want_inverse = np.unique(values, return_inverse=True)
        got_unique, got_inverse = ngram._unique_inverse(values, bound)
        assert got_unique.dtype == got_inverse.dtype == np.int64
        assert np.array_equal(got_unique, want_unique)
        assert np.array_equal(got_inverse, want_inverse.reshape(-1))

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.one_of(
            st.lists(st.integers(0, 40), max_size=60),
            st.lists(st.integers(0, 2**40), max_size=20),
        ),
        fits=st.booleans(),
    )
    @example(values=[], fits=True)
    @example(values=[7], fits=True)
    @example(values=[3] * 9, fits=True)
    def test_equals_numpy_unique(self, values, fits):
        bound = max(values, default=0) + 1 if fits else 2**63
        self.check(values, bound)

    @pytest.mark.parametrize("size", [1, 2, 5, 1024])
    def test_keys_at_the_packing_bound(self, size):
        """Values that fill every bit of the packed key beside their place,
        the largest that fit, and one bit more, which falls back."""
        shift = (size - 1).bit_length()
        top = 2 ** (63 - shift) - 1
        values = [top, 0, top, top - 1, 1][:size] + list(range(max(size - 5, 0)))
        self.check(values, top + 1)  # packed
        self.check(values, top + 2)  # falls back to np.unique

    @pytest.mark.parametrize("size", [1, 2, 7, 100])
    @pytest.mark.parametrize("slack", [-1, 0, 1], ids=["dense", "at-ratio", "sorted"])
    def test_either_side_of_the_dense_ratio(self, size, slack, monkeypatch):
        """A range of up to ``_DENSE`` values per value is ranked, a wider
        one sorted; both hold the range's ends and repeats."""
        bound = ngram._DENSE * size + slack
        values = ([bound - 1, 0, bound - 1] + list(range(1, bound, 5)))[:size]
        ranked = []
        zeros = np.zeros
        monkeypatch.setattr(np, "zeros", lambda *a, **k: ranked.append(a) or zeros(*a, **k))
        self.check(values, bound)
        assert bool(ranked) == (slack <= 0)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.integers(0, 100), min_size=1, max_size=40), data=st.data())
    def test_any_bound_around_the_ratio(self, values, data):
        low = max(values) + 1
        self.check(values, data.draw(st.integers(low, max(low, ngram._DENSE * len(values)) + 9)))


class TestDenseAndSparseLevels:
    """Tables whose short levels are dense (their (gram, model) keys span
    at most ``_DENSE`` times their windows) and whose long levels are
    sparse equal the every-window oracle, and their kept entries its
    entries: the counter tabulates every level the same way, whatever its
    density."""

    @staticmethod
    def sides(table):
        """Per level, whether its (gram, model) key span is at most
        ``_DENSE`` times its windows: the level's windows are its counts'
        sum."""
        n = table.n_models
        spans = np.diff(table.index.starts[1:]) * n
        level = table.index.level[table.keys // n]
        windows = np.bincount(level, weights=table.counts, minlength=len(spans) + 1)[1:]
        return (spans <= ngram._DENSE * windows).tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        sentences=st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=8),
                           min_size=9, max_size=14),
        n_models=st.integers(2, 12),
        order=st.integers(2, 6),
        queried=st.booleans(),
        data=st.data(),
    )
    def test_straddling_tables_equal_the_oracle(self, sentences, n_models, order, queried, data):
        # Models of one sentence each, of many indexed: the short grams are
        # dense, and the long ones, each in few sentences, sparse.
        models = [[data.draw(st.integers(0, len(sentences) - 1))] for _ in range(n_models)]
        queries = sentences[:1] if queried else []
        table = CountTable.from_sentences(
            *coded([*sentences, *queries]), models, order, 6, queries=len(queries)
        )
        full = oracle_count_table(sentences, models, order, 6)
        n = table.n_models
        sides = self.sides(full)
        assume(any(sides) and not all(sides))
        if not queried:
            assert np.array_equal(table.keys, full.keys)
            assert np.array_equal(table.counts, full.counts)

        def entries(t):
            grams = t.index.spell(range(6))
            return {(grams[k // n], k % n): c for k, c in zip(t.keys.tolist(), t.counts.tolist())}

        kept, every = entries(table), entries(full)
        assert kept.items() <= every.items()
        kept_grams = set(table.index.spell(range(6)))
        assert kept == {key: c for key, c in every.items() if key[0] in kept_grams}

    def test_one_table_counts_on_both_sides(self):
        rng = random.Random(5)
        sentences = [[rng.randrange(4) for _ in range(6)] for _ in range(12)]
        models = [[i] for i in range(0, 12, 3)]
        table = CountTable.from_sentences(*coded(sentences), models, 5, 6)
        sides = self.sides(table)
        assert sides[0] and not sides[-1]
        full = oracle_count_table(sentences, models, 5, 6)
        assert np.array_equal(table.keys, full.keys)
        assert np.array_equal(table.counts, full.counts)


class TestQueriedIds:
    """A table counted for queries holds the gram ids of their stream, as
    :meth:`GramIndex.encode` gives them on its index, the top level
    included, and only those: the kernel reads them in place of encoding
    the queries again."""

    @settings(max_examples=200, deadline=None)
    @given(
        counted=counted_models(),
        # Code 4 is a form no counted sentence holds.
        queries=st.lists(st.lists(st.integers(0, 4), max_size=7), min_size=1, max_size=3),
        order=st.integers(1, 6),
    )
    @example(counted=([[0, 1]], [[0]]), queries=[[4]], order=1)  # a unigram no model holds
    @example(counted=([[0, 1, 2]], [[0]]), queries=[[0, 1, 2], [3, 1, 2]], order=3)
    @example(counted=([[0, 1]], [[0]]), queries=[[0, 1, 0, 1, 0, 1, 0]], order=6)
    def test_equal_encode_of_the_queries_stream(self, counted, queries, order):
        sentences, models = counted
        table = CountTable.from_sentences(
            *coded([*sentences, *queries]), models, order, 7, queries=len(queries)
        )
        tokens, prev, _ = token_stream(*coded(queries), 7)
        assert table.queried.shape == (order, len(tokens) + 1)
        assert table.queried.base is None  # not a view of every counted window's ids
        assert np.array_equal(table.queried, table.index.encode(tokens, prev))
        for low in range(1, order):
            cut = table.truncated(low)
            assert cut.queried is table.queried
            # At or past the cut index's size, an id is missing.
            ids = np.minimum(cut.queried[:low], cut.index.missing)
            assert np.array_equal(ids, cut.index.encode(tokens, prev))

    def test_a_table_counted_without_queries_holds_none(self):
        table = CountTable.from_sentences(*coded([[0, 1, 2]]), [[0]], 3, 6)
        assert table.queried is None and table.truncated(2).queried is None


class TestConstantDiscount:
    """When every model has one constant schedule, the kernel takes its
    discount as one number. Its probabilities equal the whole-table
    kernel's bit for bit, whether the models share one schedule object or
    hold equal ones, on the queried ids of a table counted for the queries,
    cut to any order, or on encoded ids; a model whose schedule differs
    sends the call down the general path, which equals it too."""

    @settings(max_examples=200, deadline=None)
    @given(
        counted=counted_models(),
        queries=st.lists(st.lists(st.integers(0, 3), max_size=7), min_size=1, max_size=3),
        order=st.integers(1, 6),
        d=st.floats(0.05, 0.95),
        sharing=st.sampled_from(["one object", "equal objects", "one differs"]),
        filtered=st.booleans(),
        data=st.data(),
    )
    def test_equals_the_whole_table_kernel(
        self, counted, queries, order, d, sharing, filtered, data
    ):
        sentences, models = counted
        assume(sharing != "one differs" or len(models) > 1)
        n_queries = len(queries) if filtered else 0
        table = CountTable.from_sentences(
            *coded([*sentences, *queries[:n_queries]]), models, order, 6, queries=n_queries
        )
        full = oracle_count_table(sentences, models, order, 6)
        low = data.draw(st.integers(1, order))
        orders = data.draw(st.lists(st.integers(1, low), min_size=1, max_size=low, unique=True))
        cut = table.truncated(low)
        schedule = DiscountSchedule.constant(d)
        if sharing == "one object":
            discounts = [schedule] * len(models)
        else:
            discounts = [DiscountSchedule.constant(d) for _ in models]
            if sharing == "one differs":
                other = data.draw(discount_schedules.filter(lambda s: s != schedule))
                discounts[data.draw(st.integers(0, len(models) - 1))] = other

        tokens, prev, starts = token_stream(*coded(queries), 6)
        positions = np.setdiff1d(np.arange(len(tokens)), starts)
        ids = table.queried if filtered else cut.index.encode(tokens, prev)
        got = sentence_probs(cut, discounts, ids, coded(queries)[1], orders)
        for o, probs in zip(orders, got, strict=True):
            want = whole_table_kneser_ney_probs(full.truncated(o), discounts, tokens, prev, positions)
            assert np.array_equal(probs, want), o


class TestCodeNumbering:
    """Codes only name tokens: numbering a table's vocabulary in another
    order, the markers kept last, leaves every probability bit-identical,
    whether the table was counted for the queries or over every window."""

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(2, 5),
        order=st.integers(1, 5),
        mode=st.sampled_from(["constant", "modified"]),
        filtered=st.booleans(),
        data=st.data(),
    )
    def test_permuted_codes_give_identical_probabilities(
        self, size, order, mode, filtered, data
    ):
        token = st.integers(0, size - 1)
        sentences = data.draw(st.lists(st.lists(token, min_size=1, max_size=6), min_size=1,
                                       max_size=5))
        models = data.draw(st.lists(st.lists(st.integers(0, len(sentences) - 1), min_size=1,
                                             max_size=5), min_size=1, max_size=3))
        queries = data.draw(st.lists(st.lists(token, min_size=1, max_size=6), min_size=1,
                                     max_size=3))
        bins = st.floats(0.05, 0.95)
        schedule = (
            bins.map(DiscountSchedule.constant) if mode == "constant"
            else st.tuples(bins, bins, bins).map(lambda ds: DiscountSchedule.modified(*ds))
        )
        discounts = [data.draw(schedule) for _ in models]
        orders = data.draw(st.lists(st.integers(1, order), min_size=1, max_size=order,
                                    unique=True))
        # A permutation of the vocabulary's codes; the markers keep theirs.
        width = size + 2
        perm = np.array([*data.draw(st.permutations(range(size))), size, size + 1])
        counted = [*sentences, *queries] if filtered else sentences
        flat, lengths = coded(counted)
        query_flat, query_lengths = coded(queries)
        n_queries = len(queries) if filtered else 0

        def probs(codes):
            table = CountTable.from_sentences(codes[flat], lengths, models, order, width, n_queries)
            tokens, prev, starts = token_stream(codes[query_flat], query_lengths, width)
            positions = np.setdiff1d(np.arange(len(tokens)), starts)
            ids = table.index.encode(tokens, prev)
            return table, kneser_ney_probs(table, discounts, ids, prev, positions, orders)

        table, want = probs(np.arange(width))
        permuted, got = probs(perm)
        assert got.shape == (len(orders), len(models), int(query_lengths.sum() + len(queries)))
        assert np.array_equal(got, want)
        if not filtered:
            assert permuted.count_of_counts() == table.count_of_counts()
