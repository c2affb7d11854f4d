import hashlib
import json
import math
import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    oracle_continuation_count,
    oracle_kn_prob,
    oracle_prefix_type_count,
    oracle_raw_counts,
    oracle_sentence_logprob,
    oracle_suffix_type_count,
    scalar_kn_prob,
    scalar_kn_tables,
)

from grammarlr.errors import ModelFormatError
from grammarlr.ngram import (
    BOS,
    EOS,
    UNK,
    DiscountSchedule,
    GrammarModel,
    Vocabulary,
    deserialize_model,
    dump_model,
    serialize_model,
    train,
    train_with_estimated_discounts,
)

ALPHABET = ("a", "b", "c", "d", "e")


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

    def test_modified_requires_bins(self):
        with pytest.raises(ValueError, match="three discount bins"):
            DiscountSchedule(mode="modified")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown discount mode"):
            DiscountSchedule(mode="turbo")

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

    def test_sentence_count_recorded(self):
        model = train([("a",), ("b",), ("a",)], order=1)
        assert model.sentence_count == 3

    def test_deterministic(self):
        sents = [("a", "b"), ("c",)]
        assert train(sents, order=3) == train(sents, order=3)
        assert serialize_model(train(sents, order=3)) == serialize_model(
            train(sents, order=3)
        )

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


class TestSerialization:
    @pytest.fixture()
    def model(self):
        rng = random.Random(47)
        return train(
            random_sentences(rng, max_sents=8),
            order=3,
            discounts=DiscountSchedule.modified(0.4, 0.6, 0.8),
        )

    def test_round_trip_identity(self, model):
        clone = deserialize_model(serialize_model(model))
        assert clone == model
        assert clone.prob("b", ("a",)) == model.prob("b", ("a",))
        assert serialize_model(clone) == serialize_model(model)

    def test_truncated_blob(self, model):
        data = serialize_model(model)
        with pytest.raises(ModelFormatError, match="truncated"):
            deserialize_model(data[:-3])

    def test_too_short_for_header(self):
        with pytest.raises(ModelFormatError, match="too short"):
            deserialize_model(b"GLRM")

    def test_bad_magic(self, model):
        data = serialize_model(model)
        with pytest.raises(ModelFormatError, match="magic"):
            deserialize_model(b"XXXX" + data[4:])

    def test_unsupported_version(self, model):
        data = serialize_model(model)
        tampered = data[:4] + (99).to_bytes(2, "big") + data[6:]
        with pytest.raises(ModelFormatError, match="version"):
            deserialize_model(tampered)

    def test_corrupt_payload(self, model):
        data = bytearray(serialize_model(model))
        data[-1] ^= 0xFF
        with pytest.raises(ModelFormatError, match="checksum"):
            deserialize_model(bytes(data))

    def test_dump_is_readable(self, model):
        text = dump_model(model)
        assert "order: 3" in text
        assert "raw counts:" in text

    def test_equality_discriminates(self, model):
        other = train([("a",)], order=1)
        assert model != other
        assert model != "not a model"


def _payload(model):
    return json.loads(zlib.decompress(serialize_model(model)[46:]))


def _blob(payload):
    """Serialize an arbitrary payload with a valid header and checksum."""
    body = zlib.compress(json.dumps(payload, sort_keys=True).encode("utf-8"))
    return (
        b"GLRM"
        + (1).to_bytes(2, "big")
        + len(body).to_bytes(8, "big")
        + hashlib.sha256(body).digest()
        + body
    )


class TestImpossibleCountTables:
    """Payloads that pass the checksum but hold a table no training run
    produces must be rejected, not turned into a model."""

    @pytest.fixture()
    def payload(self):
        return _payload(train([("a", "b"), ("a", "c")], order=2))

    def test_valid_payload_loads(self, payload):
        assert deserialize_model(_blob(payload)) == train([("a", "b"), ("a", "c")], order=2)

    @pytest.mark.parametrize(
        "entry",
        [[[], 1], [["a", "b", "c"], 1]],
        ids=["empty-gram", "gram-longer-than-order"],
    )
    def test_gram_length(self, payload, entry):
        payload["raw_counts"].append(entry)
        with pytest.raises(ModelFormatError, match="1..2 tokens"):
            deserialize_model(_blob(payload))

    @pytest.mark.parametrize("token", ["zzz", "", 7], ids=["oov", "empty", "number"])
    def test_token_outside_vocabulary(self, payload, token):
        payload["raw_counts"].append([["a", token], 1])
        with pytest.raises(ModelFormatError, match="outside the vocabulary"):
            deserialize_model(_blob(payload))

    @pytest.mark.parametrize(
        "count", [0, -4, True, 1.7, 2.0, "3"], ids=["zero", "negative", "bool", "fraction", "float", "string"]
    )
    def test_count_not_positive_integer(self, payload, count):
        payload["raw_counts"][0][1] = count
        with pytest.raises(ModelFormatError, match="not a positive integer"):
            deserialize_model(_blob(payload))

    def test_duplicate_gram(self, payload):
        gram, count = payload["raw_counts"][0]
        payload["raw_counts"].append([gram, count + 1])
        with pytest.raises(ModelFormatError, match="appears twice"):
            deserialize_model(_blob(payload))

    def test_order_not_integer(self, payload):
        payload["order"] = 2.0
        with pytest.raises(ModelFormatError, match="order must be an integer"):
            deserialize_model(_blob(payload))


schedules = st.one_of(
    st.floats(0.05, 0.95).map(DiscountSchedule.constant),
    st.tuples(*[st.floats(0.05, 0.95)] * 3).map(lambda b: DiscountSchedule.modified(*b)),
)
training_sets = st.lists(
    st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=6).map(tuple),
    min_size=1,
    max_size=5,
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


class TestSerializationProperties:
    @settings(max_examples=25, deadline=None)
    @given(sentences=training_sets, order=st.integers(1, 4), schedule=schedules)
    def test_round_trip(self, sentences, order, schedule):
        model = train(sentences, order, discounts=schedule)
        clone = deserialize_model(serialize_model(model))
        assert clone == model
        # Every counted position: each gram's last token after the rest.
        for gram in clone.raw_counts:
            if gram[-1] != BOS:
                assert clone.prob(gram[-1], gram[:-1]) == model.prob(gram[-1], gram[:-1])

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_corruption_raises_only_model_format_error(self, data):
        model = train([("a", "b", "a"), ("c",)], order=3)
        blob = serialize_model(model)
        if data.draw(st.booleans(), label="edit bytes"):
            at = data.draw(st.integers(0, len(blob) - 1), label="at")
            cut = data.draw(st.integers(0, 3), label="cut")
            corrupt = blob[:at] + bytes([blob[at] ^ 0x5A]) + blob[at + 1 + cut :]
        else:
            # A payload whose checksum is valid but one field is replaced.
            payload = _payload(model)
            path = data.draw(
                st.sampled_from(
                    [("order",), ("sentence_count",), ("vocab",), ("discounts",),
                     ("discounts", "mode"), ("discounts", "bins"), ("raw_counts",),
                     ("raw_counts", 0), ("raw_counts", 0, 0), ("raw_counts", 0, 1)]
                ),
                label="path",
            )
            target = payload
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = data.draw(json_values, label="value")
            corrupt = _blob(payload)
        try:
            deserialize_model(corrupt)
        except ModelFormatError:
            pass
