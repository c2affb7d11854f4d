import gc
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from grammarlr.corpus import (
    CONTENT_POS,
    FUNCTION_POS,
    POS_LABELS,
    Corpus,
    Document,
    TaggedToken,
    VerificationProblem,
)
from grammarlr.errors import LexiconError
from grammarlr.masking import (
    MaskingLexicon,
    default_lexicon,
    load_lexicon,
    mask_corpus,
    mask_document,
    mask_sentence,
    mask_token,
    parse_lexicon,
)

PLACEHOLDERS = {
    "NOUN": "N",
    "PROPN": "P",
    "VERB": "V",
    "ADJ": "J",
    "ADV": "B",
    "NUM": "D",
    "SYM": "S",
}


def small_lexicon():
    return MaskingLexicon(
        retain=frozenset({"the", "of", "not", "is"}), placeholders=dict(PLACEHOLDERS)
    )


class TestMaskToken:
    def test_function_pos_casefolded(self):
        lex = small_lexicon()
        assert mask_token(TaggedToken("The", "DET"), lex) == "the"
        assert mask_token(TaggedToken("AND", "CONJ"), lex) == "and"
        assert mask_token(TaggedToken(".", "PUNCT"), lex) == "."

    def test_retained_content_word_casefolded(self):
        lex = small_lexicon()
        assert mask_token(TaggedToken("NOT", "ADV"), lex) == "not"
        assert mask_token(TaggedToken("Is", "VERB"), lex) == "is"

    def test_content_words_become_placeholders(self):
        lex = small_lexicon()
        assert mask_token(TaggedToken("cat", "NOUN"), lex) == "N"
        assert mask_token(TaggedToken("Paris", "PROPN"), lex) == "P"
        assert mask_token(TaggedToken("ran", "VERB"), lex) == "V"
        assert mask_token(TaggedToken("7", "NUM"), lex) == "D"

    def test_glyphs_pass_through_before_casefolding(self):
        # A placeholder glyph must survive re-masking verbatim, even though
        # casefolding would lowercase it, and regardless of its POS label.
        lex = small_lexicon()
        for pos in ("NOUN", "VERB", "DET", "OTHER"):
            assert mask_token(TaggedToken("N", pos), lex) == "N"
        assert mask_token(TaggedToken("V", "PROPN"), lex) == "V"


class TestMaskingProperties:
    def _random_tagged_doc(self, rng, doc_id):
        surfaces = ["The", "cat", "SAT", "on", "N", "v", "Wein", "7", "not", ".", "!"]
        pos = sorted(POS_LABELS)
        sents = []
        for _ in range(rng.randrange(1, 5)):
            sent = tuple(
                TaggedToken(rng.choice(surfaces), rng.choice(pos))
                for _ in range(rng.randrange(1, 8))
            )
            sents.append(sent)
        return Document(id=doc_id, sentences=tuple(sents))

    def test_length_preserved(self):
        rng = random.Random(5)
        lex = small_lexicon()
        for i in range(100):
            doc = self._random_tagged_doc(rng, f"d{i}")
            masked = mask_document(doc, lex)
            assert len(masked.sentences) == len(doc.sentences)
            for orig, out in zip(doc.sentences, masked.sentences):
                assert len(out) == len(orig)

    def test_fixed_point_under_remasking(self):
        # Re-tagging masked output (as a tagger would, with OTHER for glyphs
        # and function words) and masking again must change nothing.
        rng = random.Random(6)
        lex = small_lexicon()
        for i in range(100):
            doc = self._random_tagged_doc(rng, f"d{i}")
            once = mask_document(doc, lex)
            rewrapped = Document(
                id=doc.id,
                sentences=tuple(
                    tuple(TaggedToken(t, "OTHER") for t in s) for s in once.sentences
                ),
            )
            twice = mask_document(rewrapped, lex)
            assert twice.sentences == once.sentences

    def test_output_vocabulary_closed(self):
        rng = random.Random(7)
        lex = small_lexicon()
        allowed_fixed = set(lex.glyphs) | set(lex.retain)
        for i in range(50):
            doc = self._random_tagged_doc(rng, f"d{i}")
            masked = mask_document(doc, lex)
            for orig, out in zip(doc.sentences, masked.sentences):
                for tok_in, tok_out in zip(orig, out):
                    ok = tok_out in allowed_fixed or (
                        tok_in.pos in FUNCTION_POS
                        and tok_out == tok_in.surface.casefold()
                    )
                    assert ok, (tok_in, tok_out)

    def test_retained_positions_keep_surface(self):
        lex = small_lexicon()
        sent = (
            TaggedToken("The", "DET"),
            TaggedToken("cat", "NOUN"),
            TaggedToken("is", "VERB"),
            TaggedToken("NOT", "ADV"),
            TaggedToken("OLD", "ADJ"),
            TaggedToken(".", "PUNCT"),
        )
        assert mask_sentence(sent, lex) == ("the", "N", "is", "not", "J", ".")


class TestLexiconValidation:
    def test_glyph_retain_collision(self):
        with pytest.raises(LexiconError, match="collides"):
            MaskingLexicon(
                retain=frozenset({"n"}), placeholders=dict(PLACEHOLDERS)
            )

    def test_missing_content_placeholder(self):
        incomplete = {k: v for k, v in PLACEHOLDERS.items() if k != "ADV"}
        with pytest.raises(LexiconError, match="missing placeholders"):
            MaskingLexicon(retain=frozenset(), placeholders=incomplete)

    def test_unknown_pos_placeholder(self):
        extra = dict(PLACEHOLDERS, DT="X")
        with pytest.raises(LexiconError, match="unknown POS"):
            MaskingLexicon(retain=frozenset(), placeholders=extra)

    def test_duplicate_glyph(self):
        dupe = dict(PLACEHOLDERS, ADV="N")
        with pytest.raises(LexiconError, match="used for both"):
            MaskingLexicon(retain=frozenset(), placeholders=dupe)

    def test_retain_must_be_casefolded(self):
        with pytest.raises(LexiconError, match="casefolded"):
            MaskingLexicon(retain=frozenset({"The"}), placeholders=dict(PLACEHOLDERS))

    def test_whitespace_glyph(self):
        bad = dict(PLACEHOLDERS, NOUN="a b")
        with pytest.raises(LexiconError, match="invalid placeholder"):
            MaskingLexicon(retain=frozenset(), placeholders=bad)


class TestLexiconParsing:
    def _text(self):
        lines = ["[retain]", "the", "of", "", "[placeholders]"]
        lines += [f"{pos}\t{glyph}" for pos, glyph in sorted(PLACEHOLDERS.items())]
        return "\n".join(lines) + "\n"

    def test_parse_round_trip(self):
        lex = parse_lexicon(self._text())
        assert lex.retain == frozenset({"the", "of"})
        assert dict(lex.placeholders) == PLACEHOLDERS

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text(self._text())
        assert load_lexicon(path) == parse_lexicon(self._text())

    def test_retain_entries_casefolded_on_parse(self):
        text = self._text().replace("the\n", "THE\n")
        assert "the" in parse_lexicon(text).retain

    def test_unknown_section(self):
        with pytest.raises(LexiconError, match="unknown section"):
            parse_lexicon("[other]\nfoo\n")

    def test_content_before_section(self):
        with pytest.raises(LexiconError, match="before any section"):
            parse_lexicon("the\n[retain]\n")

    def test_bad_placeholder_line(self):
        with pytest.raises(LexiconError, match="line 2"):
            parse_lexicon("[placeholders]\nNOUN N\n")

    def test_duplicate_placeholder_line(self):
        text = "[placeholders]\n" + "\n".join(
            f"{pos}\t{glyph}" for pos, glyph in sorted(PLACEHOLDERS.items())
        )
        text += "\nNOUN\tQ\n"
        with pytest.raises(LexiconError, match="duplicate placeholder"):
            parse_lexicon(text)

    def test_retain_whitespace_entry(self):
        with pytest.raises(LexiconError, match="whitespace"):
            parse_lexicon("[retain]\ntwo words\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(LexiconError, match="cannot read"):
            load_lexicon(tmp_path / "nope.txt")

    def test_file_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"[retain]\ncaf\xe9\n")
        with pytest.raises(LexiconError, match="latin1.txt"):
            load_lexicon(path)


class TestLexiconParsingProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        lines=st.lists(
            st.sampled_from(
                ["[retain]", "[placeholders]", "[other]", "the", "two words", "The",
                 "NOUN\tN", "VERB\tV", "NOUN\tN\tX", "NOPE\tQ", "ADJ\t", "ADJ\tthe", ""]
            )
            | st.text(max_size=6),
            max_size=10,
        )
    )
    def test_parse_lexicon_raises_only_lexicon_error(self, lines):
        try:
            parse_lexicon("\n".join(lines))
        except LexiconError:
            pass


class TestDefaultLexicon:
    def test_loads_and_covers_content_pos(self):
        lex = default_lexicon()
        assert CONTENT_POS <= set(lex.placeholders)
        assert len(lex.retain) >= 300

    def test_common_function_words_present(self):
        lex = default_lexicon()
        for word in ("the", "and", "of", "not", "is", "would"):
            assert word in lex.retain, word

    def test_both_apostrophe_forms(self):
        lex = default_lexicon()
        assert "don't" in lex.retain
        assert "don’t" in lex.retain

    def test_masks_english_sentence(self):
        lex = default_lexicon()
        sent = (
            TaggedToken("If", "CONJ"),
            TaggedToken("they", "PRON"),
            TaggedToken("censor", "VERB"),
            TaggedToken("anything", "PRON"),
            TaggedToken("is", "VERB"),
            TaggedToken("another", "DET"),
            TaggedToken("question", "NOUN"),
            TaggedToken(".", "PUNCT"),
        )
        masked = mask_sentence(sent, lex)
        assert masked[0] == "if"
        assert masked[1] == "they"
        assert masked[2] == lex.placeholders["VERB"]
        assert masked[4] == "is"
        assert masked[6] == lex.placeholders["NOUN"]
        assert masked[7] == "."


class TestMaskMemo:
    def test_lexicons_differing_in_retain_keep_their_own_masks(self):
        token = TaggedToken("Cat", "NOUN")
        plain = small_lexicon()
        keeps_cat = MaskingLexicon(retain=plain.retain | {"cat"}, placeholders=dict(PLACEHOLDERS))
        for _ in range(2):
            assert mask_sentence((token,), plain) == ("N",)
            assert mask_sentence((token,), keeps_cat) == ("cat",)

    def test_memo_agrees_with_mask_token(self):
        lex = small_lexicon()
        sentence = tuple(
            TaggedToken(surface, pos)
            for surface, pos in [("The", "DET"), ("N", "NOUN"), ("Not", "PART"), ("x", "SYM"), ("The", "DET")]
        )
        expected = tuple(mask_token(t, lex) for t in sentence)
        assert mask_sentence(sentence, lex) == expected
        assert mask_sentence(sentence, lex) == expected
        assert mask_sentence(sentence[:2], lex) == expected[:2]

    def test_non_token_items_still_fail(self):
        with pytest.raises(AttributeError):
            mask_sentence(("the",), small_lexicon())


class TestDocumentAndCorpus:
    def test_masked_document_passes_through(self):
        lex = small_lexicon()
        doc = Document(id="d", sentences=(("the", "N", "."),))
        assert mask_document(doc, lex) is doc

    @pytest.mark.parametrize("reserved", ["<UNK>", "<BOS>", "<EOS>"])
    def test_reserved_glyph_still_fails_naming_the_document(self, reserved):
        """A glyph spelled like a reserved token fails where the lexicon is
        built, before any document is masked with it, and a lexicon file's
        error names the file. Surfaces spelled like reserved tokens still
        mask, and never to a reserved token."""
        placeholders = {**PLACEHOLDERS, "NOUN": reserved}
        with pytest.raises(LexiconError) as caught:
            MaskingLexicon(retain=frozenset({"the"}), placeholders=placeholders)
        assert str(caught.value) == f"placeholder glyph {reserved!r} for NOUN is a reserved token"
        text = "[retain]\nthe\n[placeholders]\n" + "".join(
            f"{pos}\t{glyph}\n" for pos, glyph in placeholders.items()
        )
        with pytest.raises(LexiconError) as caught:
            parse_lexicon(text, name="lex.txt")
        assert str(caught.value) == (
            f"lex.txt: placeholder glyph {reserved!r} for NOUN is a reserved token"
        )
        spelled = Document(
            id="d1", sentences=((TaggedToken(reserved, "PUNCT"), TaggedToken(reserved, "NOUN")),)
        )
        masked = mask_document(spelled, small_lexicon())
        assert masked.sentences == ((reserved.casefold(), "N"),)
        assert Document(id=masked.id, sentences=masked.sentences) == masked

    def test_mask_corpus_preserves_structure(self):
        lex = small_lexicon()
        tagged = Document(
            id="d1",
            sentences=((TaggedToken("The", "DET"), TaggedToken("cat", "NOUN")),),
        )
        prob = VerificationProblem(
            id="p1",
            unknown_docs=(tagged,),
            known_docs=(Document(id="d2", sentences=(("the", "N"),)),),
            label="Y",
            author="a1",
        )
        ref = Document(
            id="r1", sentences=((TaggedToken("of", "ADP"), TaggedToken("x", "SYM")),)
        )
        corpus = Corpus(problems=(prob,), reference_docs=(ref,), partition="train")
        masked = mask_corpus(corpus, lex)
        assert masked.partition == "train"
        out = masked.problems[0]
        assert (out.id, out.label, out.author) == ("p1", "Y", "a1")
        assert out.unknown_docs[0].sentences == (("the", "N"),)
        assert out.known_docs[0] is prob.known_docs[0]
        assert masked.reference_docs[0].sentences == (("of", "S"),)
        assert not any(
            d.is_tagged
            for p in masked.problems
            for d in (*p.unknown_docs, *p.known_docs)
        )


class TestRepeatedMasking:
    def test_allocated_blocks_stay_flat_over_calls(self):
        """Masking one corpus again and again holds no more memory blocks
        after warm-up. Every masked sentence and document is a tuple built
        at its final size, so a call frees its tuples into the free lists
        that the next call takes them from. A tuple built from an iterator
        of unknown length starts at another size, and the free lists of the
        sizes it ends at fill over the calls. The cyclic collector is off
        while measuring, because a full collection empties the free lists."""
        rng = random.Random(11)
        surfaces = ["The", "cat", "sat", "on", "Mat", "not", "7", ".", "!"]
        pos = sorted(POS_LABELS)

        # Sentences of 1-19 tokens: CPython 3.11 never reuses a freed
        # 20-item tuple, so those would grow at any size they are built at.
        def doc(doc_id):
            return Document(id=doc_id, sentences=tuple(
                tuple(
                    TaggedToken(rng.choice(surfaces), rng.choice(pos))
                    for _ in range(rng.randrange(1, 20))
                )
                for _ in range(60)
            ))

        problems = tuple(
            VerificationProblem(f"p{i}", (doc(f"u{i}"),), (doc(f"k{i}"),)) for i in range(20)
        )
        corpus = Corpus(problems, tuple(doc(f"r{i}") for i in range(60)))
        lex = small_lexicon()
        enabled = gc.isenabled()
        gc.disable()
        try:
            mask_corpus(corpus, lex)  # fills the lexicon's memo
            start = sys.getallocatedblocks()
            for _ in range(10):
                mask_corpus(corpus, lex)
            grown = sys.getallocatedblocks() - start
        finally:
            if enabled:
                gc.enable()
        assert grown < 1000
