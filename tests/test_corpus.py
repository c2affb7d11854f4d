import json
import os
import pickle
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from grammarlr.corpus import (
    Corpus,
    Document,
    TaggedToken,
    VerificationProblem,
    load_corpus,
    load_reference_docs,
    parse_tagged_document,
    serialize_corpus,
)
from grammarlr.errors import CorpusError, GrammarLRError, ParseError
from oracles import OracleParseError, oracle_parse_tagged


def tok(surface, pos="NOUN"):
    return TaggedToken(surface, pos)


class TestTaggedToken:
    def test_valid(self):
        t = TaggedToken("the", "DET")
        assert t.surface == "the"
        assert t.pos == "DET"

    def test_empty_surface_rejected(self):
        with pytest.raises(ParseError):
            TaggedToken("", "DET")

    def test_unknown_pos_rejected(self):
        with pytest.raises(ParseError, match="POS"):
            TaggedToken("the", "DT")

    def test_format_characters_rejected(self):
        with pytest.raises(ParseError):
            TaggedToken("a\tb", "NOUN")

    def test_replace_validates(self):
        with pytest.raises(ParseError):
            TaggedToken("the", "DET")._replace(surface="")

    def test_equals_plain_pair(self):
        t = TaggedToken("the", "DET")
        assert t == ("the", "DET") and hash(t) == hash(("the", "DET"))
        assert tuple(t) == ("the", "DET")

    def test_pickle_round_trip(self):
        t = TaggedToken("the", "DET")
        back = pickle.loads(pickle.dumps(t))
        assert back == t and type(back) is TaggedToken
        assert (back.surface, back.pos) == ("the", "DET")


def segment(stream):
    """The sentences ``parse_tagged_document`` reads from a token stream
    written as tagged lines, with a blank line for each None."""
    text = "".join("\n" if t is None else f"{t.surface}\t{t.pos}\n" for t in stream)
    return parse_tagged_document(text, "d").sentences


class TestSegmentSentences:
    def test_boundary_after_terminals(self):
        stream = [tok("a"), tok("."), tok("b"), tok("!"), tok("c")]
        sents = segment(stream)
        assert [[t.surface for t in s] for s in sents] == [["a", "."], ["b", "!"], ["c"]]

    def test_consecutive_terminals(self):
        stream = [tok("a"), tok("."), tok("."), tok("b")]
        sents = segment(stream)
        assert [[t.surface for t in s] for s in sents] == [["a", "."], ["."], ["b"]]

    def test_hard_break_marker(self):
        stream = [tok("a"), None, tok("b")]
        sents = segment(stream)
        assert [[t.surface for t in s] for s in sents] == [["a"], ["b"]]

    def test_empty_segments_dropped(self):
        stream = [None, tok("a"), tok("."), None, None, tok("b"), None]
        sents = segment(stream)
        assert [[t.surface for t in s] for s in sents] == [["a", "."], ["b"]]

    def test_concatenation_preserved(self):
        # Segmenting never loses, duplicates, or reorders tokens; a stream
        # with no tokens is an empty document.
        rng = random.Random(11)
        surfaces = ["a", "b", ".", "?", "…", "c", "!"]
        for _ in range(200):
            stream = []
            for _ in range(rng.randrange(0, 30)):
                if rng.random() < 0.15:
                    stream.append(None)
                else:
                    stream.append(tok(rng.choice(surfaces)))
            tokens = [t for t in stream if t is not None]
            if not tokens:
                with pytest.raises(ParseError, match="empty document"):
                    segment(stream)
                continue
            sents = segment(stream)
            flat = [t for s in sents for t in s]
            assert flat == tokens
            assert all(len(s) >= 1 for s in sents)


class TestParseTaggedDocument:
    def test_basic(self):
        text = "The\tDET\ncat\tNOUN\nsat\tVERB\n.\tPUNCT\n"
        doc = parse_tagged_document(text, "d1")
        assert doc.id == "d1"
        assert doc.is_tagged
        assert len(doc.sentences) == 1
        assert [t.surface for t in doc.sentences[0]] == ["The", "cat", "sat", "."]

    def test_blank_line_is_hard_break(self):
        text = "a\tNOUN\n\nb\tNOUN\n"
        doc = parse_tagged_document(text, "d1")
        assert len(doc.sentences) == 2

    def test_newline_marker_consumed(self):
        text = "a\tNOUN\n<NL>\nb\tNOUN\n"
        doc = parse_tagged_document(text, "d1")
        assert len(doc.sentences) == 2
        surfaces = [t.surface for s in doc.sentences for t in s]
        assert "<NL>" not in surfaces

    def test_ellipsis_normalized(self):
        text = "wait\tVERB\n...\tPUNCT\nmore\tADJ\n"
        doc = parse_tagged_document(text, "d1")
        assert doc.sentences[0][-1].surface == "…"
        assert len(doc.sentences) == 2  # ellipsis terminates the sentence

    def test_field_count_error_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_tagged_document("a\tNOUN\nbad line\n", "d1")

    def test_unknown_pos_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_tagged_document("a\tNOUN\nb\tVERB\nc\tNOPE\n", "d1")

    def test_empty_document(self):
        with pytest.raises(ParseError, match="empty document"):
            parse_tagged_document("\n\n<NL>\n", "d1")

    def test_empty_surface(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_tagged_document("\tNOUN\n", "d1")

    @pytest.mark.parametrize("doc_id", ["", None, 7])
    def test_bad_doc_id_is_parse_error(self, doc_id):
        with pytest.raises(ParseError, match="document id"):
            parse_tagged_document("a\tNOUN\n", doc_id)


# Lines for the parser oracle test: every kind of line the format has, and
# the ways a line can be malformed. A drawn document is well-formed lines
# and breaks with at most one malformed line among them.
token_lines = st.sampled_from(
    ["The\tDET", "cat\tNOUN", "sat\tVERB", ".\tPUNCT", "!\tPUNCT", "?\tPUNCT",
     "…\tPUNCT", "...\tPUNCT", "..\tPUNCT", "<BOS>\tSYM", "a b\tADJ", " x\tNOUN", "a\rb\tNUM"]
)
break_lines = st.sampled_from(["", " ", "\t", " \t ", "<NL>", " <NL> "])
bad_lines = st.sampled_from(
    ["<nl>", "a\tb\tc", "a\tNOUN\t", "\tNOUN", "x\tNOPE", "x\tnoun", "x\tNOUN ",
     "a\nb\tNOUN", "a\tNO\nUN", "a\tNOUN\r"]
) | st.text(alphabet="ab.?\t\n\r <>NOUPL", max_size=8)


class TestParserOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(token_lines | token_lines | break_lines, max_size=12),
        bad=st.none() | bad_lines,
        at=st.integers(min_value=0, max_value=12),
        as_text=st.booleans(),
        end=st.sampled_from(["\n", "\r\n", "\r", ""]),
        doc_id=st.sampled_from(["d1", "doc", "d2", "x", "y", "z", "", None]),
    )
    @example(lines=["cat\tNOUN"], bad="a\nb\tNOUN", at=1, as_text=False, end="\n", doc_id="d1")
    @example(lines=["a\tDET", ".\tPUNCT", "b\tNOUN"], bad=None, at=0, as_text=True, end="\r\n", doc_id="d1")
    def test_matches_previous_parser(self, lines, bad, at, as_text, end, doc_id):
        """Same sentences as (surface, pos) pairs, or the same error, as
        the parser the oracle transcribes, for text (lines joined by
        ``end``, or by a newline when it is empty) and for line input (each
        line ending in ``end``)."""
        if bad is not None:
            lines.insert(at, bad)
        source = (end or "\n").join(lines) if as_text else [line + end for line in lines]
        try:
            expected = oracle_parse_tagged(source, doc_id)
        except OracleParseError as exc:
            with pytest.raises(ParseError) as info:
                parse_tagged_document(source, doc_id)
            assert type(info.value) is ParseError
            assert str(info.value) == str(exc)
            return
        doc = parse_tagged_document(source, doc_id)
        assert doc.id == doc_id and doc.is_tagged
        assert [[(t.surface, t.pos) for t in s] for s in doc.sentences] == expected
        assert all(type(t) is TaggedToken for s in doc.sentences for t in s)
        assert doc == Document(id=doc_id, sentences=doc.sentences)


class TestDocumentValidation:
    def test_masked_document(self):
        d = Document(id="d", sentences=(("a", "b"), ("c",)))
        assert not d.is_tagged
        assert d.token_count == 3

    def test_no_sentences(self):
        with pytest.raises(CorpusError):
            Document(id="d", sentences=())

    def test_empty_sentence(self):
        with pytest.raises(CorpusError):
            Document(id="d", sentences=(("a",), ()))

    def test_reserved_tokens_rejected(self):
        for bad in ("<BOS>", "<EOS>", "<UNK>"):
            with pytest.raises(CorpusError, match="reserved"):
                Document(id="d", sentences=(("a", bad),))

    def test_mixed_kinds_rejected(self):
        with pytest.raises(CorpusError, match="mixes"):
            Document(id="d", sentences=(("a",), (tok("b"),)))


class TestProblemAndCorpus:
    def _doc(self, doc_id):
        return Document(id=doc_id, sentences=(("a", "."),))

    def test_label_validation(self):
        with pytest.raises(CorpusError, match="label"):
            VerificationProblem(
                id="p", unknown_docs=(self._doc("u"),), known_docs=(self._doc("k"),), label="yes"
            )

    def test_null_label_ok(self):
        p = VerificationProblem(
            id="p", unknown_docs=(self._doc("u"),), known_docs=(self._doc("k"),)
        )
        assert p.label is None

    def test_duplicate_problem_ids(self):
        p1 = VerificationProblem(
            id="p", unknown_docs=(self._doc("u1"),), known_docs=(self._doc("k1"),), label="Y"
        )
        p2 = VerificationProblem(
            id="p", unknown_docs=(self._doc("u2"),), known_docs=(self._doc("k2"),), label="N"
        )
        with pytest.raises(CorpusError, match="duplicate problem id"):
            Corpus(problems=(p1, p2))

    def test_reference_overlap_rejected(self):
        p = VerificationProblem(
            id="p", unknown_docs=(self._doc("u"),), known_docs=(self._doc("k"),), label="Y"
        )
        with pytest.raises(CorpusError, match="overlap"):
            Corpus(problems=(p,), reference_docs=(self._doc("k"),))

    def test_partition_validation(self):
        with pytest.raises(CorpusError, match="partition"):
            Corpus(problems=(), partition="dev")


class TestLoadAndSerialize:
    def _corpus(self):
        def doc(i):
            return Document(id=f"doc{i}", sentences=(("a", "b", "."), ("c", ".")))

        problems = tuple(
            VerificationProblem(
                id=f"p{i}",
                unknown_docs=(doc(i * 10),),
                known_docs=(doc(i * 10 + 1), doc(i * 10 + 2)),
                label="Y" if i % 2 == 0 else "N",
                author=f"auth{i}",
            )
            for i in range(4)
        )
        refs = tuple(
            Document(id=f"ref{i}", sentences=(("x", "."),)) for i in range(3)
        )
        return Corpus(problems=problems, reference_docs=refs, partition="train")

    def test_round_trip(self, tmp_path):
        corpus = self._corpus()
        path = tmp_path / "probs.jsonl"
        serialize_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded == corpus

    def test_round_trip_is_byte_stable(self, tmp_path):
        corpus = self._corpus()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        serialize_corpus(corpus, p1)
        serialize_corpus(load_corpus(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_shared_refs_sidecar(self, tmp_path):
        corpus = self._corpus()
        serialize_corpus(corpus, tmp_path / "train.jsonl", refs_path=tmp_path / "refs.jsonl")
        loaded = load_corpus(tmp_path / "train.jsonl")
        assert loaded.reference_docs == corpus.reference_docs

    def test_explicit_refs_path_wins(self, tmp_path):
        corpus = self._corpus()
        serialize_corpus(corpus, tmp_path / "train.jsonl", refs_path=tmp_path / "other.jsonl")
        loaded = load_corpus(tmp_path / "train.jsonl", refs_path=tmp_path / "other.jsonl")
        assert loaded.reference_docs == corpus.reference_docs

    def test_blank_lines_are_skipped(self, tmp_path):
        corpus = self._corpus()
        plain, spaced = tmp_path / "plain", tmp_path / "spaced"
        plain.mkdir()
        spaced.mkdir()
        serialize_corpus(corpus, plain / "train.jsonl", refs_path=plain / "refs.jsonl")
        for name in ("train.jsonl", "refs.jsonl"):
            lines = (plain / name).read_text(encoding="utf-8").splitlines()
            (spaced / name).write_text("\n \t\n\n".join(lines) + "\n\n   \n", encoding="utf-8")
        loaded = load_corpus(spaced / "train.jsonl")
        assert loaded == load_corpus(plain / "train.jsonl") == corpus

    def test_missing_refs_is_empty(self, tmp_path):
        corpus = Corpus(problems=self._corpus().problems, partition="train")
        serialize_corpus(corpus, tmp_path / "solo.jsonl")
        loaded = load_corpus(tmp_path / "solo.jsonl")
        assert loaded.reference_docs == ()

    def test_invalid_label_in_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        obj = {
            "id": "p1",
            "label": "maybe",
            "unknown": [{"id": "u", "sentences": [["a"]]}],
            "known": [{"id": "k", "sentences": [["a"]]}],
        }
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(CorpusError, match="label"):
            load_corpus(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = {
            "id": "p1",
            "label": "Y",
            "unknown": [{"id": "u", "sentences": [["a"]]}],
            "known": [{"id": "k", "sentences": [["a"]]}],
        }
        path.write_text(json.dumps(good) + "\nnot json\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "sentences",
        [[5], [None], ["the cat"], [{"a": 1}], [[None]], [["a", 3]]],
        ids=["number", "null", "string", "object", "null-token", "number-token"],
    )
    def test_sentence_not_a_list_of_strings(self, tmp_path, sentences):
        good = {"id": "p1", "unknown": [{"id": "u", "sentences": [["a"]]}],
                "known": [{"id": "k", "sentences": [["a"]]}]}
        bad = {**good, "id": "p2", "known": [{"id": "k2", "sentences": [["a"], *sentences]}]}
        path = tmp_path / "probs.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(
            CorpusError, match=r"probs\.jsonl: line 2: document 'k2' sentence 2 is not a list of strings"
        ):
            load_corpus(path)

    def test_tagged_document_reference(self, tmp_path):
        (tmp_path / "u.txt").write_text("The\tDET\ncat\tNOUN\n.\tPUNCT\n")
        obj = {
            "id": "p1",
            "label": "Y",
            "unknown": [{"id": "u", "tagged": "u.txt"}],
            "known": [{"id": "k", "sentences": [["a", "."]]}],
        }
        path = tmp_path / "probs.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        corpus = load_corpus(path)
        doc = corpus.problems[0].unknown_docs[0]
        assert doc.is_tagged
        assert [t.surface for t in doc.sentences[0]] == ["The", "cat", "."]

    def test_partition_field_conflict(self, tmp_path):
        obj = {
            "id": "p1",
            "label": "Y",
            "partition": "train",
            "unknown": [{"id": "u", "sentences": [["a"]]}],
            "known": [{"id": "k", "sentences": [["a"]]}],
        }
        path = tmp_path / "probs.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        assert load_corpus(path).partition == "train"
        with pytest.raises(CorpusError, match="conflicts"):
            load_corpus(path, partition="test")

    def test_serialize_rejects_tagged(self, tmp_path):
        doc = Document(id="d", sentences=((tok("a"),),))
        prob = VerificationProblem(
            id="p", unknown_docs=(doc,), known_docs=(doc,), label="Y"
        )
        with pytest.raises(CorpusError, match="mask"):
            serialize_corpus(Corpus(problems=(prob,)), tmp_path / "x.jsonl")


def tagged_dir(base):
    """A train/test split in ``base`` sharing a tagged refs.jsonl."""
    (base / "r1.tsv").write_text("The\tDET\ncat\tNOUN\n.\tPUNCT\n", encoding="utf-8")
    (base / "r2.tsv").write_text("A\tDET\ndog\tNOUN\nran\tVERB\n", encoding="utf-8")
    refs = [{"id": "r1", "tagged": "r1.tsv"}, {"id": "r2", "tagged": "r2.tsv"}]
    (base / "refs.jsonl").write_text("\n".join(map(json.dumps, refs)) + "\n", encoding="utf-8")
    for i, part in enumerate(("train", "test")):
        doc = {"id": f"{part}-d", "sentences": [["a", "."]]}
        prob = {"id": f"p{i}", "label": "Y", "unknown": [doc], "known": [{**doc, "id": f"{part}-k"}]}
        (base / f"{part}.jsonl").write_text(json.dumps(prob) + "\n", encoding="utf-8")
    return base


class TestSharedReferencePool:
    def test_splits_share_one_parsed_pool(self, tmp_path):
        base = tagged_dir(tmp_path)
        train = load_corpus(base / "train.jsonl", partition="train")
        test = load_corpus(base / "test.jsonl", partition="test")
        assert train.reference_docs == test.reference_docs
        assert train.reference_docs is test.reference_docs
        assert [d.id for d in train.reference_docs] == ["r1", "r2"]

    def test_same_size_rewrite_with_restored_mtime_is_seen(self, tmp_path):
        base = tagged_dir(tmp_path)
        first = load_reference_docs(base / "refs.jsonl")
        path = base / "r1.tsv"
        stat = path.stat()
        path.write_text("The\tDET\nrat\tNOUN\n.\tPUNCT\n", encoding="utf-8")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        second = load_reference_docs(base / "refs.jsonl")
        assert [t.surface for t in first[0].sentences[0]] == ["The", "cat", "."]
        assert [t.surface for t in second[0].sentences[0]] == ["The", "rat", "."]

    def test_rewritten_sidecar_is_seen(self, tmp_path):
        base = tagged_dir(tmp_path)
        load_reference_docs(base / "refs.jsonl")
        (base / "refs.jsonl").write_text(json.dumps({"id": "r2", "tagged": "r2.tsv"}) + "\n")
        assert [d.id for d in load_reference_docs(base / "refs.jsonl")] == ["r2"]

    @pytest.mark.parametrize(
        "broken",
        [
            {"r1.tsv": "cat\tNOPE\n"},
            {"r2.tsv": None},
            {"refs.jsonl": '{"id": "r1", "tagged": "r1.tsv"}\n{not json\n'},
        ],
    )
    def test_malformed_sidecar_raises_on_every_call(self, tmp_path, broken):
        base = tagged_dir(tmp_path)
        load_reference_docs(base / "refs.jsonl")
        for name, text in broken.items():
            if text is None:
                (base / name).unlink()
            else:
                (base / name).write_text(text, encoding="utf-8")
        errors = []
        for _ in range(2):
            with pytest.raises((CorpusError, ParseError)) as info:
                load_reference_docs(base / "refs.jsonl")
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_first_error_in_file_order(self, tmp_path):
        base = tagged_dir(tmp_path)
        (base / "r1.tsv").write_text("cat\tNOPE\n", encoding="utf-8")
        with (base / "refs.jsonl").open("a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(ParseError, match="NOPE"):
            load_reference_docs(base / "refs.jsonl")

    def test_unread_tagged_path_is_not_an_error(self, tmp_path):
        base = tagged_dir(tmp_path)
        entry = {"id": "r3", "sentences": [["x", "."]], "tagged": "missing.tsv"}
        with (base / "refs.jsonl").open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
        for _ in range(2):
            assert [d.id for d in load_reference_docs(base / "refs.jsonl")] == ["r1", "r2", "r3"]

    def test_identical_sidecars_at_different_paths_share_one_pool(self, tmp_path):
        base = tagged_dir(tmp_path)
        refs = (base / "refs.jsonl").read_bytes()
        for part in ("train", "test"):
            (base / f"{part}.refs.jsonl").write_bytes(refs)
        train = load_corpus(base / "train.jsonl")
        test = load_corpus(base / "test.jsonl")
        assert [d.id for d in train.reference_docs] == ["r1", "r2"]
        assert train.reference_docs is test.reference_docs

    def test_malformed_line_after_valid_copies_names_its_line(self, tmp_path):
        base = tagged_dir(tmp_path)
        (base / "r1.tsv").write_text("a\tNOUN\n.\tPUNCT\n", encoding="utf-8")
        (base / "r2.tsv").write_text("a\tNOUN\na\tNOUN\na\tNOPE\n", encoding="utf-8")
        message = r"^refs\.jsonl: line 2: r2: line 3: unknown POS label 'NOPE'$"
        with pytest.raises(ParseError, match=message):
            load_reference_docs(base / "refs.jsonl")


# Corpus files for the loader's property tests: JSON lines of problems and
# reference documents whose every field may hold the wrong shape.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
tokens = st.sampled_from(["a", "b", ".", "<BOS>", ""]) | json_values
sentences = st.lists(st.lists(tokens, max_size=3) | json_values, max_size=3) | json_values
# Tagged paths name files the test writes: valid, not UTF-8, absent, a
# directory, an impossible path.
tagged_paths = st.sampled_from(["good.txt", "latin1.txt", "bad.txt", "missing.txt", "sub", "nul\x00"])
documents = st.fixed_dictionaries(
    {"id": st.sampled_from(["d1", "d2"]) | json_values},
    optional={"sentences": sentences, "tagged": tagged_paths | json_values},
)
problems = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["p1", "p2"]) | json_values,
        "unknown": st.lists(documents, max_size=2) | json_values,
        "known": st.lists(documents, max_size=2) | json_values,
    },
    optional={
        "label": st.sampled_from(["Y", "N", None]) | json_values,
        "partition": st.sampled_from(["train", "test"]) | json_values,
        "author": json_values,
    },
)


def jsonl_files(entries):
    """File bodies: lines of entries, arbitrary JSON or text, or raw bytes."""
    lines = st.lists(entries.map(json.dumps) | json_values.map(json.dumps) | st.text(max_size=8), max_size=3)
    return lines.map(lambda ls: "\n".join(ls).encode("utf-8")) | st.binary(max_size=12)


def load_files(problems_file, refs_file=None):
    """Load a corpus from the given file bodies, next to the tagged files
    that ``tagged_paths`` name."""
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        (base / "good.txt").write_text("The\tDET\ncat\tNOUN\n.\tPUNCT\n", encoding="utf-8")
        (base / "latin1.txt").write_bytes("caf\xe9\tNOUN\n".encode("latin-1"))
        (base / "bad.txt").write_text("cat\tNOPE\n", encoding="utf-8")
        (base / "sub").mkdir()
        (base / "probs.jsonl").write_bytes(problems_file)
        if refs_file is not None:
            (base / "probs.refs.jsonl").write_bytes(refs_file)
        return load_corpus(base / "probs.jsonl")


class TestParserProperties:
    @settings(max_examples=50, deadline=None)
    @given(problems_file=jsonl_files(problems), refs_file=st.none() | jsonl_files(documents))
    def test_load_corpus_raises_only_package_errors(self, problems_file, refs_file):
        try:
            load_files(problems_file, refs_file)
        except GrammarLRError:
            pass

    @settings(max_examples=50, deadline=None)
    @given(doc=documents)
    def test_document_entry_raises_only_package_errors(self, doc):
        """One arbitrary document in an otherwise valid problem."""
        problem = {"id": "p1", "unknown": [{"id": "u", "sentences": [["a"]]}], "known": [doc]}
        try:
            load_files(json.dumps(problem).encode("utf-8"))
        except GrammarLRError:
            pass

    @settings(max_examples=50, deadline=None)
    @given(
        lines=st.lists(
            st.sampled_from(
                ["The\tDET", "cat\tNOUN", ".\tPUNCT", "...\tPUNCT", "<NL>", "", " ",
                 "a\tb\tc", "\tNOUN", "x\tNOPE", "a\nb\tNOUN"]
            )
            | st.text(max_size=6),
            max_size=8,
        ),
        as_text=st.booleans(),
        doc_id=st.text(min_size=0, max_size=4),
    )
    def test_parse_tagged_document_raises_only_parse_error(self, lines, as_text, doc_id):
        try:
            doc = parse_tagged_document("\n".join(lines) if as_text else lines, doc_id)
        except ParseError:
            return
        assert doc.is_tagged and doc.id == doc_id

    @settings(max_examples=50, deadline=None)
    @given(
        files=st.lists(
            st.lists(
                st.sampled_from(
                    ["The\tDET", "the\tDET", "cat\tNOUN", "cat\tVERB", " cat\tNOUN", ".\tPUNCT",
                     "...\tPUNCT", "…\tPUNCT", "<NL>", "", " ", "cat\tNOPE", "a\tb\tc"]
                ),
                max_size=10,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_sidecar_parses_each_file_alone_and_shares_equal_lines(self, files):
        """A sidecar's documents equal ``parse_tagged_document`` of each of
        its tagged files, or it raises the first file's error, prefixed with
        the sidecar line that names the file; the tokens of equal lines, in
        any of its files, are one object."""
        texts = ["\n".join(lines) + "\n" for lines in files]
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            for i, text in enumerate(texts):
                (base / f"r{i}.tsv").write_text(text, encoding="utf-8")
            entries = [json.dumps({"id": f"r{i}", "tagged": f"r{i}.tsv"}) for i in range(len(texts))]
            (base / "refs.jsonl").write_text("\n".join(entries) + "\n", encoding="utf-8")
            expected = []
            try:
                for i, text in enumerate(texts):
                    expected.append(parse_tagged_document(text, f"r{i}"))
            except ParseError as exc:
                with pytest.raises(ParseError) as info:
                    load_reference_docs(base / "refs.jsonl")
                assert str(info.value) == f"refs.jsonl: line {i + 1}: {exc}"
                return
            docs = load_reference_docs(base / "refs.jsonl")
        assert docs == tuple(expected)
        token_of: dict[str, TaggedToken] = {}
        for lines, doc in zip(files, docs):
            token_lines = [line for line in lines if line.strip() not in ("", "<NL>")]
            flat = [t for s in doc.sentences for t in s]
            assert len(flat) == len(token_lines)
            for line, t in zip(token_lines, flat):
                assert type(t) is TaggedToken
                assert token_of.setdefault(line, t) is t
