"""Corpus ingestion and on-disk formats.

Two layers live here:

* tagged text: ``surface<TAB>pos`` lines, one token per line, split into
  sentences as they are read, at blank lines and literal ``<NL>`` lines
  (hard breaks) and after each terminal surface;
* the JSONL corpus format: one verification problem per line, each holding
  unknown/known document lists, plus an optional sidecar JSONL of reference
  documents drawn from other authors.

Documents come in two flavours. A *tagged* document still carries
(surface, pos) pairs and must be masked before modelling; a *masked*
document holds plain token strings and is ready for counting.

Tagged text is checked once, at the door: ``parse_tagged_document``
validates each line and builds its tokens and document without checking
them again, with each surface interned and each POS the canonical label
string. One load (a problems file, or a reference sidecar) validates each
distinct token line once, and every copy of that line shares its token. A
reference sidecar whose content was the last one loaded, at whatever path,
is not parsed again (``load_reference_docs``), so the train and test splits
of one corpus directory share one parsed pool per process.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .errors import CorpusError, ParseError

# Closed part-of-speech label set for the tagged format. Anything outside
# this set is a parse error, not a soft warning.
POS_LABELS = frozenset(
    {
        "NOUN",
        "PROPN",
        "VERB",
        "ADJ",
        "ADV",
        "PRON",
        "DET",
        "ADP",
        "CONJ",
        "PART",
        "NUM",
        "PUNCT",
        "SYM",
        "OTHER",
    }
)

# Labels whose surfaces are kept verbatim by masking regardless of lexicon
# membership: the grammatical glue of a sentence.
FUNCTION_POS = frozenset({"PRON", "DET", "ADP", "CONJ", "PART", "PUNCT", "OTHER"})

# Content labels: surfaces are replaced by placeholders unless the lexicon
# retains them explicitly.
CONTENT_POS = POS_LABELS - FUNCTION_POS

# Sentence-terminal surfaces. A boundary falls after each of these.
TERMINAL_SURFACES = frozenset({".", "!", "?", "…"})

# Line marker for a hard break in the tagged format (consumed, never a token).
NEWLINE_MARKER = "<NL>"

# Surfaces that collide with model pseudo-tokens; masked documents must not
# contain them.
RESERVED_SURFACES = frozenset({"<BOS>", "<EOS>", "<UNK>"})

# Each label mapped to itself: one lookup both checks a parsed label and
# yields the canonical string object.
_CANONICAL_POS = {label: label for label in POS_LABELS}

Sentence = tuple[str, ...]


class _TokenFields(NamedTuple):
    surface: str
    pos: str


class TaggedToken(_TokenFields):
    """One token of a tagged stream: the surface form and its POS label.

    A NamedTuple, so it compares equal to the plain ``(surface, pos)`` pair.
    The constructor (and ``_replace``) validates; ``parse_tagged_document``
    validates each line itself and builds tokens with ``tuple.__new__``.
    """

    __slots__ = ()

    def __new__(cls, surface: str, pos: str) -> "TaggedToken":
        if not surface:
            raise ParseError("token surface must be non-empty")
        if "\t" in surface or "\n" in surface:
            raise ParseError(f"token surface contains format characters: {surface!r}")
        if pos not in POS_LABELS:
            raise ParseError(f"unknown POS label {pos!r}")
        return tuple.__new__(cls, (surface, pos))

    @classmethod
    def _make(cls, iterable: Iterable[str]) -> "TaggedToken":
        return cls(*iterable)


@dataclass(frozen=True)
class Document:
    """A sequence of sentences, either tagged or already masked.

    ``sentences`` is a tuple of non-empty tuples; items are TaggedToken for
    tagged documents and plain strings for masked ones. Mixing is rejected.
    """

    id: str
    sentences: tuple[tuple, ...]

    def __post_init__(self) -> None:
        if not self.id or not isinstance(self.id, str):
            raise CorpusError("document id must be a non-empty string")
        if not self.sentences:
            raise CorpusError(f"document {self.id!r} has no sentences")
        kinds = set()
        for sent in self.sentences:
            if not sent:
                raise CorpusError(f"document {self.id!r} contains an empty sentence")
            for tok in sent:
                if isinstance(tok, TaggedToken):
                    kinds.add("tagged")
                elif isinstance(tok, str):
                    kinds.add("masked")
                    if not tok:
                        raise CorpusError(f"document {self.id!r} contains an empty token")
                    if tok in RESERVED_SURFACES:
                        raise CorpusError(
                            f"document {self.id!r} contains reserved token {tok!r}"
                        )
                else:
                    raise CorpusError(
                        f"document {self.id!r} contains a non-token item: {tok!r}"
                    )
        if len(kinds) > 1:
            raise CorpusError(f"document {self.id!r} mixes tagged and masked sentences")

    @classmethod
    def _trusted(cls, id: str, sentences: tuple[tuple, ...]) -> "Document":
        """A Document from parts the caller has already validated."""
        doc = object.__new__(cls)
        object.__setattr__(doc, "id", id)
        object.__setattr__(doc, "sentences", sentences)
        return doc

    @property
    def is_tagged(self) -> bool:
        return isinstance(self.sentences[0][0], TaggedToken)

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)


@dataclass(frozen=True)
class VerificationProblem:
    """One same-author-or-not question: unknown documents vs known documents.

    ``label`` is "Y" (same author), "N" (different author) or None when the
    ground truth is withheld. ``author`` optionally names the known-side
    author so evaluation can enforce author-disjoint splits.
    """

    id: str
    unknown_docs: tuple[Document, ...]
    known_docs: tuple[Document, ...]
    label: Optional[str] = None
    author: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.id or not isinstance(self.id, str):
            raise CorpusError("problem id must be a non-empty string")
        if not self.unknown_docs:
            raise CorpusError(f"problem {self.id!r} has no unknown documents")
        if not self.known_docs:
            raise CorpusError(f"problem {self.id!r} has no known documents")
        if self.label not in (None, "Y", "N"):
            raise CorpusError(
                f"problem {self.id!r} has invalid label {self.label!r}; expected Y, N or null"
            )


@dataclass(frozen=True)
class Corpus:
    """A partition's worth of problems plus shared reference documents."""

    problems: tuple[VerificationProblem, ...]
    reference_docs: tuple[Document, ...] = ()
    partition: str = "test"

    def __post_init__(self) -> None:
        if self.partition not in ("train", "test"):
            raise CorpusError(f"invalid partition {self.partition!r}")
        seen = set()
        for prob in self.problems:
            if prob.id in seen:
                raise CorpusError(f"duplicate problem id {prob.id!r}")
            seen.add(prob.id)
        problem_doc_ids = {
            doc.id
            for prob in self.problems
            for doc in (*prob.unknown_docs, *prob.known_docs)
        }
        ref_ids = set()
        for doc in self.reference_docs:
            if doc.id in ref_ids:
                raise CorpusError(f"duplicate reference document id {doc.id!r}")
            ref_ids.add(doc.id)
        overlap = ref_ids & problem_doc_ids
        if overlap:
            raise CorpusError(
                f"reference documents overlap problem documents: {sorted(overlap)[:5]}"
            )

    @property
    def labels(self) -> tuple[Optional[str], ...]:
        return tuple([p.label for p in self.problems])


def parse_tagged_document(text: Union[str, Iterable[str]], doc_id: str) -> Document:
    """Parse ``surface<TAB>pos`` lines into a tagged Document.

    Raises ParseError for an empty or non-string ``doc_id``, and with a
    1-based line number for malformed lines, unknown POS labels, or an input
    with no tokens at all. ASCII "..." surfaces are normalized to the single
    ellipsis character. Each line is validated once, here: the tokens and
    the document are built without the constructors' checks.
    """
    return _parse_tagged(text, doc_id, {})


def _parse_tagged(
    text: Union[str, Iterable[str]], doc_id: str, seen: dict[str, TaggedToken]
) -> Document:
    """``parse_tagged_document``, reusing the token of each raw line found in
    ``seen`` and adding each new token line to it, so the copies of a line
    across one load are validated once and share one token. Sentences are
    closed as the lines are read, and an empty one is never made."""
    if not isinstance(doc_id, str) or not doc_id:
        raise ParseError(f"document id must be a non-empty string: {doc_id!r}")
    lines = text.splitlines() if isinstance(text, str) else text
    sentences: list[tuple[TaggedToken, ...]] = []
    current: list[TaggedToken] = []
    for lineno, raw in enumerate(lines, start=1):
        token = seen.get(raw)
        if token is None and (stripped := raw.strip()) and stripped != NEWLINE_MARKER:
            fields = raw.rstrip("\n").split("\t")
            if len(fields) != 2:
                raise ParseError(f"{doc_id}: line {lineno}: expected 'surface<TAB>pos', "
                                 f"got {len(fields)} field(s)")
            surface, pos = fields
            if not surface:
                raise ParseError(f"{doc_id}: line {lineno}: empty surface")
            label = _CANONICAL_POS.get(pos)
            if label is None:
                raise ParseError(f"{doc_id}: line {lineno}: unknown POS label {pos!r}")
            if "\n" in surface:
                raise ParseError(f"token surface contains format characters: {surface!r}")
            if surface == "...":
                surface = "…"
            token = seen[raw] = tuple.__new__(TaggedToken, (sys.intern(surface), label))
        if token is not None:
            current.append(token)
            if token[0] not in TERMINAL_SURFACES:
                continue
        # A hard break, or a terminal surface, closes the sentence.
        if current:
            sentences.append(tuple(current))
            current = []
    if current:
        sentences.append(tuple(current))
    if not sentences:
        raise ParseError(f"{doc_id}: empty document")
    return Document._trusted(doc_id, tuple(sentences))


def _doc_from_json(
    obj: dict,
    base_dir: Path,
    where: str,
    seen: dict[str, TaggedToken],
    tagged_bytes: Optional[dict[str, bytes]] = None,
) -> Document:
    """One document entry; a tagged file already read is taken from
    ``tagged_bytes`` (keyed by its path as the entry names it), and its
    lines are parsed with the tokens ``seen`` (see ``_parse_tagged``). The
    id is checked by ``Document`` or the parser, whose error is prefixed
    with ``where``."""
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: document entry is not an object")
    doc_id = obj.get("id")
    if "sentences" in obj:
        sents = obj["sentences"]
        if not isinstance(sents, list):
            raise CorpusError(f"{where}: document {doc_id!r} sentences must be a list")
        for i, sent in enumerate(sents, start=1):
            if not isinstance(sent, list) or not all(isinstance(t, str) for t in sent):
                raise CorpusError(
                    f"{where}: document {doc_id!r} sentence {i} is not a list of strings"
                )
        try:
            return Document(id=doc_id, sentences=tuple([tuple(sent) for sent in sents]))
        except CorpusError as exc:
            raise CorpusError(f"{where}: {exc}") from exc
    if "tagged" in obj:
        rel = obj["tagged"]
        if not isinstance(rel, str) or not rel:
            raise CorpusError(f"{where}: document {doc_id!r} has invalid tagged path")
        path = base_dir / rel
        try:
            data = tagged_bytes[rel] if tagged_bytes and rel in tagged_bytes else path.read_bytes()
            text = data.decode("utf-8")
        except (OSError, ValueError) as exc:
            raise CorpusError(
                f"{where}: cannot read tagged file {str(path)!r}: {exc}"
            ) from exc
        try:
            return _parse_tagged(text, doc_id, seen)
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    raise CorpusError(f"{where}: document {doc_id!r} has neither 'sentences' nor 'tagged'")


def _doc_to_json(doc: Document) -> dict:
    if doc.is_tagged:
        raise CorpusError(
            f"document {doc.id!r} is tagged; mask it before serialization"
        )
    return {"id": doc.id, "sentences": [list(s) for s in doc.sentences]}


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except (OSError, ValueError) as exc:
        raise CorpusError(f"cannot read {str(path)!r}: {exc}") from exc


def _iter_jsonl(path: Path, data: bytes) -> Iterator[tuple[int, dict]]:
    """The JSON entries of a JSONL file's bytes, with their line numbers."""
    try:
        text = data.decode("utf-8")
    except ValueError as exc:
        raise CorpusError(f"cannot read {str(path)!r}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise CorpusError(f"{path.name}: line {lineno}: invalid JSON: {exc}") from exc
        yield lineno, obj


def _stem_sidecar(problems_path: Path) -> Path:
    """The per-file reference sidecar of a problems file: ``<stem>.refs.jsonl``."""
    return problems_path.with_name(problems_path.stem + ".refs.jsonl")


def _resolve_refs_path(problems_path: Path) -> Optional[Path]:
    # Prefer a per-file sidecar, fall back to a directory-wide refs.jsonl.
    stem_sidecar = _stem_sidecar(problems_path)
    if stem_sidecar.exists():
        return stem_sidecar
    shared = problems_path.with_name("refs.jsonl")
    if shared.exists() and shared != problems_path:
        return shared
    return None


# The last reference sidecar load_reference_docs parsed: (digest, documents).
_last_reference_load: tuple = (None, ())


def load_reference_docs(path: Union[str, Path]) -> tuple[Document, ...]:
    """Load a sidecar JSONL of reference documents.

    The documents of the last sidecar parsed are kept, keyed by a sha256
    over its bytes and those of every tagged file it names. A call on
    identical content, at any path, returns that same tuple without
    parsing, so the train and test splits of one corpus directory parse a
    shared pool once per process, whether they share one ``refs.jsonl`` or
    hold byte-identical sidecars. A load that fails is never kept.
    """
    global _last_reference_load
    path = Path(path)
    data = _read_bytes(path)
    entries: list[tuple[int, dict]] = []
    error: Optional[CorpusError] = None
    try:
        entries.extend(_iter_jsonl(path, data))
    except CorpusError as exc:
        # Raised after the documents of the lines before it, as a
        # line-by-line load would.
        error = exc
    digest = hashlib.sha256(data)
    tagged_bytes: dict[str, bytes] = {}
    keyed = error is None
    for _, obj in entries:
        rel = obj.get("tagged") if isinstance(obj, dict) else None
        if not isinstance(rel, str) or not rel or rel in tagged_bytes:
            continue
        try:
            blob = (path.parent / rel).read_bytes()
        except (OSError, ValueError):
            # Its document, if it is read, raises below.
            keyed = False
            break
        tagged_bytes[rel] = blob
        digest.update(len(blob).to_bytes(8, "little"))
        digest.update(blob)
    key = digest.hexdigest() if keyed else None
    if key is not None and key == _last_reference_load[0]:
        return _last_reference_load[1]
    seen: dict[str, TaggedToken] = {}
    docs = tuple([
        _doc_from_json(obj, path.parent, f"{path.name}: line {lineno}", seen, tagged_bytes)
        for lineno, obj in entries
    ])
    if error is not None:
        raise error
    if key is not None:
        _last_reference_load = (key, docs)
    return docs


def load_corpus(
    problems_path: Union[str, Path],
    refs_path: Union[str, Path, None] = None,
    partition: Optional[str] = None,
) -> Corpus:
    """Load a problems JSONL file plus its reference sidecar.

    When ``refs_path`` is omitted the loader looks for ``<stem>.refs.jsonl``
    next to the problems file, then for a shared ``refs.jsonl`` in the same
    directory. ``partition`` overrides (and must agree with) any per-problem
    "partition" fields; with neither present the corpus defaults to "test".
    Each entry's JSON shape is checked here. Its id, label and sides are
    checked by ``VerificationProblem``, whose error is prefixed with the file
    and line, and the ``partition`` argument by ``Corpus``.
    """
    problems_path = Path(problems_path)
    problems = []
    field_partitions = set()
    seen: dict[str, TaggedToken] = {}
    for lineno, obj in _iter_jsonl(problems_path, _read_bytes(problems_path)):
        where = f"{problems_path.name}: line {lineno}"
        if not isinstance(obj, dict):
            raise CorpusError(f"{where}: problem entry is not an object")
        author = obj.get("author")
        if author is not None and not isinstance(author, str):
            raise CorpusError(f"{where}: author must be a string when present")
        part = obj.get("partition")
        if part is not None:
            if part not in ("train", "test"):
                raise CorpusError(f"{where}: invalid partition {part!r}")
            field_partitions.add(part)
        sides = []
        for key in ("unknown", "known"):
            docs = obj.get(key)
            if not isinstance(docs, list):
                raise CorpusError(f"{where}: {key!r} must be a list")
            sides.append(
                tuple([_doc_from_json(d, problems_path.parent, where, seen) for d in docs])
            )
        try:
            problem = VerificationProblem(obj.get("id"), *sides, obj.get("label"), author)
        except CorpusError as exc:
            raise CorpusError(f"{where}: {exc}") from exc
        problems.append(problem)
    if len(field_partitions) > 1:
        raise CorpusError(
            f"{problems_path.name}: mixed partition fields {sorted(field_partitions)}"
        )
    field_part = field_partitions.pop() if field_partitions else None
    if partition is not None and field_part is not None and partition != field_part:
        raise CorpusError(
            f"partition argument {partition!r} conflicts with per-problem fields {field_part!r}"
        )
    effective = partition if partition is not None else field_part or "test"

    if refs_path is None:
        resolved = _resolve_refs_path(problems_path)
    else:
        resolved = Path(refs_path)
    refs = load_reference_docs(resolved) if resolved is not None else ()
    return Corpus(problems=tuple(problems), reference_docs=refs, partition=effective)


def serialize_corpus(
    corpus: Corpus,
    problems_path: Union[str, Path],
    refs_path: Union[str, Path, None] = None,
) -> None:
    """Write a corpus back to JSONL (problems file plus reference sidecar).

    Only masked corpora serialize; tagged documents must be masked first.
    Output is deterministic: sorted keys, compact separators, one problem
    per line.
    """
    problems_path = Path(problems_path)
    lines = []
    for prob in corpus.problems:
        obj = {
            "id": prob.id,
            "label": prob.label,
            "partition": corpus.partition,
            "unknown": [_doc_to_json(d) for d in prob.unknown_docs],
            "known": [_doc_to_json(d) for d in prob.known_docs],
        }
        if prob.author is not None:
            obj["author"] = prob.author
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    problems_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    if corpus.reference_docs or refs_path is not None:
        if refs_path is None:
            refs_path = _stem_sidecar(problems_path)
        ref_lines = [
            json.dumps(_doc_to_json(d), sort_keys=True, separators=(",", ":"))
            for d in corpus.reference_docs
        ]
        Path(refs_path).write_text("\n".join(ref_lines) + "\n", encoding="utf-8")
