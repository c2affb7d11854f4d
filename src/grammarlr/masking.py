"""Topic masking: turn tagged text into a function-token stream.

Surfaces whose casefolded form appears in the retain list, and all tokens
carrying a function POS label (pronouns, determiners, adpositions,
conjunctions, particles, punctuation, OTHER), are kept as their casefolded
surface. Every other token is replaced by the single placeholder glyph for
its POS label, erasing topical content while preserving sentence shape.

Placeholder glyphs pass through masking verbatim, so masking an
already-masked stream is the identity.

Masking is a pure function of (surface, POS, lexicon), so each lexicon
keeps a memo of the tokens it has masked, and a sentence is masked by one
lookup per token; only a token not seen before goes through ``mask_token``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from .corpus import (
    CONTENT_POS,
    FUNCTION_POS,
    POS_LABELS,
    RESERVED_SURFACES,
    Corpus,
    Document,
    TaggedToken,
    VerificationProblem,
)
from .errors import LexiconError

_RETAIN_SECTION = "[retain]"
_PLACEHOLDER_SECTION = "[placeholders]"


@dataclass(frozen=True)
class MaskingLexicon:
    """Retain set plus placeholder table. Immutable once validated.

    ``retain`` holds casefolded surfaces. ``placeholders`` maps every content
    POS label to a distinct glyph; glyphs must not collide with the retain
    set, or masked output would be ambiguous, nor be a reserved token
    (``<UNK>``, ``<BOS>``, ``<EOS>``). So no masked token is reserved: each
    is a glyph or a casefolded surface, and the reserved tokens hold
    capitals.
    """

    retain: frozenset[str]
    placeholders: Mapping[str, str]

    def __post_init__(self) -> None:
        for surface in self.retain:
            if not surface or surface != surface.casefold():
                raise LexiconError(
                    f"retain entries must be non-empty and casefolded: {surface!r}"
                )
        unknown = set(self.placeholders) - POS_LABELS
        if unknown:
            raise LexiconError(f"placeholders for unknown POS labels: {sorted(unknown)}")
        missing = CONTENT_POS - set(self.placeholders)
        if missing:
            raise LexiconError(f"missing placeholders for POS labels: {sorted(missing)}")
        seen: dict[str, str] = {}
        for pos, glyph in self.placeholders.items():
            if not glyph or any(ch.isspace() for ch in glyph):
                raise LexiconError(f"invalid placeholder glyph for {pos}: {glyph!r}")
            if glyph in RESERVED_SURFACES:
                raise LexiconError(f"placeholder glyph {glyph!r} for {pos} is a reserved token")
            if glyph.casefold() in self.retain:
                raise LexiconError(
                    f"placeholder glyph {glyph!r} collides with the retain set"
                )
            if glyph in seen:
                raise LexiconError(
                    f"placeholder glyph {glyph!r} used for both {seen[glyph]} and {pos}"
                )
            seen[glyph] = pos

    @cached_property
    def glyphs(self) -> frozenset[str]:
        return frozenset(self.placeholders.values())

    @cached_property
    def _masked(self) -> "_Memo":
        return _Memo(self)


class _Memo(dict):
    """A lexicon's memo: token -> ``mask_token(token, lexicon)``, of each
    token looked up, masked when it is first looked up."""

    def __init__(self, lexicon: MaskingLexicon) -> None:
        self.lexicon = lexicon

    def __missing__(self, token: TaggedToken) -> str:
        masked = self[token] = mask_token(token, self.lexicon)
        return masked


def load_lexicon(path: Union[str, Path]) -> MaskingLexicon:
    """Load a lexicon file: a [retain] section of one surface per line and a
    [placeholders] section of POS<TAB>glyph lines. Blank lines are ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise LexiconError(f"cannot read lexicon {str(path)!r}: {exc}") from exc
    return parse_lexicon(text, name=str(path))


def parse_lexicon(text: str, name: str = "<lexicon>") -> MaskingLexicon:
    retain: set[str] = set()
    placeholders: dict[str, str] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            if line == _RETAIN_SECTION:
                section = "retain"
            elif line == _PLACEHOLDER_SECTION:
                section = "placeholders"
            else:
                raise LexiconError(f"{name}: line {lineno}: unknown section {line!r}")
            continue
        if section == "retain":
            if any(ch.isspace() for ch in line):
                raise LexiconError(
                    f"{name}: line {lineno}: retain entry contains whitespace: {line!r}"
                )
            retain.add(line.casefold())
        elif section == "placeholders":
            fields = line.split("\t")
            if len(fields) != 2:
                raise LexiconError(
                    f"{name}: line {lineno}: expected 'POS<TAB>glyph', got {len(fields)} field(s)"
                )
            pos, glyph = fields[0].strip(), fields[1].strip()
            if pos in placeholders:
                raise LexiconError(f"{name}: line {lineno}: duplicate placeholder for {pos}")
            placeholders[pos] = glyph
        else:
            raise LexiconError(
                f"{name}: line {lineno}: content before any section header"
            )
    try:
        return MaskingLexicon(retain=frozenset(retain), placeholders=placeholders)
    except LexiconError as exc:
        raise LexiconError(f"{name}: {exc}") from None


@lru_cache(maxsize=1)
def default_lexicon() -> MaskingLexicon:
    """The bundled English function-word lexicon."""
    text = (
        resources.files("grammarlr").joinpath("data/default_lexicon.txt").read_text("utf-8")
    )
    return parse_lexicon(text, name="default_lexicon.txt")


def mask_token(token: TaggedToken, lexicon: MaskingLexicon) -> str:
    if token.surface in lexicon.glyphs:
        return token.surface
    folded = token.surface.casefold()
    if token.pos in FUNCTION_POS or folded in lexicon.retain:
        return folded
    return lexicon.placeholders[token.pos]


def mask_sentence(
    sentence: Sequence[TaggedToken], lexicon: MaskingLexicon
) -> tuple[str, ...]:
    """Mask one sentence; output has exactly one token per input token."""
    # Tuples here are built from lists, at their final size. One built from
    # an iterator is allocated at a guess and resized, and over repeated calls
    # the freed tuples pile up in the interpreter's free lists of other sizes.
    return tuple([*map(lexicon._masked.__getitem__, sentence)])


def mask_document(doc: Document, lexicon: MaskingLexicon) -> Document:
    """Mask a tagged document; already-masked documents pass through.

    Each masked token is a lexicon glyph or a casefolded surface, never
    empty and never reserved (see :class:`MaskingLexicon`), so the masked
    document needs no check of its own.
    """
    if doc.is_tagged:
        doc = Document._trusted(doc.id, tuple([mask_sentence(s, lexicon) for s in doc.sentences]))
    return doc


def mask_problems(
    problems: Sequence[VerificationProblem], lexicon: Optional[MaskingLexicon] = None
) -> tuple[VerificationProblem, ...]:
    """Mask problems before they are scored, with the bundled lexicon
    unless another is given: each tagged document of each problem once.
    Already-masked documents are kept as they are."""
    lexicon = lexicon if lexicon is not None else default_lexicon()

    def mask(docs: Sequence[Document]) -> tuple[Document, ...]:
        return tuple([mask_document(d, lexicon) if d.is_tagged else d for d in docs])

    return tuple([
        replace(p, unknown_docs=mask(p.unknown_docs), known_docs=mask(p.known_docs))
        for p in problems
    ])


def mask_corpus(corpus: Corpus, lexicon: Optional[MaskingLexicon] = None) -> Corpus:
    """Mask every tagged document in a corpus, problems and references
    alike, with the bundled lexicon unless another is given;
    already-masked documents are kept as they are."""
    lexicon = lexicon if lexicon is not None else default_lexicon()
    refs = tuple([mask_document(d, lexicon) for d in corpus.reference_docs])
    return replace(corpus, problems=mask_problems(corpus.problems, lexicon), reference_docs=refs)
