"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of the workload seed: it writes the
workload's input files into a directory and returns a description of their
sizes. The program under test only ever sees those files.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

import grammarlr
from grammarlr import Corpus, Document
from workload import EVALUATE_TAGGED, SWEEP_LONG, VERIFY_PAPER

# A stored calibration, applied to every verify-paper problem the way
# `grammarlr verify --calibration` applies one.
VERIFY_CALIBRATION = {
    "intercept": -0.25,
    "slope": 0.04,
    "prior_log_odds": 0.0,
    "separated": False,
}

# POS labels for the function symbols of the synthetic alphabet; placeholder
# glyphs become random content words with the POS their glyph stands for.
_FUNCTION_POS = {
    "the": "DET", "a": "DET", "this": "DET",
    "of": "ADP", "in": "ADP", "for": "ADP", "on": "ADP", "with": "ADP",
    "as": "ADP", "by": "ADP", "at": "ADP",
    "and": "CONJ", "but": "CONJ",
    "to": "PART", "not": "PART",
    "that": "PRON", "it": "PRON", "i": "PRON", "you": "PRON", "he": "PRON",
    "they": "PRON", "she": "PRON",
    "is": "VERB", "was": "VERB", "be": "VERB",
    ",": "PUNCT", ".": "PUNCT",
}
_GLYPH_POS = {"N": "NOUN", "V": "VERB", "J": "ADJ", "B": "ADV", "P": "PROPN"}
_CONTENT_WORDS_PER_POS = 200


def _synth(doc_tokens: int, **kwargs) -> Corpus:
    """A synthetic corpus with more than enough sentences for ``_fix_sizes``."""
    return grammarlr.synth_corpus(sentences_per_doc=doc_tokens // 4, **kwargs)


def _fix_sizes(corpus: Corpus, doc_tokens: int, sample_tokens: int) -> Corpus:
    """Cut a synthetic corpus to a fixed size in tokens.

    synth draws sentence lengths from each author's Markov source, so its
    sizes vary with the seed. Two cuts fix the sizes that set the cost of a
    run while the text itself still comes from the seed:

    * every unknown and reference document is cut to the shortest run of
      its leading sentences that holds ``doc_tokens`` tokens;
    * the known side of each problem is cut to a number of sentences that,
      at the pool's mean sentence length, holds ``sample_tokens`` tokens on
      average over the problems. Each reference model is trained on a
      sample of as many pool sentences as the known side has, so this fixes
      the reference models' size. The counts differ by at most one sentence
      between problems, which spreads the rounding over all of them.
    """

    def cut_tokens(doc: Document) -> Document:
        kept, n = [], 0
        for sent in doc.sentences:
            if n >= doc_tokens:
                break
            kept.append(sent)
            n += len(sent)
        return replace(doc, sentences=tuple(kept))

    def split(total: int, parts: int) -> list[int]:
        share, extra = divmod(total, parts)
        return [max(1, share + (i < extra)) for i in range(parts)]

    refs = tuple(cut_tokens(d) for d in corpus.reference_docs)
    pool_mean = sum(d.token_count for d in refs) / sum(len(d.sentences) for d in refs)
    n_problems = len(corpus.problems)
    known_sentences = split(round(n_problems * sample_tokens / pool_mean), n_problems)

    problems = tuple(
        replace(
            p,
            known_docs=tuple(
                replace(d, sentences=d.sentences[:k])
                for d, k in zip(p.known_docs, split(known, len(p.known_docs)))
            ),
            unknown_docs=tuple(cut_tokens(d) for d in p.unknown_docs),
        )
        for p, known in zip(corpus.problems, known_sentences)
    )
    return replace(corpus, problems=problems, reference_docs=refs)


def _write_masked(corpus: Corpus, path: Path) -> None:
    grammarlr.serialize_corpus(corpus, path, path.with_name("refs.jsonl"))


def _side_tokens(corpus: Corpus, side: str) -> int:
    return sum(d.token_count for p in corpus.problems for d in getattr(p, side))


def _sizes(corpora: list[Corpus], order, refs, grid=None) -> dict:
    return {
        "problems": sum(len(c.problems) for c in corpora),
        "known_tokens": sum(_side_tokens(c, "known_docs") for c in corpora),
        "unknown_tokens": sum(_side_tokens(c, "unknown_docs") for c in corpora),
        "pool_tokens": sum(d.token_count for d in corpora[0].reference_docs),
        "order": order,
        "refs": refs,
        "grid": grid,
    }


def make_verify_paper(seed: int, out: Path) -> dict:
    """Three masked problems at the paper's defaults, plus a calibration."""
    corpus = _synth(
        VERIFY_PAPER["doc_tokens"], seed=seed, authors=5, problems_per_author=1, ref_authors=20
    )
    corpus = _fix_sizes(corpus, VERIFY_PAPER["doc_tokens"], VERIFY_PAPER["sample_tokens"])
    if len(corpus.problems) != VERIFY_PAPER["problems"]:
        raise RuntimeError(f"expected {VERIFY_PAPER['problems']} problems")
    _write_masked(corpus, out / "test.jsonl")
    (out / "calibration.json").write_text(json.dumps(VERIFY_CALIBRATION), encoding="utf-8")
    return _sizes([corpus], VERIFY_PAPER["order"], VERIFY_PAPER["refs"])


def _content_words(rng: random.Random, retain: frozenset[str]) -> dict[str, list[str]]:
    consonants, vowels = "bcdfghklmnprstvwz", "aeiou"
    words: dict[str, list[str]] = {}
    seen: set[str] = set()
    for glyph in _GLYPH_POS:
        bucket = words[glyph] = []
        while len(bucket) < _CONTENT_WORDS_PER_POS:
            word = "".join(
                rng.choice(consonants) + rng.choice(vowels)
                for _ in range(rng.randint(2, 4))
            )
            if word not in seen and word not in retain:
                seen.add(word)
                bucket.append(word)
    return words


def _tagged_lines(doc: Document, rng: random.Random, words: dict[str, list[str]]) -> str:
    lines = []
    for sent in doc.sentences:
        for i, tok in enumerate(sent):
            if tok in _GLYPH_POS:
                surface, pos = rng.choice(words[tok]), _GLYPH_POS[tok]
                if pos == "PROPN":
                    surface = surface.capitalize()
            else:
                surface, pos = tok, _FUNCTION_POS[tok]
            if i == 0:
                surface = surface[:1].upper() + surface[1:]
            lines.append(f"{surface}\t{pos}")
        lines.append("")
    return "\n".join(lines) + "\n"


def _write_tagged(corpus: Corpus, path: Path, rng, words) -> None:
    tagged_dir = path.parent / "tagged"
    tagged_dir.mkdir(exist_ok=True)

    def entry(doc: Document) -> dict:
        (tagged_dir / f"{doc.id}.tsv").write_text(
            _tagged_lines(doc, rng, words), encoding="utf-8"
        )
        return {"id": doc.id, "tagged": f"tagged/{doc.id}.tsv"}

    lines = [
        json.dumps(
            {
                "id": p.id,
                "label": p.label,
                "author": p.author,
                "partition": corpus.partition,
                "unknown": [entry(d) for d in p.unknown_docs],
                "known": [entry(d) for d in p.known_docs],
            },
            sort_keys=True,
        )
        for p in corpus.problems
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_evaluate_tagged(seed: int, out: Path) -> dict:
    """A tagged train/test corpus with a large tagged reference pool.

    The tagged form is checked to mask back to the synthetic source, so the
    workload scores exactly the corpus synth generated.
    """
    kwargs = dict(
        seed=seed,
        authors=16,
        known_docs_per_problem=1,
        ref_authors=40,
        ref_docs_per_author=10,
    )
    train, test = (
        _fix_sizes(
            _synth(EVALUATE_TAGGED["doc_tokens"], partition=part, **kwargs),
            EVALUATE_TAGGED["doc_tokens"],
            EVALUATE_TAGGED["sample_tokens"],
        )
        for part in ("train", "test")
    )
    lexicon = grammarlr.default_lexicon()
    rng = random.Random(seed)
    words = _content_words(rng, lexicon.retain)
    _write_tagged(train, out / "train.jsonl", rng, words)
    _write_tagged(test, out / "test.jsonl", rng, words)
    entries = []
    for doc in train.reference_docs:
        (out / "tagged" / f"{doc.id}.tsv").write_text(
            _tagged_lines(doc, rng, words), encoding="utf-8"
        )
        entries.append(json.dumps({"id": doc.id, "tagged": f"tagged/{doc.id}.tsv"}))
    (out / "refs.jsonl").write_text("\n".join(entries) + "\n", encoding="utf-8")

    for source, name in ((train, "train.jsonl"), (test, "test.jsonl")):
        loaded = grammarlr.load_corpus(out / name)
        if grammarlr.mask_corpus(loaded, lexicon) != source:
            raise RuntimeError(f"tagged {name} does not mask back to its source corpus")
    return _sizes([train, test], EVALUATE_TAGGED["order"], EVALUATE_TAGGED["refs"])


def _swap_sides(corpus: Corpus) -> Corpus:
    """Swap each problem's known and unknown documents.

    A Y problem keeps one author on both sides and an N problem keeps two
    different authors, so the labels stay valid.
    """
    problems = tuple(
        replace(p, known_docs=p.unknown_docs, unknown_docs=p.known_docs)
        for p in corpus.problems
    )
    return replace(corpus, problems=problems)


def make_sweep_long(seed: int, out: Path) -> dict:
    """Masked problems whose unknown side is six times the known side."""
    kwargs = dict(
        seed=seed,
        authors=6,
        known_docs_per_problem=6,
        ref_authors=20,
    )
    train, test = (
        _fix_sizes(
            _swap_sides(_synth(SWEEP_LONG["doc_tokens"], partition=part, **kwargs)),
            SWEEP_LONG["doc_tokens"],
            SWEEP_LONG["sample_tokens"],
        )
        for part in ("train", "test")
    )
    _write_masked(train, out / "train.jsonl")
    _write_masked(test, out / "test.jsonl")
    grid = {"refs": list(SWEEP_LONG["refs_grid"]), "orders": list(SWEEP_LONG["orders_grid"])}
    return _sizes(
        [train, test], max(SWEEP_LONG["orders_grid"]), max(SWEEP_LONG["refs_grid"]), grid
    )


GENERATORS = {
    "verify-paper": make_verify_paper,
    "evaluate-tagged": make_evaluate_tagged,
    "sweep-long": make_sweep_long,
}
