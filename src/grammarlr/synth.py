"""Synthetic verification corpora with controllable author separation.

Each author is a first-order Markov source over a small function-token
alphabet. A shared base table is perturbed per author by a convex mix with
an author-specific random table: the ``divergence`` knob is the mix weight,
so 0 makes every author identical (verification is impossible) and 1 makes
authors maximally idiosyncratic. Author tables also vary in concentration,
so documents differ in self-predictability and score normalization against
reference samples has real work to do.

Generation is a pure function of the arguments: the full author population,
every problem, and the reference pool are always generated in a fixed order
from one seeded generator, then the requested partition is returned. Train
and test partitions are author-disjoint; reference documents come from
held-out authors that appear in no problem.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .corpus import Corpus, Document, VerificationProblem

# Roughly thirty symbols shaped like a masked stream: common function words,
# placeholder glyphs, a comma, and a sentence terminal.
DEFAULT_ALPHABET = (
    "the", "of", "and", "a", "to", "in", "that", "it", "is", "was",
    "i", "for", "on", "you", "he", "be", "with", "as", "by", "at",
    "this", "but", "not", "they", "she", "N", "V", "J", "B", "P",
    ",", ".",
)

_MAX_SENTENCE_LEN = 50


def _sample_sentence(
    rng: np.random.Generator,
    init_cum: np.ndarray,
    row_cum: np.ndarray,
    term_idx: int,
    alphabet: Sequence[str],
) -> tuple[str, ...]:
    state = int(np.searchsorted(init_cum, rng.random(), side="right"))
    state = min(state, len(alphabet) - 1)
    toks = [alphabet[state]]
    while state != term_idx and len(toks) < _MAX_SENTENCE_LEN:
        state = int(np.searchsorted(row_cum[state], rng.random(), side="right"))
        state = min(state, len(alphabet) - 1)
        toks.append(alphabet[state])
    if toks[-1] != alphabet[term_idx]:
        toks[-1] = alphabet[term_idx]  # length cap hit: force termination
    return tuple(toks)


class _AuthorSource:
    def __init__(
        self,
        rng: np.random.Generator,
        base_rows: np.ndarray,
        base_init: np.ndarray,
        divergence: float,
        alphabet: Sequence[str],
        term_idx: int,
    ) -> None:
        k = len(alphabet)
        # Concentration jitter: some authors are peaked (predictable), some
        # flat, so per-token likelihoods differ in level across authors.
        conc = rng.uniform(0.25, 1.25)
        own_rows = rng.dirichlet(np.full(k, conc), size=k)
        own_init = rng.dirichlet(np.full(k, conc))
        rows = (1.0 - divergence) * base_rows + divergence * own_rows
        init = (1.0 - divergence) * base_init + divergence * own_init
        self._row_cum = np.cumsum(rows, axis=1)
        self._init_cum = np.cumsum(init)
        self._alphabet = alphabet
        self._term_idx = term_idx

    def document(
        self, rng: np.random.Generator, doc_id: str, sentences: int
    ) -> Document:
        sents = tuple(
            _sample_sentence(
                rng, self._init_cum, self._row_cum, self._term_idx, self._alphabet
            )
            for _ in range(sentences)
        )
        return Document(id=doc_id, sentences=sents)


def synth_corpus(
    seed: int,
    authors: int,
    problems_per_author: int = 2,
    divergence: float = 0.5,
    partition: str = "test",
    alphabet: Optional[Sequence[str]] = None,
    sentences_per_doc: int = 30,
    known_docs_per_problem: int = 2,
    ref_authors: Optional[int] = None,
    ref_docs_per_author: int = 4,
    train_fraction: float = 0.4,
) -> Corpus:
    """Generate one partition of a synthetic verification corpus.

    Calling twice with the same arguments except ``partition`` yields the
    two author-disjoint halves of one underlying population, sharing one
    reference pool. Problems alternate Y and N labels per author; N-problem
    unknown documents are written by the author's neighbour within the same
    partition, so no author crosses the split. Every sentence ends at the
    alphabet's last symbol.
    """
    if authors < 5:
        raise ValueError(f"need at least 5 authors for a two-sided split: {authors}")
    if problems_per_author < 1:
        raise ValueError("problems_per_author must be >= 1")
    if not 0.0 <= divergence <= 1.0:
        raise ValueError(f"divergence must lie in [0, 1]: {divergence}")
    if partition not in ("train", "test"):
        raise ValueError(f"invalid partition {partition!r}")
    if sentences_per_doc < 1 or known_docs_per_problem < 1 or ref_docs_per_author < 1:
        raise ValueError("document and sentence counts must be >= 1")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must lie in (0, 1): {train_fraction}")
    alphabet = tuple(alphabet) if alphabet is not None else DEFAULT_ALPHABET
    if len(set(alphabet)) != len(alphabet) or len(alphabet) < 3:
        raise ValueError("alphabet must hold at least 3 distinct symbols")
    term_idx = len(alphabet) - 1  # the last symbol ends every sentence
    if ref_authors is None:
        ref_authors = max(4, authors // 2)
    if ref_authors < 1:
        raise ValueError("ref_authors must be >= 1")

    k = len(alphabet)
    rng = np.random.default_rng(seed)
    base_rows = rng.dirichlet(np.full(k, 0.5), size=k)
    base_init = rng.dirichlet(np.full(k, 0.5))
    # Guarantee sentences terminate: every state reaches the terminal with
    # probability at least 0.12 in the base table.
    boost = np.zeros(k)
    boost[term_idx] = 1.0
    base_rows = 0.88 * base_rows + 0.12 * boost

    problem_sources = [
        _AuthorSource(rng, base_rows, base_init, divergence, alphabet, term_idx)
        for _ in range(authors)
    ]
    ref_sources = [
        _AuthorSource(rng, base_rows, base_init, divergence, alphabet, term_idx)
        for _ in range(ref_authors)
    ]

    n_train = int(round(train_fraction * authors))
    n_train = min(max(n_train, 2), authors - 2)
    member = ["train" if i < n_train else "test" for i in range(authors)]
    partition_indices = {
        "train": [i for i in range(authors) if member[i] == "train"],
        "test": [i for i in range(authors) if member[i] == "test"],
    }

    # Fixed generation order over all authors and problems; the requested
    # partition is filtered afterwards so both calls share one stream.
    problems: list[tuple[str, VerificationProblem]] = []
    for i in range(authors):
        name = f"a{i:03d}"
        group = partition_indices[member[i]]
        partner = group[(group.index(i) + 1) % len(group)]
        for p in range(problems_per_author):
            label = "Y" if p % 2 == 0 else "N"
            known = tuple(
                problem_sources[i].document(
                    rng, f"{name}-p{p:02d}-k{d}", sentences_per_doc
                )
                for d in range(known_docs_per_problem)
            )
            source = problem_sources[i] if label == "Y" else problem_sources[partner]
            unknown = (
                source.document(rng, f"{name}-p{p:02d}-u0", sentences_per_doc),
            )
            problems.append(
                (
                    member[i],
                    VerificationProblem(
                        id=f"{name}-p{p:02d}",
                        unknown_docs=unknown,
                        known_docs=known,
                        label=label,
                        author=name,
                    ),
                )
            )

    refs = tuple(
        ref_sources[j].document(rng, f"ref{j:03d}-d{d}", sentences_per_doc)
        for j in range(ref_authors)
        for d in range(ref_docs_per_author)
    )

    selected = tuple(prob for part, prob in problems if part == partition)
    return Corpus(problems=selected, reference_docs=refs, partition=partition)


def suffixed_alphabet(suffix: str) -> tuple[str, ...]:
    """The default alphabet with every symbol suffixed: token-disjoint from
    the default, for cross-domain experiments."""
    if not suffix:
        return DEFAULT_ALPHABET
    return tuple(f"{sym}{suffix}" for sym in DEFAULT_ALPHABET)
