"""Analyst-facing reports: which tokens drove a document's score.

Token scores from a trace are standardized against the document's own score
distribution (population standard deviation over every scored position,
end-of-sentence transitions included) and bucketed into four highlight bins:

    z <= 0.5   none
    0.5 < z <= 1   light
    1 < z <= 2     medium
    z > 2          dark

so an analyst's eye lands on the positions that contributed unusually strong
same-author evidence. Rendering is deterministic text generation; the HTML
variant is a standalone page with inline styles only.
"""

from __future__ import annotations

import html as _html
import math
import warnings
from dataclasses import dataclass
from itertools import pairwise

from .ngram import EOS
from .scoring import LambdaTrace

BIN_NONE = "none"
BIN_LIGHT = "light"
BIN_MEDIUM = "medium"
BIN_DARK = "dark"

_HTML_STYLE = {
    BIN_LIGHT: "background:#fadbd8;",
    BIN_MEDIUM: "background:#f1948a;",
    BIN_DARK: "background:#e74c3c;color:#ffffff;",
}
_ANSI_CODE = {
    BIN_LIGHT: "\x1b[48;5;217m",
    BIN_MEDIUM: "\x1b[48;5;210m",
    BIN_DARK: "\x1b[48;5;160m\x1b[38;5;231m",
}
_ANSI_RESET = "\x1b[0m"
_EOS_DISPLAY = "[EOS]"


@dataclass(frozen=True)
class HighlightDoc:
    """Binned view of a trace: one display token and one bin per scored
    position, grouped by sentence, plus sentence scores and their ranking."""

    sentences: tuple[tuple[str, ...], ...]
    bins: tuple[tuple[str, ...], ...]
    token_scores: tuple[tuple[float, ...], ...]
    sentence_scores: tuple[float, ...]
    ranking: tuple[int, ...]


def rank_sentences(trace: LambdaTrace) -> tuple[int, ...]:
    """Sentence indices from highest to lowest score; ties keep document order."""
    return tuple(
        sorted(
            range(len(trace.sentence_scores)),
            key=lambda i: (-trace.sentence_scores[i], i),
        )
    )


def zscore_bins(trace: LambdaTrace) -> HighlightDoc:
    """Standardize token scores within the document and bucket them.

    Reads the trace's score column and sentence bounds, not its
    ``TokenScore``s. A document whose token scores have zero variance
    (every position scored identically, e.g. author and reference models
    coincide) gets no highlights at all, plus a warning, rather than
    arbitrary ones.
    """
    scores = trace.scores.tolist()
    if not scores:
        raise ValueError("trace has no token scores")
    n = len(scores)
    mean = math.fsum(scores) / n
    var = math.fsum((s - mean) ** 2 for s in scores) / n
    sd = math.sqrt(var)

    if sd == 0.0:
        warnings.warn(
            "token scores have zero variance; no positions highlighted",
            RuntimeWarning,
        )

    def bin_of(score: float) -> str:
        if sd == 0.0:
            return BIN_NONE
        z = (score - mean) / sd
        if z > 2.0:
            return BIN_DARK
        if z > 1.0:
            return BIN_MEDIUM
        if z > 0.5:
            return BIN_LIGHT
        return BIN_NONE

    # Tuples from lists, not generators: growing a tuple from a generator
    # resizes it, which over a long run of reports fragments the heap.
    spans = list(pairwise(trace.bounds))
    sent_scores = tuple([tuple(scores[a:b]) for a, b in spans])
    return HighlightDoc(
        sentences=tuple([trace.tokens[a:b] for a, b in spans]),
        bins=tuple([tuple([bin_of(s) for s in sent]) for sent in sent_scores]),
        token_scores=sent_scores,
        sentence_scores=trace.sentence_scores,
        ranking=rank_sentences(trace),
    )


def render_highlight(doc: HighlightDoc, fmt: str = "html") -> str:
    """Render a highlight document as standalone HTML or ANSI terminal text."""
    if fmt == "html":
        return _render_html(doc)
    if fmt == "ansi":
        return _render_ansi(doc)
    raise ValueError(f"unknown report format {fmt!r}; expected 'html' or 'ansi'")


def _display(token: str) -> str:
    return _EOS_DISPLAY if token == EOS else token


def _render_html(doc: HighlightDoc) -> str:
    lines = [
        "<!doctype html>",
        "<html>",
        '<head><meta charset="utf-8"><title>score highlights</title></head>',
        '<body style="font-family:serif;max-width:60em;margin:2em auto;'
        'line-height:1.8;">',
        "<h1>Token score highlights</h1>",
        '<p style="color:#555;">Shading marks tokens scoring above the '
        "document mean: light &gt; 0.5 sd, medium &gt; 1 sd, dark &gt; 2 sd.</p>",
    ]
    rank_of = {si: r + 1 for r, si in enumerate(doc.ranking)}
    for si, (tokens, bins, scores) in enumerate(
        zip(doc.sentences, doc.bins, doc.token_scores)
    ):
        spans = []
        for token, bin_name, score in zip(tokens, bins, scores):
            text = _html.escape(_display(token))
            title = f"{score:.4f}"
            if bin_name == BIN_NONE:
                spans.append(f'<span title="{title}">{text}</span>')
            else:
                spans.append(
                    f'<span style="{_HTML_STYLE[bin_name]}" title="{title}">{text}</span>'
                )
        lines.append(
            f'<p><small style="color:#999;">#{si} '
            f"(rank {rank_of[si]}, score {doc.sentence_scores[si]:.4f})</small><br>"
            + " ".join(spans)
            + "</p>"
        )
    lines.append("</body>")
    lines.append("</html>")
    return "\n".join(lines) + "\n"


def _render_ansi(doc: HighlightDoc) -> str:
    lines = []
    rank_of = {si: r + 1 for r, si in enumerate(doc.ranking)}
    for si, (tokens, bins) in enumerate(zip(doc.sentences, doc.bins)):
        parts = []
        for token, bin_name in zip(tokens, bins):
            text = _display(token)
            if bin_name == BIN_NONE:
                parts.append(text)
            else:
                parts.append(f"{_ANSI_CODE[bin_name]}{text}{_ANSI_RESET}")
        lines.append(
            f"#{si:<3d} rank {rank_of[si]:<3d} {doc.sentence_scores[si]:>10.4f}  "
            + " ".join(parts)
        )
    return "\n".join(lines) + "\n"
