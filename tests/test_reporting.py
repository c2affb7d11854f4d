import random

import numpy as np
import pytest

from grammarlr.ngram import EOS
from grammarlr.reporting import (
    BIN_DARK,
    BIN_LIGHT,
    BIN_MEDIUM,
    BIN_NONE,
    HighlightDoc,
    rank_sentences,
    render_highlight,
    zscore_bins,
)
from grammarlr.scoring import LambdaConfig, LambdaTrace


def make_trace(sentence_score_lists, tokens=None):
    """Build a trace from per-sentence score lists; last position is the end
    marker, like real traces."""
    cfg = LambdaConfig(order=2, refs=1)
    scores = []
    token_column = []
    bounds = [0]
    for si, sentence in enumerate(sentence_score_lists):
        for pos, score in enumerate(sentence, start=1):
            if tokens is not None:
                token = tokens[si][pos - 1]
            elif pos == len(sentence):
                token = EOS
            else:
                token = f"w{si}.{pos}"
            token_column.append(token)
            scores.append(score)
        bounds.append(len(scores))
    return LambdaTrace(np.array(scores), token_column, bounds, cfg, seed=0)


class TestZscoreBins:
    def test_light_bin(self):
        # Scores [0, 1, 1]: z of the ones is 1/sqrt(2) ~ 0.707.
        doc = zscore_bins(make_trace([[0.0, 1.0, 1.0]]))
        assert doc.bins == ((BIN_NONE, BIN_LIGHT, BIN_LIGHT),)

    def test_medium_bin(self):
        # Scores [0, 0, 1]: z of the one is sqrt(2) ~ 1.414.
        doc = zscore_bins(make_trace([[0.0, 0.0, 1.0]]))
        assert doc.bins == ((BIN_NONE, BIN_NONE, BIN_MEDIUM),)

    def test_dark_bin(self):
        # Scores [0 x5, 6]: z of the six is sqrt(5) ~ 2.236.
        doc = zscore_bins(make_trace([[0.0] * 5 + [6.0]]))
        assert doc.bins[0][-1] == BIN_DARK
        assert set(doc.bins[0][:-1]) == {BIN_NONE}

    def test_below_mean_never_highlighted(self):
        doc = zscore_bins(make_trace([[-9.0, 0.1, 0.2, 0.3]]))
        assert doc.bins[0][0] == BIN_NONE

    def test_zero_variance_warns_and_blanks(self):
        with pytest.warns(RuntimeWarning, match="zero variance"):
            doc = zscore_bins(make_trace([[0.5, 0.5], [0.5, 0.5]]))
        assert all(b == BIN_NONE for row in doc.bins for b in row)

    def test_grouping_matches_sentences(self):
        trace = make_trace([[0.1, 0.2, 0.3], [0.4, 0.5]])
        doc = zscore_bins(trace)
        assert len(doc.sentences) == 2
        assert [len(s) for s in doc.sentences] == [3, 2]
        assert doc.token_scores == ((0.1, 0.2, 0.3), (0.4, 0.5))
        assert doc.sentence_scores == trace.sentence_scores
        assert doc.sentences[0][-1] == EOS

    def test_bins_monotone_in_score(self):
        # A higher token score never gets a lighter bin.
        shade = {BIN_NONE: 0, BIN_LIGHT: 1, BIN_MEDIUM: 2, BIN_DARK: 3}
        rng = random.Random(31)
        for _ in range(25):
            scores = [rng.gauss(0.0, 2.0) for _ in range(rng.randint(2, 12))]
            doc = zscore_bins(make_trace([scores]))
            pairs = sorted(zip(scores, doc.bins[0]))
            for (_, low), (_, high) in zip(pairs, pairs[1:]):
                assert shade[low] <= shade[high]

    def test_empty_trace_rejected(self):
        empty = LambdaTrace(np.array([]), (), (0,), config=LambdaConfig(order=2, refs=1), seed=0)
        with pytest.raises(ValueError, match="no token scores"):
            zscore_bins(empty)


class TestColumnsAndTokenScoresAgree:
    """``zscore_bins`` reads the score column and the sentence bounds and
    never builds ``token_scores``; a trace and one built from a copy of its
    columns give equal highlight documents and equal rendered output."""

    SCORES = [[0.0, 2.5, -1.0], [0.4], [6.0, 0.1, 0.2, 0.3], [1.5]]

    def test_equal_highlights_and_output(self):
        listed = make_trace(self.SCORES)
        columns = LambdaTrace(
            listed.scores.copy(), listed.tokens, listed.bounds, listed.config, listed.seed
        )
        assert "token_scores" not in vars(columns)
        doc = zscore_bins(columns)
        assert "token_scores" not in vars(columns)
        assert doc == zscore_bins(listed)
        assert {b for sent in doc.bins for b in sent} > {BIN_NONE}
        for fmt in ("html", "ansi"):
            assert render_highlight(doc, fmt) == render_highlight(zscore_bins(listed), fmt)


class TestRanking:
    def test_descending_with_ties_in_document_order(self):
        trace = make_trace([[1.0], [3.0], [1.0], [3.0]])
        assert rank_sentences(trace) == (1, 3, 0, 2)

    def test_single_sentence(self):
        assert rank_sentences(make_trace([[0.7]])) == (0,)


class TestRendering:
    def _doc(self):
        return zscore_bins(
            make_trace(
                [[0.0, 0.0, 6.0], [0.1, 0.2]],
                tokens=[["<the>", "N", EOS], ["is", EOS]],
            )
        )

    def test_html_structure(self):
        out = render_highlight(self._doc(), fmt="html")
        assert out.startswith("<!doctype html>")
        assert out.endswith("</html>\n")
        assert "[EOS]" in out
        assert "&lt;the&gt;" in out  # tokens are escaped
        assert "<the>" not in out
        assert "background:" in out  # at least one highlighted span
        assert 'title="6.0000"' in out  # hover shows the raw score

    def test_html_deterministic(self):
        assert render_highlight(self._doc()) == render_highlight(self._doc())

    def test_ansi_structure(self):
        out = render_highlight(self._doc(), fmt="ansi")
        assert "\x1b[48;5;" in out
        assert out.count("\x1b[0m") >= 1
        assert "[EOS]" in out
        assert "rank 1" in out
        assert out.endswith("\n")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown report format"):
            render_highlight(self._doc(), fmt="pdf")

    def test_unhighlighted_doc_renders_plain(self):
        doc = HighlightDoc(
            sentences=(("a", EOS),),
            bins=((BIN_NONE, BIN_NONE),),
            token_scores=((0.0, 0.0),),
            sentence_scores=(0.0,),
            ranking=(0,),
        )
        out = render_highlight(doc, fmt="ansi")
        assert "\x1b[48;5;" not in out
