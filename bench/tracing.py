"""Per-layer tracing from outside the program.

The tracer replaces public grammarlr names with timing wrappers at the place
where callers look them up: a module global such as
``grammarlr.scoring.lambda_document`` is replaced in every grammarlr module
that holds it, and a method such as ``GrammarModel.__init__`` is replaced on
its class. Nothing under ``src/`` is edited; the wrappers live only in the
traced process.

Each wrapped call records one span (id, name, start, end, parent id, problem
id, pass) in memory. Counters are derived from the wrapped calls' arguments
and return values. A layer's self time is the time its spans cover minus the
time their child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# Span name -> layer. The layer is the metric prefix the self time goes to.
LAYERS = {
    "load_corpus": "corpus",
    "mask_document": "masking",
    "train": "ngram.count",
    "train_with_estimated_discounts": "ngram.count",
    "GrammarModel.__init__": "ngram.build",
    "Vocabulary.from_sentences": "scoring.vocab",
    "sample_reference_sets": "scoring.sample",
    "lambda_document": "scoring.score",
    "fit_calibration": "calibration.fit",
    "build_metrics_report": "calibration.metrics",
    "cllr_from_log_lrs": "calibration.metrics",
    "zscore_bins": "reporting",
    "render_highlight": "reporting",
    "LambdaTrace.to_json": "reporting",
    "sweep_grid": "protocol",
    "evaluate_corpus": "protocol",
    "score_corpus": "protocol",
    "verify_problem": "protocol",
    "run": "protocol",
    "setup": "setup",
}

# Layer -> the per-layer metric its self time is reported as.
SELF_TIME_METRICS = {
    "masking": "masking.mask_s",
    "ngram.build": "ngram.build_s",
    "ngram.count": "ngram.count_s",
    "scoring.vocab": "scoring.vocab_s",
    "scoring.sample": "scoring.sample_s",
    "scoring.score": "scoring.score_s",
    "calibration.fit": "calibration.fit_s",
    "calibration.metrics": "calibration.metrics_s",
    "reporting": "reporting.render_s",
    "protocol": "protocol.self_s",
}

_MODULE_FUNCTIONS = [name for name in LAYERS if "." not in name and name not in ("run", "setup")]
_METHODS = [name for name in LAYERS if "." in name]


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._problem: str | None = None
        self.pass_index = -1
        self._ref_samples: dict[int, list] = {}
        self.counters: dict[int, dict] = defaultdict(lambda: defaultdict(float))
        self._distinct_docs: dict[int, set] = defaultdict(set)
        self._distinct_ref_sentences: dict[int, set] = defaultdict(set)
        self._configs: dict[int, set] = defaultdict(set)

    # ------------------------------------------------------------------
    # spans

    def span(self, name: str):
        return _Span(self, name)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._before(name, args, kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            tracer._after(name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced public name in the already imported package."""
        import grammarlr

        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "grammarlr" or key.startswith("grammarlr."))
        ]
        for name in _MODULE_FUNCTIONS:
            original = getattr(grammarlr, name)
            wrapped = self._wrap(name, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapped)
        for qualname in _METHODS:
            cls_name, attr = qualname.split(".")
            cls = getattr(grammarlr, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(qualname, raw.__func__)))
            else:
                setattr(cls, attr, self._wrap(qualname, raw))

    # ------------------------------------------------------------------
    # counters, from the wrapped calls' arguments and return values

    def _before(self, name: str, args: tuple, kwargs: dict) -> None:
        if name == "verify_problem":
            problem = args[0] if args else kwargs["problem"]
            config = args[2] if len(args) > 2 else kwargs["config"]
            self._problem = problem.id
            c = self.counters[self.pass_index]
            c["problem_evals"] += 1
            self._configs[self.pass_index].add(config)

    def _after(self, name: str, args: tuple, kwargs: dict, result) -> None:
        c = self.counters[self.pass_index]
        if name == "load_corpus":
            docs = [d for p in result.problems for d in (*p.known_docs, *p.unknown_docs)]
            c["tokens_loaded"] += sum(d.token_count for d in (*docs, *result.reference_docs))
        elif name == "mask_document":
            doc = args[0] if args else kwargs["doc"]
            c["mask_calls"] += 1
            if doc.is_tagged:
                c["docs_masked"] += 1
                self._distinct_docs[self.pass_index].add(doc.id)
        elif name == "sample_reference_sets":
            for sample in result:
                self._ref_samples[id(sample)] = sample
        elif name in ("train", "train_with_estimated_discounts"):
            sentences = args[0] if args else kwargs["sentences"]
            if self._ref_samples.pop(id(sentences), None) is not None:
                c["ref_sentences_counted"] += len(sentences)
                self._distinct_ref_sentences[self.pass_index].update(sentences)
        elif name == "GrammarModel.__init__":
            c["models"] += 1
            c["grams"] += len(args[0].raw_counts)
        elif name == "lambda_document":
            refs = args[2] if len(args) > 2 else kwargs["reference_models"]
            positions = len(result.token_scores)
            c["positions"] += positions
            c["model_queries"] += positions * (1 + len(refs))
        elif name == "verify_problem":
            self._problem = None

    # ------------------------------------------------------------------
    # results

    def self_times(self) -> dict[int, dict[str, float]]:
        """Pass index -> layer -> self time in seconds."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, _name, start, end, parent, _problem, _pass in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, name, start, end, _parent, _problem, pass_index in self.spans:
            out[pass_index][LAYERS[name]] += (end - start) - child_time[sid]
        return out

    def pass_metrics(
        self, pass_index: int, self_time: dict[str, float], scale: float
    ) -> dict[str, float]:
        c = self.counters[pass_index]
        m = {
            metric: self_time.get(layer, 0.0) * scale
            for layer, metric in SELF_TIME_METRICS.items()
        }
        ngram_s = m["ngram.build_s"] + m["ngram.count_s"]
        m["masking.docs_masked"] = c["docs_masked"]
        # With nothing masked, nothing is masked twice: the ratio reads 1.
        m["masking.unique_doc_ratio"] = (
            len(self._distinct_docs[pass_index]) / c["mask_calls"] if c["mask_calls"] else 1.0
        )
        m["ngram.models"] = c["models"]
        m["ngram.grams"] = c["grams"]
        m["ngram.grams_per_s"] = c["grams"] / ngram_s if ngram_s else 0.0
        m["ngram.ref_sentence_reuse"] = (
            len(self._distinct_ref_sentences[pass_index]) / c["ref_sentences_counted"]
            if c["ref_sentences_counted"]
            else 1.0
        )
        m["scoring.positions"] = c["positions"]
        m["scoring.model_queries"] = c["model_queries"]
        m["scoring.queries_per_s"] = (
            c["model_queries"] / m["scoring.score_s"] if m["scoring.score_s"] else 0.0
        )
        m["protocol.cells"] = len(self._configs[pass_index])
        m["protocol.problem_evals"] = c["problem_evals"]
        return m

    def summary(self, scales: list[float], setup_scale: float) -> dict:
        """Per-layer metrics: the setup phase's, and each pass's median.

        ``scales`` turn each pass's wall times into times at the nominal
        machine speed, and ``setup_scale`` the setup phase's.
        """
        self_times = self.self_times()
        per_pass = [self.pass_metrics(i, self_times[i], s) for i, s in enumerate(scales)]
        metrics = {
            name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]
        }
        metrics["corpus.load_s"] = self_times[-1].get("corpus", 0.0) * setup_scale
        metrics["corpus.tokens_loaded"] = self.counters[-1]["tokens_loaded"]
        return {
            "metrics": metrics,
            "self_s_per_pass": [sum(self_times[i].values()) * s for i, s in enumerate(scales)],
            "spans": len(self.spans),
        }

    def write_spans(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "problem", "pass")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "sid", "start", "problem")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        t = self.tracer
        self.sid = len(t.spans)
        t.spans.append(None)  # reserve the id; filled in on exit
        t._stack.append(self.sid)
        self.problem = t._problem
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        parent = t._stack[-1] if t._stack else None
        t.spans[self.sid] = (
            self.sid, self.name, self.start, end, parent, self.problem, t.pass_index
        )
