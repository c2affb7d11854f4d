"""One workload in one fresh process.

    python3 bench/workload.py --workload NAME --inputs DIR --mode probe
    python3 bench/workload.py --workload NAME --inputs DIR --mode run \
        --seed N --seconds S --trace 0|1 --report FILE

``probe`` times set-up only (import grammarlr, load the inputs) and prints
the seconds it took. ``run`` sets up, then repeats the workload's pipeline
calls for up to ``--seconds`` (at least once), and writes a JSON report:
set-up time, each pass's time and score digest, the scores of the first
pass, and the process's peak RSS. Times are scaled to a nominal machine
speed (see ``SpeedSampler``); the report keeps the wall times. With
``--trace 1`` the tracer wraps the package's public names first and the
report adds the per-layer metrics; the spans go to ``spans.jsonl`` beside
the report.

The package is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Workload shapes. Sizes were tuned so one pass takes about 5 s on a 2-core
# machine, and a 30 s run holds about six, while each workload still
# stresses its layer.
VERIFY_PAPER = dict(order=10, refs=100, problems=3, doc_tokens=200, sample_tokens=120)
EVALUATE_TAGGED = dict(order=3, refs=10, doc_tokens=200, sample_tokens=200)
SWEEP_LONG = dict(refs_grid=(10, 30), orders_grid=(3, 5), doc_tokens=80, sample_tokens=80)

# On a shared host the machine's speed drifts by up to 1.6x within seconds,
# so times are scaled to a nominal speed. While a measured interval runs, a
# timer signal every SAMPLE_INTERVAL_S times a tiny fixed kernel (about
# 0.2 ms, under 1 % of the interval), and a wall time t becomes
# t * NOMINAL_KERNEL_S / (mean kernel time inside the interval). The kernel
# does dict lookups on tuple keys, the operation n-gram counting and scoring
# spend their time on, and allocates no objects the cyclic collector
# tracks, so no collection of the workload's heap lands inside it.
# NOMINAL_KERNEL_S is about its median on the 2-core x86-64 VM the
# benchmark was built on, so scaled times stay close to wall times there.
NOMINAL_KERNEL_S = 0.0002
SAMPLE_INTERVAL_S = 0.025


class SpeedSampler:
    """Samples the machine's speed from SIGALRM while it is entered."""

    def __init__(self) -> None:
        self._table = {(i, i % 7, "k"): i for i in range(2000)}
        self._keys = list(self._table)
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        total = 0
        for key in self._keys:
            total += self._table[key]
        self.samples.append(time.perf_counter() - t)

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale_since(self, start: int) -> float:
        """Factor from wall time to nominal time for the interval that began
        when ``start`` samples had been taken. An interval shorter than the
        timer's period gets one sample taken at its end.

        Samples over three times the median, where the scheduler interrupted
        the kernel, are left out. The mean of the rest keeps the moderately
        slow samples: with them the scale tracked the workload's own speed
        better than the median did, which over-corrected in fast stretches.
        """
        if len(self.samples) <= start:
            self._tick(None, None)
        samples = self.samples[start:]
        cap = 3 * statistics.median(samples)
        return NOMINAL_KERNEL_S / statistics.mean(x for x in samples if x <= cap)


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import grammarlr

    if Path(grammarlr.__file__).resolve().parent != ROOT / "src" / "grammarlr":
        raise ImportError(f"grammarlr imported from outside the checkout: {grammarlr.__file__}")
    return grammarlr


def setup(name: str, inputs: Path) -> dict:
    """What a CLI run pays before any scoring: the import and the loads."""
    glr = _import_package()
    state: dict = {"glr": glr}
    if name == "verify-paper":
        state["corpus"] = glr.load_corpus(inputs / "test.jsonl")
        state["calibration"] = glr.CalibrationModel.from_json_dict(
            json.loads((inputs / "calibration.json").read_text(encoding="utf-8"))
        )
    else:
        state["train"] = glr.load_corpus(inputs / "train.jsonl")
        state["test"] = glr.load_corpus(inputs / "test.jsonl")
        if name == "evaluate-tagged":
            state["lexicon"] = glr.default_lexicon()
    return state


def run_pass(name: str, state: dict, seed: int, out: Path) -> tuple[list[dict], str]:
    """One pass of the workload's pipeline calls.

    Returns the checked results, one per scored unit, each with the number
    of problem results it stands for, and the exact output text the score
    digest is taken over.
    """
    glr = state["glr"]
    if name == "verify-paper":
        corpus, calibration = state["corpus"], state["calibration"]
        config = glr.LambdaConfig(order=VERIFY_PAPER["order"], refs=VERIFY_PAPER["refs"], seed=seed)
        results, texts = [], []
        for problem in corpus.problems:
            trace = glr.verify_problem(problem, corpus.reference_docs, config)
            log_lr = calibration.apply(trace.total)
            result = {
                "problem_id": problem.id,
                "lambda": trace.total,
                "log_lr": log_lr,
                "log_lr10": glr.log10_lr(log_lr),
                "decision": glr.decide(log_lr),
            }
            trace_text = trace.to_json()
            report = glr.render_highlight(glr.zscore_bins(trace), fmt="html")
            problem_dir = out / problem.id
            problem_dir.mkdir(parents=True, exist_ok=True)
            (problem_dir / "trace.json").write_text(trace_text + "\n", encoding="utf-8")
            (problem_dir / "result.json").write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
            (problem_dir / "report.html").write_text(report, encoding="utf-8")
            results.append({"id": problem.id, "values": [trace.total, log_lr], "problems": 1})
            texts.append(trace_text)
        return results, "\n".join(texts)
    if name == "evaluate-tagged":
        config = glr.LambdaConfig(order=EVALUATE_TAGGED["order"], refs=EVALUATE_TAGGED["refs"], seed=seed)
        evaluation = glr.evaluate_corpus(state["train"], state["test"], config, state["lexicon"])
        text = evaluation.to_json()
        (out / "results.json").write_text(text, encoding="utf-8")
        results = [
            {"id": r.problem_id, "values": [r.score, r.log_lr], "problems": 1}
            for r in (*evaluation.train_results, *evaluation.test_results)
        ]
        return results, text
    if name == "sweep-long":
        base = glr.LambdaConfig(seed=seed)
        rows = glr.sweep_grid(
            state["train"], state["test"], base, SWEEP_LONG["refs_grid"], SWEEP_LONG["orders_grid"]
        )
        text = json.dumps(rows, sort_keys=True)
        (out / "sweep.json").write_text(text, encoding="utf-8")
        per_cell = len(state["train"].problems) + len(state["test"].problems)
        results = [
            {"id": f"refs{row['refs']}-order{row['order']}", "values": [row["auc"], row["cllr"]], "problems": per_cell}
            for row in rows
        ]
        return results, text
    raise ValueError(f"unknown workload {name!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--mode", choices=("probe", "run"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", type=Path)
    args = ap.parse_args(argv)

    if args.mode == "probe":
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            setup(args.workload, args.inputs)
            setup_s = time.perf_counter() - t0
        print(repr(setup_s * sampler.scale_since(0)))
        return 0

    tracer, span = None, lambda name: contextlib.nullcontext()
    if args.trace:
        from tracing import Tracer

        _import_package()
        tracer = Tracer()
        tracer.install()
        span = tracer.span
    out = args.report.parent / "out"
    out.mkdir(parents=True, exist_ok=True)
    report = {"passes": [], "results": None, "error": None}
    passes = report["passes"]
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        with span("setup"):
            state = setup(args.workload, args.inputs)
        setup_scale = sampler.scale_since(0)
        report["setup_s"] = (time.perf_counter() - t0) * setup_scale
        started = time.perf_counter()
        try:
            # Start another pass only while it should end within --seconds.
            while not passes or (
                time.perf_counter() - started + statistics.median(p["wall_s"] for p in passes)
                <= args.seconds
            ):
                if tracer is not None:
                    tracer.pass_index = len(passes)
                first_sample = len(sampler.samples)
                t, c = time.perf_counter(), time.process_time()
                with span("run"):
                    results, text = run_pass(args.workload, state, args.seed, out)
                wall_s, cpu_s = time.perf_counter() - t, time.process_time() - c
                scale = sampler.scale_since(first_sample)
                passes.append(
                    {
                        "run_s": wall_s * scale,
                        "wall_s": wall_s,
                        "cpu_s": cpu_s,
                        "scale": scale,
                        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                    }
                )
                if report["results"] is None:
                    report["results"] = results
        except Exception:
            report["error"] = traceback.format_exc()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and report["passes"]:
        report["trace"] = tracer.summary([p["scale"] for p in passes], setup_scale)
        tracer.write_spans(args.report.parent / "spans.jsonl")
    args.report.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
