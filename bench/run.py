"""grammarlr benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload verify-paper --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from ``--seed``, times set-up in several
fresh processes, runs the workload untraced in a fresh process for
``--seconds`` (at least one full pass), checks the outputs, and prints the
end-to-end metrics. With ``--trace 1`` it runs the workload once untraced
and once traced, each in a fresh process, and prints the per-layer metrics
instead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it gives
the sha256 of the exact scores. A full result file, with the environment
and input sizes, goes to ``.bench_work/results/``.

Runs are serial: at most one workload process exists at a time.
``--update-golden`` (seed 0 only) stores the run's scores as the golden
scores that later runs at seed 0 are checked against.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workload import SWEEP_LONG  # noqa: E402

WORKLOADS = ("verify-paper", "evaluate-tagged", "sweep-long")
GOLDEN_SEED = 0
GOLDEN = BENCH / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
SETUP_PROBES = 5
# Whole-run deadline, under the 180 s a run may take.
DEADLINE_S = 170.0
# Relative tolerance of the golden comparison: |a - b| <= TOL * max(1, |b|).
TOL = 1e-9


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _child(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH / "workload.py"), *args]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic())
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process failed with exit code {proc.returncode}: {' '.join(args)}")
    return proc


def _run_workload(name, inputs, seed, seconds, trace, work, deadline) -> dict:
    report_path = work / f"trace{trace}" / "report.json"
    report_path.parent.mkdir(parents=True)
    _child(
        [
            "--workload", name, "--inputs", str(inputs), "--mode", "run", "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace), "--report", str(report_path),
        ],
        deadline,
    )
    return json.loads(report_path.read_text(encoding="utf-8"))


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= TOL * max(1.0, abs(b))


def _check(report: dict, per_pass: int, golden: dict | None) -> tuple[int, int, list[str]]:
    """Problem results attempted and failed in one workload process.

    A result fails when its pass raised, when a value is not finite or
    disagrees with the golden scores, or when a later pass's outputs differ
    from the first pass's.
    """
    faults: list[str] = []
    passes = report["passes"]
    attempted = per_pass * (len(passes) + (1 if report["error"] else 0))
    failed = per_pass if report["error"] else 0
    if report["error"]:
        faults.append("a pass raised:\n" + report["error"])
    if not passes:
        return attempted, failed, faults
    results = report["results"]
    if sum(r["problems"] for r in results) != per_pass:
        faults.append(f"expected {per_pass} problem results per pass")
        return attempted, attempted, faults
    bad = 0
    expected = {r["id"]: r["values"] for r in golden["results"]} if golden else None
    for r in results:
        ok = all(math.isfinite(v) for v in r["values"])
        if expected is not None:
            want = expected.get(r["id"])
            ok = ok and want is not None and len(want) == len(r["values"]) and all(
                _close(a, b) for a, b in zip(r["values"], want)
            )
        if not ok:
            bad += r["problems"]
            faults.append(f"result {r['id']} = {r['values']} is wrong")
    first = passes[0]["digest"]
    for p in passes:
        if p["digest"] != first:
            failed += per_pass
            faults.append("a later pass produced different scores")
        else:
            failed += bad
    return attempted, failed, faults


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-golden", action="store_true")
    args = ap.parse_args(argv)
    if args.update_golden and args.seed != GOLDEN_SEED:
        ap.error(f"--update-golden needs --seed {GOLDEN_SEED}")
    deadline = time.monotonic() + DEADLINE_S

    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import inputs

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    sizes = inputs.GENERATORS[args.workload](args.seed, work / "inputs")
    cells = len(SWEEP_LONG["refs_grid"]) * len(SWEEP_LONG["orders_grid"]) if sizes["grid"] else 1
    per_pass = sizes["problems"] * cells

    goldens = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    golden = goldens.get(args.workload) if args.seed == GOLDEN_SEED and not args.update_golden else None

    def run(trace: int, seconds: float) -> dict:
        return _run_workload(args.workload, work / "inputs", args.seed, seconds, trace, work, deadline)

    setup_samples: list[float] = []
    if args.trace:
        # The untraced and the traced process share the measuring time.
        reports = [run(0, args.seconds / 2), run(1, args.seconds / 2)]
    else:
        for _ in range(SETUP_PROBES):
            proc = _child(["--workload", args.workload, "--inputs", str(work / "inputs"), "--mode", "probe"], deadline)
            setup_samples.append(float(proc.stdout.strip().splitlines()[-1]))
        reports = [run(0, args.seconds)]

    attempted = failed = 0
    faults: list[str] = []
    for report in reports:
        a, f, i = _check(report, per_pass, golden)
        attempted, failed, faults = attempted + a, failed + f, faults + i
    if not all(r["passes"] for r in reports):
        for line in faults:
            print(f"check failed: {line}", file=sys.stderr)
        print("no pass of the workload completed; no metrics to report", file=sys.stderr)
        return 1
    digests = {p["digest"] for r in reports for p in r["passes"]}
    if len(reports) == 2 and len(digests) > 1:
        failed = attempted
        faults.append("traced and untraced runs produced different scores")
    untraced = reports[0]
    run_s = statistics.median(p["run_s"] for p in untraced["passes"])

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.trace:
        traced = reports[1]
        metrics = dict(traced["trace"]["metrics"])
        metrics["trace.overhead_s"] = statistics.median(p["run_s"] for p in traced["passes"]) - run_s
        declared = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "run_s": run_s,
            "problems_per_s": per_pass / run_s,
            "peak_rss_mb": untraced["peak_rss_mb"],
            "correct_frac": 1.0 - failed / attempted,
        }
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {SPEC.name}: {sorted(units)}")

    digest = untraced["passes"][0]["digest"]
    if args.update_golden and not faults:
        goldens[args.workload] = {"seed": args.seed, "sha256": digest, "results": untraced["results"]}
        GOLDEN.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    result = {
        "correct": not faults and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": failed / attempted if attempted else None,
        "faults": faults,
        "scores_sha256": digest,
        "golden_sha256": golden["sha256"] if golden else None,
        "inputs": {**sizes, "cells": cells, "problem_results_per_pass": per_pass},
        "setup_samples_s": setup_samples,
        "reports": [{k: v for k, v in r.items() if k != "results"} for r in reports],
        "env": {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
        },
    }
    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{work.name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work / "inputs", ignore_errors=True)

    for line in faults:
        print(f"check failed: {line}", file=sys.stderr)
    if args.trace:
        accounted = statistics.median(traced["trace"]["self_s_per_pass"])
        print(f"per-layer self time per pass {accounted:.4f} s = untraced run_s {run_s:.4f} s "
              f"+ trace.overhead_s {metrics['trace.overhead_s']:+.4f} s")
    match = "" if golden is None else (" (golden: identical)" if digest == golden["sha256"] else " (golden: differs)")
    print(f"scores_sha256 {digest}{match}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
