"""Command line interface.

Subcommands cover the whole pipeline: ``synth`` generates controllable
corpora, ``mask`` turns tagged corpora into function-token streams,
``verify`` scores one problem, ``evaluate`` runs the train/calibrate/test
protocol, ``sweep`` grids over reference counts and model orders, and
``crossgenre`` swaps reference pools between domains.

Exit codes: 0 success, 1 an output that failed while being written (a full
disk, an I/O error), 2 usage error (a bad flag or an output path that
cannot be written, found before any input is read; one line, also for a
flag argparse rejects), 3 data error
(unreadable or invalid inputs), 4 internal contract violation (a
``ContractError``, or any ``ValueError`` that escapes the pipeline: a
library precondition that failed, not a bad flag) or a worker process that
died during a ``--parallel`` run. Set GRAMMARLR_LOG=INFO (or DEBUG) for
progress logging on stderr.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

from .calibration import CalibrationModel, decide, log10_lr
from .corpus import Corpus, _resolve_refs_path, _stem_sidecar, load_corpus, serialize_corpus
from .errors import CalibrationError, ContractError, DataError, GrammarLRError, WorkerError
from .masking import MaskingLexicon, load_lexicon, mask_corpus
from .protocol import cross_genre, evaluate_corpus, sweep_grid
from .reporting import render_highlight, zscore_bins
from .scoring import SAMPLING_MODES, LambdaConfig, verify_problem
from .synth import synth_corpus, suffixed_alphabet

logger = logging.getLogger("grammarlr")


class UsageError(Exception):
    """A bad flag or flag combination, found before any input is read."""


class _Parser(argparse.ArgumentParser):
    """A parser (and, by inheritance, its sub-parsers) whose rejections
    raise ``UsageError``, so they end with one line like every other."""

    def error(self, message: str):
        raise UsageError(message)


def _setup_logging() -> None:
    level_name = os.environ.get("GRAMMARLR_LOG")
    if not level_name:
        return
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", type=int, default=10, help="model order N (default 10)")
    p.add_argument(
        "--refs", type=int, default=100, help="reference models per problem (default 100)"
    )
    p.add_argument(
        "--discount",
        type=float,
        default=0.75,
        help="constant discount, or fallback in modified mode (default 0.75)",
    )
    p.add_argument(
        "--discount-mode",
        choices=("constant", "modified"),
        default="constant",
        help="single discount or three count-binned discounts",
    )
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument(
        "--sampling",
        choices=SAMPLING_MODES,
        default="without_replacement",
        help="reference sentence sampling within a set",
    )


def _config_from_args(args: argparse.Namespace) -> LambdaConfig:
    if getattr(args, "parallel", 1) < 1:
        raise UsageError(f"parallel must be >= 1: {args.parallel}")
    try:
        return LambdaConfig(
            order=args.order,
            refs=args.refs,
            seed=args.seed,
            discount=args.discount,
            discount_mode=args.discount_mode,
            sampling=args.sampling,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _lexicon_from_args(args: argparse.Namespace) -> Optional[MaskingLexicon]:
    if getattr(args, "lexicon", None):
        return load_lexicon(args.lexicon)
    return None


def _split_paths(args: argparse.Namespace) -> tuple[Path, Path]:
    """The train and test files that the flags name, read from no file."""
    if args.train or args.test:
        if not (args.train and args.test):
            raise UsageError("--train and --test must be given together")
        if args.corpus_dir:
            raise UsageError("give a corpus directory or --train/--test paths, not both")
        return Path(args.train), Path(args.test)
    if args.corpus_dir:
        base = Path(args.corpus_dir)
        return base / "train.jsonl", base / "test.jsonl"
    raise UsageError("give a corpus directory or --train/--test paths")


def _load_split(paths: tuple[Path, Path], reference: Optional[str]) -> tuple[Corpus, Corpus]:
    refs = reference or None
    train = load_corpus(paths[0], refs_path=refs, partition="train")
    test = load_corpus(paths[1], refs_path=refs, partition="test")
    return train, test


class OutputError(Exception):
    """An output that failed while it was being written (a full disk, an
    I/O error): not a usage error, since nothing about the path was
    wrong."""


def _check_output(path: Optional[str], directory: bool = False) -> None:
    """Raise a usage error at once if the output at ``path`` could not be
    written when the command is done.

    A file output must not be a directory, and its parent must be a
    writable directory. A directory output is made with its parents, so
    the nearest of it and its ancestors that exists must be a writable
    directory. Commands check their outputs before they read any input, so
    a run that would fail fails before its work, not after.
    """
    if not path:
        return
    target = Path(path)
    if directory:
        where = target
        while not where.exists() and where != where.parent:
            where = where.parent
        code = None if where.is_dir() else errno.ENOTDIR
    elif target.is_dir():
        where, code = target, errno.EISDIR
    elif target.exists():
        where, code = target, None
    else:
        where = target.parent
        code = None if where.is_dir() else errno.ENOTDIR if where.exists() else errno.ENOENT
    if code is None and not os.access(where, os.W_OK | (os.X_OK if where.is_dir() else 0)):
        code = errno.EACCES
    if code is not None:
        raise UsageError(f"cannot write {str(path)!r}: {os.strerror(code)}")


@contextmanager
def _writing(path: str) -> Iterator[None]:
    """Report a failure while writing the output at ``path``: one that
    :func:`_check_output` could not foresee."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {str(path)!r}: {exc}") from exc


def _write_or_print(text: str, out: Optional[str]) -> None:
    if out:
        with _writing(out):
            Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# subcommands


def cmd_synth(args: argparse.Namespace) -> int:
    _check_output(args.out, directory=True)
    kwargs = dict(
        seed=args.seed,
        authors=args.authors,
        problems_per_author=args.problems_per_author,
        divergence=args.divergence,
        alphabet=suffixed_alphabet(args.alphabet_suffix),
        sentences_per_doc=args.sentences_per_doc,
        known_docs_per_problem=args.known_docs,
        ref_authors=args.ref_authors,
        ref_docs_per_author=args.ref_docs,
        train_fraction=args.train_fraction,
    )
    try:
        corpora = [synth_corpus(partition=partition, **kwargs) for partition in ("train", "test")]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = Path(args.out)
    refs_path = out / "refs.jsonl"
    with _writing(args.out):
        out.mkdir(parents=True, exist_ok=True)
        for corpus in corpora:
            serialize_corpus(corpus, out / f"{corpus.partition}.jsonl", refs_path=refs_path)
            logger.info("%s: %d problems", corpus.partition, len(corpus.problems))
    print(f"wrote train.jsonl, test.jsonl, refs.jsonl to {out}")
    return 0


def cmd_mask(args: argparse.Namespace) -> int:
    _check_output(args.out)
    if args.reference or _resolve_refs_path(Path(args.corpus)):
        # serialize_corpus writes the masked pool beside --out.
        _check_output(str(_stem_sidecar(Path(args.out))))
    lexicon = _lexicon_from_args(args)
    masked = mask_corpus(load_corpus(args.corpus, refs_path=args.reference or None), lexicon)
    with _writing(args.out):
        serialize_corpus(masked, args.out)
    n_docs = sum(
        len(p.unknown_docs) + len(p.known_docs) for p in masked.problems
    ) + len(masked.reference_docs)
    print(f"masked {len(masked.problems)} problems ({n_docs} documents) -> {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _check_output(args.out, directory=True)
    calib = None
    if args.calibration:
        try:
            calib = CalibrationModel.from_json_dict(
                json.loads(Path(args.calibration).read_text(encoding="utf-8"))
            )
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError,
                CalibrationError) as exc:
            raise DataError(f"cannot load calibration {args.calibration!r}: {exc}") from exc
    lexicon = _lexicon_from_args(args)
    corpus = load_corpus(args.corpus, refs_path=args.reference or None)
    problem = next((p for p in corpus.problems if p.id == args.problem), None)
    if problem is None:
        raise DataError(f"problem id {args.problem!r} not found in {args.corpus}")
    trace = verify_problem(problem, corpus.reference_docs, config, lexicon)

    result = {
        "problem_id": problem.id,
        "label": problem.label,
        "lambda": trace.total,
        "seed": trace.seed,
        "config": config.to_json_dict(),
    }
    if calib is not None:
        result["log_lr"] = calib.apply(trace.total)
        result["log_lr10"] = log10_lr(result["log_lr"])
        result["decision"] = decide(result["log_lr"])

    result_text = json.dumps(result, sort_keys=True, indent=2) + "\n"
    if args.out:
        out = Path(args.out)
        with _writing(args.out):
            out.mkdir(parents=True, exist_ok=True)
            (out / "trace.json").write_text(trace.to_json() + "\n", encoding="utf-8")
            (out / "result.json").write_text(result_text, encoding="utf-8")
            if args.format != "json":
                report = render_highlight(zscore_bins(trace), fmt=args.format)
                name = "report.html" if args.format == "html" else "report.txt"
                (out / name).write_text(report, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(result_text)
        if args.format == "ansi":
            sys.stdout.write(render_highlight(zscore_bins(trace), fmt="ansi"))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.out and args.calibration_out:
        if Path(args.out).resolve() == Path(args.calibration_out).resolve():
            raise UsageError(f"--out and --calibration-out name one file: {args.out!r}")
    _check_output(args.out)
    _check_output(args.calibration_out)
    paths = _split_paths(args)
    lexicon = _lexicon_from_args(args)
    train, test = _load_split(paths, args.reference)
    result = evaluate_corpus(train, test, config, lexicon, parallel=args.parallel)
    if args.calibration_out:
        with _writing(args.calibration_out):
            Path(args.calibration_out).write_text(
                json.dumps(result.calibration.to_json_dict(), sort_keys=True, indent=2)
                + "\n",
                encoding="utf-8",
            )
    if args.format == "json":
        _write_or_print(result.to_json(), args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["problem_id", "label", "lambda", "log_lr", "decision"])
        for row in result.test_results:
            writer.writerow(
                [row.problem_id, row.label, repr(row.score), repr(row.log_lr), row.decision]
            )
        _write_or_print(buf.getvalue(), args.out)
    return 0


def _grid(flag: str, text: str) -> list[int]:
    """The values of a comma-separated grid flag: integers >= 1, with no
    entry empty and none repeated (a repeat would be a second row of one
    cell)."""
    entries = text.split(",")
    if not all(v.strip() for v in entries):
        raise UsageError(f"{flag} holds an empty entry: {text!r}")
    try:
        values = [int(v) for v in entries]
    except ValueError as exc:
        raise UsageError(f"grids must be comma-separated integers: {exc}") from exc
    if min(values) < 1:
        raise UsageError("grid values must be >= 1")
    repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeated is not None:
        raise UsageError(f"{flag} repeats the value {repeated}: give each value once")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    ref_counts, orders = _grid("--r-grid", args.r_grid), _grid("--n-grid", args.n_grid)
    _check_output(args.out)
    paths = _split_paths(args)
    lexicon = _lexicon_from_args(args)
    train, test = _load_split(paths, args.reference)
    rows = sweep_grid(
        train, test, config, ref_counts, orders, lexicon, parallel=args.parallel
    )
    if args.format == "json":
        _write_or_print(json.dumps(rows, sort_keys=True, indent=2) + "\n", args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        header = ["refs", "order", "accuracy", "auc", "cllr", "cllr_min", "cllr_cal"]
        writer.writerow(header)
        for row in rows:
            writer.writerow([row["refs"], row["order"]] + [repr(row[k]) for k in header[2:]])
        _write_or_print(buf.getvalue(), args.out)
    return 0


def _matrix_csv(names: tuple[str, ...], matrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["problems\\refs"] + list(names))
    for name, row in zip(names, matrix):
        writer.writerow([name] + [repr(v) for v in row])
    return buf.getvalue()


def cmd_crossgenre(args: argparse.Namespace) -> int:
    if len(args.corpus_dirs) < 2:
        raise UsageError("crossgenre needs at least two corpus directories")
    config = _config_from_args(args)
    names = (
        args.names.split(",")
        if args.names
        else [Path(d).name or str(d) for d in args.corpus_dirs]
    )
    if len(names) != len(args.corpus_dirs):
        raise UsageError("--names must match the number of corpus directories")
    for name in names:
        if name != name.strip() or not name:
            raise UsageError(f"--names holds the domain name {name!r}: give names that are "
                             "not empty and have no surrounding spaces")
    repeated = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if repeated is not None:
        raise UsageError(f"two domains are named {repeated!r}: give distinct names with --names")
    _check_output(args.out, directory=True)
    lexicon = _lexicon_from_args(args)
    corpora = []
    for name, d in zip(names, args.corpus_dirs):
        base = Path(d)
        train = load_corpus(base / "train.jsonl", partition="train")
        test = load_corpus(base / "test.jsonl", partition="test")
        corpora.append((name, train, test))
    result = cross_genre(corpora, config, lexicon, parallel=args.parallel)
    if args.out:
        out = Path(args.out)
        with _writing(args.out):
            out.mkdir(parents=True, exist_ok=True)
            (out / "crossgenre.json").write_text(
                json.dumps(result.to_json_dict(), sort_keys=True, indent=2) + "\n",
                encoding="utf-8",
            )
            for attr, fname in (
                ("accuracy", "accuracy.csv"),
                ("cllr", "cllr.csv"),
                ("accuracy_loss", "accuracy_loss.csv"),
                ("cllr_excess", "cllr_excess.csv"),
            ):
                (out / fname).write_text(
                    _matrix_csv(result.names, getattr(result, attr)), encoding="utf-8"
                )
        print(f"wrote matrices to {args.out}")
    else:
        sys.stdout.write(json.dumps(result.to_json_dict(), sort_keys=True, indent=2) + "\n")
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="grammarlr",
        description="Authorship verification from grammar-bearing token streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--authors", type=int, default=25)
    p.add_argument("--problems-per-author", type=int, default=2)
    p.add_argument("--divergence", type=float, default=0.5)
    p.add_argument("--sentences-per-doc", type=int, default=30)
    p.add_argument("--known-docs", type=int, default=2)
    p.add_argument("--ref-authors", type=int, default=None)
    p.add_argument("--ref-docs", type=int, default=4)
    p.add_argument("--train-fraction", type=float, default=0.4)
    p.add_argument(
        "--alphabet-suffix",
        default="",
        help="suffix every alphabet symbol (makes token-disjoint domains)",
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mask", help="mask a tagged corpus into token streams")
    p.add_argument("corpus", help="problems JSONL file")
    p.add_argument("--out", required=True, help="output problems JSONL file")
    p.add_argument("--reference", default=None, help="reference docs JSONL")
    p.add_argument("--lexicon", default=None, help="lexicon file (default: bundled)")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("verify", help="score one verification problem")
    p.add_argument("corpus", help="problems JSONL file")
    p.add_argument("--problem", required=True, help="problem id to score")
    p.add_argument("--reference", default=None, help="reference docs JSONL")
    p.add_argument("--lexicon", default=None)
    _add_model_flags(p)
    p.add_argument("--calibration", default=None, help="calibration model JSON")
    p.add_argument("--out", default=None, help="output directory for artifacts")
    p.add_argument("--format", choices=("html", "ansi", "json"), default="html")
    p.set_defaults(func=cmd_verify)

    for name, help_text in (
        ("evaluate", "train/calibrate/test protocol on a corpus"),
        ("sweep", "grid over reference counts and model orders"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("corpus_dir", nargs="?", default=None)
        p.add_argument("--train", default=None, help="train problems JSONL")
        p.add_argument("--test", default=None, help="test problems JSONL")
        p.add_argument("--reference", default=None, help="reference docs JSONL")
        p.add_argument("--lexicon", default=None)
        _add_model_flags(p)
        p.add_argument("--parallel", type=int, default=1)
        p.add_argument("--out", default=None)
        if name == "evaluate":
            p.add_argument("--calibration-out", default=None)
            p.add_argument("--format", choices=("json", "csv"), default="json")
            p.set_defaults(func=cmd_evaluate)
        else:
            p.add_argument("--r-grid", default="1,10,30,100")
            p.add_argument("--n-grid", default="2,3,5,10")
            p.add_argument("--format", choices=("csv", "json"), default="csv")
            p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("crossgenre", help="swap reference pools across domains")
    p.add_argument("corpus_dirs", nargs="+", help="two or more corpus directories")
    p.add_argument("--names", default=None, help="comma-separated domain names")
    p.add_argument("--lexicon", default=None)
    _add_model_flags(p)
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--out", default=None, help="output directory for matrices")
    p.set_defaults(func=cmd_crossgenre)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ContractError, ValueError) as exc:
        print(f"internal contract violation: {exc}", file=sys.stderr)
        return 4
    except WorkerError as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return 4
    except GrammarLRError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
