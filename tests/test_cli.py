import errno
import io
import json
import math
import multiprocessing
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grammarlr import cli, protocol, scoring
from grammarlr.calibration import CalibrationModel
from grammarlr.cli import main
from grammarlr.corpus import load_corpus

FAST_MODEL = ["--order", "2", "--refs", "2", "--seed", "7"]


def run(argv):
    return main([str(a) for a in argv])


# First train problem of the corpus_dir fixture, so the first result lost.
DOOMED_PROBLEM = "a000-p00"
_verify_in_worker = scoring._verify_in_worker


def _die_on_doomed_problem(problem):
    if problem.id == DOOMED_PROBLEM:
        os._exit(1)
    return _verify_in_worker(problem)


@pytest.fixture()
def corpus_dir(tmp_path):
    out = tmp_path / "corpus"
    code = run(
        [
            "synth",
            "--out",
            out,
            "--authors",
            "6",
            "--sentences-per-doc",
            "8",
            "--ref-docs",
            "2",
            "--divergence",
            "0.7",
        ]
    )
    assert code == 0
    return out


class TestSynth:
    def test_writes_loadable_partition_files(self, corpus_dir, capsys):
        for name, partition in (("train.jsonl", "train"), ("test.jsonl", "test")):
            corpus = load_corpus(corpus_dir / name, partition=partition)
            assert corpus.problems
            assert corpus.reference_docs
        assert (corpus_dir / "refs.jsonl").exists()

    def test_alphabet_suffix(self, tmp_path):
        out = tmp_path / "sfx"
        assert (
            run(
                [
                    "synth",
                    "--out",
                    out,
                    "--authors",
                    "6",
                    "--sentences-per-doc",
                    "6",
                    "--alphabet-suffix",
                    "_q",
                ]
            )
            == 0
        )
        corpus = load_corpus(out / "test.jsonl")
        token = corpus.problems[0].unknown_docs[0].sentences[0][0]
        assert token.endswith("_q")

    def test_bad_params_exit_2(self, tmp_path, capsys):
        """synth_corpus's argument checks are usage errors: one line, and
        no output directory."""
        assert run(["synth", "--out", tmp_path / "x", "--authors", "2"]) == 2
        assert not (tmp_path / "x").exists()
        err = capsys.readouterr().err
        assert err == "usage error: need at least 5 authors for a two-sided split: 2\n"


class TestMask:
    def test_passthrough_on_untagged_corpus(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "masked.jsonl"
        assert run(["mask", corpus_dir / "train.jsonl", "--out", out]) == 0
        assert "masked" in capsys.readouterr().out
        original = load_corpus(corpus_dir / "train.jsonl")
        masked = load_corpus(out)
        assert [p.id for p in masked.problems] == [p.id for p in original.problems]
        assert (
            masked.problems[0].unknown_docs[0].sentences
            == original.problems[0].unknown_docs[0].sentences
        )

    def test_missing_file_exit_3(self, tmp_path):
        assert run(["mask", tmp_path / "nope.jsonl", "--out", tmp_path / "o"]) == 3

    def test_a_corpus_without_a_pool_writes_no_sidecar(self, corpus_dir, tmp_path):
        """With no pool to mask, the sidecar path is neither written nor
        checked."""
        problems = shutil.copy(corpus_dir / "train.jsonl", tmp_path / "problems.jsonl")
        sidecar = tmp_path / "masked.refs.jsonl"
        sidecar.mkdir()
        assert run(["mask", problems, "--out", tmp_path / "masked.jsonl"]) == 0
        assert (tmp_path / "masked.jsonl").is_file() and not any(sidecar.iterdir())

    @pytest.mark.parametrize("command", ["mask", "evaluate"])
    def test_lexicon_not_utf8_exit_3(self, corpus_dir, tmp_path, capsys, command):
        lexicon = tmp_path / "bad-lexicon.txt"
        lexicon.write_bytes(b"\xff\xfe[retain]\n")
        if command == "mask":
            argv = ["mask", corpus_dir / "train.jsonl", "--out", tmp_path / "o.jsonl"]
        else:
            argv = ["evaluate", corpus_dir] + FAST_MODEL
        assert run(argv + ["--lexicon", lexicon]) == 3
        assert "bad-lexicon.txt" in capsys.readouterr().err


class TestVerify:
    def test_stdout_json(self, corpus_dir, capsys):
        test = load_corpus(corpus_dir / "test.jsonl")
        pid = test.problems[0].id
        argv = ["verify", corpus_dir / "test.jsonl", "--problem", pid, "--format", "json"]
        assert run(argv + FAST_MODEL) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem_id"] == pid
        assert isinstance(payload["lambda"], float)
        assert "log_lr" not in payload

    def test_artifact_directory(self, corpus_dir, tmp_path, capsys):
        test = load_corpus(corpus_dir / "test.jsonl")
        pid = test.problems[0].id
        out = tmp_path / "report"
        argv = ["verify", corpus_dir / "test.jsonl", "--problem", pid, "--out", out]
        assert run(argv + FAST_MODEL) == 0
        assert (out / "trace.json").exists()
        assert (out / "result.json").exists()
        html = (out / "report.html").read_text(encoding="utf-8")
        assert html.startswith("<!doctype html>")
        trace = json.loads((out / "trace.json").read_text(encoding="utf-8"))
        result = json.loads((out / "result.json").read_text(encoding="utf-8"))
        assert trace["total"] == pytest.approx(result["lambda"])

    def test_calibrated_decision(self, corpus_dir, tmp_path, capsys):
        calib_path = tmp_path / "calibration.json"
        assert (
            run(
                ["evaluate", corpus_dir, "--calibration-out", calib_path]
                + FAST_MODEL
                + ["--out", tmp_path / "eval.json"]
            )
            == 0
        )
        model = CalibrationModel.from_json_dict(
            json.loads(calib_path.read_text(encoding="utf-8"))
        )
        assert model.slope != 0.0
        test = load_corpus(corpus_dir / "test.jsonl")
        pid = test.problems[0].id
        argv = [
            "verify",
            corpus_dir / "test.jsonl",
            "--problem",
            pid,
            "--format",
            "json",
            "--calibration",
            calib_path,
        ]
        assert run(argv + FAST_MODEL) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decision"] in ("Y", "N")
        assert payload["decision"] == ("Y" if payload["log_lr"] > 0 else "N")
        assert payload["log_lr10"] == pytest.approx(
            payload["log_lr"] / math.log(10.0), abs=1e-9
        )

    def test_unknown_problem_exit_3(self, corpus_dir):
        argv = ["verify", corpus_dir / "test.jsonl", "--problem", "missing"]
        assert run(argv + FAST_MODEL) == 3

    @pytest.mark.parametrize(
        "sentence", [5, None, "the cat", {"a": 1}, [None]],
        ids=["number", "null", "string", "object", "null-token"],
    )
    def test_malformed_sentence_exit_3(self, tmp_path, capsys, sentence):
        doc = {"id": "k", "sentences": [["a", "."], sentence]}
        problem = {"id": "p1", "known": [doc], "unknown": [{"id": "u", "sentences": [["a"]]}]}
        path = tmp_path / "probs.jsonl"
        path.write_text(json.dumps(problem) + "\n", encoding="utf-8")
        assert run(["verify", path, "--problem", "p1"] + FAST_MODEL) == 3
        err = capsys.readouterr().err
        assert "probs.jsonl: line 1: document 'k' sentence 2 is not a list of strings" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry", ["sentences", "tagged"])
    @pytest.mark.parametrize("doc_id", [None, "", 5], ids=["missing", "empty", "number"])
    def test_bad_document_id_exit_3(self, tmp_path, capsys, entry, doc_id):
        """A document entry whose id is missing, empty or not a string is
        rejected once, by the document or the tagged parser, with one line
        that names the file and line."""
        (tmp_path / "k.tsv").write_text("a\tNOUN\n.\tPUNCT\n", encoding="utf-8")
        doc = {"sentences": [["a", "."]]} if entry == "sentences" else {"tagged": "k.tsv"}
        if doc_id is not None:
            doc["id"] = doc_id
        problem = {"id": "p1", "known": [doc], "unknown": [{"id": "u", "sentences": [["a"]]}]}
        path = tmp_path / "probs.jsonl"
        path.write_text("\n" + json.dumps(problem) + "\n", encoding="utf-8")
        assert run(["verify", path, "--problem", "p1"] + FAST_MODEL) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: probs.jsonl: line 2: ")
        assert "document id must be a non-empty string" in err

    def test_malformed_calibration_exit_3(self, corpus_dir, tmp_path, capsys):
        pid = load_corpus(corpus_dir / "test.jsonl").problems[0].id
        valid = {"intercept": 0.5, "slope": 1.0, "prior_log_odds": 0.0, "separated": False}
        for field, bad in (("slope", "x"), ("intercept", math.nan)):
            calib_path = tmp_path / f"bad-{field}.json"
            calib_path.write_text(json.dumps({**valid, field: bad}), encoding="utf-8")
            argv = ["verify", corpus_dir / "test.jsonl", "--problem", pid]
            assert run(argv + ["--calibration", calib_path] + FAST_MODEL) == 3
            err = capsys.readouterr().err
            assert f"calibration field {field!r}" in err
        calib_path = tmp_path / "not-utf8.json"
        calib_path.write_bytes(b"\xff\xfe{}")
        argv = ["verify", corpus_dir / "test.jsonl", "--problem", pid]
        assert run(argv + ["--calibration", calib_path] + FAST_MODEL) == 3
        assert "cannot load calibration" in capsys.readouterr().err


@pytest.mark.parametrize("reserved", ["<UNK>", "<BOS>", "<EOS>"])
@pytest.mark.parametrize("command", ["verify", "evaluate"])
def test_reserved_glyph_in_pool_exits_3(tmp_path, monkeypatch, capsys, command, reserved):
    """A lexicon glyph spelled like a reserved token, which only the
    reference pool would use, exits 3 with one line naming the lexicon file,
    before any problem is scored."""
    plain = "The\tDET\ncat\tNOUN\nruns\tVERB\n.\tPUNCT\n"
    proper = "Paris\tPROPN\n.\tPUNCT\n"
    for name, text in (("plain", plain), ("proper", plain + proper)):
        (tmp_path / f"{name}.tsv").write_text(text, encoding="utf-8")
    for split in ("train", "test"):
        rows = [
            {
                "id": f"{split}{i}", "label": "YN"[i],
                "known": [{"id": f"{split}{i}-k", "tagged": "plain.tsv"}],
                "unknown": [{"id": f"{split}{i}-u", "tagged": "plain.tsv"}],
            }
            for i in range(2)
        ]
        (tmp_path / f"{split}.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
        )
    refs = [{"id": f"r{i}", "tagged": f"{name}.tsv"} for i, name in enumerate(
        ("plain", "proper", "proper")
    )]
    (tmp_path / "refs.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in refs), encoding="utf-8"
    )
    glyphs = {"NOUN": "N", "PROPN": reserved, "VERB": "V", "ADJ": "J", "ADV": "B",
              "NUM": "D", "SYM": "S"}
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text(
        "[retain]\ncat\n[placeholders]\n" + "".join(f"{k}\t{v}\n" for k, v in glyphs.items()),
        encoding="utf-8",
    )

    scored = []
    monkeypatch.setattr(scoring, "_score_problem", lambda *args: scored.append(args))
    argv = (
        ["verify", tmp_path / "test.jsonl", "--problem", "test0"]
        if command == "verify" else ["evaluate", tmp_path]
    )
    capsys.readouterr()
    assert run(argv + ["--lexicon", lexicon] + FAST_MODEL) == 3
    assert capsys.readouterr().err == (
        f"error: {lexicon}: placeholder glyph {reserved!r} for PROPN is a reserved token\n"
    )
    assert scored == []


@pytest.mark.parametrize("command", ["verify", "evaluate", "sweep", "crossgenre", "mask"])
def test_lexicon_is_loaded_before_the_corpus(tmp_path, monkeypatch, capsys, command):
    """Every command that takes ``--lexicon`` reads it before the corpus:
    with a lexicon whose glyph is reserved and a corpus that does not
    exist, the one error line names the lexicon, and no corpus is read."""
    lexicon = tmp_path / "lexicon.txt"
    glyphs = {"NOUN": "<UNK>", "PROPN": "P", "VERB": "V", "ADJ": "J", "ADV": "B",
              "NUM": "D", "SYM": "S"}
    lexicon.write_text(
        "[placeholders]\n" + "".join(f"{k}\t{v}\n" for k, v in glyphs.items()), encoding="utf-8"
    )
    loaded = []
    monkeypatch.setattr(cli, "load_corpus", lambda *args, **kwargs: loaded.append(args))
    missing = tmp_path / "missing"
    argv = {
        "verify": ["verify", missing / "test.jsonl", "--problem", "p0", *FAST_MODEL],
        "evaluate": ["evaluate", missing, *FAST_MODEL],
        "sweep": ["sweep", missing, *FAST_MODEL],
        "crossgenre": ["crossgenre", missing, tmp_path / "other", *FAST_MODEL],
        "mask": ["mask", missing / "test.jsonl", "--out", tmp_path / "masked.jsonl"],
    }[command]
    capsys.readouterr()
    assert run(argv + ["--lexicon", lexicon]) == 3
    assert capsys.readouterr().err == (
        f"error: {lexicon}: placeholder glyph '<UNK>' for NOUN is a reserved token\n"
    )
    assert loaded == []


class TestEvaluate:
    def test_json_out_reproducible(self, corpus_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(["evaluate", corpus_dir, "--out", out] + FAST_MODEL) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text(encoding="utf-8"))
        assert {"config", "calibration", "metrics", "cllr_raw"} <= set(payload)

    def test_csv_format(self, corpus_dir, capsys):
        argv = ["evaluate", corpus_dir, "--format", "csv"] + FAST_MODEL
        assert run(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "problem_id,label,lambda,log_lr,decision"
        assert len(lines) == 1 + len(load_corpus(corpus_dir / "test.jsonl").problems)

    def test_separate_train_test_flags(self, corpus_dir, tmp_path):
        out = tmp_path / "eval.json"
        argv = [
            "evaluate",
            "--train",
            corpus_dir / "train.jsonl",
            "--test",
            corpus_dir / "test.jsonl",
            "--reference",
            corpus_dir / "refs.jsonl",
            "--out",
            out,
        ] + FAST_MODEL
        assert run(argv) == 0
        assert out.exists()

    def test_train_without_test_exit_2(self, corpus_dir):
        argv = ["evaluate", "--train", corpus_dir / "train.jsonl"] + FAST_MODEL
        assert run(argv) == 2

    def test_no_corpus_exit_2(self):
        assert run(["evaluate"] + FAST_MODEL) == 2

    def test_missing_dir_exit_3(self, tmp_path):
        assert run(["evaluate", tmp_path / "nope"] + FAST_MODEL) == 3

    def test_stray_value_error_is_a_contract_violation(self, corpus_dir, monkeypatch, capsys):
        """A ValueError from inside the pipeline is a failed library
        precondition, not a bad flag: exit 4 with one line."""

        def failing(*args, **kwargs):
            raise ValueError("a precondition failed")

        monkeypatch.setattr(cli, "evaluate_corpus", failing)
        capsys.readouterr()
        assert run(["evaluate", corpus_dir] + FAST_MODEL) == 4
        assert capsys.readouterr().err == "internal contract violation: a precondition failed\n"

    def test_one_file_for_results_and_calibration_exit_2(
        self, corpus_dir, tmp_path, monkeypatch, capsys
    ):
        """``--out`` and ``--calibration-out`` naming one file, however the
        two are spelled, is a usage error found before any input is read:
        the results would overwrite the calibration."""

        def reached(*args, **kwargs):
            raise AssertionError("an input was read")

        monkeypatch.setattr(cli, "load_corpus", reached)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        argv = ["evaluate", corpus_dir, "--out", "x.json", "--calibration-out", "./x.json"]
        assert run(argv + FAST_MODEL) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.json").exists()

    def test_unknown_flag_exits_via_argparse(self, capsys):
        assert run(["evaluate", "--bogus"]) == 2
        assert capsys.readouterr().err == "usage error: unrecognized arguments: --bogus\n"

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched worker entry point reaches workers only by fork",
    )
    def test_dead_worker_exit_4(self, corpus_dir, monkeypatch, capfd):
        assert load_corpus(corpus_dir / "train.jsonl").problems[0].id == DOOMED_PROBLEM
        monkeypatch.setattr(scoring, "_verify_in_worker", _die_on_doomed_problem)
        for argv in (["evaluate"], ["sweep", "--r-grid", "1,2", "--n-grid", "1,2"]):
            assert run([*argv, corpus_dir, "--parallel", "2"] + FAST_MODEL) == 4
            err = capfd.readouterr().err
            assert "Traceback" not in err
            assert repr(DOOMED_PROBLEM) in err


class TestSweep:
    def test_csv_grid(self, corpus_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = [
            "sweep",
            corpus_dir,
            "--r-grid",
            "1,2",
            "--n-grid",
            "2",
            "--out",
            out,
        ] + FAST_MODEL
        assert run(argv) == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "refs,order,accuracy,auc,cllr,cllr_min,cllr_cal"
        assert len(lines) == 3

    def test_bad_grid_exit_2(self, corpus_dir):
        for grid in ("a,b", "3,0"):
            argv = ["sweep", corpus_dir, "--r-grid", grid] + FAST_MODEL
            assert run(argv) == 2

    @pytest.mark.parametrize(
        "flag, grid, says",
        [
            ("--n-grid", "3,3", "--n-grid repeats the value 3"),
            ("--r-grid", "10,1,10", "--r-grid repeats the value 10"),
            ("--r-grid", "10,", "--r-grid holds an empty entry: '10,'"),
            ("--r-grid", "10,,30", "--r-grid holds an empty entry: '10,,30'"),
            ("--n-grid", ",3", "--n-grid holds an empty entry: ',3'"),
            ("--n-grid", "2, ", "--n-grid holds an empty entry: '2, '"),
        ],
        ids=["repeated-order", "repeated-refs", "trailing", "inner", "leading", "blank"],
    )
    def test_repeated_or_empty_entry_exit_2(self, tmp_path, capsys, flag, grid, says):
        """A repeated value would score and report one cell twice, and an
        empty entry was dropped unseen: each is a usage error of one line,
        before any corpus is read (the directory is missing)."""
        capsys.readouterr()
        assert run(["sweep", tmp_path / "missing", flag, grid] + FAST_MODEL) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {says}")
        assert err.count("\n") == 1


class TestCrossGenre:
    def test_matrix_artifacts(self, corpus_dir, tmp_path):
        other = tmp_path / "other"
        assert (
            run(
                [
                    "synth",
                    "--out",
                    other,
                    "--authors",
                    "6",
                    "--sentences-per-doc",
                    "8",
                    "--ref-docs",
                    "2",
                    "--divergence",
                    "0.7",
                    "--seed",
                    "1",
                    "--alphabet-suffix",
                    "_q",
                ]
            )
            == 0
        )
        out = tmp_path / "matrix"
        argv = ["crossgenre", corpus_dir, other, "--out", out] + FAST_MODEL
        assert run(argv) == 0
        payload = json.loads((out / "crossgenre.json").read_text(encoding="utf-8"))
        assert payload["names"] == [corpus_dir.name, other.name]
        for fname in ("accuracy.csv", "cllr.csv", "accuracy_loss.csv", "cllr_excess.csv"):
            lines = (out / fname).read_text(encoding="utf-8").strip().splitlines()
            assert len(lines) == 3

    def test_single_dir_exit_2(self, corpus_dir):
        assert run(["crossgenre", corpus_dir] + FAST_MODEL) == 2

    @pytest.mark.parametrize(
        "dirs, names",
        [(["g1/data", "g2/data"], None), (["a", "b", "c"], "x,y,x")],
        ids=["basenames", "--names"],
    )
    def test_repeated_domain_name_exit_2(self, tmp_path, capsys, dirs, names):
        """Two domains of one name would give matrices whose rows and
        columns cannot be told apart: a usage error that names it, before
        any corpus is read (the directories are missing)."""
        argv = ["crossgenre", *(tmp_path / d for d in dirs), *FAST_MODEL]
        if names:
            argv += ["--names", names]
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        repeated = "x" if names else "data"
        assert err.startswith(f"usage error: two domains are named {repeated!r}")
        assert "--names" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "names, bad", [("a,", ""), ("a, a", " a"), ("a ,b", "a ")], ids=["empty", "lead", "trail"]
    )
    def test_empty_or_spaced_domain_name_exit_2(self, tmp_path, capsys, names, bad):
        """A name left empty or with spaces around it, as a comma-split
        list gives them, is a usage error that quotes it, before any corpus
        is read (the directories are missing)."""
        argv = ["crossgenre", tmp_path / "a", tmp_path / "b", *FAST_MODEL, "--names", names]
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: --names holds the domain name {bad!r}")
        assert err.count("\n") == 1



class TestUnwritableOutput:
    """An output path that cannot be written ends in a usage error naming
    the path, exit 2, before any work is done; never a traceback."""

    @pytest.fixture()
    def blocker(self, tmp_path):
        """A plain file where a directory is wanted."""
        path = tmp_path / "blocker"
        path.write_text("", encoding="utf-8")
        return path

    @pytest.fixture()
    def assert_cannot_write(self, monkeypatch, capsys):
        """Run a command whose every kind of work fails the test if it is
        reached, and require the usage error for ``path``."""

        def reached(*args, **kwargs):
            raise AssertionError("the command worked before it checked its output")

        def check(argv, path):
            for name in (
                "load_corpus",
                "synth_corpus",
                "mask_corpus",
                "verify_problem",
                "evaluate_corpus",
                "sweep_grid",
                "cross_genre",
            ):
                monkeypatch.setattr(cli, name, reached)
            capsys.readouterr()
            assert run(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"usage error: cannot write {str(path)!r}: ")
            assert err.count("\n") == 1

        return check

    def test_synth(self, blocker, assert_cannot_write):
        argv = ["synth", "--out", blocker, "--authors", "6", "--sentences-per-doc", "4"]
        assert_cannot_write(argv, blocker)

    def test_mask(self, corpus_dir, blocker, assert_cannot_write):
        out = blocker / "masked.jsonl"
        assert_cannot_write(["mask", corpus_dir / "train.jsonl", "--out", out], out)

    @pytest.mark.parametrize("pool", ["beside", "--reference"])
    def test_mask_reference_sidecar(self, corpus_dir, tmp_path, assert_cannot_write, pool):
        """A corpus with a reference pool, found beside the problems file or
        given by ``--reference``, masks it into ``<out stem>.refs.jsonl``
        beside ``--out``: that path is checked too, and nothing is written."""
        out, sidecar = tmp_path / "masked.jsonl", tmp_path / "masked.refs.jsonl"
        sidecar.mkdir()
        if pool == "beside":
            argv = ["mask", corpus_dir / "train.jsonl", "--out", out]
        else:
            problems = shutil.copy(corpus_dir / "train.jsonl", tmp_path / "problems.jsonl")
            argv = ["mask", problems, "--reference", corpus_dir / "refs.jsonl", "--out", out]
        assert_cannot_write(argv, sidecar)
        assert not out.exists()

    def test_verify(self, corpus_dir, blocker, assert_cannot_write):
        pid = load_corpus(corpus_dir / "test.jsonl").problems[0].id
        argv = ["verify", corpus_dir / "test.jsonl", "--problem", pid, "--out", blocker]
        assert_cannot_write(argv + FAST_MODEL, blocker)

    def test_evaluate(self, corpus_dir, tmp_path, blocker, assert_cannot_write):
        assert_cannot_write(["evaluate", corpus_dir, "--out", tmp_path] + FAST_MODEL, tmp_path)
        calibration = blocker / "calibration.json"
        argv = ["evaluate", corpus_dir, "--calibration-out", calibration] + FAST_MODEL
        assert_cannot_write(argv, calibration)

    def test_sweep(self, corpus_dir, blocker, assert_cannot_write):
        out = blocker / "sweep.csv"
        argv = ["sweep", corpus_dir, "--r-grid", "2", "--n-grid", "2", "--out", out]
        assert_cannot_write(argv + FAST_MODEL, out)

    def test_crossgenre(self, corpus_dir, blocker, assert_cannot_write):
        argv = ["crossgenre", corpus_dir, corpus_dir, "--names", "a,b", "--out", blocker]
        assert_cannot_write(argv + FAST_MODEL, blocker)

    def test_missing_parent(self, corpus_dir, tmp_path, assert_cannot_write):
        out = tmp_path / "absent" / "evaluate.json"
        assert_cannot_write(["evaluate", corpus_dir, "--out", out] + FAST_MODEL, out)

    def test_missing_directories_pass(self, tmp_path, capsys):
        """A directory output is made with its parents."""
        out = tmp_path / "absent" / "deeper"
        assert run(["synth", "--out", out, "--authors", "6", "--sentences-per-doc", "4"]) == 0
        assert (out / "train.jsonl").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{missing}/test.jsonl", "--problem", "p", "--order", "0"],
        ["evaluate", "{missing}", "--order", "0"],
        ["sweep", "{missing}", "--order", "0"],
        ["crossgenre", "{missing}", "{missing}", "--order", "0"],
        ["sweep", "{missing}", "--r-grid", "x"],
        ["sweep", "{missing}", "--r-grid", "3,0"],
        ["sweep", "{missing}", "--out", "{missing}/dir/sweep.csv"],
        ["evaluate", "{missing}", "--parallel", "0"],
        ["sweep", "{missing}", "--parallel", "0"],
        ["crossgenre", "{missing}", "{missing}", "--parallel", "0"],
    ],
    ids=[
        "verify-order",
        "evaluate-order",
        "sweep-order",
        "crossgenre-order",
        "sweep-grid",
        "sweep-grid-value",
        "sweep-out",
        "evaluate-parallel",
        "sweep-parallel",
        "crossgenre-parallel",
    ],
)
def test_usage_error_before_any_input_is_read(tmp_path, capsys, argv):
    """A bad flag or output path is a usage error, exit 2, even when the
    inputs are missing too."""
    missing = tmp_path / "missing"
    assert run([a.format(missing=missing) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "{corpus}"],
        ["sweep", "{corpus}", "--r-grid", "2", "--n-grid", "2"],
        ["crossgenre", "{corpus}", "{corpus}", "--names", "a,b"],
    ],
    ids=["evaluate", "sweep", "crossgenre"],
)
def test_one_class_test_split_exits_3_before_scoring(corpus_dir, monkeypatch, capsys, argv):
    """A test split whose labels are all N is a data error, found before any
    problem is scored: exit 3 with one line on stderr."""
    path = corpus_dir / "test.jsonl"
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    path.write_text("".join(json.dumps({**r, "label": "N"}) + "\n" for r in rows), encoding="utf-8")

    def scored(*args, **kwargs):
        raise AssertionError("a problem was scored")

    monkeypatch.setattr(protocol, "_score_problems", scored)
    capsys.readouterr()
    assert run([a.format(corpus=corpus_dir) for a in argv] + FAST_MODEL) == 3
    assert capsys.readouterr().err == "error: test split has only 'N' problems; it needs Y and N\n"


@pytest.mark.parametrize("target", ["problems", "sidecar", "calibration"])
def test_deeply_nested_json_exits_3(corpus_dir, tmp_path, capsys, target):
    """A JSON value nested 100,000 deep, in a problems file, a reference
    sidecar or a calibration file, is a data error: exit 3 with one line on
    stderr and no traceback."""
    deep = "[" * 100_000 + "]" * 100_000
    problems = corpus_dir / "test.jsonl"
    argv = ["verify", problems, "--problem", load_corpus(problems).problems[0].id] + FAST_MODEL
    if target == "calibration":
        path = tmp_path / "calibration.json"
        path.write_text(deep, encoding="utf-8")
        argv += ["--calibration", path]
    else:
        path = problems if target == "problems" else corpus_dir / "refs.jsonl"
        with path.open("a", encoding="utf-8") as f:
            f.write(deep + "\n")
    capsys.readouterr()
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err


class TestFailedWrite:
    def test_write_error_is_not_a_usage_error(self, corpus_dir, tmp_path, monkeypatch, capsys):
        """A write that fails on a good path (here a full disk) exits 1 with
        the path and the cause."""

        def full(self, *args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        out = tmp_path / "evaluate.json"
        monkeypatch.setattr(cli.Path, "write_text", full)
        capsys.readouterr()
        assert run(["evaluate", corpus_dir, "--out", out] + FAST_MODEL) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {str(out)!r}: ")
        assert os.strerror(errno.ENOSPC) in err


class TestLogging:
    def test_log_env_smoke(self, corpus_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GRAMMARLR_LOG", "INFO")
        out = tmp_path / "logged"
        assert (
            run(
                [
                    "synth",
                    "--out",
                    out,
                    "--authors",
                    "6",
                    "--sentences-per-doc",
                    "6",
                ]
            )
            == 0
        )
        assert (out / "train.jsonl").exists()


@pytest.fixture(scope="module")
def base_corpus(tmp_path_factory):
    """One synthetic corpus directory, copied afresh for every fault."""
    out = tmp_path_factory.mktemp("base") / "corpus"
    argv = ["synth", "--out", out, "--authors", "6", "--sentences-per-doc", "8", "--ref-docs", "2"]
    assert run(argv) == 0
    return out


# Each fault class: the commands it applies to and its documented exit code.
FAULTS = {
    "bad flag": (("verify", "evaluate", "sweep"), 2),
    "unreadable or malformed file": (("verify", "evaluate", "sweep"), 3),
    "labels of one class": (("evaluate", "sweep"), 3),
    "missing pool": (("verify", "evaluate", "sweep"), 3),
    "bad lexicon": (("verify", "evaluate", "sweep"), 3),
    "unwritable output": (("verify", "evaluate", "sweep"), 2),
}


def _faulty_argv(data, fault, command, corpus):
    """Break the copied corpus or the command line as ``fault`` says, and
    return the command line."""
    test = corpus / "test.jsonl"
    first_id = json.loads(test.read_text(encoding="utf-8").splitlines()[0])["id"]
    argv = {
        "verify": ["verify", test, "--problem", first_id],
        "evaluate": ["evaluate", corpus],
        "sweep": ["sweep", corpus, "--r-grid", "2", "--n-grid", "2"],
    }[command] + FAST_MODEL
    split = corpus / data.draw(st.sampled_from(["test.jsonl"] if command == "verify"
                                               else ["train.jsonl", "test.jsonl"]))
    if fault == "bad flag":
        flags = [["--order", "0"], ["--refs", "0"], ["--discount", "1.5"], ["--order", "x"],
                 ["--discount-mode", "bogus"], ["--bogus"]]
        if command != "verify":
            flags.append(["--parallel", "0"])
        if command == "sweep":
            flags.append(["--r-grid", ","])
        argv += data.draw(st.sampled_from(flags))
    elif fault == "unreadable or malformed file":
        known = [{"id": "x-k", "sentences": [["a"]]}]
        entries = {
            "bad field": {"id": "x", "known": 1},
            "document not an object": {"id": "x", "unknown": [1], "known": known},
            "bad tagged path": {"id": "x", "unknown": [{"id": "x-u", "tagged": ""}],
                                "known": known},
            "empty token": {"id": "x", "unknown": [{"id": "x-u", "sentences": [["a", ""]]}],
                            "known": known},
            "no known documents": {"id": "x", "unknown": known, "known": []},
        }
        how = data.draw(st.sampled_from(["missing", "not utf-8", "bad json", *entries,
                                         "mixed partitions", "repeated reference id"]))
        if how == "missing":
            split.unlink()
        elif how == "not utf-8":
            split.write_bytes(b"\xff\xfe{}\n")
        elif how == "mixed partitions":
            rows = [json.loads(line) for line in split.read_text(encoding="utf-8").splitlines()]
            flipped = {"train": "test", "test": "train"}[rows[-1]["partition"]]
            rows[-1]["partition"] = flipped
            split.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        elif how == "repeated reference id":
            refs = corpus / "refs.jsonl"
            first = refs.read_text(encoding="utf-8").splitlines()[0]
            with refs.open("a", encoding="utf-8") as f:
                f.write(first + "\n")
        else:
            line = "{not json" if how == "bad json" else json.dumps(entries[how])
            with split.open("a", encoding="utf-8") as f:
                f.write(line + "\n")
    elif fault == "labels of one class":
        label = data.draw(st.sampled_from(["Y", "N"]))
        rows = [json.loads(line) for line in split.read_text(encoding="utf-8").splitlines()]
        split.write_text("".join(json.dumps({**r, "label": label}) + "\n" for r in rows))
    elif fault == "missing pool":
        refs = corpus / "refs.jsonl"
        if data.draw(st.booleans()):
            refs.unlink()
        else:
            refs.write_text("", encoding="utf-8")
    elif fault == "bad lexicon":
        lexicon = corpus / "lexicon.txt"
        content = data.draw(st.sampled_from([None, b"\xff\xfe[retain]\n", b"the\n"]))
        if content is not None:
            lexicon.write_bytes(content)
        argv += ["--lexicon", lexicon]
    else:
        blocker = corpus / "blocker"
        blocker.write_text("", encoding="utf-8")
        argv += ["--out", blocker if command == "verify" else blocker / "out"]
    return argv


@settings(max_examples=100, deadline=None)
@given(data=st.data(), fault=st.sampled_from(sorted(FAULTS)))
def test_every_fault_class_exits_with_its_code(base_corpus, data, fault):
    """A drawn fault of each class ends with its documented exit code and
    one line on stderr, never a traceback, and before any problem is
    scored."""
    commands, code = FAULTS[fault]
    command = data.draw(st.sampled_from(commands))
    calls = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        corpus = Path(tmp) / "corpus"
        shutil.copytree(base_corpus, corpus)
        argv = _faulty_argv(data, fault, command, corpus)
        patch.setattr(scoring, "sentence_probs", lambda *args, **kwargs: calls.append(args))
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            assert run(argv) == code
    err = err.getvalue()
    assert err.startswith("usage error: " if code == 2 else "error: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert calls == []
