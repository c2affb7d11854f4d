import json
import math
import multiprocessing
import os

import pytest

from grammarlr import scoring
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

    def test_bad_params_exit_2(self, tmp_path):
        assert run(["synth", "--out", tmp_path / "x", "--authors", "2"]) == 2


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

    def test_calibrated_requires_model_file(self, corpus_dir):
        argv = ["verify", corpus_dir / "test.jsonl", "--problem", "x", "--calibrated"]
        assert run(argv + FAST_MODEL) == 2

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
            "--calibrated",
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

    def test_unknown_flag_exits_via_argparse(self):
        with pytest.raises(SystemExit) as exc:
            run(["evaluate", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched worker entry point reaches workers only by fork",
    )
    def test_dead_worker_exit_4(self, corpus_dir, monkeypatch, capfd):
        assert load_corpus(corpus_dir / "train.jsonl").problems[0].id == DOOMED_PROBLEM
        monkeypatch.setattr(scoring, "_verify_in_worker", _die_on_doomed_problem)
        assert run(["evaluate", corpus_dir, "--parallel", "2"] + FAST_MODEL) == 4
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
        argv = ["sweep", corpus_dir, "--r-grid", "a,b"] + FAST_MODEL
        assert run(argv) == 2


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
