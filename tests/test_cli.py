import csv
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mutations import mutations
from writers import set_checkpoint_value

import grufcn
from grufcn import cli, data_ucr, tensor_core
from grufcn import model as model_mod
from grufcn import train as train_mod
from grufcn.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def synthetic_splits(tmp_path):
    """Tiny two-class split files in archive format (comma-delimited)."""
    rng = np.random.default_rng(0)
    t = np.linspace(0, 1, 16)
    lines_train, lines_test = [], []
    for label, sign in ((1, 1.0), (2, -1.0)):
        shape = sign * np.sin(2 * np.pi * t)
        for lines, count in ((lines_train, 6), (lines_test, 4)):
            for _ in range(count):
                row = shape + 0.05 * rng.normal(size=16)
                lines.append(",".join([str(label)] + [f"{v:.6f}" for v in row]))
    train = tmp_path / "syn_TRAIN.csv"
    test = tmp_path / "syn_TEST.csv"
    train.write_text("\n".join(lines_train) + "\n")
    test.write_text("\n".join(lines_test) + "\n")
    return train, test


def run_train(splits, out_dir, epochs=2, seed=0, extra=()):
    train, test = splits
    return main([
        "train", "--train-path", str(train), "--test-path", str(test),
        "--out", str(out_dir), "--epochs", str(epochs),
        "--train-batch", "4", "--eval-batch", "4", "--seed", str(seed),
        *extra,
    ])


class TestParser:
    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        assert "train" in capsys.readouterr().out

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2


class TestParams:
    def test_single_dataset(self, capsys):
        assert main(["params", "Adiac"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "dataset,gru_fcn_params,lstm_fcn_params"
        assert out[1] == "Adiac,275237,276717"

    def test_all_prints_85_rows_and_total(self, capsys):
        assert main(["params", "--all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 85 + 1
        assert lines[-1].startswith("Total,")

    def test_all_check_against_shipped_reference(self, capsys):
        assert main(["params", "--all", "--check"]) == 0
        captured = capsys.readouterr()
        assert "reference check: 0 mismatches" in captured.out
        assert "MISMATCH" not in captured.err

    def test_check_flags_a_wrong_reference(self, capsys, tmp_path):
        ref = tmp_path / "ref.csv"
        ref.write_text("dataset,GRU-FCN,LSTM-FCN\nAdiac,1,2\n")
        assert main(["params", "Adiac", "--check", str(ref)]) == 1
        captured = capsys.readouterr()
        assert "MISMATCH Adiac" in captured.err
        assert "reference check: 1 mismatches" in captured.out

    @pytest.mark.parametrize("row", ["Adiac,275237", "Adiac,275237,many"])
    def test_malformed_reference_row_is_an_error(self, capsys, tmp_path, row):
        ref = tmp_path / "ref.csv"
        ref.write_text(f"dataset,GRU-FCN,LSTM-FCN\n{row}\n")
        assert main(["params", "Adiac", "--check", str(ref)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {ref}:2: need a dataset and integer GRU-FCN, LSTM-FCN\n"

    @pytest.mark.parametrize("rows", ["", "Adiac,275237,276717\n"])
    def test_reference_without_a_count_column_is_an_error(self, capsys, tmp_path, rows):
        ref = tmp_path / "ref.csv"
        ref.write_text(f"dataset,GRU-FCN,LSTM\n{rows}")
        assert main(["params", "Adiac", "--check", str(ref)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {ref}: no column(s) LSTM-FCN in the header\n"
        assert captured.out == ""

    def test_malformed_reference_fails_before_any_output(self, capsys, tmp_path):
        ref = tmp_path / "bad.csv"
        ref.write_text("dataset,GRU-FCN,LSTM-FCN\nAdiac,12\n")
        assert main(["params", "Adiac", "--check", str(ref)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert captured.err.startswith(f"error: {ref}:2:")

    def test_missing_reference_fails_before_any_output(self, capsys, tmp_path):
        ref = tmp_path / "absent.csv"
        assert main(["params", "Adiac", "--check", str(ref)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert captured.err.startswith("error: [Errno 2]") and str(ref) in captured.err

    def test_unknown_dataset_suggests_names(self, capsys):
        assert main(["params", "Adiacc"]) == 1
        assert "Adiac" in capsys.readouterr().err

    def test_unknown_dataset_is_one_plain_error_line(self, capsys):
        assert main(["params", "Adiacc"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: unknown dataset 'Adiacc'; close matches: Adiac\n"
        assert captured.out == ""

    @pytest.mark.parametrize("text, missing", [
        ("", None),
        ("dataset,GRU-FCN,LSTM-FCN\n", "Adiac"),
        ("dataset,GRU-FCN,LSTM-FCN\nBeef,1,2\n", "Adiac"),
    ], ids=["empty", "header-only", "no-adiac"])
    def test_reference_without_a_printed_row_fails_before_any_output(self, capsys, tmp_path,
                                                                     text, missing):
        ref = tmp_path / "ref.csv"
        ref.write_text(text)
        assert main(["params", "Adiac", "--check", str(ref)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {ref}: ") and captured.err.count("\n") == 1
        if missing:
            assert captured.err.endswith(f"dataset(s) {missing}\n")

    def test_all_check_needs_the_total_row(self, capsys, tmp_path):
        shipped = cli._shipped("published_param_counts.csv").read_text()
        ref = tmp_path / "ref.csv"
        ref.write_text("".join(line + "\n" for line in shipped.splitlines()
                               if not line.startswith("Total,")))
        assert main(["params", "--all", "--check", str(ref)]) == 1
        assert capsys.readouterr().err == f"error: {ref}: no row for dataset(s) Total\n"

    def test_repeated_reference_row_is_an_error(self, capsys, tmp_path):
        ref = tmp_path / "ref.csv"
        ref.write_text("dataset,GRU-FCN,LSTM-FCN\nAdiac,275237,276717\nAdiac,1,2\n")
        assert main(["params", "Adiac", "--check", str(ref)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {ref}: repeated dataset name(s) Adiac\n"
        assert captured.out == ""

    def test_blank_first_line_of_the_reference_is_skipped(self, capsys, tmp_path):
        outputs = []
        for lead in ("", "\n"):
            ref = tmp_path / "ref.csv"
            ref.write_text(lead + "dataset,GRU-FCN,LSTM-FCN\nAdiac,275237,276717\n")
            assert main(["params", "Adiac", "--check", str(ref)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert "reference check: 0 mismatches" in outputs[0].out

    def test_key_error_in_a_subcommand_is_not_an_error_line(self, capsys, monkeypatch):
        def fail(entry):
            raise KeyError("not an input error")
        monkeypatch.setattr(cli, "_count_pair", fail)
        with pytest.raises(KeyError, match="not an input error"):
            main(["params", "Adiac"])
        assert capsys.readouterr().err == ""

    def test_no_dataset_and_no_all_is_an_error(self, capsys):
        assert main(["params"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCompare:
    def test_shipped_reference_tables(self, capsys, tmp_path):
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "model,mean_rank,no_best,mpce"
        rows = {line.split(",")[0]: line.split(",") for line in out[1:-1]}
        assert len(rows) == 13
        gru = rows["GRU-FCN"]
        assert 1.0 <= float(gru[1]) <= 13.0
        assert 0.0 < float(gru[3]) < 0.2
        assert (out_dir / "wilcoxon_pvalues.csv").exists()
        svg = (out_dir / "cd_diagram.svg").read_text()
        assert svg.startswith("<svg") and "GRU-FCN" in svg
        assert out[-1].startswith("critical difference (alpha=0.05):")

    def test_wilcoxon_csv_is_upper_triangular(self, capsys, tmp_path):
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        lines = (out_dir / "wilcoxon_pvalues.csv").read_text().splitlines()
        assert lines[0].startswith("model,")
        first = lines[1].split(",")
        assert first[1] == ""  # diagonal cell is blank
        assert all(0.0 <= float(v) <= 1.0 for v in first[2:] if v)
        last = lines[-1].split(",")
        assert all(v == "" for v in last[1:])

    def test_custom_error_matrix(self, capsys, tmp_path):
        errs = tmp_path / "errs.csv"
        errs.write_text(
            "dataset,M1,M2\nAdiac,0.1,0.2\nBeef,0.3,0.1\nCoffee,0.0,0.5\n"
        )
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--errors", str(errs), "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out.splitlines()
        m1 = out[1].split(",")
        assert m1[0] == "M1" and m1[2] == "2"  # M1 best on 2 of 3 datasets

    def test_model_names_with_commas_quotes_and_line_breaks_round_trip(self, capsys,
                                                                       tmp_path):
        errs = tmp_path / "errs.csv"
        errs.write_text('dataset,"C,D","say ""hi""","E\nF"\n'
                        "Adiac,0.1,0.2,0.3\nBeef,0.3,0.1,0.2\nCoffee,0.0,0.5,0.4\n")
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--errors", str(errs), "--out", str(out_dir)]) == 0
        names = ["C,D", 'say "hi"', "E\nF"]
        ranks = list(csv.reader(io.StringIO(capsys.readouterr().out)))[:4]
        assert [row[0] for row in ranks] == ["model", *names]
        assert [len(row) for row in ranks] == [4] * 4
        with open(out_dir / "wilcoxon_pvalues.csv", newline="") as fh:
            pvalues = list(csv.reader(fh))
        assert pvalues[0] == ["model", *names]
        assert [row[0] for row in pvalues[1:]] == names
        assert [len(row) for row in pvalues] == [4] * 4

    def test_bad_alpha_fails_before_any_output(self, capsys, tmp_path):
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--alpha", "0.01", "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: alpha")
        assert captured.out == ""
        assert not (out_dir / "wilcoxon_pvalues.csv").exists()

    def test_model_without_entries_is_an_error(self, capsys, tmp_path, recwarn):
        errs = tmp_path / "errs.csv"
        errs.write_text("dataset,A,B\nAdiac,0.1,\nBeef,0.3,\n")
        assert main(["compare", "--errors", str(errs), "--out", str(tmp_path / "c")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "model(s) B" in captured.err
        assert captured.out == ""
        assert len(recwarn) == 0

    def test_class_counts_file_must_cover_datasets(self, capsys, tmp_path):
        errs = tmp_path / "errs.csv"
        errs.write_text("dataset,M1,M2\nAdiac,0.1,0.2\n")
        counts = tmp_path / "counts.csv"
        counts.write_text("dataset,classes\nBeef,5\n")
        assert main(["compare", "--errors", str(errs),
                     "--class-counts", str(counts), "--out", str(tmp_path / "c")]) == 1
        assert "Adiac" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", ["", "Adiac,37\n"])
    def test_class_counts_without_a_classes_column_is_an_error(self, capsys, tmp_path,
                                                                rows):
        errs = tmp_path / "errs.csv"
        errs.write_text("dataset,M1,M2\nAdiac,0.1,0.2\n")
        counts = tmp_path / "counts.csv"
        counts.write_text(f"dataset,n_classes\n{rows}")
        assert main(["compare", "--errors", str(errs),
                     "--class-counts", str(counts), "--out", str(tmp_path / "c")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {counts}: no column(s) classes in the header\n"
        assert captured.out == ""

    @pytest.mark.parametrize("row", ["Adiac", "Adiac,five"])
    def test_malformed_class_counts_row_is_an_error(self, capsys, tmp_path, row):
        errs = tmp_path / "errs.csv"
        errs.write_text("dataset,M1,M2\nAdiac,0.1,0.2\n")
        counts = tmp_path / "counts.csv"
        counts.write_text(f"dataset,classes\n{row}\n")
        assert main(["compare", "--errors", str(errs),
                     "--class-counts", str(counts), "--out", str(tmp_path / "c")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {counts}:2: need a dataset and integer classes\n"
        assert captured.out == ""

    @pytest.mark.parametrize("classes", ["1", "0", "-3"])
    def test_class_count_below_two_is_an_error(self, capsys, tmp_path, classes):
        errs = tmp_path / "errs.csv"
        errs.write_text("dataset,A\nAdiac,0.1\nBeef,0.3\n")
        counts = tmp_path / "counts.csv"
        counts.write_text(f"dataset,classes\nAdiac,{classes}\nBeef,5\n")
        assert main(["compare", "--errors", str(errs),
                     "--class-counts", str(counts), "--out", str(tmp_path / "c")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {counts}: fewer than 2 classes for dataset(s) Adiac\n"
        assert captured.out == ""

    def test_repeated_class_counts_row_is_an_error(self, capsys, tmp_path):
        errs = tmp_path / "errs.csv"
        errs.write_text("dataset,A\nAdiac,0.1\nBeef,0.3\n")
        counts = tmp_path / "counts.csv"
        counts.write_text("dataset,classes\nAdiac,37\nBeef,5\nAdiac,2\n")
        assert main(["compare", "--errors", str(errs),
                     "--class-counts", str(counts), "--out", str(tmp_path / "c")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {counts}: repeated dataset name(s) Adiac\n"
        assert captured.out == ""

    def test_dataset_outside_the_registry_is_one_plain_error_line(self, capsys, tmp_path):
        errs = tmp_path / "errs.csv"
        errs.write_text("dataset,A\nAdiacc,0.1\n")
        assert main(["compare", "--errors", str(errs), "--out", str(tmp_path / "c")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {errs}: unknown dataset 'Adiacc'; close matches: Adiac\n"
        assert captured.out == ""

    @pytest.mark.parametrize("table", ["--errors", "--class-counts"])
    def test_blank_first_line_is_skipped(self, capsys, tmp_path, table):
        texts = {"--errors": "dataset,M1,M2\nAdiac,0.1,0.2\nBeef,0.3,0.1\n",
                 "--class-counts": "dataset,classes\nAdiac,37\nBeef,5\n"}
        outputs = []
        for lead in ("", "\n"):
            argv = ["compare", "--out", str(tmp_path / f"c{len(outputs)}")]
            for flag, text in texts.items():
                path = tmp_path / f"{flag[2:]}.csv"
                path.write_text(lead + text if flag == table else text)
                argv += [flag, str(path)]
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert ((tmp_path / "c0" / "wilcoxon_pvalues.csv").read_bytes()
                == (tmp_path / "c1" / "wilcoxon_pvalues.csv").read_bytes())


class TestClassCountsFuzz:
    """compare --class-counts on damaged copies of a small class-count table
    prints the comparison with counts of at least 2 classes, or ends in one
    error line that names the file."""

    DATASETS = ("Adiac", "Beef", "Coffee", "ECG200")

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("fuzz")
        errors = folder / "errors.csv"
        errors.write_text("dataset,A,B\n" + "".join(
            f"{name},0.{i + 1},0.{5 - i}\n" for i, name in enumerate(self.DATASETS)))
        raw = "dataset,classes\n" + "".join(
            f"{name},{data_ucr.registry_lookup(name).num_classes}\n" for name in self.DATASETS)
        return errors, folder / "counts.csv", raw.encode("utf-8"), folder / "out"

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_compare_prints_or_names_the_file(self, files, data):
        errors, counts, raw, out_dir = files
        counts.write_bytes(data.draw(mutations(raw)))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["compare", "--errors", str(errors), "--class-counts", str(counts),
                         "--out", str(out_dir)])
        if code:
            assert code == 1 and out.getvalue() == ""
            assert err.getvalue().startswith(f"error: {counts}") \
                and err.getvalue().count("\n") == 1, err.getvalue()
            return
        assert err.getvalue() == ""
        assert out.getvalue().splitlines()[0] == "model,mean_rank,no_best,mpce"
        assert np.all(cli._load_class_counts(counts, list(self.DATASETS)) >= 2)


class TestTrain:
    def test_writes_artifact_set(self, synthetic_splits, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run_train(synthetic_splits, out_dir) == 0
        for name in ("history.csv", "best.ckpt", "final.ckpt", "summary.json"):
            assert (out_dir / name).exists(), name
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["dataset"] == "syn"
        assert summary["epochs"] == 2
        assert summary["cell_kind"] == "gru"
        assert summary["parameter_count"] == 265944 + 24 * 16 + 137 * 2
        assert 0.0 <= summary["final_test_error"] <= 1.0
        assert summary["wall_clock_seconds"] > 0
        history = (out_dir / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,lr,train_loss,eval_loss,eval_error"
        assert len(history) == 3
        assert "trained syn" in capsys.readouterr().out

    def test_deterministic_artifacts(self, synthetic_splits, tmp_path, capsys):
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        assert run_train(synthetic_splits, run_a, seed=3) == 0
        assert run_train(synthetic_splits, run_b, seed=3) == 0
        capsys.readouterr()
        for name in ("history.csv", "best.ckpt", "final.ckpt"):
            assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name

    def test_artifacts_are_the_same_at_every_worker_count(self, synthetic_splits, tmp_path,
                                                          capsys, monkeypatch):
        # 64 floats per slice cuts every conv of a 16-position series into
        # 2 slices or more, run on 1 and on 2 threads
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", 64)
        train, test = synthetic_splits
        outputs = []
        for workers in (1, 2):
            monkeypatch.setattr(tensor_core, "WORKERS", workers)
            out_dir = tmp_path / f"workers{workers}"
            assert run_train(synthetic_splits, out_dir, seed=4) == 0
            capsys.readouterr()
            assert main(["eval", "--checkpoint", str(out_dir / "best.ckpt"),
                         "--train-path", str(train), "--test-path", str(test),
                         "--predictions", str(out_dir / "predictions.csv")]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        for name in ("history.csv", "best.ckpt", "final.ckpt", "predictions.csv"):
            assert ((tmp_path / "workers1" / name).read_bytes()
                    == (tmp_path / "workers2" / name).read_bytes()), name

    def test_seed_changes_artifacts(self, synthetic_splits, tmp_path, capsys):
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        assert run_train(synthetic_splits, run_a, seed=1) == 0
        assert run_train(synthetic_splits, run_b, seed=2) == 0
        capsys.readouterr()
        assert (run_a / "final.ckpt").read_bytes() != (run_b / "final.ckpt").read_bytes()

    def test_zero_epochs_still_writes_artifacts(self, synthetic_splits, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run_train(synthetic_splits, out_dir, epochs=0) == 0
        capsys.readouterr()
        assert (out_dir / "best.ckpt").exists()
        assert (out_dir / "history.csv").read_text().splitlines() == [
            "epoch,lr,train_loss,eval_loss,eval_error"
        ]

    def test_lstm_cell_flag(self, synthetic_splits, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert run_train(synthetic_splits, out_dir, epochs=1,
                         extra=("--cell", "lstm")) == 0
        capsys.readouterr()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["cell_kind"] == "lstm"
        assert summary["parameter_count"] == 266016 + 32 * 16 + 137 * 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--train-batch", "0", "--train-batch must be at least 1, got 0"),
        ("--eval-batch", "0", "--eval-batch must be at least 1, got 0"),
        ("--eval-batch", "-3", "--eval-batch must be at least 1, got -3"),
        ("--epochs", "-2", "--epochs must be at least 0, got -2"),
        ("--lr", "-1", "--lr must be finite and positive, got -1.0"),
        ("--lr", "nan", "--lr must be finite and positive, got nan"),
        ("--dropout", "1.5", "--dropout must be in [0, 1), got 1.5"),
        ("--dropout", "nan", "--dropout must be in [0, 1), got nan"),
        ("--dropout", "-0.1", "--dropout must be in [0, 1), got -0.1"),
        ("--seed", "-1", "--seed must be at least 0, got -1"),
    ])
    def test_bad_run_setting_is_an_error(self, synthetic_splits, tmp_path, capsys,
                                         flag, value, message):
        out_dir = tmp_path / "run"
        assert run_train(synthetic_splits, out_dir, extra=(flag, value)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_every_artifact_is_written_atomically(self, synthetic_splits, tmp_path, capsys,
                                                  monkeypatch):
        written = []

        def recording(path, parts, write=model_mod.write_atomic):
            written.append(Path(path).name)
            write(path, parts)
        for module in (model_mod, train_mod):
            monkeypatch.setattr(module, "write_atomic", recording)
        out_dir = tmp_path / "run"
        assert run_train(synthetic_splits, out_dir) == 0
        capsys.readouterr()
        artifacts = ["best.ckpt", "final.ckpt", "history.csv", "summary.json"]
        assert sorted(set(written)) == sorted(p.name for p in out_dir.iterdir()) == artifacts

    def test_compare_artifacts_are_written_atomically(self, tmp_path, capsys, monkeypatch):
        written = []

        def recording(path, parts, write=model_mod.write_atomic):
            written.append(Path(path).name)
            write(path, parts)
        monkeypatch.setattr(model_mod, "write_atomic", recording)
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        artifacts = ["cd_diagram.svg", "wilcoxon_pvalues.csv"]
        assert sorted(written) == sorted(p.name for p in out_dir.iterdir()) == artifacts

    @pytest.mark.parametrize("given, missing", [("--train-path", "--test-path"),
                                                ("--test-path", "--train-path")])
    def test_lone_split_path_is_an_error(self, tmp_path, capsys, given, missing):
        # the archive split under --root must not stand in for the missing file
        out_dir = tmp_path / "run"
        assert main(["train", "--dataset", "Coffee", "--root", str(tmp_path),
                     given, str(tmp_path / "mine.tsv"), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"error: {given} needs {missing} as well\n"
        assert not out_dir.exists()

    def test_diverging_run_is_one_error_line_without_traceback(self, synthetic_splits,
                                                               tmp_path):
        # the weights overflow within the first steps; the CLI runs as a
        # program so that an uncaught exception would print its traceback
        train, test = synthetic_splits
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "grufcn.cli", "train", "--train-path", str(train),
             "--test-path", str(test), "--out", str(tmp_path / "run"), "--epochs", "2",
             "--train-batch", "4", "--lr", "1e200"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: non-finite batch statistics in conv block")
        assert len(result.stderr.splitlines()) == 1

    def test_checkpoint_overflowing_float32_is_an_error(self, synthetic_splits, tmp_path,
                                                        capsys):
        # at this rate a batch-norm moving variance outgrows float32 while
        # every float64 weight stays finite; no checkpoint is written
        out_dir = tmp_path / "run"
        assert run_train(synthetic_splits, out_dir, extra=("--lr", "1e10")) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {out_dir / 'best.ckpt'}: checkpoint tensor ")
        assert err.endswith(" overflows float32 or holds NaN\n")
        assert "Traceback" not in err
        assert not list(out_dir.glob("*.ckpt*"))

    def test_missing_dataset_and_paths_is_an_error(self, capsys):
        assert main(["train", "--out", "unused"]) == 1
        assert "need --dataset" in capsys.readouterr().err

    def test_registry_dataset_without_root_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("GRUFCN_UCR_ROOT", raising=False)
        assert main(["train", "--dataset", "Adiac", "--out", "unused"]) == 1
        assert "GRUFCN_UCR_ROOT" in capsys.readouterr().err


class TestEval:
    def make_checkpoint(self, synthetic_splits, tmp_path):
        out_dir = tmp_path / "run"
        assert run_train(synthetic_splits, out_dir, epochs=1) == 0
        return out_dir / "final.ckpt"

    def test_eval_prints_metrics(self, synthetic_splits, tmp_path, capsys):
        ckpt = self.make_checkpoint(synthetic_splits, tmp_path)
        capsys.readouterr()
        train, test = synthetic_splits
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--train-path", str(train), "--test-path", str(test)]) == 0
        out = capsys.readouterr().out
        assert "test error:" in out
        assert "macro f1:" in out
        assert "class,tp,fp,fn" in out

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_eval_batch_is_an_error(self, synthetic_splits, tmp_path, capsys, value):
        ckpt = self.make_checkpoint(synthetic_splits, tmp_path)
        capsys.readouterr()
        train, test = synthetic_splits
        preds = tmp_path / "preds.csv"
        assert main(["eval", "--checkpoint", str(ckpt), "--train-path", str(train),
                     "--test-path", str(test), "--eval-batch", value,
                     "--predictions", str(preds)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: --eval-batch must be at least 1, got {value}\n")
        assert not preds.exists()

    @pytest.mark.parametrize("given, missing", [("--train-path", "--test-path"),
                                                ("--test-path", "--train-path")])
    def test_lone_split_path_is_an_error(self, tmp_path, capsys, given, missing):
        # refused before any file is read: the checkpoint does not exist
        assert main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"), "--dataset",
                     "Coffee", "--root", str(tmp_path), given, str(tmp_path / "mine.tsv")]) == 1
        assert capsys.readouterr() == ("", f"error: {given} needs {missing} as well\n")

    def test_predictions_csv(self, synthetic_splits, tmp_path, capsys):
        ckpt = self.make_checkpoint(synthetic_splits, tmp_path)
        train, test = synthetic_splits
        preds = tmp_path / "preds.csv"
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--train-path", str(train), "--test-path", str(test),
                     "--predictions", str(preds)]) == 0
        capsys.readouterr()
        lines = preds.read_text().splitlines()
        assert lines[0] == "index,predicted,truth"
        assert len(lines) == 1 + 8

    def test_failed_predictions_write_keeps_the_earlier_file(self, synthetic_splits, tmp_path,
                                                              capsys, monkeypatch):
        ckpt = self.make_checkpoint(synthetic_splits, tmp_path)
        train, test = synthetic_splits
        preds = tmp_path / "preds.csv"
        preds.write_text("earlier\n")

        def fail(fd):
            raise OSError("disk full")
        monkeypatch.setattr(model_mod.os, "fsync", fail)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--train-path", str(train),
                     "--test-path", str(test), "--predictions", str(preds)]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert preds.read_text() == "earlier\n"
        assert not preds.with_name("preds.csv.tmp").exists()

    def test_series_length_mismatch_is_an_error(self, synthetic_splits, tmp_path, capsys):
        ckpt = self.make_checkpoint(synthetic_splits, tmp_path)
        short_train = tmp_path / "short_TRAIN.csv"
        short_test = tmp_path / "short_TEST.csv"
        short_train.write_text("1,0.0,1.0\n2,1.0,0.0\n")
        short_test.write_text("1,0.0,1.0\n2,1.0,0.0\n")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--train-path", str(short_train),
                     "--test-path", str(short_test)]) == 1
        assert "series length" in capsys.readouterr().err

    def test_bad_checkpoint_file_is_an_error(self, synthetic_splits, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        train, test = synthetic_splits
        assert main(["eval", "--checkpoint", str(bad),
                     "--train-path", str(train), "--test-path", str(test)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_checkpoint_config_is_an_error(self, synthetic_splits, tmp_path, capsys):
        ckpt = self.make_checkpoint(synthetic_splits, tmp_path)
        raw = ckpt.read_bytes()
        ckpt.write_bytes(raw.replace(b'"cell_kind": "gru"', b'"cell_kind": "rnn"', 1))
        capsys.readouterr()
        train, test = synthetic_splits
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--train-path", str(train), "--test-path", str(test)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cell_kind" in err

    @pytest.mark.parametrize("old, new", [
        (b'"conv_filters": [128, 256, 128], "conv_kernels": [8, 5, 3]',
         b'"conv_filters": [], "conv_kernels": []'),
        (b'"bn_epsilon": 0.001', b'"bn_epsilon": -10'),
        (b'"bn_epsilon": 0.001', b'"bn_epsilon": "x"'),
    ], ids=["empty-convs", "negative-bn-epsilon", "string-bn-epsilon"])
    def test_invalid_checkpoint_config_value_is_an_error(self, synthetic_splits, tmp_path,
                                                         capsys, old, new):
        ckpt = self.make_checkpoint(synthetic_splits, tmp_path)
        raw = ckpt.read_bytes()
        assert old in raw
        ckpt.write_bytes(raw.replace(old, new, 1))
        capsys.readouterr()
        train, test = synthetic_splits
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--train-path", str(train), "--test-path", str(test)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: invalid checkpoint config:")

    def test_non_finite_checkpoint_is_an_error(self, synthetic_splits, tmp_path, capsys):
        ckpt = self.make_checkpoint(synthetic_splits, tmp_path)
        set_checkpoint_value(ckpt, "head.W", np.nan)
        capsys.readouterr()
        train, test = synthetic_splits
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--train-path", str(train), "--test-path", str(test)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "head.W holds NaN or Inf" in err
        assert "Traceback" not in err

    def run_eval(self, ckpt, train, test, preds):
        return main(["eval", "--checkpoint", str(ckpt), "--train-path", str(train),
                     "--test-path", str(test), "--eval-batch", "3",
                     "--predictions", str(preds)])

    def test_matches_full_parse_of_both_splits(self, synthetic_splits, tmp_path, capsys,
                                               monkeypatch):
        ckpt = self.make_checkpoint(synthetic_splits, tmp_path)
        train, test = synthetic_splits
        # the test split holds only label 2, so the map needs the training labels
        only_two = tmp_path / "two_TEST.csv"
        only_two.write_text("".join(line + "\n" for line in test.read_text().splitlines()
                                    if line.startswith("2,")))

        def full_parse(train_path, test_path):
            ds = data_ucr.make_dataset(train_path, test_path, "full")
            return ds.test_x, ds.test_y, ds.label_map

        for test_file in (test, only_two):
            capsys.readouterr()
            assert self.run_eval(ckpt, train, test_file, tmp_path / "label_only.csv") == 0
            label_only = capsys.readouterr().out
            with monkeypatch.context() as patch:
                patch.setattr(data_ucr, "load_test_split", full_parse)
                assert self.run_eval(ckpt, train, test_file, tmp_path / "full.csv") == 0
            assert capsys.readouterr().out == label_only
            assert ((tmp_path / "label_only.csv").read_bytes()
                    == (tmp_path / "full.csv").read_bytes())
        assert (tmp_path / "full.csv").read_text().splitlines()[1].endswith(",1")

    def test_training_split_values_are_not_parsed(self, synthetic_splits, tmp_path, capsys,
                                                  monkeypatch):
        ckpt = self.make_checkpoint(synthetic_splits, tmp_path)
        train, test = synthetic_splits
        load_split = data_ucr.load_split

        def test_split_only(path):
            assert str(path) != str(train), "eval parsed the training split's values"
            return load_split(path)

        monkeypatch.setattr(data_ucr, "load_split", test_split_only)
        capsys.readouterr()
        assert self.run_eval(ckpt, train, test, tmp_path / "preds.csv") == 0
        assert "test error:" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("label", ["nan", "inf"])
    def test_non_finite_label_is_an_error(self, synthetic_splits, tmp_path, capsys,
                                          command, label):
        ckpt = self.make_checkpoint(synthetic_splits, tmp_path)
        train, test = synthetic_splits
        lines = train.read_text().splitlines()
        lines[2] = label + lines[2][1:]
        train.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        if command == "train":
            assert run_train(synthetic_splits, tmp_path / "again") == 1
        else:
            assert self.run_eval(ckpt, train, test, tmp_path / "preds.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "syn_TRAIN.csv:3: non-finite label" in err
        assert "Traceback" not in err


# the csv module refuses a field over 131072 characters with csv.Error; the
# split reader splits lines itself, so only text files read as CSV get it
FAULTS = {"non-utf8": b"\xff,1,2\n", "oversized-field": b"d" * 140_000 + b",1,2\n"}


class TestBadInputFiles:
    """A damaged input file ends each subcommand in one error line that
    names the file, with exit status 1 and no traceback."""

    @staticmethod
    def assert_one_error(capsys, path, code):
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command, split", [("train", 0), ("train", 1),
                                                ("eval", 0), ("eval", 1)])
    def test_split_file_with_a_non_utf8_byte(self, synthetic_splits, tmp_path, capsys,
                                             command, split):
        if command == "eval":
            ckpt = TestEval().make_checkpoint(synthetic_splits, tmp_path)
        damaged = synthetic_splits[split]
        damaged.write_bytes(damaged.read_bytes() + FAULTS["non-utf8"])
        capsys.readouterr()
        if command == "train":
            code = run_train(synthetic_splits, tmp_path / "run")
        else:
            code = TestEval().run_eval(ckpt, *synthetic_splits, tmp_path / "preds.csv")
        self.assert_one_error(capsys, damaged, code)

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_params_reference(self, capsys, tmp_path, fault):
        ref = tmp_path / "ref.csv"
        ref.write_bytes(b"dataset,GRU-FCN,LSTM-FCN\nAdiac,275237,276717\n" + FAULTS[fault])
        self.assert_one_error(capsys, ref, main(["params", "Adiac", "--check", str(ref)]))

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    @pytest.mark.parametrize("flag", ["--errors", "--class-counts"])
    def test_compare_tables(self, capsys, tmp_path, flag, fault):
        files = {"--errors": tmp_path / "errs.csv", "--class-counts": tmp_path / "counts.csv"}
        files["--errors"].write_bytes(b"dataset,M1,M2\nAdiac,0.1,0.2\n")
        files["--class-counts"].write_bytes(b"dataset,classes\nAdiac,37\n")
        files[flag].write_bytes(files[flag].read_bytes() + FAULTS[fault])
        code = main(["compare", "--errors", str(files["--errors"]), "--class-counts",
                     str(files["--class-counts"]), "--out", str(tmp_path / "c")])
        self.assert_one_error(capsys, files[flag], code)
        assert not (tmp_path / "c").exists()

    @staticmethod
    def error_line(capsys, code):
        """The one stderr line of a run that failed with nothing on stdout."""
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, (out, err)
        return err

    @staticmethod
    def damage_checkpoint(ckpt, fault):
        raw = ckpt.read_bytes()
        if fault == "magic":
            ckpt.write_bytes(b"X" + raw[1:])
        elif fault == "header":
            ckpt.write_bytes(model_mod.CHECKPOINT_MAGIC + b'{"config":')
        elif fault == "payload":
            ckpt.write_bytes(raw[:-10])
        elif fault == "nan":
            set_checkpoint_value(ckpt, "head.W", np.nan)
        else:
            ckpt.write_bytes(raw.replace(b'"cell_kind": "gru"', b'"cell_kind": "rnn"', 1))

    @pytest.mark.parametrize("fault, message", [
        ("magic", "bad checkpoint magic b'XRUFCN1\\n'"),
        ("header", "checkpoint header line is incomplete"),
        ("payload", "parameter payload holds "),
        ("nan", "checkpoint tensor head.W holds NaN or Inf"),
        ("cell-kind", "invalid checkpoint config: cell_kind must be 'gru' or 'lstm', got 'rnn'"),
    ], ids=["magic", "header", "payload", "nan", "cell-kind"])
    def test_eval_checkpoint(self, synthetic_splits, tmp_path, capsys, fault, message):
        ckpt = tmp_path / "m.ckpt"
        model_mod.save_checkpoint(model_mod.build(model_mod.ArchConfig(16, 2)), ckpt)
        self.damage_checkpoint(ckpt, fault)
        code = TestEval().run_eval(ckpt, *synthetic_splits, tmp_path / "preds.csv")
        assert self.error_line(capsys, code).startswith(f"error: {ckpt}: {message}")
        assert not (tmp_path / "preds.csv").exists()

    @pytest.mark.parametrize("config, message", [
        ((17, 2), "checkpoint expects series length 17, {test} has 16"),
        ((16, 3), "checkpoint expects 3 classes, {train} and {test} hold 2"),
    ], ids=["series-length", "class-count"])
    def test_eval_checkpoint_of_another_shape(self, synthetic_splits, tmp_path, capsys,
                                              config, message):
        ckpt = tmp_path / "m.ckpt"
        model_mod.save_checkpoint(model_mod.build(model_mod.ArchConfig(*config)), ckpt)
        train, test = synthetic_splits
        code = TestEval().run_eval(ckpt, train, test, tmp_path / "preds.csv")
        message = message.format(train=train, test=test)
        assert self.error_line(capsys, code) == f"error: {ckpt}: {message}\n"

    @pytest.mark.parametrize("row, message", [
        ("NotADataset,0.1,0.2", "{errs}: unknown dataset 'NotADataset'"),
        ("Adiac,inf,0.2", "{errs}:2: error rates must be finite and >= 0"),
        ("Adiac,0.1,1e999", "{errs}:2: error rates must be finite and >= 0"),
        ("Adiac,-1,0.2", "{errs}:2: error rates must be finite and >= 0"),
    ], ids=["unknown-dataset", "inf", "overflow", "negative"])
    def test_compare_error_table_row(self, capsys, tmp_path, row, message):
        errs = tmp_path / "errs.csv"
        errs.write_text(f"dataset,M1,M2\n{row}\nBeef,0.3,0.1\n")
        code = main(["compare", "--errors", str(errs), "--out", str(tmp_path / "c")])
        assert self.error_line(capsys, code).startswith(f"error: {message.format(errs=errs)}")
        assert not (tmp_path / "c").exists()


def test_exception_classes_are_one_per_input_kind_or_catching_caller():
    # main reports a ValueError as one error line; any other class that the
    # package defines must name an input kind or have a caller that catches it
    defined = {}
    for info in pkgutil.iter_modules(grufcn.__path__):
        module = importlib.import_module(f"grufcn.{info.name}")
        defined.update((name, obj) for name, obj in vars(module).items()
                       if inspect.isclass(obj) and issubclass(obj, BaseException)
                       and obj.__module__ == module.__name__)
    assert sorted(defined) == ["CheckpointError", "UcrParseError", "UndefinedTestError",
                               "UnknownDatasetError"]
    assert all(issubclass(cls, ValueError) for cls in defined.values())
