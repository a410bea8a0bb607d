"""The shipped scripts still run against the library."""

import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from writers import write_split

from grufcn.cli import main

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_gradient_check_script_passes(cell):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gradient_check.py"), "--cell", cell],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert f"cell={cell}" in result.stdout


def test_parity_script_prints_digests():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "parity.py"), "--cell", "gru"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    names = ["history.csv", "best.ckpt", "final.ckpt", "train stdout", "eval stdout"]
    assert [line.rsplit(": ", 1)[0] for line in lines] == [f"gru {n}" for n in names]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.rsplit(": ", 1)[1]) for line in lines)


def test_parity_script_prints_tensor_digests():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "parity.py"), "--cell", "gru", "--tensors"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    names = [line.rsplit(": ", 1)[0] for line in result.stdout.splitlines()]
    assert names[:5] == [f"gru {n}" for n in ("history.csv", "best.ckpt", "final.ckpt",
                                              "train stdout", "eval stdout")]
    tensors = [n for n in names[5:] if n.startswith("gru final.ckpt ")]
    assert len(names) == 5 + 2 * len(tensors)
    assert {"gru final.ckpt conv0.bias", "gru final.ckpt cell.U_h"} <= set(tensors)


@pytest.fixture
def spans(monkeypatch):
    """perfbench/spans.py, imported without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "spans", module)
    spec.loader.exec_module(module)
    return module


def test_perfbench_wrap_points_exist(spans):
    # the traced benchmark replaces each point by name, and labels a conv
    # span by the shape of its parameter 1
    for point in spans.LAYERS + spans.BOUNDARY:
        assert callable(getattr(importlib.import_module(point.module), point.attr, None)), point
    convs = [p for p in spans.LAYERS if p.attr.startswith("conv1d_same")]
    assert sorted(p.attr for p in convs) == ["conv1d_same", "conv1d_same_backward"]
    for point in convs:
        fn = getattr(importlib.import_module(point.module), point.attr)
        assert list(inspect.signature(fn).parameters)[1] == "kernels", point


def test_perfbench_train_check_reads_exist(spans, tmp_path, capsys):
    # the train workloads' check compares each epoch's lr with
    # train.lr_at(train.LrSchedule(), epoch), and their golden check takes
    # the final probabilities from the model.forward spans that start after
    # train.fit returns; a change that drops either must move those reads first
    from grufcn import train

    rng = np.random.default_rng(1)
    for split in ("TRAIN", "TEST"):
        write_split(tmp_path / f"t_{split}", [1, 2, 1, 2, 1], rng.normal(size=(5, 16)))
    tracer = spans.Tracer()
    with tracer.patched(spans.BOUNDARY):
        assert main(["train", "--train-path", str(tmp_path / "t_TRAIN"),
                     "--test-path", str(tmp_path / "t_TEST"), "--epochs", "2",
                     "--out", str(tmp_path / "run")]) == 0
    taken = tracer.take()
    fit = [span for span in taken if span.name == "train.fit"]
    assert len(fit) == 1
    history = fit[0].info["history"]
    assert [epoch for epoch, *_ in history] == [0, 1]
    assert all(lr == train.lr_at(train.LrSchedule(), epoch) for epoch, lr, *_ in history)
    after = [span.info["probs"] for span in taken
             if span.name == "model.forward" and span.start >= fit[0].end]
    assert after and np.concatenate(after).shape == (5, 2)


def test_traced_training_reaches_every_blocks_wrappers(spans, tmp_path, capsys):
    # the traced benchmark's per-block metrics read these spans, so the conv
    # branch must call each block through the names it patches
    rng = np.random.default_rng(0)
    for split in ("TRAIN", "TEST"):
        write_split(tmp_path / f"t_{split}", rng.integers(1, 3, 6), rng.normal(size=(6, 16)))
    tracer = spans.Tracer()
    with tracer.patched(spans.LAYERS):
        assert main(["train", "--train-path", str(tmp_path / "t_TRAIN"),
                     "--test-path", str(tmp_path / "t_TEST"), "--epochs", "1",
                     "--out", str(tmp_path / "run")]) == 0
    names = {span.name for span in tracer.take()}
    for i in range(3):
        assert {f"layers.conv_block_forward.conv{i}",
                f"layers.conv_block_backward.conv{i}"} <= names, sorted(names)
