#!/usr/bin/env python3
"""Digests of fixed training and evaluation runs, to show that a change
keeps both byte-identical.

For each cell it writes seeded synthetic splits with
``perfbench/synth.train_splits(3, ...)``, runs ``grufcn train --epochs 3
--seed 3`` and then ``grufcn eval`` of the best checkpoint, and prints the
sha256 of ``history.csv``, ``best.ckpt``, ``final.ckpt``, the train stdout,
the eval stdout, and ``split arrays``, the four arrays ``make_dataset``
parses from the splits (train x, train y, test x, test y), so that a change
in parsing shows on a line of its own:

- gru: Coffee shape (L=286, 2 classes, 28 train / 28 test, batch 64);
- lstm: Adiac shape (L=176, 37 classes, 134 train / 128 test, batch 128).

With ``--tensors`` it also prints one sha256 per tensor of each checkpoint
(``gru final.ckpt conv0.bias: ...``), so a diff names the tensors that moved.

Its first line names the kernel set that the OpenBLAS bundled in numpy's
wheel picked for this CPU (``blas core: SkylakeX``), since the digests hold
only for that set: two hosts that print different cores may round
differently. It prints ``unknown`` where no such library names its core.

It runs the ``grufcn`` of its own checkout with one BLAS thread, so running
it in two checkouts and diffing the output compares them:

    python3 scripts/parity.py [--cell gru|lstm] [--tensors]
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: the digests depend on it

import argparse
import hashlib
import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import synth  # noqa: E402
from grufcn.cli import main as grufcn  # noqa: E402
from grufcn.data_ucr import make_dataset  # noqa: E402
from grufcn.model import load_checkpoint  # noqa: E402
from grufcn.tensor_core import blas_core  # noqa: E402

SEED = 3
EPOCHS = 3
RUNS = {  # cell -> (dataset, length, classes, n_train, n_test)
    "gru": ("Coffee", 286, 2, 28, 28),
    "lstm": ("Adiac", 176, 37, 134, 128),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv) -> str:
    """stdout of one grufcn call; a failing call ends the script."""
    out = io.StringIO()
    with redirect_stdout(out):
        status = grufcn([str(a) for a in argv])
    if status != 0:
        raise SystemExit(f"grufcn {argv[0]} exited with status {status}")
    return out.getvalue()


def digests(cell: str, work: Path, tensors: bool) -> dict[str, str]:
    dataset, length, classes, n_train, n_test = RUNS[cell]
    train, test = work / f"{dataset}_TRAIN.tsv", work / f"{dataset}_TEST.tsv"
    synth.train_splits(SEED, length, classes, n_train, n_test, train, test)
    splits = ["--dataset", dataset, "--train-path", train, "--test-path", test]
    out_dir = work / "run"
    train_out = run(["train", *splits, "--cell", cell, "--epochs", EPOCHS,
                     "--seed", SEED, "--out", out_dir])
    eval_out = run(["eval", *splits, "--checkpoint", out_dir / "best.ckpt"])
    files = {name: sha256((out_dir / name).read_bytes())
             for name in ("history.csv", "best.ckpt", "final.ckpt")}
    split = make_dataset(train, test, dataset)
    result = {**files, "train stdout": sha256(train_out.encode()),
              "eval stdout": sha256(eval_out.encode()),
              "split arrays": sha256(b"".join(a.tobytes() for a in (
                  split.train_x, split.train_y, split.test_x, split.test_y)))}
    if tensors:
        for ckpt in ("best.ckpt", "final.ckpt"):
            for name, arr in load_checkpoint(out_dir / ckpt).parameters().items():
                result[f"{ckpt} {name}"] = sha256(arr.tobytes())
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cell", choices=sorted(RUNS),
                        help="run only this half (default: both)")
    parser.add_argument("--tensors", action="store_true",
                        help="also print one digest per checkpoint tensor")
    args = parser.parse_args()
    print(f"blas core: {blas_core()}")
    for cell in [args.cell] if args.cell else sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            for name, digest in digests(cell, Path(tmp), args.tensors).items():
                print(f"{cell} {name}: {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
