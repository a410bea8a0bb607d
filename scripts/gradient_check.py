#!/usr/bin/env python3
"""Finite-difference check of the end-to-end analytic gradient.

Builds a small randomly sized model with the paper's three conv blocks, runs
one training-mode forward and backward pass, and compares the gradient of
every tensor but the batch-norm moving statistics against central finite
differences: the analytic one for a trained tensor, zero for one its layer
does not train (the conv biases, and the cell tensors the zero state leaves
out). It runs the check twice: at the default slice budget, where every
slice holds whole series, and at 16 floats per slice, where every slice of
this model holds one to five positions, so that each conv's halos and the
last block's recomputed rows cross slice edges. Prints the worst relative
error per tensor at each budget.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from grufcn import tensor_core
from grufcn.model import ArchConfig, build

# the finite-difference oracle the test suite uses
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from gradcheck import model_gradient_errors  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cell", choices=("gru", "lstm"), default="gru")
    parser.add_argument("--tol", type=float, default=1e-4)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    config = ArchConfig(
        series_length=int(rng.integers(6, 16)),
        num_classes=int(rng.integers(2, 5)),
        cell_kind=args.cell,
        hidden_size=3,
        conv_filters=(4, 5, 3),
        conv_kernels=(4, 3, 2),
        dropout_rate=0.0,
        seed=args.seed,
    )
    model = build(config)
    x = rng.normal(size=(3, config.series_length))
    y = np.eye(config.num_classes)[rng.integers(0, config.num_classes, size=3)]
    runs = {}
    try:
        for label, elements in (("whole", tensor_core.IM2COL_ELEMENTS), ("cut", 16)):
            tensor_core.IM2COL_ELEMENTS = elements
            runs[label] = model_gradient_errors(model, x, y)
    except AssertionError as exc:
        print(exc)
        return 1
    worst_overall = max(max(errors.values()) for errors in runs.values())
    print(f"config: L={config.series_length} C={config.num_classes} "
          f"cell={config.cell_kind}")
    print(f"tensor,{','.join(f'max_relative_error_{label}' for label in runs)}")
    for name in runs["whole"]:
        print(f"{name},{','.join(f'{errors[name]:.3e}' for errors in runs.values())}")
    print(f"worst: {worst_overall:.3e} (tolerance {args.tol})")
    return 0 if worst_overall <= args.tol else 1


if __name__ == "__main__":
    raise SystemExit(main())
