"""Seeded benchmark inputs: archive-format split files with class-dependent
signal, a fixed inference checkpoint, and a row/column permutation of the
shipped error table.

Everything here is a pure function of its seed arguments. From grufcn it
reads only the shipped error table, and the checkpoint writer uses only
``build``, ``parameters`` and ``save_checkpoint``.
"""

from __future__ import annotations

import csv
from importlib import resources

import numpy as np

# The inference pool and its checkpoint are fixed, so that the golden
# predictions of all pool series apply to whichever subset a seed selects.
POOL_SEED = 1812


def templates(rng: np.random.Generator, num_classes: int, length: int) -> np.ndarray:
    """One smooth shape per class: a sinusoid plus a localized bump."""
    t = np.arange(length) / length
    freq = rng.uniform(1.0, 8.0, (num_classes, 1))
    phase = rng.uniform(0.0, 2 * np.pi, (num_classes, 1))
    centre = rng.uniform(0.15, 0.85, (num_classes, 1))
    return np.sin(2 * np.pi * freq * t + phase) + 1.5 * np.exp(-((t - centre) / 0.05) ** 2)


def labelled_series(rng: np.random.Generator, shapes: np.ndarray, n: int,
                    noise: float = 0.8) -> tuple[np.ndarray, np.ndarray]:
    """n series, classes balanced then shuffled; labels are 1-based as in the
    archive."""
    num_classes, length = shapes.shape
    labels = rng.permutation(np.arange(n) % num_classes)
    x = shapes[labels] + noise * rng.standard_normal((n, length))
    return labels + 1, x


def write_split(path, labels, series) -> None:
    """Tab-delimited archive format at full float64 precision."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, row in zip(labels.tolist(), series.tolist()):
            fh.write(f"{label}\t" + "\t".join(map(repr, row)) + "\n")


def train_splits(seed: int, length: int, num_classes: int, n_train: int, n_test: int,
                 train_path, test_path) -> None:
    rng = np.random.default_rng(seed)
    shapes = templates(rng, num_classes, length)
    write_split(train_path, *labelled_series(rng, shapes, n_train))
    write_split(test_path, *labelled_series(rng, shapes, n_test))


def infer_pool(length: int, num_classes: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The fixed test pool the inference workload draws its subset from."""
    rng = np.random.default_rng(POOL_SEED)
    return labelled_series(rng, templates(rng, num_classes, length), size)


def infer_train_split(seed: int, length: int, num_classes: int, n_train: int,
                      pool_size: int, n_test: int, train_path) -> np.ndarray:
    """Write a seeded training split; return a seeded, ordered choice of
    n_test pool indices for the test split."""
    rng = np.random.default_rng(seed)
    pick = rng.choice(pool_size, size=n_test, replace=False)
    write_split(train_path, *labelled_series(rng, templates(rng, num_classes, length), n_train))
    return pick


def infer_checkpoint(model_mod, length: int, num_classes: int, path) -> None:
    """A checkpoint with fixed weights drawn here, not by ``build``.

    The recurrent branch is aimed at the pool's class difference and the
    head leans on it, so predictions vary by class; a wrong gate, cell or
    head computation changes predictions, a wrong conv branch changes
    probabilities.
    """
    net = model_mod.build(model_mod.ArchConfig(series_length=length, num_classes=num_classes))
    rng = np.random.default_rng(POOL_SEED + 1)
    for name, arr in net.parameters().items():
        if name.endswith("kernels"):
            k, c_in, _ = arr.shape
            limit = np.sqrt(6.0 / (k * c_in))
            arr[...] = rng.uniform(-limit, limit, arr.shape)
        elif name.endswith(("bn_gamma", "bn_moving_var")):
            arr[...] = rng.uniform(0.5, 2.0, arr.shape)
        elif arr.ndim == 1:
            arr[...] = rng.uniform(-0.1, 0.1, arr.shape)
        else:
            limit = np.sqrt(6.0 / (arr.shape[0] + arr.shape[1]))
            arr[...] = rng.uniform(-limit, limit, arr.shape)
    shapes = templates(np.random.default_rng(POOL_SEED), num_classes, length)
    diff = shapes[-1] - shapes[0]
    direction = diff / np.linalg.norm(diff)
    mid = 0.5 * (shapes[-1] + shapes[0]) @ direction
    cell = net.cell
    # tanh arguments of about +-1 for the two class means
    scale = rng.uniform(0.5, 1.5, cell.b.shape) / (0.5 * np.linalg.norm(diff))
    cell.W_x[...] = np.outer(direction, scale)
    cell.b[...] = -mid * scale
    hidden = cell.b.shape[0]
    net.head.W[:-hidden] *= 0.1
    net.head.W[-hidden:] = np.outer(np.ones(hidden), np.linspace(-0.25, 0.25, num_classes))
    model_mod.save_checkpoint(net, path)


def permuted_error_table(seed: int | None, path) -> None:
    """The shipped error table with its dataset rows and model columns in a
    seeded order (shipped order for seed None). Every statistic ``compare``
    reports is invariant to both."""
    with resources.files("grufcn.data").joinpath("published_errors.csv").open(
            "r", encoding="utf-8") as fh:
        header, *rows = [r for r in csv.reader(fh) if r]
    if seed is None:
        cols, order = range(len(header)), range(len(rows))
    else:
        rng = np.random.default_rng(seed)
        cols = [0] + [1 + int(i) for i in rng.permutation(len(header) - 1)]
        order = rng.permutation(len(rows))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([header[c] for c in cols])
        for i in order:
            writer.writerow([rows[i][c] for c in cols])
