"""Writers for the file formats the package reads, used to make test inputs."""

import csv

import numpy as np


def write_split(path, labels, series) -> None:
    """Inverse of data_ucr.load_split (comma-delimited)."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, row in zip(labels, series):
            fh.write(",".join(repr(float(v)) for v in [label, *row]) + "\n")


def write_error_matrix(matrix, path) -> None:
    """Inverse of metrics.ErrorMatrix.from_csv: NaN entries are written empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", *matrix.models])
        for name, row in zip(matrix.datasets, matrix.errors):
            writer.writerow([name] + ["" if np.isnan(v) else f"{v:.6f}" for v in row])
