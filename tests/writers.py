"""Writers for the file formats the package reads, used to make test inputs."""

import csv
import json
from pathlib import Path

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


def set_checkpoint_value(path, name, value) -> None:
    """Overwrite the first float32 of tensor name in the checkpoint at path
    with value: save_checkpoint refuses to write a non-finite tensor, so a
    file that holds one must be made this way."""
    raw = bytearray(Path(path).read_bytes())
    magic_end = raw.index(b"\n") + 1
    payload = raw.index(b"\n", magic_end) + 1
    manifest = json.loads(raw[magic_end:payload])["manifest"]
    names = [entry[0] for entry in manifest]
    offset = payload + 4 * sum(int(np.prod(shape)) for _, shape in manifest[:names.index(name)])
    raw[offset:offset + 4] = np.array([value], dtype="<f4").tobytes()
    Path(path).write_bytes(bytes(raw))
