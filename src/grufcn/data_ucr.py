"""UCR-archive-format dataset loading and the per-dataset run-settings
registry (85 univariate benchmark datasets).

Split files are plain text, one record per line: the label field first,
then L numeric values, comma- or tab-delimited (detected per record). Labels
are remapped to contiguous indices by ascending sort over the union of both
splits. Series values are used raw; no normalization is applied.
"""

from __future__ import annotations

import csv
import difflib
import functools
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np


class UcrParseError(ValueError):
    """A split file could not be parsed; the message names the line."""


class UnknownDatasetError(ValueError):
    """Dataset name not in the registry; the message lists near matches."""


@dataclass
class UcrDataset:
    name: str
    train_x: np.ndarray   # (Ntr, L) float64
    train_y: np.ndarray   # (Ntr,) int indices in [0, C)
    test_x: np.ndarray
    test_y: np.ndarray
    label_map: dict[float, int]

    @property
    def series_length(self) -> int:
        return self.train_x.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.label_map)


@dataclass(frozen=True)
class DatasetRegistryEntry:
    name: str
    type_tag: str
    num_classes: int
    series_length: int
    train_size: int
    test_size: int
    epochs: int
    train_batch: int
    test_batch: int


def _records(path):
    """(place, line, delimiter) for each non-blank record of a split file,
    after the checks that parse no value: every row has series values and
    the same field count, and the file is not empty."""
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                delim = "\t" if "\t" in line else ","
                count, where = line.count(delim) + 1, f"{path}:{lineno}"
                if count < 2:
                    raise UcrParseError(f"{where}: record has no series values")
                width = width or count  # the first record sets the width
                if count != width:
                    raise UcrParseError(f"{where}: row has {count} fields, expected {width}")
                yield where, line, delim
        except UnicodeDecodeError as exc:  # text is decoded in blocks, so no line is known
            raise UcrParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if width is None:
        raise UcrParseError(f"{path}: empty split file")


def _parse(where, fields) -> list[float]:
    """Float values of a record's fields; the first is the label."""
    try:
        values = [float(f) for f in fields]
    except ValueError as exc:
        raise UcrParseError(f"{where}: unparseable field ({exc})") from exc
    if not math.isfinite(values[0]):
        raise UcrParseError(f"{where}: non-finite label")
    return values


def load_split(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse one split file into (raw labels, series matrix)."""
    labels, rows = [], []
    for where, line, delim in _records(path):
        values = _parse(where, line.split(delim))
        if not all(np.isfinite(values[1:])):
            raise UcrParseError(f"{where}: non-finite series value")
        labels.append(values[0])
        rows.append(values[1:])
    return np.asarray(labels), np.asarray(rows, dtype=np.float64)


def load_labels(path) -> tuple[np.ndarray, int]:
    """(raw labels, series length) of one split file, with load_split's
    checks on everything but the series values, which are counted, not parsed."""
    labels = []
    for where, line, delim in _records(path):
        labels.append(_parse(where, [line[:line.index(delim)]])[0])
    return np.asarray(labels), line.count(delim)


def _join_splits(train_path, test_path, train_labels, train_length, test_labels, test_x):
    """(label map, train indices, test indices) once the two splits' series
    lengths agree; the map sorts the union of both splits' labels."""
    if train_length != test_x.shape[1]:
        raise UcrParseError(f"{train_path}: train length {train_length} != test length "
                            f"{test_x.shape[1]} of {test_path}")
    label_map = {lab: i for i, lab in enumerate(sorted(set(train_labels) | set(test_labels)))}
    return label_map, *(np.asarray([label_map[lab] for lab in labels], dtype=int)
                        for labels in (train_labels, test_labels))


def make_dataset(train_path, test_path, name: str) -> UcrDataset:
    """Load both splits and remap labels to contiguous indices."""
    train_labels, train_x = load_split(train_path)
    test_labels, test_x = load_split(test_path)
    label_map, train_y, test_y = _join_splits(
        train_path, test_path, train_labels, train_x.shape[1], test_labels, test_x)
    return UcrDataset(name, train_x, train_y, test_x, test_y, label_map)


def load_test_split(train_path, test_path):
    """(test_x, test_y, label_map), equal to make_dataset's. The training
    split adds only its labels and its length, so its values are not parsed."""
    train_labels, train_length = load_labels(train_path)
    test_labels, test_x = load_split(test_path)
    label_map, _, test_y = _join_splits(train_path, test_path, train_labels, train_length,
                                        test_labels, test_x)
    return test_x, test_y, label_map


def read_table(path):
    """Stream a per-dataset CSV table: yield its header, whose first column
    must be ``dataset``, then (line number, fields) for each row. Blank lines
    are skipped. A malformed CSV line, a byte that is not UTF-8, an empty
    file or a repeated dataset name raises a ValueError that begins with
    ``FILE:`` or, where one line is at fault, ``FILE:LINE:``."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = filter(None, reader)
            header = next(rows, None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            if header[0] != "dataset":
                raise ValueError(f"{path}:{reader.line_num}: first header column must be "
                                 f"'dataset'")
            yield header
            names = []
            for row in rows:
                names.append(row[0])
                yield reader.line_num, row
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:  # text is decoded in blocks, so no line is known
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    # a repeated dataset would count twice
    if len(set(names)) < len(names):
        repeated = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"{path}: repeated dataset name(s) {', '.join(repeated)}")


@functools.cache
def registry() -> dict[str, DatasetRegistryEntry]:
    """The shipped registry by dataset name, read once per process. Its
    columns are DatasetRegistryEntry's fields, in order."""
    rows = read_table(resources.files("grufcn.data").joinpath("registry.csv"))
    next(rows)
    return {name: DatasetRegistryEntry(name, tag, *map(int, counts))
            for _, (name, tag, *counts) in rows}


def registry_lookup(name: str) -> DatasetRegistryEntry:
    reg = registry()
    if name not in reg:
        near = difflib.get_close_matches(name, reg.keys(), n=5, cutoff=0.4)
        hint = f"; close matches: {', '.join(near)}" if near else ""
        raise UnknownDatasetError(f"unknown dataset {name!r}{hint}")
    return reg[name]


def find_split_files(root, name: str) -> tuple[Path, Path]:
    """Locate <name>_TRAIN / <name>_TEST under root, accepting both archive
    layouts (flat or per-dataset directory) and common extensions."""
    root = Path(root)
    for base in (root / name, root):
        for ext in ("", ".tsv", ".txt", ".csv"):
            train = base / f"{name}_TRAIN{ext}"
            test = base / f"{name}_TEST{ext}"
            if train.is_file() and test.is_file():
                return train, test
    raise FileNotFoundError(
        f"could not find {name}_TRAIN/{name}_TEST under {root}"
    )
