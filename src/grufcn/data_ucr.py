"""UCR-archive-format dataset loading and the per-dataset run-settings
registry (85 univariate benchmark datasets).

Split files are plain text, one record per line: the label field first,
then L numeric values, comma- or tab-delimited (detected per record). A
field is a float literal as float() reads it, without digit-group
underscores or non-ASCII digits; there are no comments and no quotes.
numpy's C text reader parses the values, bitwise as float() would, and a
file it fails on is read again one float() at a time to report its first
faulty record. Labels are remapped to contiguous indices by ascending sort
over the union of both splits. Series values are used raw; no normalization
is applied.
"""

from __future__ import annotations

import csv
import difflib
import functools
import itertools
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


def _float(field: str) -> float:
    """float(field), but digit-group underscores and non-ASCII digits, which
    only float() reads, are refused as numpy's C reader refuses them."""
    if "_" in field or not field.strip().isascii():
        raise ValueError(f"could not convert string to float: {field!r}")
    return float(field)


def _parse(where, fields) -> list[float]:
    """Float values of a record's fields; the first is the label."""
    try:
        values = [_float(f) for f in fields]
    except ValueError as exc:
        raise UcrParseError(f"{where}: unparseable field ({exc})") from exc
    if not math.isfinite(values[0]):
        raise UcrParseError(f"{where}: non-finite label")
    return values


def _read_fast(path) -> np.ndarray | None:
    """(N, F) values of a split file's records, label first, read by numpy's
    C reader, one call per run of records that share a delimiter; None if
    any record fails a check. A record that holds an ASCII information
    separator (0x1c-0x1f), which that reader, unlike float(), skips as
    whitespace, counts as failing."""
    def lines(group):
        for _, line, _ in group:
            if any(c in line for c in "\x1c\x1d\x1e\x1f"):
                raise ValueError("information separator")
            yield line

    try:
        blocks = [np.loadtxt(lines(group), delimiter=delim, comments=None, ndmin=2)
                  for delim, group in itertools.groupby(_records(path), lambda r: r[2])]
    except ValueError:  # UcrParseError too: an earlier record may hold the first fault
        return None
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _read_slowly(path) -> np.ndarray:
    """_read_fast's values one float() at a time, raising UcrParseError at
    the first faulty record in file order."""
    rows = []
    for where, line, delim in _records(path):
        values = _parse(where, line.split(delim))
        if not all(np.isfinite(values[1:])):
            raise UcrParseError(f"{where}: non-finite series value")
        rows.append(values)
    return np.array(rows)


def load_split(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse one split file into (raw labels, series matrix). numpy's C
    reader reads every value, one line held at a time, and one vectorized
    test checks that they are finite; the parse peaks at about twice the
    output. Only if the reader fails or a value is not finite is the file
    read again one float() at a time, to find the first faulty record in
    file order and word its error."""
    values = _read_fast(path)
    if values is None or not np.isfinite(values).all():
        values = _read_slowly(path)
    return values[:, 0].copy(), np.ascontiguousarray(values[:, 1:])


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
