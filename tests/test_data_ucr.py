import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grufcn.data_ucr import (
    UcrParseError,
    UnknownDatasetError,
    find_split_files,
    load_labels,
    load_split,
    load_test_split,
    make_dataset,
    registry,
    registry_lookup,
)
from mutations import mutations
from writers import write_split


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadSplit:
    def test_comma_delimited(self, tmp_path):
        path = tmp_path / "s.csv"
        write_lines(path, ["1,0.5,-0.25,3.0", "2,1.0,2.0,3.0"])
        labels, x = load_split(path)
        assert np.array_equal(labels, [1.0, 2.0])
        assert np.array_equal(x, [[0.5, -0.25, 3.0], [1.0, 2.0, 3.0]])

    def test_tab_delimited(self, tmp_path):
        path = tmp_path / "s.tsv"
        write_lines(path, ["-1\t0.5\t1.5", "1\t2.5\t3.5"])
        labels, x = load_split(path)
        assert np.array_equal(labels, [-1.0, 1.0])
        assert x.shape == (2, 2)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1,2.0,3.0\n\n2,4.0,5.0\n\n", encoding="utf-8")
        labels, _ = load_split(path)
        assert len(labels) == 2

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        write_lines(path, ["1,2.0,3.0", "2,4.0"])
        with pytest.raises(UcrParseError, match=r"s\.csv:2"):
            load_split(path)

    def test_unparseable_field_names_line(self, tmp_path):
        path = tmp_path / "s.csv"
        write_lines(path, ["1,2.0,3.0", "2,oops,5.0"])
        with pytest.raises(UcrParseError, match=r"s\.csv:2"):
            load_split(path)

    def test_nan_value_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        write_lines(path, ["1,2.0,nan"])
        with pytest.raises(UcrParseError, match="non-finite"):
            load_split(path)

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
    def test_non_finite_label_rejected(self, tmp_path, label):
        path = tmp_path / "s.csv"
        write_lines(path, ["1,2.0,3.0", f"{label},4.0,5.0"])
        with pytest.raises(UcrParseError, match=r"s\.csv:2: non-finite label"):
            load_split(path)

    def test_label_only_row_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        write_lines(path, ["1"])
        with pytest.raises(UcrParseError, match="no series values"):
            load_split(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(UcrParseError, match="empty"):
            load_split(path)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_write_then_load_roundtrip(self, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        length = int(rng.integers(1, 12))
        labels = rng.integers(-3, 9, size=n).astype(float)
        series = rng.normal(size=(n, length))
        path = tmp_path_factory.mktemp("rt") / "split.csv"
        write_split(path, labels, series)
        got_labels, got_series = load_split(path)
        assert np.array_equal(got_labels, labels)
        assert np.array_equal(got_series, series)


def float_rows(path, delim):
    """The values float() reads from each field of a one-delimiter split file."""
    with open(path, encoding="utf-8") as fh:
        return np.array([[float(f) for f in line.split(delim)] for line in fh])


def reference_split(path, lines):
    """What load_split must give for a file of these lines: (labels, series)
    read by float() one field at a time, or the message of the first faulty
    record in file order. Digit-group underscores and non-ASCII digits,
    which only float() reads, are unparseable."""
    rows, width = [], None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        delim = "\t" if "\t" in line else ","
        fields, where = line.split(delim), f"{path}:{lineno}"
        if len(fields) < 2:
            return f"{where}: record has no series values"
        width = width or len(fields)
        if len(fields) != width:
            return f"{where}: row has {len(fields)} fields, expected {width}"
        try:
            if any("_" in f or not f.strip().isascii() for f in fields):
                raise ValueError
            values = [float(f) for f in fields]
        except ValueError:
            return f"{where}: unparseable field"
        if not math.isfinite(values[0]):
            return f"{where}: non-finite label"
        if not all(map(math.isfinite, values[1:])):
            return f"{where}: non-finite series value"
        rows.append(values)
    if not rows:
        return f"{path}: empty split file"
    rows = np.array(rows)
    return rows[:, 0], rows[:, 1:]


# fields that both readers take, that one of them refuses, or that neither takes
FIELDS = ["1", "-0.0", "2.5", " 2.5 ", ".5", "5.", "-1e-300", "1e999", "nan", "-inf",
          "0.30000000000000004", "\xa03", "3\u3000", "1_0", "\u0661", "\x1c1", "1\x1f",
          "x", "", "#1", '"1"', "1,5", "0x10"]


class TestCReader:
    """load_split reads every value with numpy's C reader: bitwise what
    float() reads, with the same checks and messages as one float() per field."""

    @pytest.mark.parametrize("scale", [1e-310, 1e-5, 1.0, 1e12, 1e300])
    def test_full_precision_values_match_float_bitwise(self, tmp_path, scale):
        # the archive's own tab-delimited layout, at repr precision
        rng = np.random.default_rng(11)
        path = tmp_path / "s.tsv"
        series = rng.normal(size=(7, 60)) * scale
        series[0, :3] = [-0.0, 0.0, 5e-324]
        with open(path, "w", encoding="utf-8") as fh:
            for label, row in zip(rng.integers(1, 4, 7), series.tolist()):
                fh.write(f"{label}\t" + "\t".join(map(repr, row)) + "\n")
        labels, x = load_split(path)
        expected = float_rows(path, "\t")
        assert labels.tobytes() == expected[:, 0].tobytes()
        assert x.tobytes() == expected[:, 1:].tobytes()
        assert x.flags.c_contiguous and x.dtype == np.float64

    def test_short_decimals_match_float_bitwise(self, tmp_path):
        rng = np.random.default_rng(12)
        path = tmp_path / "s.csv"
        write_lines(path, [",".join(f"{v:.{digits}f}" for v in rng.normal(size=40) * 50)
                           for digits in (0, 1, 3, 8) for _ in range(3)])
        labels, x = load_split(path)
        expected = float_rows(path, ",")
        assert labels.tobytes() == expected[:, 0].tobytes()
        assert x.tobytes() == expected[:, 1:].tobytes()

    def test_delimiter_is_chosen_per_record(self, tmp_path):
        path = tmp_path / "s.csv"
        write_lines(path, ["1,0.5,2", "2\t1.5\t3", "3\t4\t5", "4,6, 7"])
        labels, x = load_split(path)
        assert np.array_equal(labels, [1, 2, 3, 4])
        assert np.array_equal(x, [[0.5, 2], [1.5, 3], [4, 5], [6, 7]])

    @pytest.mark.parametrize("lines,message", [
        # a comma inside a tab record is part of a field, even where every
        # record holds one and reading them as delimiters would give a table
        (["1\t0.5\t2", "2\t1,5\t3"], r"s\.csv:2: unparseable field \(.*'1,5'\)$"),
        (["1\t2,5\t3", "2\t4,5\t6"], r"s\.csv:1: unparseable field \(.*'2,5'\)$"),
        # no comment syntax and no quoting
        (["1,2.0,3.0", "2,#4.0,5.0"], r"s\.csv:2: unparseable field \(.*'#4.0'\)$"),
        (["1,2.0,3.0", "2,4.0#,5.0"], r"s\.csv:2: unparseable field"),
        (["1,2.0,3.0", '2,"4.0",5.0'], r"s\.csv:2: unparseable field"),
        # only float() reads digit-group underscores and non-ASCII digits
        (["1,1_0,2"], r"s\.csv:1: unparseable field \(could not convert string to float: "
                      r"'1_0'\)$"),
        (["1,2", "\u0661,2"], r"s\.csv:2: unparseable field"),
        # only numpy's reader skips the ASCII information separators
        (["1,2", "2,\x1c3"], r"s\.csv:2: unparseable field"),
    ])
    def test_field_syntax(self, tmp_path, lines, message):
        path = tmp_path / "s.csv"
        write_lines(path, lines)
        with pytest.raises(UcrParseError, match=message):
            load_split(path)

    @pytest.mark.parametrize("label", ["1_0", "\u0661"])
    def test_label_syntax_is_the_same_in_load_labels(self, tmp_path, label):
        path = tmp_path / "s.csv"
        write_lines(path, ["1,2", f"{label},3"])
        for load in (load_split, load_labels):
            with pytest.raises(UcrParseError, match=r"s\.csv:2: unparseable field"):
                load(path)

    @pytest.mark.parametrize("lines,message", [
        (["1,2,3", "2,nan,3", "3,x,3"], r"s\.csv:2: non-finite series value"),
        (["1,2,3", "2,x,3", "3,3"], r"s\.csv:2: unparseable field"),
        (["1,2,3", "2,3", "3,x,3"], r"s\.csv:2: row has 2 fields, expected 3"),
        (["1,2,3", "2\t2\t3", "inf\t4\t5", "4,x,5"], r"s\.csv:3: non-finite label"),
        (["1,2,1e999", "nan,2,3"], r"s\.csv:1: non-finite series value"),
    ])
    def test_first_fault_in_file_order_is_reported(self, tmp_path, lines, message):
        path = tmp_path / "s.csv"
        write_lines(path, lines)
        with pytest.raises(UcrParseError, match=message):
            load_split(path)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_one_float_per_field(self, tmp_path_factory, data):
        width = data.draw(st.integers(2, 4))
        records = data.draw(st.lists(st.tuples(
            st.sampled_from([",", "\t"]),
            st.lists(st.sampled_from(FIELDS), min_size=width, max_size=width)),
            min_size=1, max_size=5))
        lines = [delim.join(fields) for delim, fields in records]
        path = tmp_path_factory.mktemp("ref") / "s.csv"
        write_lines(path, lines)
        expected = reference_split(path, lines)
        if isinstance(expected, str):
            with pytest.raises(UcrParseError) as info:
                load_split(path)
            assert str(info.value).startswith(expected), info.value
        else:
            labels, x = load_split(path)
            assert labels.tobytes() == expected[0].tobytes()
            assert x.tobytes() == expected[1].tobytes()

    def test_transient_memory_is_bounded_by_file_and_output(self, tmp_path):
        rng = np.random.default_rng(13)
        path = tmp_path / "s.tsv"
        series = rng.normal(size=(64, 2000))
        with open(path, "w", encoding="utf-8") as fh:
            for label, row in zip(rng.integers(1, 4, 64), series.tolist()):
                fh.write(f"{label}\t" + "\t".join(map(repr, row)) + "\n")
        tracemalloc.start()
        try:
            labels, x = load_split(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = labels.nbytes + x.nbytes
        assert peak <= path.stat().st_size + 2 * output + (1 << 20)


# (file lines, message) for every malformed split that load_labels rejects;
# the error names the file and the offending line
BAD_SPLITS = {
    "ragged row": (["1,2.0,3.0", "2,4.0"], r"s\.csv:2: row has 2 fields, expected 3"),
    "no series values": (["1,2.0", "", "2"], r"s\.csv:3: record has no series values"),
    "unparseable label": (["1,2.0", "one,3.0"], r"s\.csv:2: unparseable field"),
    "nan label": (["nan,2.0"], r"s\.csv:1: non-finite label"),
    "inf label": (["1,2.0", "inf,3.0"], r"s\.csv:2: non-finite label"),
    "empty file": ([], r"s\.csv: empty split file"),
}


class TestLoadLabels:
    @pytest.mark.parametrize("lines", [
        ["1,0.5,-0.25,3.0", "", "2,1.0,2.0,3.0", ""],
        ["-1\t0.5\t1.5", "1\t2.5\t3.5"],
        ["7.0,1e300,-2"],
    ])
    def test_matches_load_split(self, tmp_path, lines):
        path = tmp_path / "s.csv"
        write_lines(path, lines)
        labels, length = load_labels(path)
        full_labels, x = load_split(path)
        assert np.array_equal(labels, full_labels)
        assert length == x.shape[1]

    @pytest.mark.parametrize("case", sorted(BAD_SPLITS))
    def test_malformed_split_names_file_and_line(self, tmp_path, case):
        lines, message = BAD_SPLITS[case]
        path = tmp_path / "s.csv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(UcrParseError, match=message):
            load_labels(path)
        with pytest.raises(UcrParseError, match=message):
            load_split(path)

    def test_non_utf8_byte_names_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"1,0.5,\xff\n")
        for load in (load_split, load_labels):
            with pytest.raises(UcrParseError, match=r"s\.csv: not UTF-8 text"):
                load(path)

    def test_series_values_are_not_parsed(self, tmp_path):
        # only the label field is read, so a bad series value goes unseen
        path = tmp_path / "s.csv"
        write_lines(path, ["1,2.0,oops", "2,nan,5.0"])
        labels, length = load_labels(path)
        assert np.array_equal(labels, [1.0, 2.0]) and length == 2


class TestLoadTestSplit:
    def test_matches_make_dataset(self, tmp_path):
        train = tmp_path / "t_TRAIN"
        test = tmp_path / "t_TEST"
        # label 9 occurs only in the training split and still takes an index
        write_lines(train, ["9,0.0,1.0", "2,2.0,3.0", "-1.5,0.5,0.5"])
        write_lines(test, ["5,4.0,5.0", "2,6.0,7.0", "-1.5,8.0,9.0"])
        test_x, test_y, label_map = load_test_split(train, test)
        ds = make_dataset(train, test, "t")
        assert label_map == ds.label_map == {-1.5: 0, 2.0: 1, 5.0: 2, 9.0: 3}
        assert np.array_equal(test_y, ds.test_y)
        assert test_y.dtype == ds.test_y.dtype
        assert np.array_equal(test_x, ds.test_x)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_make_dataset_on_random_splits(self, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(1, 6))
        work = tmp_path_factory.mktemp("split")
        for split in ("TRAIN", "TEST"):
            n = int(rng.integers(1, 8))
            write_split(work / split, rng.integers(-3, 4, size=n) / 2, rng.normal(size=(n, length)))
        test_x, test_y, label_map = load_test_split(work / "TRAIN", work / "TEST")
        ds = make_dataset(work / "TRAIN", work / "TEST", "r")
        assert label_map == ds.label_map
        assert np.array_equal(test_y, ds.test_y)
        assert np.array_equal(test_x, ds.test_x)

    def test_length_mismatch_between_splits_rejected(self, tmp_path):
        train = tmp_path / "t_TRAIN"
        test = tmp_path / "t_TEST"
        write_lines(train, ["1,0.0,1.0"])
        write_lines(test, ["1,0.0,1.0,2.0"])
        with pytest.raises(UcrParseError, match="t_TRAIN: train length 2 != test length 3 "
                                                "of .*t_TEST$"):
            load_test_split(train, test)

    @pytest.mark.parametrize("case", sorted(BAD_SPLITS))
    def test_malformed_training_split_rejected(self, tmp_path, case):
        lines, message = BAD_SPLITS[case]
        train = tmp_path / "s.csv"
        train.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        test = tmp_path / "t_TEST"
        write_lines(test, ["1,0.0,1.0"])
        with pytest.raises(UcrParseError, match=message):
            load_test_split(train, test)


class TestSplitFuzz:
    """load_split, load_labels and load_test_split on damaged copies of a
    small split file return a valid result or raise UcrParseError naming
    the damaged file (or, for a length mismatch, the training split)."""

    @pytest.fixture(scope="class")
    def splits(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("fuzz")
        rng = np.random.default_rng(5)
        for split, n in (("TRAIN", 4), ("TEST", 3)):
            write_split(work / f"f_{split}.csv", rng.integers(1, 4, n), rng.normal(size=(n, 5)))
        return work / "f_TRAIN.csv", work / "f_TEST.csv"

    @staticmethod
    def outcome(load, *args):
        try:
            return load(*args)
        except UcrParseError as exc:
            return exc

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_loaders_return_a_split_or_name_the_file(self, splits, data):
        side = data.draw(st.sampled_from([0, 1]))
        path = splits[side].with_name(f"mutated_{splits[side].name}")
        path.write_bytes(data.draw(mutations(splits[side].read_bytes())))
        full, labels = self.outcome(load_split, path), self.outcome(load_labels, path)
        for result in (full, labels):
            if isinstance(result, UcrParseError):
                assert str(result).startswith(str(path)), result
        if not isinstance(full, UcrParseError):
            raw_labels, x = full
            assert x.dtype == np.float64 and x.ndim == 2 and x.shape[1] >= 1
            assert raw_labels.shape == (x.shape[0],) and x.shape[0] >= 1
            assert np.all(np.isfinite(raw_labels)) and np.all(np.isfinite(x))
            # load_labels checks a subset of what load_split checks
            assert np.array_equal(labels[0], raw_labels) and labels[1] == x.shape[1]
        pair = [path if i == side else p for i, p in enumerate(splits)]
        joined = self.outcome(load_test_split, *pair)
        if isinstance(joined, UcrParseError):
            assert str(joined).startswith(tuple(map(str, pair))), joined
            return
        test_x, test_y, label_map = joined
        assert np.array_equal(test_x, load_split(pair[1])[1])
        assert sorted(label_map.values()) == list(range(len(label_map)))
        assert np.all((test_y >= 0) & (test_y < len(label_map)))


class TestMakeDataset:
    def test_negative_positive_labels_remap(self, tmp_path):
        train = tmp_path / "t_TRAIN"
        test = tmp_path / "t_TEST"
        write_lines(train, ["-1,0.0,1.0", "1,2.0,3.0"])
        write_lines(test, ["1,4.0,5.0", "-1,6.0,7.0"])
        ds = make_dataset(train, test, "t")
        assert ds.label_map == {-1.0: 0, 1.0: 1}
        assert np.array_equal(ds.train_y, [0, 1])
        assert np.array_equal(ds.test_y, [1, 0])
        assert ds.num_classes == 2
        assert ds.series_length == 2

    def test_sparse_labels_remap_by_ascending_sort(self, tmp_path):
        train = tmp_path / "t_TRAIN"
        test = tmp_path / "t_TEST"
        write_lines(train, ["9,0.0,1.0", "2,2.0,3.0"])
        write_lines(test, ["5,4.0,5.0"])
        ds = make_dataset(train, test, "t")
        assert ds.label_map == {2.0: 0, 5.0: 1, 9.0: 2}
        assert np.array_equal(ds.train_y, [2, 0])
        assert np.array_equal(ds.test_y, [1])

    def test_length_mismatch_between_splits_rejected(self, tmp_path):
        train = tmp_path / "t_TRAIN"
        test = tmp_path / "t_TEST"
        write_lines(train, ["1,0.0,1.0"])
        write_lines(test, ["1,0.0,1.0,2.0"])
        with pytest.raises(UcrParseError, match="length"):
            make_dataset(train, test, "t")

    def test_nan_label_names_file_and_line(self, tmp_path):
        # a NaN label used to reach the label map and escape as KeyError(nan)
        train = tmp_path / "t_TRAIN"
        test = tmp_path / "t_TEST"
        write_lines(train, ["1,0.0,1.0"])
        write_lines(test, ["1,0.0,1.0", "nan,2.0,3.0"])
        with pytest.raises(UcrParseError, match=r"t_TEST:2: non-finite label"):
            make_dataset(train, test, "t")

    def test_values_are_used_raw(self, tmp_path):
        # no normalization: a large offset must survive loading untouched
        train = tmp_path / "t_TRAIN"
        test = tmp_path / "t_TEST"
        write_lines(train, ["1,1000.0,1002.0", "2,1004.0,1006.0"])
        write_lines(test, ["1,1000.0,1002.0"])
        ds = make_dataset(train, test, "t")
        assert ds.train_x.min() == 1000.0


class TestRegistry:
    def test_has_85_datasets(self):
        assert len(registry()) == 85

    def test_known_run_settings(self):
        beef = registry_lookup("Beef")
        assert (beef.epochs, beef.train_batch, beef.test_batch) == (8000, 64, 64)
        assert (beef.num_classes, beef.series_length) == (5, 470)
        plane = registry_lookup("Plane")
        assert (plane.epochs, plane.train_batch, plane.test_batch) == (200, 16, 16)
        adiac = registry_lookup("Adiac")
        assert (adiac.num_classes, adiac.series_length) == (37, 176)
        assert (adiac.train_size, adiac.test_size) == (390, 391)

    def test_unknown_name_suggests_close_matches(self):
        with pytest.raises(UnknownDatasetError, match="Adiac"):
            registry_lookup("adiacc")

    def test_entries_are_sane(self):
        for entry in registry().values():
            assert entry.num_classes >= 2
            assert entry.series_length >= 2
            assert entry.train_size > 0 and entry.test_size > 0
            assert entry.epochs > 0
            assert entry.train_batch > 0 and entry.test_batch > 0


class TestFindSplitFiles:
    def test_flat_layout(self, tmp_path):
        (tmp_path / "Foo_TRAIN.tsv").write_text("1\t2.0\n")
        (tmp_path / "Foo_TEST.tsv").write_text("1\t2.0\n")
        train, test = find_split_files(tmp_path, "Foo")
        assert train.name == "Foo_TRAIN.tsv"

    def test_per_dataset_directory_layout(self, tmp_path):
        sub = tmp_path / "Foo"
        sub.mkdir()
        (sub / "Foo_TRAIN").write_text("1,2.0\n")
        (sub / "Foo_TEST").write_text("1,2.0\n")
        train, _ = find_split_files(tmp_path, "Foo")
        assert train.parent.name == "Foo"

    def test_missing_dataset_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="Foo"):
            find_split_files(tmp_path, "Foo")
