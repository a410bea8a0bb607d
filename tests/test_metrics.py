import itertools
import warnings
import xml.etree.ElementTree as ET
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from grufcn.metrics import (
    EXACT_LIMIT,
    ErrorMatrix,
    NEMENYI_Q,
    UndefinedTestError,
    cd_diagram_svg,
    confusion_counts,
    error_rate,
    f1_scores,
    mpce,
    nemenyi_cd,
    rank_models,
    tie_average_ranks,
    wilcoxon_signed_rank,
)
from mutations import mutations
from writers import write_error_matrix


def brute_force_wilcoxon(a, b):
    """Independent oracle: enumerate every one of the 2^n sign assignments.

    Returns (W, exact two-sided p) with W = min(W+, W-). Only feasible for
    small n; the production code must agree bit for bit.
    """
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    d = d[d != 0]
    n = len(d)
    ranks = tie_average_ranks(np.abs(d))
    w_plus = ranks[d > 0].sum()
    w_minus = ranks[d < 0].sum()
    w = min(w_plus, w_minus)
    # doubled ranks keep the enumeration in integers
    doubled = [round(2 * r) for r in ranks]
    threshold = round(2 * w)
    le = sum(
        1 for signs in itertools.product((0, 1), repeat=n)
        if sum(r for r, s in zip(doubled, signs) if s) <= threshold
    )
    p = min(1.0, float(Fraction(2 * le, 2 ** n)))
    return float(w), p


class TestErrorRate:
    def test_simple(self):
        assert error_rate([0, 1, 1, 0], [0, 1, 0, 0]) == 0.25
        assert error_rate([1, 1], [1, 1]) == 0.0
        assert error_rate([0, 0], [1, 1]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            error_rate([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            error_rate([0, 1], [0])


class TestMpce:
    def test_hand_example(self):
        # 0.1/2 + 0.2/4 averaged = (0.05 + 0.05) / 2
        assert mpce([0.1, 0.2], [2, 4]) == pytest.approx(0.05)

    def test_perfect_models_score_zero(self):
        assert mpce([0.0, 0.0, 0.0], [2, 10, 37]) == 0.0

    def test_class_count_below_two_rejected(self):
        with pytest.raises(ValueError):
            mpce([0.1], [1])

    def test_more_classes_shrink_the_penalty(self):
        assert mpce([0.3], [10]) < mpce([0.3], [2])


class TestConfusionCounts:
    def test_hand_example(self):
        conf = confusion_counts([0, 1, 1, 2], [0, 0, 1, 1], num_classes=3)
        assert np.array_equal(conf.tp, [1, 1, 0])
        assert np.array_equal(conf.fp, [0, 1, 1])
        assert np.array_equal(conf.fn, [1, 1, 0])

    @pytest.mark.parametrize("preds, truths", [
        ([0, 2], [0, 1]), ([0, 1], [0, -1]), ([3, 0], [0, 0]),
    ])
    def test_label_out_of_range_rejected(self, preds, truths):
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            confusion_counts(preds, truths, num_classes=2)


class TestF1:
    def test_hand_example_two_thirds(self):
        conf = confusion_counts([0, 1, 1], [0, 0, 1], num_classes=2)
        assert f1_scores(conf) == pytest.approx(2.0 / 3.0)

    def test_perfect_prediction(self):
        conf = confusion_counts([0, 1, 2], [0, 1, 2], num_classes=3)
        assert f1_scores(conf) == 1.0

    def test_never_predicted_class_scores_zero(self):
        conf = confusion_counts([0, 0, 0], [0, 0, 1], num_classes=2)
        # class 1: tp=0, fp=0, fn=1 -> f1 contribution 0
        assert f1_scores(conf) == pytest.approx(0.5 * (2 * 1.0 * (2 / 3) / (1.0 + 2 / 3)))

    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            truths = rng.integers(0, 4, size=60)
            preds = rng.integers(0, 4, size=60)
            conf = confusion_counts(preds, truths, num_classes=4)
            # scikit-learn is not a dependency; rebuild macro-f1 from scipy's
            # contingency table as an independent formulation
            table = scipy.stats.contingency.crosstab(truths, preds).count
            full = np.zeros((4, 4))
            lv = scipy.stats.contingency.crosstab(truths, preds).elements
            for i, r in enumerate(lv[0]):
                for j, c in enumerate(lv[1]):
                    full[r, c] = table[i, j]
            f1s = []
            for c in range(4):
                tp = full[c, c]
                fp = full[:, c].sum() - tp
                fn = full[c, :].sum() - tp
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                f1s.append(2 * p * r / (p + r) if p + r else 0.0)
            assert f1_scores(conf) == pytest.approx(np.mean(f1s))


class TestTieAverageRanks:
    def test_no_ties(self):
        assert np.array_equal(tie_average_ranks([0.3, 0.1, 0.2]), [3, 1, 2])

    def test_tied_pair_shares_mean_rank(self):
        assert np.array_equal(tie_average_ranks([0.1, 0.2, 0.2]), [1, 2.5, 2.5])

    def test_all_tied(self):
        assert np.array_equal(tie_average_ranks([5.0] * 4), [2.5] * 4)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_rank_sum_conserved(self, values):
        ranks = tie_average_ranks(np.asarray(values, dtype=float))
        n = len(values)
        assert ranks.sum() == pytest.approx(n * (n + 1) / 2)

    def test_matches_scipy_rankdata(self):
        rng = np.random.default_rng(1)
        specials = np.array([np.inf, -np.inf, -0.0, 0.0])
        for trial in range(40):
            v = rng.integers(0, 6, size=15).astype(float)
            if trial % 2:
                where = rng.random(15) < 0.4
                v[where] = rng.choice(specials, size=int(where.sum()))
            assert np.array_equal(tie_average_ranks(v),
                                  scipy.stats.rankdata(v, method="average"))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            tie_average_ranks([0.1, np.nan, 0.2])


class TestRankModels:
    def matrix(self):
        return ErrorMatrix(
            models=["A", "B", "C"],
            datasets=["d1", "d2", "d3"],
            errors=np.array([
                [0.1, 0.2, 0.3],
                [0.2, 0.1, 0.1],
                [0.5, np.nan, 0.4],
            ]),
        )

    def test_exclude_mode(self):
        mean_ranks, no_best = rank_models(self.matrix(), missing_mode="exclude")
        # d1 ranks A1 B2 C3; d2 ranks A3 B1.5 C1.5; d3 (A,C only) A2 C1
        assert mean_ranks["A"] == pytest.approx(2.0)
        assert mean_ranks["B"] == pytest.approx(1.75)
        assert mean_ranks["C"] == pytest.approx((3 + 1.5 + 1) / 3)
        assert no_best == {"A": 1, "B": 1, "C": 2}

    def test_worst_mode(self):
        mean_ranks, no_best = rank_models(self.matrix(), missing_mode="worst")
        # d3 becomes A2 B3 C1
        assert mean_ranks["B"] == pytest.approx((2 + 1.5 + 3) / 3)
        assert no_best == {"A": 1, "B": 1, "C": 2}

    def test_single_entry_row_warned_and_skipped(self):
        m = ErrorMatrix(["A", "B"], ["d1", "d2"],
                        np.array([[0.1, 0.2], [0.3, np.nan]]))
        with pytest.warns(UserWarning, match="d2"):
            mean_ranks, _ = rank_models(m)
        assert mean_ranks["A"] == 1.0

    def test_fewer_than_two_models_rejected(self):
        m = ErrorMatrix(["A"], ["d1"], np.array([[0.1]]))
        with pytest.raises(ValueError):
            rank_models(m)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            rank_models(self.matrix(), missing_mode="drop")

    def test_model_never_ranked_rejected(self):
        # B's only entry sits in a row that is skipped for having one entry
        m = ErrorMatrix(["A", "B", "C"], ["d1", "d2"],
                        np.array([[0.1, np.nan, 0.2], [np.nan, 0.3, np.nan]]))
        with pytest.warns(UserWarning, match="d2"), pytest.raises(ValueError, match="B"):
            rank_models(m)

    @pytest.mark.parametrize("mode", ["exclude", "worst"])
    def test_matches_per_row_rankdata_on_random_tables(self, mode):
        # oracle: a per-row loop; "worst" puts every absent entry behind every
        # present one, +inf included, tied among themselves
        rng = np.random.default_rng(11)
        for trial in range(40):
            errors = rng.integers(0, 4, size=(10, 5)) / 4
            errors[rng.random(errors.shape) < 0.1] = np.inf
            errors[rng.random(errors.shape) < 0.35] = np.nan
            datasets = [f"d{d}" for d in range(10)]
            sums, counts, best = np.zeros(5), np.zeros(5), np.zeros(5, dtype=int)
            skipped = []
            for name, row in zip(datasets, errors):
                present = ~np.isnan(row)
                if present.sum() < 2:
                    skipped.append(name)
                    continue
                ranks = np.full(5, (present.sum() + 1 + 5) / 2)
                ranks[present] = scipy.stats.rankdata(row[present])
                counted = present if mode == "exclude" else np.ones(5, dtype=bool)
                sums[counted] += ranks[counted]
                counts[counted] += 1
                best += present & (row == np.nanmin(row))
            matrix = ErrorMatrix(list("ABCDE"), datasets, errors)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if np.any(counts == 0):
                    with pytest.raises(ValueError, match="no dataset ranks"):
                        rank_models(matrix, missing_mode=mode)
                    continue
                mean_ranks, no_best = rank_models(matrix, missing_mode=mode)
            assert [str(w.message) for w in caught] == [
                f"dataset {name!r} has fewer than 2 entries; skipped" for name in skipped]
            assert [mean_ranks[m] for m in "ABCDE"] == list(sums / counts), trial
            assert [no_best[m] for m in "ABCDE"] == list(best), trial

    @pytest.mark.parametrize("mode", ["exclude", "worst"])
    def test_present_inf_does_not_tie_with_absent_entries(self, mode):
        m = ErrorMatrix(["A", "B", "C"], ["d1", "d2"],
                        np.array([[0.1, np.inf, np.nan], [0.1, 0.2, 0.3]]))
        mean_ranks, _ = rank_models(m, missing_mode=mode)
        assert (mean_ranks["A"], mean_ranks["B"]) == (1.0, 2.0)
        assert mean_ranks["C"] == 3.0


class TestErrorMatrixCsv:
    def test_roundtrip_with_missing_entries(self, tmp_path):
        m = ErrorMatrix(["A", "B"], ["d1", "d2"],
                        np.array([[0.1, np.nan], [0.25, 0.5]]))
        path = tmp_path / "m.csv"
        write_error_matrix(m, path)
        back = ErrorMatrix.from_csv(path)
        assert back.models == m.models
        assert back.datasets == m.datasets
        assert np.array_equal(np.isnan(back.errors), np.isnan(m.errors))
        assert np.allclose(back.errors[~np.isnan(m.errors)],
                           m.errors[~np.isnan(m.errors)])

    @pytest.mark.parametrize("rows, empty", [("d1,0.1,\nd2,0.2,\n", "B"), ("", "A, B")],
                             ids=["empty-column", "header-only"])
    def test_model_without_entries_rejected(self, tmp_path, rows, empty):
        path = tmp_path / "m.csv"
        path.write_text("dataset,A,B\n" + rows)
        with pytest.raises(ValueError) as err:
            ErrorMatrix.from_csv(path)
        assert str(err.value).endswith(f"model(s) {empty}")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("model,A\nd1,0.1\n")
        with pytest.raises(ValueError, match="dataset"):
            ErrorMatrix.from_csv(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("dataset,A,B\nd1,0.1\n")
        with pytest.raises(ValueError, match=":2"):
            ErrorMatrix.from_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("dataset,A,B,A\nd1,0.1,0.2,0.3\n", r"m\.csv: repeated model name\(s\) A$"),
        ("dataset,A,B\nd1,0.1,0.2\nd2,0.2,0.1\nd1,0.3,0.1\n",
         r"m\.csv: repeated dataset name\(s\) d1$"),
    ], ids=["model", "dataset"])
    def test_repeated_name_rejected(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            ErrorMatrix.from_csv(path)

    def test_non_utf8_byte_names_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"dataset,A,B\nd1,0.1,0.2\xff\n")
        with pytest.raises(ValueError, match=r"m\.csv: not UTF-8 text"):
            ErrorMatrix.from_csv(path)

    def test_oversized_field_names_line(self, tmp_path):
        # the csv module refuses fields over 131072 characters with csv.Error
        path = tmp_path / "m.csv"
        path.write_text("dataset,A,B\nd1,0.1,0.2\n" + "d" * 140_000 + ",0.1,0.2\n")
        with pytest.raises(ValueError, match=r"m\.csv:3: field larger than field limit"):
            ErrorMatrix.from_csv(path)

    def test_column_lookup(self):
        m = ErrorMatrix(["A", "B"], ["d1"], np.array([[0.1, 0.2]]))
        assert np.array_equal(m.column("B"), [0.2])


class TestErrorMatrixFuzz:
    """ErrorMatrix.from_csv on damaged copies of a corner of the shipped
    error table returns a consistent matrix or raises a ValueError naming
    the file."""

    @pytest.fixture(scope="class")
    def original(self, tmp_path_factory):
        table = resources.files("grufcn.data").joinpath("published_errors.csv").read_text()
        # five rows and six models, one entry (ArrowHead, MCNN) missing
        raw = "".join(",".join(line.split(",")[:7]) + "\n" for line in table.splitlines()[:6])
        return tmp_path_factory.mktemp("fuzz") / "errors.csv", raw.encode("utf-8")

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_from_csv_returns_a_matrix_or_names_the_file(self, original, data):
        path, raw = original
        path.write_bytes(data.draw(mutations(raw)))
        try:
            matrix = ErrorMatrix.from_csv(path)
        except ValueError as exc:
            assert str(exc).startswith(str(path)), exc
            return
        assert matrix.errors.dtype == np.float64
        assert matrix.errors.shape == (len(matrix.datasets), len(matrix.models))
        assert not np.any(np.all(np.isnan(matrix.errors), axis=0))
        for names in (matrix.models, matrix.datasets):
            assert len(set(names)) == len(names)


class TestWilcoxon:
    def test_all_wins_small_sample(self):
        # 5 positive differences, no ties: W = 0, p = 2 * 1/32
        res = wilcoxon_signed_rank([2, 3, 4, 5, 6], [1, 2, 3, 4, 5])
        assert res.statistic == 0.0
        assert res.pvalue == 0.0625
        assert res.n == 5 and res.exact

    def test_zero_differences_dropped(self):
        res = wilcoxon_signed_rank([1, 2, 3, 4, 5, 9], [1, 2, 3, 4, 5, 3])
        assert res.n == 1
        assert res.pvalue == 1.0

    def test_all_zero_differences_undefined(self):
        with pytest.raises(UndefinedTestError):
            wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1, 2], [1, 2, 3])

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        assert wilcoxon_signed_rank(a, b).pvalue == wilcoxon_signed_rank(b, a).pvalue

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        assert (wilcoxon_signed_rank(a, b).pvalue
                == wilcoxon_signed_rank(a + 7.0, b + 7.0).pvalue)

    @pytest.mark.parametrize("trial", range(120))
    def test_exact_matches_brute_force_enumeration(self, trial):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(1, 13))
        a = rng.integers(0, 6, size=n) / 4.0  # quarter-grid values force ties
        b = rng.integers(0, 6, size=n) / 4.0
        if np.all(a == b):
            a = a + 0.25
        res = wilcoxon_signed_rank(a, b)
        w_ref, p_ref = brute_force_wilcoxon(a, b)
        assert res.exact
        assert res.statistic == w_ref
        assert res.pvalue == p_ref  # bit-for-bit, both sides use exact counts

    def test_exact_matches_scipy_without_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.normal(size=15)
            b = rng.normal(size=15)
            res = wilcoxon_signed_rank(a, b)
            ref = scipy.stats.wilcoxon(a, b, mode="exact")
            assert res.pvalue == pytest.approx(ref.pvalue, abs=1e-12)

    def test_large_sample_uses_normal_approximation(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=60)
        b = rng.normal(size=60) + 0.3
        res = wilcoxon_signed_rank(a, b)
        assert not res.exact
        ref = scipy.stats.wilcoxon(a, b, mode="approx", correction=True)
        assert res.pvalue == pytest.approx(ref.pvalue, abs=1e-10)

    def test_large_sample_with_ties_matches_scipy(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 8, size=40) / 2.0
        b = rng.integers(0, 8, size=40) / 2.0
        if np.all(a == b):  # pragma: no cover - vanishingly unlikely
            a[0] += 0.5
        res = wilcoxon_signed_rank(a, b)
        ref = scipy.stats.wilcoxon(a, b, mode="approx", correction=True)
        assert not res.exact
        assert res.pvalue == pytest.approx(ref.pvalue, abs=1e-10)

    def test_exact_limit_boundary(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=EXACT_LIMIT)
        b = rng.normal(size=EXACT_LIMIT)
        assert wilcoxon_signed_rank(a, b).exact
        a = rng.normal(size=EXACT_LIMIT + 1)
        b = rng.normal(size=EXACT_LIMIT + 1)
        assert not wilcoxon_signed_rank(a, b).exact


class TestNemenyi:
    def test_q_table_matches_studentized_range(self):
        for alpha, table in NEMENYI_Q.items():
            for k, q in table.items():
                ref = scipy.stats.studentized_range.ppf(1 - alpha, k, np.inf) / np.sqrt(2)
                assert q == pytest.approx(ref, abs=5e-4), (alpha, k)

    def test_cd_formula(self):
        cd = nemenyi_cd(13, 85, alpha=0.05)
        expected = NEMENYI_Q[0.05][13] * np.sqrt(13 * 14 / (6 * 85))
        assert cd == pytest.approx(expected)

    def test_more_datasets_shrink_cd(self):
        assert nemenyi_cd(5, 100) < nemenyi_cd(5, 10)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            nemenyi_cd(13, 85, alpha=0.01)
        with pytest.raises(ValueError):
            nemenyi_cd(25, 85)
        with pytest.raises(ValueError):
            nemenyi_cd(5, 0)


class TestShippedReferenceTables:
    """Statistics recomputed from the packaged 85-dataset error matrix.

    These pin what the shipped numbers actually yield. The published summary
    row claims a "no. best" of 39, but four datasets it bolds are not the
    printed row minimum; recomputing from the printed errors gives 35.
    """

    @pytest.fixture()
    def shipped(self):
        from importlib import resources
        path = resources.files("grufcn.data").joinpath("published_errors.csv")
        return ErrorMatrix.from_csv(path)

    def test_shape(self, shipped):
        assert len(shipped.datasets) == 85
        assert len(shipped.models) == 13
        assert shipped.models[0] == "GRU-FCN"

    def test_gru_fcn_summary_statistics(self, shipped):
        from grufcn.data_ucr import registry_lookup
        mean_ranks, no_best = rank_models(shipped, missing_mode="exclude")
        assert no_best["GRU-FCN"] == 35
        assert mean_ranks["GRU-FCN"] == pytest.approx(2.924, abs=5e-4)
        classes = np.asarray(
            [registry_lookup(d).num_classes for d in shipped.datasets], dtype=float
        )
        assert mpce(shipped.column("GRU-FCN"), classes) == pytest.approx(0.0305, abs=5e-5)

    @pytest.mark.parametrize("mode", ["exclude", "worst"])
    def test_rank_models_matches_per_row_rankdata(self, shipped, mode):
        # oracle: rank each row with scipy; "exclude" ranks only the present
        # entries, "worst" ranks absent entries as tied at +inf
        sums = np.zeros(len(shipped.models))
        counts = np.zeros(len(shipped.models))
        for row in shipped.errors:
            present = ~np.isnan(row)
            if mode == "exclude":
                sums[present] += scipy.stats.rankdata(row[present])
                counts[present] += 1
            else:
                sums += scipy.stats.rankdata(np.where(present, row, np.inf))
                counts += 1
        mean_ranks, no_best = rank_models(shipped, missing_mode=mode)
        assert np.isnan(shipped.errors).any()
        assert [mean_ranks[m] for m in shipped.models] == pytest.approx(sums / counts,
                                                                      rel=1e-12)
        best = np.nanmin(shipped.errors, axis=1, keepdims=True)
        assert [no_best[m] for m in shipped.models] == list(
            np.sum(shipped.errors == best, axis=0))

    def test_gru_fcn_has_lowest_mean_rank(self, shipped):
        mean_ranks, _ = rank_models(shipped, missing_mode="exclude")
        assert min(mean_ranks, key=mean_ranks.get) == "GRU-FCN"


class TestCdDiagram:
    def test_svg_smoke(self):
        svg = cd_diagram_svg({"A": 1.5, "B": 2.75, "C": 4.0}, cd=1.2)
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        for name in ("A", "B", "C"):
            assert name in svg
        assert "CD = 1.200" in svg

    def test_equal_ranks_do_not_crash(self):
        svg = cd_diagram_svg({"A": 2.0, "B": 2.0}, cd=0.5)
        assert "<svg" in svg

    def test_markup_in_model_names_is_escaped(self):
        ranks = {"A&B": 1.5, "<E>": 2.5, 'q"\'': 3.0}
        root = ET.fromstring(cd_diagram_svg(ranks, cd=1.0))
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert [f"{name} ({rank:.3f})" for name, rank in ranks.items()] == texts[-3:]
