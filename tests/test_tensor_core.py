import multiprocessing
import os
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from gradcheck import assert_grad_close, max_rel_error, numerical_grad

from grufcn import tensor_core
from grufcn.tensor_core import (
    Rng,
    conv1d_same,
    conv1d_same_backward,
    glorot_uniform_init,
    he_uniform_init,
    same_padding,
)


@pytest.mark.parametrize("length", [1, 3, 7])
@pytest.mark.parametrize("rows", [0, 1, 2, 3, 6, 7, 14, 20, 100])
def test_batch_slices_hold_whole_series_or_one_series_positions(monkeypatch, length, rows):
    # at one float per position, rows // length whole series per slice when
    # one fits, else slices of rows positions of one series; at least one
    # position per slice
    if rows >= length:
        per = rows // length
        expected = [(slice(b, b + per), slice(0, length)) for b in range(0, 5, per)]
    else:
        step = max(1, rows)
        expected = [(slice(b, b + 1), slice(t, min(t + step, length)))
                    for b in range(5) for t in range(0, length, step)]
    monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", rows)
    assert list(tensor_core.slices((5, length), 1)) == expected


# (kernel size, length, window rows per im2col slice) over a batch of 5:
# slices of 1, 2 and 3 whole series (the last one short), slices cut inside a
# series (kernel taps then cross slice boundaries), and kernels longer than
# the series, whose outer taps have no valid position in some slices
IM2COL_BUDGETS = [
    (4, 7, 7), (4, 7, 14), (4, 7, 21),
    (4, 7, 1), (5, 7, 3), (3, 7, 6),
    (8, 3, 1), (8, 3, 2), (8, 3, 6),
]


# (kernel size, length) for kernels of at most 5 taps, where both conv paths
# apply: L < 4, L mod 4 != 0, L < k and even k (mirrored padding in the backward)
WINOGRAD_SHAPES = [(3, 1), (5, 2), (4, 3), (5, 4), (3, 6), (4, 9), (2, 13), (1, 5), (5, 16)]


def flat(gradients):
    """conv1d_same_backward's result as a list of arrays: the input
    gradient, or the three parts of the gated one, if any, then the kernel
    gradient."""
    grad_x, grad_kernels = gradients
    parts = [] if grad_x is None else list(grad_x) if isinstance(grad_x, tuple) else [grad_x]
    return [*parts, grad_kernels]


def direct_conv(x, kernels):
    """conv1d_same as a sum over taps of GEMMs on shifted zero-padded copies."""
    k, length = kernels.shape[0], x.shape[1]
    padded = np.pad(x, ((0, 0), same_padding(k), (0, 0)))
    return sum(padded[:, j:j + length] @ kernels[j] for j in range(k))


@pytest.fixture(params=["im2col", "winograd"])
def conv_path(request, monkeypatch):
    """Run the test once on each conv path, whatever the channel count."""
    threshold = 1 if request.param == "winograd" else 1 << 30
    monkeypatch.setattr(tensor_core, "WINOGRAD_MIN_CHANNELS", threshold)
    return request.param


class TestConv1dSame:
    def test_hand_convolution(self):
        x = np.array([[1.0], [2.0], [3.0]])
        kernels = np.ones((3, 1, 1))
        out = conv1d_same(x[None], kernels)[0]
        assert np.allclose(out[:, 0], [3.0, 6.0, 5.0])

    def test_same_padding_shape_contract(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(176, 1))
        out = conv1d_same(x[None], rng.normal(size=(8, 1, 128)))[0]
        assert out.shape == (176, 128)

    def test_even_kernel_pads_extra_zero_right(self):
        assert same_padding(8) == (3, 4)
        assert same_padding(3) == (1, 1)
        assert same_padding(5) == (2, 2)

    def test_kernel_longer_than_input_is_legal(self):
        out = conv1d_same(np.ones((2, 1))[None], np.ones((8, 1, 1)))[0]
        assert out.shape == (2, 1)

    def test_kernel_size_zero_rejected(self):
        with pytest.raises(ValueError):
            conv1d_same(np.ones((4, 1))[None], np.ones((0, 1, 1)))

    def test_matches_direct_convolution(self):
        # brute-force reference: explicit loops over output positions and taps
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, 2))
        kernels = rng.normal(size=(4, 2, 3))
        left, _ = same_padding(4)
        expected = np.zeros((7, 3))
        for t in range(7):
            for j in range(4):
                src = t + j - left
                if 0 <= src < 7:
                    expected[t] += x[src] @ kernels[j]
        assert np.allclose(conv1d_same(x[None], kernels)[0], expected, atol=1e-12)

    @pytest.mark.parametrize("series_per_slice", [0, 1, 2, 3])
    def test_im2col_slices_match_direct_convolution(self, monkeypatch, series_per_slice):
        # 0 elements still gives one window row per slice; 2 leaves a short last slice
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 7, 2))
        kernels = rng.normal(size=(4, 2, 3))
        left, _ = same_padding(4)
        padded = np.pad(x, ((0, 0), (left, 4 - 1 - left), (0, 0)))
        expected = sum(padded[:, j:j + 7] @ kernels[j] for j in range(4))
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", series_per_slice * 7 * 4 * 2)
        assert np.allclose(conv1d_same(x, kernels), expected, atol=1e-12)

    @pytest.mark.parametrize("k, length, rows", IM2COL_BUDGETS)
    def test_im2col_budgets_match_direct_sum(self, monkeypatch, k, length, rows):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, length, 2))
        kernels = rng.normal(size=(k, 2, 3))
        left, right = same_padding(k)
        padded = np.pad(x, ((0, 0), (left, right), (0, 0)))
        expected = sum(padded[:, j:j + length] @ kernels[j] for j in range(k))
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", rows * k * 2)
        assert np.allclose(conv1d_same(x, kernels), expected, atol=1e-12)

    @given(st.integers(1, 40), st.sampled_from([3, 5, 8]), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_length_preserved(self, length, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(length, 2))
        out = conv1d_same(x[None], rng.normal(size=(k, 2, 3)))[0]
        assert out.shape == (length, 3)

    def test_unbatched_input_rejected(self):
        with pytest.raises(ValueError, match=r"conv1d_same expects \(B,L,Cin\) input"):
            conv1d_same(np.ones((4, 1)), np.ones((3, 1, 1)))
        with pytest.raises(ValueError, match=r"grad shape \(4, 1\) does not match forward"):
            conv1d_same_backward(np.ones((4, 1)), np.ones((3, 1, 1)), np.ones((4, 1)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        # (kernel size, length): odd and even kernels, and kernels longer
        # than the series
        for k, length in ((5, 6), (8, 6), (8, 3), (5, 1)):
            x = rng.normal(size=(2, length, 2))
            kernels = rng.normal(size=(k, 2, 3))
            grad_out = rng.normal(size=(2, length, 3))

            gx, gk = conv1d_same_backward(x, kernels, grad_out)
            loss_x = lambda v: float(np.sum(conv1d_same(v, kernels) * grad_out))
            loss_k = lambda v: float(np.sum(conv1d_same(x, v) * grad_out))
            label = f"k={k} L={length}"
            assert_grad_close(gx, numerical_grad(loss_x, x), 1e-7, f"conv x {label}")
            assert_grad_close(gk, numerical_grad(loss_k, kernels), 1e-7,
                              f"conv kernels {label}")

    def test_skipped_input_gradient_leaves_the_kernel_gradient(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 11, 2))
        kernels = rng.normal(size=(5, 2, 3))
        grad_out = rng.normal(size=(3, 11, 3))
        gx, gk = conv1d_same_backward(x, kernels, grad_out)
        skipped, gk_alone = conv1d_same_backward(x, kernels, grad_out, input_grad=False)
        assert gx is not None and skipped is None
        assert np.array_equal(gk_alone, gk)

    @pytest.mark.parametrize("k, length", [(5, 9), (4, 7), (3, 13), (1, 5), (5, 2)])
    def test_scaled_backward_is_the_backward_of_the_scaled_gradient(self, conv_path, k,
                                                                     length):
        # the scale goes into a kernel copy and the kernel gradient's rows
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, length, 4))
        kernels = rng.normal(size=(k, 4, 3))
        grad_out = rng.normal(size=(3, length, 3))
        scale = rng.normal(size=3) * 2
        got = conv1d_same_backward(x, kernels, grad_out, scale=scale)
        expected = conv1d_same_backward(x, kernels, grad_out * scale)
        for name, a, b in zip(("x", "kernels"), got, expected, strict=True):
            assert max_rel_error(a, b) <= 1e-12, name
        skipped, grad_kernels = conv1d_same_backward(x, kernels, grad_out, input_grad=False,
                                                     scale=scale)
        assert skipped is None and np.array_equal(grad_kernels, got[1])

    @given(st.integers(1, 4), st.integers(1, 40), st.sampled_from([1, 3, 5, 8]),
           st.sampled_from([1, 3]), st.integers(1, 4), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_backward_matches_einsum_reference(self, batch, length, k, c_in, c_out, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, length, c_in))
        kernels = rng.normal(size=(k, c_in, c_out))
        grad_out = rng.normal(size=(batch, length, c_out))
        assert_backward_matches_einsum(x, kernels, grad_out)

    @pytest.mark.parametrize("k, length, rows", IM2COL_BUDGETS)
    def test_backward_im2col_budgets_match_einsum_reference(self, monkeypatch, k,
                                                            length, rows):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, length, 2))
        kernels = rng.normal(size=(k, 2, 3))
        grad_out = rng.normal(size=(5, length, 3))
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", rows * k * 2)
        assert_backward_matches_einsum(x, kernels, grad_out)

    @pytest.mark.parametrize("elements", [1, 40, 200, 1 << 19])
    @pytest.mark.parametrize("input_grad", [True, False])
    def test_map_is_handed_the_outputs_rows_once_per_slice(self, monkeypatch, conv_path,
                                                           elements, input_grad):
        # grad_out as a map of the output's rows: one call per slice of the
        # walk, with the conv's own rows at the slice's positions widened by
        # the input gradient's halo (k - 1 positions, clipped to [0, L)) if
        # that gradient is computed, and those positions; budgets of one position, two, a series
        # or the batch. The rows are bitwise the forward's: im2col sums small
        # integers exactly, and Winograd's tiles start on the forward's grid.
        # The gradients are the array's, but for the rounding of other slices
        rng = np.random.default_rng(19)
        k, left, right = 4, *same_padding(4)
        x = rng.integers(-3, 4, size=(3, 9, 2)).astype(float)
        kernels = rng.integers(-3, 4, size=(k, 2, 3)).astype(float)
        relu = rng.integers(-2, 3, size=2).astype(float), rng.integers(-2, 3, size=2).astype(float)
        weight, shift, scale = rng.normal(size=(3, 3)), rng.normal(size=3), rng.normal(size=3)
        y = conv1d_same(x, kernels, relu=relu)
        assert 0 < np.count_nonzero(y) < y.size
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", elements)
        calls, walks = [], []

        def of_output(rows, series, positions):
            calls.append((series, rows.copy(), positions))
            rows *= weight[series, None]
            rows += shift

        slices = tensor_core.slices
        monkeypatch.setattr(tensor_core, "slices",
                            lambda *args: walks.append(list(slices(*args))) or walks[-1])
        got = conv1d_same_backward(x, kernels, of_output, input_grad, scale=scale, relu=relu)
        walk = walks[0]  # the walk's slices are cut first, then each slice's pieces
        assert [series for series, _, _ in calls] == [series for series, _ in walk]
        assert any(p.stop - p.start < 9 for _, p in walk) == (elements <= 40)
        for (series, p), (_, rows, positions) in zip(walk, calls, strict=True):
            lo, hi = (max(p.start - right, 0), min(p.stop + left, 9)) if input_grad else (
                p.start, p.stop)
            assert positions == slice(lo, hi)
            assert np.array_equal(rows, y[series, lo:hi])
        grad_out = y * weight[:, None] + shift
        expected = conv1d_same_backward(x, kernels, grad_out, input_grad, scale=scale, relu=relu)
        assert (got[0] is None) == (expected[0] is None) == (not input_grad)
        for a, b in zip(flat(got), flat(expected), strict=True):
            assert max_rel_error(a, b) <= 1e-12

    def test_backward_memory_is_one_im2col_slice_beyond_its_gradients(self, monkeypatch):
        # the backward holds grad_x, the kernel gradient and, per worker, one
        # slice's scratch rows, padded copy and kernel-gradient product
        # (within 1.25 times the budget at k=5); a batch-wide padded copy,
        # its gradient or a (B*L, Cin) tap buffer would each add about x.nbytes
        monkeypatch.setattr(tensor_core, "WORKERS", 2)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(32, 300, 128))
        kernels = rng.normal(size=(5, 128, 256))
        grad_out = rng.normal(size=(32, 300, 256))
        tracemalloc.start()
        try:
            conv1d_same_backward(x, kernels, grad_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = 1.25 * tensor_core.WORKERS * tensor_core.IM2COL_ELEMENTS * x.itemsize
        assert peak < x.nbytes + budget + 2 * kernels.nbytes + (1 << 20)

    def test_scaled_kernels_are_freed_before_the_kernel_gradient(self, monkeypatch):
        # at the 128->256 block's shape the kernel gradient's slices set the
        # peak, so the input gradient's kernels * scale copy (1.25 MiB) must
        # be gone by then; one worker makes the peaks repeat exactly
        monkeypatch.setattr(tensor_core, "WORKERS", 1)
        rng = np.random.default_rng(17)
        x = rng.normal(size=(16, 100, 128))
        kernels = rng.normal(size=(5, 128, 256))
        grad_out = rng.normal(size=(16, 100, 256))
        scale = rng.uniform(0.5, 2.0, 256)

        def peak(**kwargs):
            tracemalloc.start()
            try:
                conv1d_same_backward(x, kernels, grad_out, **kwargs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak()  # builds the cached transforms
        assert peak(scale=scale) < peak() + kernels.nbytes // 4


class TestMoments:
    """conv1d_same(..., moments=True): y's per-channel mean and variance,
    taken by each slice from the rows it writes and merged in slice order."""

    # one position or tile per slice, slices that cut every series, the whole batch
    @pytest.mark.parametrize("elements", [1, 60, 1 << 19])
    @pytest.mark.parametrize("length", [3, 7, 16])  # L < 4, L mod 4 != 0, L mod 4 == 0
    @pytest.mark.parametrize("relu", [False, True])
    def test_match_mean_and_var_bitwise_at_every_worker_count(self, monkeypatch, conv_path,
                                                                elements, length, relu):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(5, length, 2)) * 3 + 1
        kernels = rng.normal(size=(5, 2, 3))
        ab = (rng.normal(size=2), rng.normal(size=2)) if relu else None
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", elements)
        y = conv1d_same(x, kernels, relu=ab)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(tensor_core, "WORKERS", workers)
            results.append(conv1d_same(x, kernels, relu=ab, moments=True))
        got, mean, var = results[0]
        assert np.array_equal(got, y)
        assert max_rel_error(mean, y.mean(axis=(0, 1))) <= 1e-12
        assert max_rel_error(var, y.var(axis=(0, 1))) <= 1e-12
        for other in results[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(results[0], other, strict=True))

    def test_no_rows_give_a_nan_variance(self, conv_path):
        with np.errstate(invalid="ignore"):
            y, _, var = conv1d_same(np.zeros((0, 7, 2)), np.ones((3, 2, 4)), moments=True)
        assert y.shape == (0, 7, 4) and np.all(np.isnan(var))


class TestWinograd:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_transforms_reproduce_direct_correlation(self, k):
        a_t, b_t, g = tensor_core._winograd_matrices(k)
        assert (a_t.shape, b_t.shape, g.shape) == ((4, k + 3), (k + 3, k + 3), (k + 3, k))
        assert tensor_core._winograd_matrices(k)[1] is b_t  # built once, then cached
        rng = np.random.default_rng(k)
        tiles, w = rng.normal(size=(k + 3, 50)), rng.normal(size=(k, 50))
        expected = [sum(tiles[i + j] * w[j] for j in range(k)) for i in range(4)]
        assert max_rel_error(a_t @ ((g @ w) * (b_t @ tiles)), np.array(expected)) <= 1e-14

    @pytest.mark.parametrize("k, length", WINOGRAD_SHAPES)
    def test_both_paths_match_direct_sum(self, conv_path, k, length):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, length, 2))
        kernels = rng.normal(size=(k, 2, 3))
        assert max_rel_error(conv1d_same(x, kernels), direct_conv(x, kernels)) <= 1e-12

    @pytest.mark.parametrize("elements", [k * 2 * rows for k, _, rows in IM2COL_BUDGETS]
                             + [0, 100, 200, 400, 600])
    @pytest.mark.parametrize("k, length", [(4, 7), (5, 7), (3, 10)])
    def test_both_paths_match_direct_sum_in_slices(self, monkeypatch, conv_path, k, length,
                                                   elements):
        # from one tile per slice to slices of several whole series
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, length, 2))
        kernels = rng.normal(size=(k, 2, 3))
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", elements)
        assert max_rel_error(conv1d_same(x, kernels), direct_conv(x, kernels)) <= 1e-12

    @pytest.mark.parametrize("elements", [0, 100, 400, 1 << 20])
    @pytest.mark.parametrize("k, length", WINOGRAD_SHAPES)
    def test_input_gradient_matches_einsum_reference(self, monkeypatch, k, length, elements):
        monkeypatch.setattr(tensor_core, "WINOGRAD_MIN_CHANNELS", 1)
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", elements)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(3, length, 2))
        kernels = rng.normal(size=(k, 2, 3))
        grad_out = rng.normal(size=(3, length, 3))
        assert_backward_matches_einsum(x, kernels, grad_out)

    @pytest.mark.parametrize("taps, step", [(1, 1), (4, 1), (8, 4), (6, 4)])
    def test_windows_are_the_strided_view(self, taps, step):
        # the read-only view of window i, rows i * step onwards, built
        # without as_strided
        padded = np.random.default_rng(13).normal(size=(3, 17, 5))
        windows = tensor_core._windows(padded, taps, step)
        n = (17 - taps) // step + 1
        s0, s1, s2 = padded.strides
        strided = np.lib.stride_tricks.as_strided(padded, (3, n, taps, 5),
                                                  (s0, step * s1, s1, s2), writeable=False)
        assert (windows.shape, windows.strides) == (strided.shape, strided.strides)
        assert np.array_equal(windows, strided)
        assert np.array_equal(windows, np.stack(
            [padded[:, i * step:i * step + taps] for i in range(n)], axis=1))
        assert not windows.flags.writeable

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("start, stop", [(0, 11), (3, 6), (2, 9)])
    def test_slice_without_dest_is_bitwise_the_slice_into_dest(self, conv_path, start, stop,
                                                                relu):
        # the output allocated after the GEMMs, and an input handed over in
        # a one-element list, which the slice empties, give the bits of a
        # given dest, with positions cut to it or reaching past it
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 11, 4))
        kernels = rng.normal(size=(5, 4, 6))
        ab = (rng.normal(size=4), rng.normal(size=4)) if relu else None
        prepared, left = tensor_core.prepare_kernels(kernels), same_padding(5)[0]
        series, positions = slice(1, 3), slice(start, stop)
        dest = np.empty((2, stop - start, 6))
        into = tensor_core.correlate_slice(x, series, positions, left, prepared, ab, dest)
        assert into is dest
        rows = x if ab is None else np.maximum(x * ab[0] + ab[1], 0.0)
        assert max_rel_error(dest, direct_conv(rows, kernels)[series, positions]) <= 1e-12
        past = tensor_core.correlate_slice(x, series, slice(start, stop + 5), left, prepared,
                                           ab, np.empty_like(dest))
        fresh = tensor_core.correlate_slice(x, series, positions, left, prepared, ab)
        held = [x[series]]
        handed = tensor_core.correlate_slice(held, slice(None), positions, left, prepared, ab)
        assert not held
        for got in (past, fresh, handed):
            assert got.shape == dest.shape and np.array_equal(got, dest)

    def test_model_blocks_take_the_winograd_path(self, monkeypatch):
        # block 0 (1 channel, k=8) stays im2col; blocks 1 and 2 run Winograd,
        # forward and input gradient
        calls = []
        prepare = tensor_core.prepare_kernels

        def spy(kernels):
            prepared = prepare(kernels)
            if prepared[3] == 4:  # Winograd's unit of 4 outputs
                calls.append(kernels.shape)
            return prepared

        monkeypatch.setattr(tensor_core, "prepare_kernels", spy)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 9, 1))
        for k, c_out in ((8, 128), (5, 256), (3, 128)):
            kernels = rng.normal(size=(k, x.shape[2], c_out))
            conv1d_same_backward(x, kernels, rng.normal(size=(2, 9, c_out)))
            x = conv1d_same(x, kernels)
        assert calls == [(5, 256, 128), (5, 128, 256), (3, 128, 256), (3, 256, 128)]

    def test_forward_memory_is_the_output_and_one_slice(self, monkeypatch):
        # a HandOutlines-length series through the 128->256 block, one slice
        # per worker
        monkeypatch.setattr(tensor_core, "WORKERS", 2)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(1, 2709, 128))
        kernels = rng.normal(size=(5, 128, 256))
        tracemalloc.start()
        try:
            out = conv1d_same(x, kernels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        transformed_kernels = 8 * 128 * 256 * 8
        budget = tensor_core.WORKERS * tensor_core.IM2COL_ELEMENTS * x.itemsize
        assert peak <= out.nbytes + budget + transformed_kernels + (1 << 20)


def einsum_conv_backward(x, kernels, grad_out):
    """Reference gradients of conv1d_same for (B, L, Cin) input, with each
    tap's kernel gradient an einsum over a strided view instead of a GEMM."""
    k, c_in, _ = kernels.shape
    left, right = same_padding(k)
    batch, length, _ = x.shape
    padded = np.zeros((batch, length + left + right, c_in))
    padded[:, left:left + length] = x
    grad_padded = np.zeros_like(padded)
    grad_kernels = np.zeros_like(kernels)
    for j in range(k):
        tap = padded[:, j:j + length]
        grad_kernels[j] = np.einsum("bli,blo->io", tap, grad_out)
        grad_padded[:, j:j + length] += grad_out @ kernels[j].T
    return grad_padded[:, left:left + length], grad_kernels


def assert_backward_matches_einsum(x, kernels, grad_out):
    """conv1d_same_backward returns exactly the reference's gradients, each
    within 1e-12 relative to max(1, |a|, |b|), as the gradient checks
    measure it: a bare relative error is unbounded where a sum cancels to
    near zero."""
    got = conv1d_same_backward(x, kernels, grad_out)
    for name, a, b in zip(("x", "kernels"), got, einsum_conv_backward(x, kernels, grad_out),
                          strict=True):
        assert a.shape == b.shape, name
        assert max_rel_error(a, b) <= 1e-12, name


class TestInitializers:
    def test_he_bound_forced_by_formula(self):
        samples = he_uniform_init(Rng(0), 6, (1000,))
        assert np.all(samples >= -1.0) and np.all(samples <= 1.0)
        assert samples.max() > 0.9  # the bound is actually approached

    def test_he_variance(self):
        samples = he_uniform_init(Rng(1), 24, (100_000,))
        assert samples.var() == pytest.approx(2.0 / 24, rel=0.05)

    def test_glorot_bound(self):
        samples = glorot_uniform_init(Rng(2), 3, 3, (1000,))
        assert np.all(np.abs(samples) <= 1.0)
        limit = np.sqrt(6.0 / 184)
        samples = glorot_uniform_init(Rng(3), 176, 8, (10_000,))
        assert np.all(np.abs(samples) <= limit)
        assert np.abs(samples).max() > 0.95 * limit

    def test_deterministic_under_fixed_seed(self):
        a = he_uniform_init(Rng(42), 10, (4, 5))
        b = he_uniform_init(Rng(42), 10, (4, 5))
        assert np.array_equal(a, b)
        c = glorot_uniform_init(Rng(42), 10, 3, (4, 5))
        d = glorot_uniform_init(Rng(42), 10, 3, (4, 5))
        assert np.array_equal(c, d)

    def test_zero_fans_rejected(self):
        with pytest.raises(ValueError):
            he_uniform_init(Rng(0), 0, (3,))
        with pytest.raises(ValueError):
            glorot_uniform_init(Rng(0), 0, 0, (3,))


class TestWorkers:
    """The conv's slices run on WORKERS threads; the slices and the order
    their kernel-gradient products are summed in depend on IM2COL_ELEMENTS
    alone, so every worker count gives bitwise the same result."""

    @pytest.mark.parametrize("openblas, omp, cpus, expected", [
        (None, None, 2, 1),   # BLAS unpinned: it already runs on every core
        (None, None, 8, 1),
        ("1", None, 2, 2),
        ("1", "4", 2, 2),     # OPENBLAS_NUM_THREADS first, as OpenBLAS reads them
        ("2", "1", 4, 2),
        (None, "1", 3, 3),
        ("0", "1", 2, 2),     # not a positive count: the next variable decides
        ("x", None, 2, 1),
        ("4", None, 2, 1),    # more BLAS threads than CPUs still runs one slice
    ])
    def test_worker_count_is_cpus_over_blas_threads(self, monkeypatch, openblas, omp, cpus,
                                                    expected):
        for name, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        monkeypatch.setattr(tensor_core.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert tensor_core.worker_count() == expected

    def slice_counts(self, monkeypatch):
        """The item counts of every ordered_map call from now on."""
        counts = []
        ordered_map = tensor_core.ordered_map

        def spy(fn, items, **kwargs):
            items = list(items)
            counts.append(len(items))
            return ordered_map(fn, items, **kwargs)

        monkeypatch.setattr(tensor_core, "ordered_map", spy)
        return counts

    # 7 series of 9 positions: 54 floats per slice gives 7 one-series slices
    # for the backward's walk, sized by its im2col, and 14 or 21 slices of
    # part of a series for the forward; 30 gives 14 or 21 slices throughout
    @pytest.mark.parametrize("elements", [30, 54])
    def test_conv_is_bitwise_the_same_at_every_worker_count(self, monkeypatch, conv_path,
                                                           elements):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(7, 9, 2))
        kernels = rng.normal(size=(3, 2, 3))
        scale = rng.normal(size=3)
        grad_out = rng.normal(size=(7, 9, 3))
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", elements)
        counts = self.slice_counts(monkeypatch)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(tensor_core, "WORKERS", workers)
            results.append((conv1d_same(x, kernels),
                            *conv1d_same_backward(x, kernels, grad_out, scale=scale)))
        # forward and backward per worker count: the backward's one walk
        # computes both of its gradients
        assert len(counts) == 6 and min(counts) >= 5
        assert any(n % 2 for n in counts) and any(n % 3 for n in counts)
        for result in results[1:]:
            for got, expected in zip(result, results[0], strict=True):
                assert np.array_equal(got, expected)

    def test_many_threads_switching_often_keep_the_result(self, monkeypatch):
        # more workers than cores, with the interpreter switching threads
        # every microsecond: a lost or reordered product would show
        rng = np.random.default_rng(15)
        x = rng.normal(size=(13, 11, 4))
        kernels = rng.normal(size=(4, 4, 5))
        grad_out = rng.normal(size=(13, 11, 5))
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", 4 * 16)
        monkeypatch.setattr(tensor_core, "WORKERS", 1)
        expected = conv1d_same_backward(x, kernels, grad_out)
        monkeypatch.setattr(tensor_core, "WORKERS", 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                got = conv1d_same_backward(x, kernels, grad_out)
                assert all(np.array_equal(a, b) for a, b in zip(got, expected, strict=True))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_kernel_gradient_holds_at_most_one_product_per_worker(self, monkeypatch, workers):
        # 12 one-series slices whose (512, 320) products, 1.3 MB each, dwarf
        # their scratch rows: the sum and `workers` products are alive at once
        monkeypatch.setattr(tensor_core, "WORKERS", workers)
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", 4 * 5 * 64)
        rng = np.random.default_rng(16)
        x = rng.normal(size=(12, 4, 64))
        kernels = rng.normal(size=(5, 64, 512))
        grad_out = rng.normal(size=(12, 4, 512))
        tracemalloc.start()
        try:
            conv1d_same_backward(x, kernels, grad_out, input_grad=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (1 + workers + 0.5) * kernels.nbytes

    @pytest.mark.parametrize("workers", [1, 2])
    def test_workers_follow_the_callers_floating_point_errors(self, monkeypatch, workers):
        monkeypatch.setattr(tensor_core, "WORKERS", workers)
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", 6)
        x, kernels = np.full((2, 3, 2), 1e300), np.full((3, 2, 2), 1e300)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            conv1d_same(x, kernels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                assert np.all(np.isinf(conv1d_same(x, kernels)))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_starts_its_own_pool(self, monkeypatch):
        # the child inherits the started pool but none of its threads
        monkeypatch.setattr(tensor_core, "WORKERS", 2)
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", 6)
        x, kernels = np.ones((2, 3, 2)), np.ones((3, 2, 2))
        expected = conv1d_same(x, kernels)
        child = multiprocessing.get_context("fork").Process(
            target=lambda: os._exit(0 if np.array_equal(
                conv1d_same(x, kernels), expected) else 1))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
        assert child.exitcode == 0

    def test_results_come_in_item_order_and_a_failure_is_raised(self, monkeypatch):
        monkeypatch.setattr(tensor_core, "WORKERS", 3)

        def fn(i):
            if i == 7:
                raise ValueError("item 7")
            time.sleep(0.001 * (i % 3))  # later items often finish first
            return i

        assert list(tensor_core.ordered_map(fn, range(7))) == list(range(7))
        with pytest.raises(ValueError, match="item 7"):
            list(tensor_core.ordered_map(fn, range(20)))


class TestRebuiltInput:
    """With relu = (gamma, beta), conv1d_same and conv1d_same_backward read x
    as ReLU(x * gamma + beta), rebuilt a slice at a time into the slice's
    padded copy; the output and gradients must be bitwise those of the
    materialized input, however the slices cut the series and however many
    workers, but that the input gradient comes gated by x * gamma + beta >
    0, with its sums, as a conv block's backward takes it."""

    @pytest.mark.parametrize("c_in", [2, 40])  # the im2col and Winograd paths
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_output_is_bitwise_that_of_the_materialized_input(self, monkeypatch, c_in,
                                                              workers):
        rng = np.random.default_rng(18)
        x_hat = rng.normal(size=(5, 9, c_in))
        gamma, beta = rng.normal(size=c_in), rng.normal(size=c_in)
        kernels = rng.normal(size=(5, c_in, 6))
        x = tensor_core._bn_relu(x_hat, gamma, beta, np.empty_like(x_hat))
        assert 0 < np.count_nonzero(x) < x.size
        # one position per im2col slice, one tile of 4 per Winograd slice:
        # slices cut every series, so some reach past its start or end
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", 1)
        monkeypatch.setattr(tensor_core, "WORKERS", workers)
        expected = conv1d_same(x, kernels)
        assert np.array_equal(conv1d_same(x_hat, kernels, relu=(gamma, beta)), expected)

    # 5 series of 9 positions, 3 channels: slices of 1 or 4 positions cut
    # each series, so some slices reach past its start or end; 9 and 18 are
    # one and two whole series
    @pytest.mark.parametrize("positions", [1, 4, 9, 18])
    @pytest.mark.parametrize("k", [4, 5])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_gradients_are_bitwise_those_of_the_materialized_input(self, monkeypatch,
                                                                   positions, k, workers):
        rng = np.random.default_rng(17)
        x_hat = rng.normal(size=(5, 9, 3))
        gamma, beta = rng.normal(size=3), rng.normal(size=3)
        kernels = rng.normal(size=(k, 3, 6))
        grad_out = rng.normal(size=(5, 9, 6))
        scale = rng.normal(size=6)
        x = np.maximum(x_hat * gamma + beta, 0.0)  # as a training block makes its output
        assert 0 < np.count_nonzero(x) < x.size
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", positions * k * 3)
        monkeypatch.setattr(tensor_core, "WORKERS", workers)
        starts = {p.start for _, p in tensor_core.slices(x_hat.shape, k * 3)}
        assert (len(starts) > 1) == (positions < 9)
        expected = conv1d_same_backward(x, kernels, grad_out, scale=scale)
        (dz, dot, total), grad_kernels = conv1d_same_backward(x_hat, kernels, grad_out,
                                                              scale=scale, relu=(gamma, beta))
        assert np.array_equal(dz, expected[0] * (x > 0))
        assert np.array_equal(grad_kernels, expected[1])
        assert max_rel_error(dot, np.einsum("blc,blc->c", dz, x_hat)) <= 1e-12
        assert max_rel_error(total, dz.sum(axis=(0, 1))) <= 1e-12
