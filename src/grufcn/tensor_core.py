"""Dense float64 tensor primitives: same-padded 1D convolution and
deterministic initializers.

Tensors are plain C-contiguous ``numpy.ndarray`` objects with dtype float64.
Everything here is a pure function of its inputs; the only state lives in
:class:`Rng`.
"""

from __future__ import annotations

import numpy as np

IM2COL_ELEMENTS = 1 << 20  # float64 elements per im2col slice of the conv (8 MiB)


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class Rng:
    """Deterministic random source: identical seed, identical draw sequence."""

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.PCG64(int(seed)))

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def random(self, shape) -> np.ndarray:
        return self._gen.random(size=shape, dtype=np.float64)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def same_padding(kernel_size: int) -> tuple[int, int]:
    """Left/right zero padding so stride-1 output length equals input length.

    For even kernels the extra zero goes on the right (pad_left=3, pad_right=4
    for k=8).
    """
    if kernel_size < 1:
        raise ValueError(f"kernel size must be >= 1, got {kernel_size}")
    left = (kernel_size - 1) // 2
    return left, kernel_size - 1 - left


def _im2col_slices(x: np.ndarray, k: int):
    """Walk the (B, L, Cin) input x in slices of at most IM2COL_ELEMENTS
    window-matrix floats, yielding (series, positions, cols) per slice.

    series and positions are the slices of x's first two axes covered, and
    cols (one reused scratch array, overwritten by the next slice) holds
    each covered (series, position) pair's window as a row: zero-padded
    x[b, t - left + j, :] for taps j = 0..k-1, flattened tap-major. A slice
    is a few whole series, or, when one series' window matrix is larger than
    the budget, a position range of one series, so neither the batch's nor
    one long series' k-times window matrix is ever built.
    """
    batch, length, c_in = x.shape
    left, right = same_padding(k)
    rows = max(1, IM2COL_ELEMENTS // (k * c_in))
    series = max(1, rows // max(1, length))
    positions = max(1, min(rows, length))
    scratch = np.empty((min(series, batch) * positions, k * c_in))
    for b in range(0, batch, series):
        for t in range(0, length, positions):
            stop = min(t + positions, length)
            lo, hi = t - left, stop + right  # padded coordinates of the windows' span
            padded = np.pad(x[b:b + series, max(lo, 0):min(hi, length)],
                            ((0, 0), (max(-lo, 0), max(hi - length, 0)), (0, 0)))
            windows = np.lib.stride_tricks.sliding_window_view(padded, k, axis=1)
            cols = scratch[:windows.shape[0] * windows.shape[1]]
            np.copyto(cols.reshape(windows.shape[:2] + (k, c_in)), windows.transpose(0, 1, 3, 2))
            del padded, windows  # free this slice's padded copy before the next is made
            yield slice(b, b + series), slice(t, stop), cols


def conv1d_same(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Stride-1 cross-correlation with zero "same" padding.

    x is (B, L, Cin), kernels is (k, Cin, Cout), bias is (Cout,); returns
    (B, L, Cout). No kernel flip is applied. Each im2col slice is one GEMM.
    """
    x = np.asarray(x, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if x.ndim != 3 or kernels.ndim != 3:
        raise ShapeMismatchError(
            f"conv1d_same expects (B,L,Cin) input and (k,Cin,Cout) kernels, "
            f"got {x.shape} and {kernels.shape}"
        )
    k, c_in, c_out = kernels.shape
    if x.shape[2] != c_in:
        raise ShapeMismatchError(f"input channels {x.shape[2]} != kernel channels {c_in}")
    w = kernels.reshape(k * c_in, c_out)
    out = np.empty(x.shape[:2] + (c_out,))
    for series, positions, cols in _im2col_slices(x, k):
        # a slice is whole series or part of one series, so this view is contiguous
        np.matmul(cols, w, out=out[series, positions].reshape(-1, c_out))
    return np.add(out, bias, out=out)


def conv1d_same_backward(
    x: np.ndarray, kernels: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv1d_same w.r.t. input, kernels, and bias.

    x is the forward's (B, L, Cin) input, grad_out is (B, L, Cout). It walks
    the forward's im2col slices: per slice, one GEMM adds the kernel
    gradient of all k taps and one GEMM writes the window gradients back
    into the slice's scratch rows, which are then scatter-added into the
    input gradient tap by tap, each tap clipped to the positions it reads
    inside the series. Beyond the three gradients it allocates only one
    slice's scratch and padded copy and one kernel-sized product buffer.
    """
    x = np.asarray(x, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    k, c_in, c_out = kernels.shape
    if x.ndim != 3 or grad_out.shape != (x.shape[0], x.shape[1], c_out):
        raise ShapeMismatchError(
            f"grad shape {grad_out.shape} does not match forward output "
            f"for input {x.shape} and {c_out} output channels"
        )
    length = x.shape[1]
    left, _ = same_padding(k)
    w = kernels.reshape(k * c_in, c_out)
    grad_x = np.zeros_like(x)
    # the kernel gradient is summed transposed: on one x86-64 core with
    # OpenBLAS 0.3.31, g.T @ cols ran at about 47 gflop/s where cols.T @ g
    # ran at 34-41 on the model's shapes
    grad_w_t = np.zeros((c_out, k * c_in))
    product = np.empty_like(grad_w_t)
    for series, positions, cols in _im2col_slices(x, k):
        g = grad_out[series, positions]
        g_rows = g.reshape(-1, c_out)
        grad_w_t += np.matmul(g_rows.T, cols, out=product)
        taps = np.matmul(g_rows, w.T, out=cols).reshape(g.shape[:2] + (k, c_in))
        for j in range(k):
            # row r of tap j reads x position positions.start + r + j - left;
            # keep the rows whose source lies inside the series
            offset = positions.start + j - left
            lo, hi = max(0, -offset), min(g.shape[1], length - offset)
            if lo < hi:
                grad_x[series, lo + offset:hi + offset] += taps[:, lo:hi, j]
    return grad_x, grad_w_t.T.reshape(kernels.shape), grad_out.sum(axis=(0, 1))


def he_uniform_init(rng: Rng, fan_in: int, shape) -> np.ndarray:
    """Uniform on [-sqrt(6/fan_in), +sqrt(6/fan_in)]."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, shape)


def glorot_uniform_init(rng: Rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    """Uniform on [-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))]."""
    if fan_in + fan_out < 1:
        raise ValueError(f"fan_in + fan_out must be >= 1, got {fan_in}+{fan_out}")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)
