"""Dense float64 tensor primitives: same-padded 1D convolution and
deterministic initializers.

Tensors are plain C-contiguous ``numpy.ndarray`` objects with dtype float64.
Everything here is a pure function of its inputs; the only state lives in
:class:`Rng`.
"""

from __future__ import annotations

import numpy as np

IM2COL_ELEMENTS = 1 << 20  # float64 elements per im2col slice in conv1d_same (8 MiB)


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


def conv1d_same(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Stride-1 cross-correlation with zero "same" padding.

    x is (B, L, Cin), kernels is (k, Cin, Cout), bias is (Cout,); returns
    (B, L, Cout). No kernel flip is applied.
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
    batch, length, _ = x.shape
    w = kernels.reshape(k * c_in, c_out)
    step = max(1, IM2COL_ELEMENTS // max(1, length * k * c_in))
    scratch = np.empty((min(step, batch) * length, k * c_in))
    out = np.empty((batch, length, c_out))
    # pad and im2col-copy a few whole series at a time (windows[b, t] = padded[b, t:t+k, :]
    # flattened tap-major), so the batch's k-times window matrix never exists
    for b in range(0, batch, step):
        padded = np.pad(x[b:b + step], ((0, 0), same_padding(k), (0, 0)))
        windows = np.lib.stride_tricks.sliding_window_view(padded, k, axis=1)
        cols = scratch[:len(padded) * length]
        np.copyto(cols.reshape(-1, length, k, c_in), windows.transpose(0, 1, 3, 2))
        np.matmul(cols, w, out=out[b:b + step].reshape(-1, c_out))
    return np.add(out, bias, out=out)


def conv1d_same_backward(
    x: np.ndarray, kernels: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv1d_same w.r.t. input, kernels, and bias.

    x is the forward's (B, L, Cin) input, grad_out is (B, L, Cout). Each tap
    does two 2-D GEMMs over all B*L positions through one reused (B*L, Cin)
    scratch array, so no k-times window matrix is built and no tap allocates.
    """
    x = np.asarray(x, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    k, c_in, c_out = kernels.shape
    if x.ndim != 3 or grad_out.shape != (x.shape[0], x.shape[1], c_out):
        raise ShapeMismatchError(
            f"grad shape {grad_out.shape} does not match forward output "
            f"for input {x.shape} and {c_out} output channels"
        )
    batch, length, _ = x.shape
    left, right = same_padding(k)
    padded = np.pad(x, ((0, 0), (left, right), (0, 0)))
    grad_padded = np.zeros_like(padded)
    grad_kernels = np.empty_like(kernels)
    grad_rows = grad_out.reshape(batch * length, c_out)
    rows = np.empty((batch * length, c_in))
    taps = rows.reshape(batch, length, c_in)
    for j in range(k):
        np.copyto(taps, padded[:, j:j + length])
        np.matmul(rows.T, grad_rows, out=grad_kernels[j])
        np.matmul(grad_rows, kernels[j].T, out=rows)
        grad_padded[:, j:j + length] += taps
    return grad_padded[:, left:left + length], grad_kernels, grad_out.sum(axis=(0, 1))


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
