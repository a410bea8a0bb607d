"""Dense float64 tensor primitives: same-padded 1D convolution and
deterministic initializers.

Tensors are plain C-contiguous ``numpy.ndarray`` objects with dtype float64.
Everything here is a pure function of its inputs; the only state lives in
:class:`Rng`.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class Rng:
    """Deterministic random source: identical seed, identical draw sequence."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape).astype(np.float64)

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

    x may be (L, Cin) or batched (B, L, Cin); kernels is (k, Cin, Cout),
    bias is (Cout,). No kernel flip is applied.
    """
    x = np.asarray(x, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    if x.ndim != 3 or kernels.ndim != 3:
        raise ShapeMismatchError(
            f"conv1d_same expects (B,L,Cin) input and (k,Cin,Cout) kernels, "
            f"got {x.shape} and {kernels.shape}"
        )
    k, c_in, c_out = kernels.shape
    if x.shape[2] != c_in:
        raise ShapeMismatchError(
            f"input channels {x.shape[2]} != kernel channels {c_in}"
        )
    left, right = same_padding(k)
    batch, length, _ = x.shape
    padded = np.zeros((batch, length + left + right, c_in))
    padded[:, left:left + length] = x
    w = kernels.reshape(k * c_in, c_out)
    # windows[b, t] = padded[b, t:t+k, :] flattened tap-major
    windows = np.lib.stride_tricks.sliding_window_view(padded, k, axis=1)
    windows = windows.transpose(0, 1, 3, 2).reshape(batch * length, k * c_in)
    out = (windows @ w).reshape(batch, length, c_out) + bias
    return out[0] if squeeze else out


def conv1d_same_backward(
    x: np.ndarray, kernels: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv1d_same w.r.t. input, kernels, and bias.

    Shapes mirror the forward call; grad_out is (B, L, Cout) or (L, Cout).
    """
    x = np.asarray(x, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
        grad_out = grad_out[None]
    k, c_in, c_out = kernels.shape
    if grad_out.shape != (x.shape[0], x.shape[1], c_out):
        raise ShapeMismatchError(
            f"grad shape {grad_out.shape} does not match forward output "
            f"({x.shape[0]}, {x.shape[1]}, {c_out})"
        )
    left, right = same_padding(k)
    batch, length, _ = x.shape
    padded = np.zeros((batch, length + left + right, c_in))
    padded[:, left:left + length] = x
    grad_padded = np.zeros_like(padded)
    grad_kernels = np.zeros_like(kernels)
    # k is tiny (<= 8 here); a python loop over taps keeps this BLAS-bound
    for j in range(k):
        tap = padded[:, j:j + length]            # (B, L, Cin)
        grad_kernels[j] = np.einsum("bli,blo->io", tap, grad_out)
        grad_padded[:, j:j + length] += grad_out @ kernels[j].T
    grad_x = grad_padded[:, left:left + length]
    grad_bias = grad_out.sum(axis=(0, 1))
    if squeeze:
        grad_x = grad_x[0]
    return grad_x, grad_kernels, grad_bias


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
