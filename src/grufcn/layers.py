"""Forward and backward passes for every layer of the hybrid classifier:
conv + batch-norm + ReLU blocks, GRU and LSTM cells, global average pooling,
inverted dropout, and the dense softmax head with its cross-entropy loss.

All layers operate on float64 batches. Backward passes return exact analytic
gradients; the test suite checks each one against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .tensor_core import (Rng, ShapeMismatchError, batch_slices, conv1d_same,
                          conv1d_same_backward, ordered_map)

BN_CHUNK_ELEMENTS = 1 << 17  # float64 elements per batch-norm chunk of a block output (1 MiB)


def hard_sigmoid(u: np.ndarray) -> np.ndarray:
    """clamp(0.2*u + 0.5, 0, 1) -- the piecewise-linear gate activation."""
    return np.clip(0.2 * u + 0.5, 0.0, 1.0)


def hard_sigmoid_grad(u: np.ndarray) -> np.ndarray:
    """0.2 on the open non-saturated interval, 0 where clamped."""
    return np.where((u > -2.5) & (u < 2.5), 0.2, 0.0)


# ---------------------------------------------------------------------------
# Conv block: conv1d_same -> batch norm -> ReLU
# ---------------------------------------------------------------------------

@dataclass
class ConvBlock:
    # not the bias, which batch norm's mean cancels, or the moving statistics
    TRAINED: ClassVar[tuple[str, ...]] = ("kernels", "bn_gamma", "bn_beta")
    kernels: np.ndarray        # (k, Cin, Cout)
    bias: np.ndarray           # (Cout,)
    bn_gamma: np.ndarray       # (Cout,)
    bn_beta: np.ndarray        # (Cout,)
    bn_moving_mean: np.ndarray # (Cout,)
    bn_moving_var: np.ndarray  # (Cout,)
    bn_momentum: float = 0.99
    bn_epsilon: float = 1e-3


def _chunks(shape):
    """The (series, positions) index pairs that cover a (B, L, C) array in
    chunks of whole series, or of one series' positions, of at most
    BN_CHUNK_ELEMENTS floats (or one position, if C is larger)."""
    batch, length, channels = shape
    return batch_slices(batch, length, max(1, BN_CHUNK_ELEMENTS // channels))


def conv_block_forward(block: ConvBlock, x: np.ndarray, training: bool):
    """ReLU(BN(conv(x))). x is (B, L, Cin); returns ((B, L, Cout), cache).

    Training mode normalizes with batch statistics taken over all batch and
    time positions per channel, updates the moving statistics in place, and
    returns the backward cache. The conv output is centred and normalized in
    place into the cached x_hat, a chunk at a time, so that each chunk's
    chained passes run from cache; the returned output is the only other
    block-sized array, and the cache keeps x_hat and x but not the output.
    The chunks run on tensor_core.WORKERS threads like the conv's slices,
    and their partial sums are added in chunk order.
    The batch statistics must be finite, which any non-finite input or conv
    output makes them fail.

    Inference mode folds the moving statistics, gamma and beta into one
    per-channel scale s = gamma / sqrt(var + eps), which the conv multiplies
    into its weights, and one shift (bias - mean) * s + beta, its bias: the
    block is the conv and a ReLU in place, with None for the cache, so no
    activation outlives the pass. The fold is redone on every call from
    Cout-float vectors; holding folded kernels instead would keep a
    kernel-sized copy alive beside the conv. Inference checks nothing for
    finiteness; `model.forward` checks its input and pooled features.
    """
    if not training:
        scale = block.bn_gamma / np.sqrt(block.bn_moving_var + block.bn_epsilon)
        shift = (block.bias - block.bn_moving_mean) * scale + block.bn_beta
        z = conv1d_same(x, block.kernels, shift, scale=scale)
        return np.maximum(z, 0.0, out=z), None
    y = conv1d_same(x, block.kernels, block.bias)
    n, chunks = y.shape[0] * y.shape[1], list(_chunks(y.shape))
    # np.var's own steps within a chunk: centre y in place, sum the squares
    mean, var = y.mean(axis=(0, 1)), np.zeros(y.shape[2])

    def centre(chunk):
        centred = np.subtract(y[chunk], mean, out=y[chunk])
        return np.einsum("blc,blc->c", centred, centred)

    for part in ordered_map(centre, chunks):
        var += part
    var /= n
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var))):
        raise FloatingPointError("non-finite batch statistics in conv block: its input "
                                 "holds NaN or Inf, or the weights overflowed")
    m = block.bn_momentum
    block.bn_moving_mean[...] = m * block.bn_moving_mean + (1 - m) * mean
    block.bn_moving_var[...] = m * block.bn_moving_var + (1 - m) * var
    inv_std = 1.0 / np.sqrt(var + block.bn_epsilon)
    out = np.empty_like(y)

    def normalize(chunk):
        x_hat = np.multiply(y[chunk], inv_std, out=y[chunk])
        z = np.multiply(x_hat, block.bn_gamma, out=out[chunk])
        z += block.bn_beta
        np.maximum(z, 0.0, out=z)

    for _ in ordered_map(normalize, chunks):
        pass
    return out, {"block": block, "x": x, "x_hat": y, "inv_std": inv_std}


def conv_block_backward(cache, grad_out: np.ndarray, input_grad: bool = True):
    """Gradients of the composed ReLU(BN(conv)) w.r.t. input and parameters,
    from a training-mode cache.

    Includes the batch-statistics coupling terms of training-mode batch norm.
    Returns (grad_x, grads) with grads keyed by ConvBlock.TRAINED; grad_x is
    None unless input_grad. grad_out is read a chunk at a time, so
    a broadcast view (the pooling's gradient) is never copied whole; the
    chunks run as in the forward.
    """
    block: ConvBlock = cache["block"]
    x_hat = cache["x_hat"]
    if grad_out.shape != x_hat.shape:
        raise ShapeMismatchError(
            f"grad shape {grad_out.shape} != forward output shape {x_hat.shape}"
        )
    # closed form: with n = B*L and dx_hat = gamma * dz, mean(dx_hat) is
    # gamma * sum(dz) / n and mean(dx_hat * x_hat) is gamma * sum(dz * x_hat) / n,
    # so dy = (dz - sum(dz)/n - x_hat * sum(dz * x_hat)/n) * gamma * inv_std;
    # dz becomes dy in place, and the conv backward applies gamma * inv_std.
    # The ReLU gate is recomputed per chunk, exactly as the forward's z > 0:
    # caching it, or the last block's output that nothing else keeps, would
    # hold a block-sized array through the whole backward
    n, chunks = x_hat.shape[0] * x_hat.shape[1], list(_chunks(x_hat.shape))
    dz = np.empty_like(x_hat)
    grad_gamma, grad_beta = np.zeros(x_hat.shape[2]), np.zeros(x_hat.shape[2])

    def gate(chunk):
        z = x_hat[chunk] * block.bn_gamma
        z += block.bn_beta
        d = np.multiply(grad_out[chunk], z > 0, out=dz[chunk])
        return np.einsum("blc,blc->c", d, x_hat[chunk]), d.sum(axis=(0, 1))

    for part_gamma, part_beta in ordered_map(gate, chunks):
        grad_gamma += part_gamma
        grad_beta += part_beta
    mean_dz, mean_prod = grad_beta / n, grad_gamma / n

    def couple(chunk):
        dy = dz[chunk]
        dy -= mean_dz
        dy -= x_hat[chunk] * mean_prod

    for _ in ordered_map(couple, chunks):
        pass
    grad_x, grad_kernels = conv1d_same_backward(cache["x"], block.kernels, dz, input_grad,
                                                scale=block.bn_gamma * cache["inv_std"])
    return grad_x, {"kernels": grad_kernels, "bn_gamma": grad_gamma, "bn_beta": grad_beta}


# ---------------------------------------------------------------------------
# Recurrent cells
# ---------------------------------------------------------------------------
#
# The dimension shuffle feeds the cell one time step of L features from a
# zero state, so each step and its backward are written for h_prev = c_prev
# = 0. Every term that multiplies the previous state vanishes: the U_*
# matrices, the GRU reset gate and the LSTM forget gate never reach the
# output, so each cell's TRAINED leaves them out. They stay allocated so
# checkpoints and parameter counts keep the published architecture.

@dataclass
class GruCell:
    """Update/reset-gated cell: 6 weight matrices, 3 bias vectors, in
    checkpoint order."""

    TRAINED: ClassVar[tuple[str, ...]] = ("W_zx", "b_z", "W_x", "b")
    W_zx: np.ndarray  # (in, H)
    U_zh: np.ndarray  # (H, H)
    b_z: np.ndarray   # (H,)
    W_rx: np.ndarray
    U_rh: np.ndarray
    b_r: np.ndarray
    W_x: np.ndarray
    U_h: np.ndarray
    b: np.ndarray


@dataclass
class LstmCell:
    """Input/forget/output-gated cell with a separate memory state:
    8 weight matrices, 4 bias vectors, in checkpoint order."""

    TRAINED: ClassVar[tuple[str, ...]] = ("W_ix", "b_i", "W_gx", "b_g", "W_ox", "b_o")
    W_ix: np.ndarray
    U_ih: np.ndarray
    b_i: np.ndarray
    W_fx: np.ndarray
    U_fh: np.ndarray
    b_f: np.ndarray
    W_gx: np.ndarray
    U_gh: np.ndarray
    b_g: np.ndarray
    W_ox: np.ndarray
    U_oh: np.ndarray
    b_o: np.ndarray


def gru_step(cell: GruCell, x: np.ndarray):
    """One step from a zero state. x is (B, in); returns (h, cache).

    h = z * tanh(x W_x + b) with update gate z = hard_sigmoid(x W_zx + b_z).
    """
    az = x @ cell.W_zx + cell.b_z
    z = hard_sigmoid(az)
    g = np.tanh(x @ cell.W_x + cell.b)
    return z * g, {"x": x, "az": az, "z": z, "g": g}


def gru_backward(cache, dh: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of GruCell.TRAINED from gru_step's cache and the upstream
    hidden gradient dh."""
    z, g = cache["z"], cache["g"]
    _check_hidden_grad(dh, z)
    return _input_grads(cache["x"], (
        ("W_zx", "b_z", dh * g * hard_sigmoid_grad(cache["az"])),
        ("W_x", "b", dh * z * (1.0 - g * g)),
    ))


def lstm_step(cell: LstmCell, x: np.ndarray):
    """One step from a zero state: c = i * g, h = o * tanh(c), gates via
    hard_sigmoid, candidate via tanh. Returns (h, cache)."""
    ai = x @ cell.W_ix + cell.b_i
    ao = x @ cell.W_ox + cell.b_o
    i, o = hard_sigmoid(ai), hard_sigmoid(ao)
    g = np.tanh(x @ cell.W_gx + cell.b_g)
    tc = np.tanh(i * g)
    return o * tc, {"x": x, "ai": ai, "ao": ao, "i": i, "g": g, "o": o, "tc": tc}


def lstm_backward(cache, dh: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of LstmCell.TRAINED from lstm_step's cache and the upstream
    hidden gradient dh."""
    i, g, o, tc = cache["i"], cache["g"], cache["o"], cache["tc"]
    _check_hidden_grad(dh, o)
    dc = dh * o * (1.0 - tc * tc)
    return _input_grads(cache["x"], (
        ("W_ix", "b_i", dc * g * hard_sigmoid_grad(cache["ai"])),
        ("W_gx", "b_g", dc * i * (1.0 - g * g)),
        ("W_ox", "b_o", dh * tc * hard_sigmoid_grad(cache["ao"])),
    ))


def _check_hidden_grad(dh: np.ndarray, state: np.ndarray) -> None:
    if dh.shape != state.shape:
        raise ShapeMismatchError(
            f"hidden grad shape {dh.shape} != state shape {state.shape}"
        )


def _input_grads(x: np.ndarray, gates) -> dict[str, np.ndarray]:
    """x.T @ da and da summed over the batch for each (input weight, bias)
    pair in gates."""
    grads = {}
    for weight, bias, da in gates:
        grads[weight] = x.T @ da
        grads[bias] = da.sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# Pooling, dropout, classification head
# ---------------------------------------------------------------------------

def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Per-channel mean over the time axis: (B, L, C) -> (B, C)."""
    if x.shape[-2] == 0:
        raise ValueError("global_avg_pool needs at least one time position")
    return x.mean(axis=-2)


def global_avg_pool_backward(grad_out: np.ndarray, length: int) -> np.ndarray:
    """grad_out / L at every time position, as a read-only broadcast view."""
    scaled = (grad_out / length)[..., None, :]
    return np.broadcast_to(scaled, scaled.shape[:-2] + (length, scaled.shape[-1]))


def dropout(x: np.ndarray, rate: float, training: bool, rng: Rng | None = None):
    """Inverted dropout: zero with probability rate, scale survivors by
    1/(1-rate). Returns (out, mask); the mask is 1.0 where dropout is the
    identity, at inference or rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, 1.0
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask


@dataclass
class DenseSoftmax:
    TRAINED: ClassVar[tuple[str, ...]] = ("W", "b")
    W: np.ndarray  # (F, C)
    b: np.ndarray  # (C,)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def dense_softmax(layer: DenseSoftmax, x: np.ndarray) -> np.ndarray:
    """Class probabilities softmax(x @ W + b) for (B, F) features x."""
    return softmax(x @ layer.W + layer.b)


def cross_entropy(probs: np.ndarray, y_onehot: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy -log p[true class]; y_onehot is (B, C) with
    exactly one 1 per row."""
    if y_onehot.shape != probs.shape:
        raise ShapeMismatchError(f"labels shape {y_onehot.shape} != probs shape {probs.shape}")
    if not (np.all(np.isin(y_onehot, (0.0, 1.0))) and np.all(y_onehot.sum(axis=1) == 1.0)):
        raise ValueError("y_onehot rows must contain exactly one 1")
    eps = 1e-300  # guards log(0) for a fully-confident wrong prediction
    return -np.sum(y_onehot * np.log(probs + eps), axis=1)


def dense_softmax_backward(layer: DenseSoftmax, x: np.ndarray, probs: np.ndarray,
                           y_onehot: np.ndarray):
    """Gradients of the batch-mean cross-entropy w.r.t. x, W and b, given
    the probabilities dense_softmax returned for x. Returns (grad_x, grads)."""
    dlogits = (probs - y_onehot) / x.shape[0]
    return dlogits @ layer.W.T, {"W": x.T @ dlogits, "b": dlogits.sum(axis=0)}
