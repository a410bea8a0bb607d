"""Forward and backward passes for every layer of the hybrid classifier:
conv + batch-norm + ReLU blocks and the conv branch they make with global
average pooling, GRU and LSTM cells, inverted dropout, and the dense softmax
head with its cross-entropy loss.

All layers operate on float64 batches. Backward passes return exact analytic
gradients; the test suite checks each one against central finite differences.
A conv block hands on its conv output y and a per-channel (a, b), never its
output ReLU(a * y + b); its training backward takes y out of its cache and
writes the conv's output gradient over the gradient it is handed. Training
runs the conv blocks one after the other over the whole batch, and
recomputes block 0's y, one conv of a one-channel input, for the backward
instead of keeping it; inference runs them depth first, each tile of
positions through every block and the pooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import tensor_core
from .tensor_core import conv1d_same, conv1d_same_backward


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


def conv_block_forward(block: ConvBlock, x: np.ndarray,
                       relu: tuple[np.ndarray, np.ndarray] | None = None):
    """ReLU(BN(conv(x))) in training mode for a (B, L, Cin) x, read as
    ReLU(a * x + b) if relu = (a, b) is given, as the previous block hands
    it on. Returns ((y, (a, b)), cache): the block's output is ReLU(a * y +
    b), which _bn_relu rebuilds wherever it is read, from the (B, L, Cout)
    conv output y = conv1d_same(x, kernels, relu=relu), run without the
    bias, and a pair of (Cout,) vectors (a, b). No output array is written.

    Batch statistics are taken over all batch and time positions per
    channel, as the conv's slices write y (its moments); the moving
    statistics are updated in place, and a = gamma / sqrt(var + eps), b =
    beta - mean * a. The cache holds y, the only block-sized array, mean,
    1 / sqrt(var + eps), (a, b), and x and relu as given. The batch
    statistics must be finite, which any non-finite input or conv output,
    or an empty batch, makes them fail. The bias, which the batch mean
    would take away again, is never trained; only the moving mean, the
    running mean of the biased conv output, adds it back. Inference runs no
    block on its own (conv_branch).
    """
    y, mean, var = conv1d_same(x, block.kernels, relu=relu, moments=True)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var))):
        raise FloatingPointError("non-finite batch statistics in conv block: its input "
                                 "holds NaN or Inf, or the weights overflowed")
    m = block.bn_momentum
    block.bn_moving_mean[...] = m * block.bn_moving_mean + (1 - m) * (mean + block.bias)
    block.bn_moving_var[...] = m * block.bn_moving_var + (1 - m) * var
    inv_std = 1.0 / np.sqrt(var + block.bn_epsilon)
    a = block.bn_gamma * inv_std
    ab = (a, block.bn_beta - mean * a)
    return (y, ab), {"block": block, "x": x, "relu": relu, "y": y, "mean": mean,
                     "inv_std": inv_std, "ab": ab}


def conv_block_backward(cache, grad_out: np.ndarray, input_grad: bool = True):
    """Gradients of the composed ReLU(BN(conv)) w.r.t. input and parameters,
    from a training-mode cache and the block output's gradient grad_out.

    Includes the batch-statistics coupling terms of training-mode batch norm,
    with the statistics and (a, b) the forward ran with. Returns (grad_x,
    grads) with grads keyed by ConvBlock.TRAINED; grad_x is None unless
    input_grad. Two passes run over y's slices (tensor_core.slices at C
    floats per position), as the pooling does. The first gates grad_out,
    which must be writable, a slice at a time by a * y + b > 0, the bits
    every _bn_relu reader sees, into dz over grad_out; the second writes the
    conv's output gradient over dz, so y is freed before
    conv1d_same_backward allocates the input gradient. y is taken out of the
    cache, so a cache serves one backward: a second raises ValueError. The
    cache's x and relu go unchanged to conv1d_same_backward: the block's
    input, or with relu = (a, b) the previous block's y, which its kernel
    gradient rebuilds the input from.
    """
    block: ConvBlock = cache["block"]
    y, (a, b) = cache.get("y"), cache["ab"]
    if y is None:
        raise ValueError("this conv block cache was already used by a backward pass")
    if grad_out.shape != y.shape:
        raise ValueError(f"grad shape {grad_out.shape} != forward output shape {y.shape}")
    if not grad_out.flags.writeable:
        raise ValueError("grad_out must be writable: the backward writes over it")
    del cache["y"]
    # closed form: with n = B*L and x_hat = (y - mean) * inv_std, gamma's
    # gradient is sum(dz * x_hat) = inv_std * (sum(dz * y) - mean * sum(dz)),
    # and the conv's output gradient is a * (dz - sum(dz)/n - x_hat *
    # sum(dz * x_hat)/n) = a * (dz - y * c + (mean * c - sum(dz)/n)) with
    # c = inv_std * sum(dz * x_hat)/n; the conv backward applies a. Caching
    # the gate, or a new array for dz or dy, would hold one more block-sized array
    mean, inv_std = cache["mean"], cache["inv_std"]
    n, chunks = y.shape[0] * y.shape[1], list(tensor_core.slices(y.shape, y.shape[2]))
    grad_y_dot, grad_beta = np.zeros(y.shape[2]), np.zeros(y.shape[2])

    def gate(chunk):
        z = np.multiply(y[chunk], a, out=np.empty(y[chunk].shape))
        z += b
        dz = np.multiply(grad_out[chunk], z > 0, out=grad_out[chunk])
        return np.einsum("blc,blc->c", dz, y[chunk]), dz.sum(axis=(0, 1))

    for part_dot, part_beta in tensor_core.ordered_map(gate, chunks):
        grad_y_dot += part_dot
        grad_beta += part_beta
    grad_gamma = inv_std * (grad_y_dot - mean * grad_beta)
    c = inv_std * (grad_gamma / n)
    shift = mean * c - grad_beta / n

    def couple(chunk):
        dz = grad_out[chunk]
        dz -= np.multiply(y[chunk], c, out=y[chunk])
        dz += shift

    for _ in tensor_core.ordered_map(couple, chunks):
        pass
    del y  # freed before the input gradient is allocated
    grad_x, grad_kernels = conv1d_same_backward(cache["x"], block.kernels, grad_out, input_grad,
                                                scale=a, relu=cache["relu"])
    return grad_x, {"kernels": grad_kernels, "bn_gamma": grad_gamma, "bn_beta": grad_beta}


def conv_branch(blocks: list[ConvBlock], x: np.ndarray, training: bool):
    """Pooled (B, Cout) features of the blocks run in turn over a (B, L, Cin)
    input, and in training mode the per-block caches (else None).

    Training runs the whole batch through each block in turn, since batch
    norm takes its statistics over all of it before any block output can
    be read. Each block hands the next its conv output y and (a, b), which
    the next conv and the pooling read through ReLU(a * y + b), and the
    caches hold one block-sized array each, its y, but block 0's: once
    block 1 has read y0, both their caches drop it, and conv_branch_backward
    recomputes it, since a conv of the one-channel input is cheap (1/160 of
    block 1's multiply-adds in the paper's model). Inference runs depth
    first (_pooled_tiles), so no block-sized array exists.
    """
    if not training:
        return _pooled_tiles(blocks, x), None
    h, relu, caches = x, None, []
    for block in blocks:
        (h, relu), cache = conv_block_forward(block, h, relu)
        caches.append(cache)
        if len(caches) == 2:  # block 1 has read y0, which the backward recomputes
            del caches[0]["y"], cache["x"]
    return global_avg_pool(h, *relu), caches


def _pooled_tiles(blocks: list[ConvBlock], x: np.ndarray) -> np.ndarray:
    """conv_branch's pooled features at inference, where batch norm is the
    fixed per-channel map a = gamma / sqrt(moving var + eps), b = beta +
    (bias - moving mean) * a, which folds the bias in. Each block's kernels
    are prepared once. The tiles are tensor_core.slices of the last block's
    (B, L) output positions, at the floats per position a tile holds at its
    widest step: a block's input rows, its conv's scratch and its output
    rows. Each tile runs in one pool thread: from its positions it widens
    each earlier block's range by the later blocks' same_padding halos,
    clipped to [0, L), runs each block's conv on the previous block's rows
    read through ReLU(a * y + b) (tensor_core.correlate_slice, zero only
    outside [0, L)), and returns its sum over time of the last block's
    output. The sums are added in tile order and divided by L, so the
    result depends on IM2COL_ELEMENTS alone, not on WORKERS.
    """
    length, steps, widest = x.shape[1], [], 1
    for block in blocks:
        k, c_in, c_out = block.kernels.shape
        prepared = tensor_core.prepare_kernels(block.kernels)
        _, _, cost, unit = prepared
        widest = max(widest, c_in + -(-cost // unit) + c_out)
        a = block.bn_gamma / np.sqrt(block.bn_moving_var + block.bn_epsilon)
        steps.append((prepared, tensor_core.same_padding(k),
                      (a, block.bn_beta + (block.bias - block.bn_moving_mean) * a)))

    def tile(item):
        series, positions = item
        ranges = [(positions.start, min(positions.stop, length))]
        for _, (left, right), _ in reversed(steps[1:]):
            lo, hi = ranges[0]
            ranges.insert(0, (max(lo - left, 0), min(hi + right, length)))
        h, start, relu = x[series], 0, None  # h holds positions start onwards
        for (lo, hi), (prepared, (left, _), ab) in zip(ranges, steps):
            out = np.empty((len(h), hi - lo, prepared[1].shape[-1]))
            h = tensor_core.correlate_slice(h, slice(None), lo - start, left, prepared, relu,
                                            out)
            start, relu = lo, ab
        return tensor_core._bn_relu(h, *relu, h).sum(axis=1)

    tiles = list(tensor_core.slices((len(x), length), widest))
    pooled = np.zeros((len(x), blocks[-1].kernels.shape[2]))
    # two queued tiles per thread keep it busy; all queued at once, 512 per
    # HandOutlines chunk, their futures held about 0.6 MiB
    parts = tensor_core.ordered_map(tile, tiles, ahead=2 * tensor_core.WORKERS)
    for (series, _), part in zip(tiles, parts):
        pooled[series] += part
    return np.divide(pooled, length, out=pooled)


def conv_branch_backward(caches, grad_pooled: np.ndarray) -> list[dict[str, np.ndarray]]:
    """Each block's gradients, keyed by ConvBlock.TRAINED, in block order,
    from conv_branch's training caches and the gradient of its pooled
    features. The blocks run last to first, each popping its cache off
    caches, which ends empty, so that a block's y is freed as soon as its
    backward has used it, and each block writes over the gradient it is
    handed, which nothing else reads: the pooling's, or the input gradient
    of the block after it. Just before block 1's backward, block 0's y is
    recomputed, for block 0's cache as its y and block 1's as its input:
    conv1d_same of the branch's input, run over the forward's slices, so
    bitwise the forward's y. Block 0 computes no gradient for the branch's
    input, which nothing reads."""
    grad = global_avg_pool_backward(grad_pooled, caches[-1]["y"].shape[1])
    grads = [None] * len(caches)
    for i in reversed(range(len(caches))):
        if i == 1:
            first = caches[0]
            first["y"] = caches[1]["x"] = conv1d_same(first["x"], first["block"].kernels)
        grad, grads[i] = conv_block_backward(caches.pop(), grad, i > 0)
    return grads


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
        raise ValueError(
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

def global_avg_pool(h: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel mean over the time axis, (B, L, C) -> (B, C), of a conv
    block's output ReLU(a * h + b), rebuilt by _bn_relu one tensor_core
    slice at a time, at C floats per position, into a slice-sized scratch.
    The slices run as in the blocks, and their sums are added in slice
    order."""
    if h.shape[1] == 0:
        raise ValueError("global_avg_pool needs at least one time position")
    chunks = list(tensor_core.slices(h.shape, h.shape[2]))

    def time_sum(chunk):
        return tensor_core._bn_relu(h[chunk], a, b, np.empty(h[chunk].shape)).sum(axis=1)

    pooled = np.zeros((h.shape[0], h.shape[2]))
    for (series, _), part in zip(chunks, tensor_core.ordered_map(time_sum, chunks)):
        pooled[series] += part
    return np.divide(pooled, h.shape[1], out=pooled)


def global_avg_pool_backward(grad_out: np.ndarray, length: int) -> np.ndarray:
    """grad_out / L at every time position, as a new (B, L, C) array."""
    return np.repeat((grad_out / length)[:, None, :], length, axis=1)


def dropout(x: np.ndarray, rate: float, training: bool,
            rng: np.random.Generator | None = None):
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
        raise ValueError(f"labels shape {y_onehot.shape} != probs shape {probs.shape}")
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
