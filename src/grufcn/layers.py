"""Forward and backward passes for every layer of the hybrid classifier:
conv + batch-norm + ReLU blocks and the conv branch they make with global
average pooling, GRU and LSTM cells, inverted dropout, and the dense softmax
head with its cross-entropy loss.

All layers operate on float64 batches. Backward passes return exact analytic
gradients; the test suite checks each one against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

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
    it on. Returns ((y, (a, b)), cache): the (B, L, Cout) conv output y, run
    without the bias, and a pair of (Cout,) vectors (a, b). The block's
    output ReLU(a * y + b) is never written; its readers rebuild it
    (tensor_core._bn_relu).

    Batch statistics are taken per channel over all batch and time
    positions, as the conv writes y, and must be finite, which a non-finite
    input or conv output, or an empty batch, fails; a = gamma / sqrt(var +
    eps), b = beta - mean * a. The moving statistics, updated in place, are
    those of the biased conv output. y is the cache's one block-sized array.
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


def conv_block_backward(cache, grad_out, input_grad: bool = True):
    """Gradients of the composed ReLU(BN(conv)) w.r.t. input and parameters,
    batch norm's coupling terms included, from a training-mode cache and
    the gradient of the block's output in _output_grad's form. Returns
    (grad_x, grads) with grads keyed by ConvBlock.TRAINED; grad_x, None
    unless input_grad, is in that form too if the block read its input
    through relu. A cache serves one backward, which takes its batch
    statistics, y and pooled sums out of it: a second raises ValueError.
    conv1d_same_backward applies a, the conv output gradient's factor."""
    block: ConvBlock = cache["block"]
    if "inv_std" not in cache:
        raise ValueError("this conv block cache was already used by a backward pass")
    grad_gamma, grad_beta, grad_y = _output_grad(cache, grad_out)
    grad_x, grad_kernels = conv1d_same_backward(cache["x"], block.kernels, grad_y, input_grad,
                                                scale=cache["ab"][0], relu=cache["relu"])
    return grad_x, {"kernels": grad_kernels, "bn_gamma": grad_gamma, "bn_beta": grad_beta}


def _output_grad(cache, grad_out):
    """(gamma's and beta's gradients, the conv's output gradient before the
    factor a) from a cache and the gradient of its block's output, either

    - the last block's (B, Cout) pooled gradient, where the cache holds the
      pooling's sums (S0, S1): dz is grad_out / L wherever the gate a * y +
      b > 0 passes, so Σdz = Σ_b dz * S0 and Σdz * y = Σ_b dz * S1;
    - or the triple (dz, Σdz * y, Σdz) that the next block's conv backward
      hands on: dz, the gated (B, L, Cout) gradient of ReLU(a * y + b), and
      its per-channel sums.

    With x_hat = (y - mean) * inv_std over n positions, the output gradient
    is dz - Σdz/n - x_hat * Σ(dz * x_hat)/n = dz - y * c + shift. Block 1's
    cache, which holds y, writes it over dz in one pass, so dz must be
    writable, and frees y on return, before the conv backward, where a map
    would keep y alive. Any other cache gets a map that turns the rows of y
    that conv1d_same_backward recomputes into their gradient in place.
    Nothing leaves the cache before the checks pass.
    """
    shape = cache["x"].shape[:2] + cache["block"].kernels.shape[2:]
    n, pooled = shape[0] * shape[1], "pool_sums" in cache
    if pooled:
        count, dot = cache["pool_sums"]
        if grad_out.shape != count.shape:
            raise ValueError(f"grad shape {grad_out.shape} != pooled shape {count.shape}")
        del cache["pool_sums"]
        dz = grad_out / shape[1]
        grad_beta, grad_y_dot = np.einsum("bc,bc->c", dz, count), np.einsum("bc,bc->c", dz, dot)
    else:
        dz, grad_y_dot, grad_beta = grad_out
        if dz.shape != shape:
            raise ValueError(f"grad shape {dz.shape} != forward output shape {shape}")
        if "y" in cache and not dz.flags.writeable:
            raise ValueError("grad_out must be writable: the backward writes over it")
    mean, inv_std = cache.pop("mean"), cache.pop("inv_std")
    grad_gamma = inv_std * (grad_y_dot - mean * grad_beta)
    c = inv_std * (grad_gamma / n)
    shift = mean * c - grad_beta / n
    if "y" in cache:
        y = cache.pop("y")

        def couple(chunk):
            part = dz[chunk]
            part -= np.multiply(y[chunk], c, out=y[chunk])
            part += shift

        for _ in tensor_core.ordered_map(couple, list(tensor_core.slices(shape, shape[2]))):
            pass
        return grad_gamma, grad_beta, dz
    a, b = cache["ab"]

    def of_output(rows, series, positions):
        if pooled:  # dz at every position the gate passes
            gated = np.multiply(rows, a)
            gated += b
            np.multiply(dz[series, None], gated > 0, out=gated)
        else:
            gated = dz[series, positions]
        np.multiply(rows, c, out=rows)
        np.subtract(gated, rows, out=rows)
        rows += shift

    return grad_gamma, grad_beta, of_output


def conv_branch(blocks: list[ConvBlock], x: np.ndarray, training: bool):
    """Pooled (B, Cout) features of the blocks run in turn over a (B, L, Cin)
    input, and in training mode the per-block caches (else None). Both
    modes pool in global_avg_pool, which at inference runs the blocks.

    Training runs the whole batch through each block in turn, since batch
    norm takes its statistics over all of it before any block output can
    be read. Of the blocks' y, the caches keep block 1's alone. Block 0's,
    a conv of the one-channel input (1/160 of block 1's multiply-adds in
    the paper's model), is dropped once block 1 has read it: block 1's
    cache reads it as a tensor_core.ConvRows, and block 0's conv backward
    recomputes its own rows. The last block's cache keeps the pooling's
    sums instead, and its conv backward recomputes y.
    """
    if not training:
        return global_avg_pool(x, None, blocks), None
    h, relu, caches = x, None, []
    for block in blocks:
        (h, relu), cache = conv_block_forward(block, h, relu)
        caches.append(cache)
        if len(caches) == 2:  # block 1 has read y0, which its backward recomputes
            del caches[0]["y"]
            cache["x"] = tensor_core.ConvRows(caches[0]["x"], caches[0]["block"].kernels)
    pooled, caches[-1]["pool_sums"] = global_avg_pool(h, relu)
    del caches[-1]["y"]
    return pooled, caches


def conv_branch_backward(caches, grad_pooled: np.ndarray) -> list[dict[str, np.ndarray]]:
    """Each block's gradients, keyed by ConvBlock.TRAINED, in block order,
    from conv_branch's training caches and the gradient of its pooled
    features. The blocks run last to first, each popping its cache off
    caches, which ends empty, so that a block's arrays are freed as soon as
    its backward has used them. Each block but the last takes the input
    gradient the next block's backward returns, which nothing else reads;
    block 0 computes none for the branch's input."""
    grad, grads = grad_pooled, [None] * len(caches)
    for i in reversed(range(len(caches))):
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

def global_avg_pool(h: np.ndarray, relu: tuple[np.ndarray, np.ndarray] | None,
                    blocks: Sequence[ConvBlock] = ()):
    """The conv branch's pooled (B, Cout) features: the mean over time, per
    channel, of its last block's output ReLU(a * y + b).

    With blocks (inference), h is their (B, L, Cin) input, read through relu
    if given, and each block runs with batch norm folded into the fixed map
    a = gamma / sqrt(moving var + eps), b = beta + (bias - moving mean) * a.
    With no blocks (training), h is the last block's y and relu its (a, b),
    and the pooling returns (pooled, (S0, S1)), the (B, C) sums over time S0
    = Σ[a * y + b > 0] and S1 = Σ[a * y + b > 0] * y that the last block's
    backward reads instead of y.

    Tiles are slices of the (B, L) positions, at the most floats per
    position a tile's step counts: h's C, or a block's input rows, its
    conv's scratch and its output rows. A tile widens each earlier block's
    range by the later blocks' halos, clipped to [0, L), and hands each
    block's output rows over to the next conv, which frees them once padded:
    at HandOutlines' shape it holds 0.53 of IM2COL_ELEMENTS beyond kernels.
    """
    length, steps, widest = h.shape[1], [], h.shape[2]
    if length == 0:
        raise ValueError("global_avg_pool needs at least one time position")
    for block in blocks:
        k, c_in, c_out = block.kernels.shape
        prepared = tensor_core.prepare_kernels(block.kernels)
        widest = max(widest, c_in + -(-prepared[2] // prepared[3]) + c_out)
        a = block.bn_gamma / np.sqrt(block.bn_moving_var + block.bn_epsilon)
        steps.append((prepared, tensor_core.same_padding(k),
                      (a, block.bn_beta + (block.bias - block.bn_moving_mean) * a)))

    def tile(item):
        series, positions = item
        ranges = [(positions.start, min(positions.stop, length))]
        for _, (left, right), _ in reversed(steps[1:]):
            ranges.insert(0, (max(ranges[0][0] - left, 0), min(ranges[0][1] + right, length)))
        # held is the only reference to the rows of positions start onwards,
        # which the next conv drops once it has padded them
        held, start, ab = [h[series]], 0, relu
        for (lo, hi), (prepared, (left, _), folded) in zip(ranges, steps):
            held = [tensor_core.correlate_slice(held, slice(None), slice(lo - start, hi - start),
                                                left, prepared, ab)]
            start, ab = lo, folded
        rows = held.pop()[:, ranges[-1][0] - start:ranges[-1][1] - start]
        if steps:  # a conv's own tile output takes the ReLU in place
            return (tensor_core._bn_relu(rows, *ab, rows).sum(axis=1),)
        out = tensor_core._bn_relu(rows, *ab, np.empty(rows.shape))
        pooled = out.sum(axis=1)
        gate = np.greater(out, 0.0, out=out)  # 1.0 where the gate passes
        return pooled, gate.sum(axis=1), np.multiply(gate, rows, out=gate).sum(axis=1)

    tiles = list(tensor_core.slices((len(h), length), widest))
    sums = np.zeros((1 if blocks else 3, len(h),
                     blocks[-1].kernels.shape[2] if blocks else h.shape[2]))
    # two queued tiles per thread keep it busy; all 512 of a HandOutlines chunk held 0.6 MiB
    for (series, _), parts in zip(tiles, tensor_core.ordered_map(
            tile, tiles, ahead=2 * tensor_core.WORKERS)):
        for total, part in zip(sums, parts):
            total[series] += part
    pooled = np.divide(sums[0], length, out=sums[0])
    return pooled if blocks else (pooled, (sums[1], sums[2]))


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
