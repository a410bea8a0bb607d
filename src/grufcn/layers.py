"""Forward and backward passes for every layer of the hybrid classifier:
conv + batch-norm + ReLU blocks and the conv branch they make with global
average pooling, GRU and LSTM cells, inverted dropout, and the dense softmax
head with its cross-entropy loss.

All layers operate on float64 batches. Backward passes return exact analytic
gradients; the test suite checks each one against central finite differences.
A conv block hands on its conv output y and a per-channel (a, b), never its
output ReLU(a * y + b); its training backward takes y out of its cache and
writes the conv's output gradient over the gradient it is handed. Training
runs the conv blocks one after the other over the whole batch, and keeps
neither block 0's y, one conv of a one-channel input, which block 1's
backward recomputes once its own y is freed, nor the last block's, which
its backward recomputes a slice at a time from its input and two sums the
pooling takes. Both modes pool in global_avg_pool, which at inference runs
the blocks depth first, a tile of positions at a time.
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
    from a training-mode cache and the gradient of the block's output.

    Includes the batch-statistics coupling terms of training-mode batch norm,
    with the statistics and (a, b) the forward ran with. Returns (grad_x,
    grads) with grads keyed by ConvBlock.TRAINED; grad_x is None unless
    input_grad. A cache serves one backward, which takes y, or the last
    block's pooled sums, out of it: a second raises ValueError. The cache's
    relu goes unchanged to conv1d_same_backward, and so does its x, the
    block's input or, with relu = (a, b), the previous block's y, from which
    the kernel gradient rebuilds the input; x may be a function that
    returns it, called only once y is freed. conv1d_same_backward applies
    the factor a of the conv's output gradient (scale=a).

    - A cache that holds y takes grad_out, the (B, L, Cout) gradient of
      ReLU(a * y + b), and writes the conv's output gradient over it
      (_output_grad), so grad_out must be writable.
    - The last block's cache holds the pooled sums instead (conv_branch),
      and takes grad_out, the (B, Cout) gradient of the pooled features;
      the conv backward reads the output gradient a slice at a time from a
      reader that recomputes y (_pooled_output_grad).
    """
    block: ConvBlock = cache["block"]
    if "pool_sums" in cache:
        grad_gamma, grad_beta, x, grad_y = _pooled_output_grad(cache, grad_out)
    elif "y" in cache:
        grad_gamma, grad_beta, x, grad_y = _output_grad(cache, grad_out)
    else:
        raise ValueError("this conv block cache was already used by a backward pass")
    grad_x, grad_kernels = conv1d_same_backward(x, block.kernels, grad_y, input_grad,
                                                scale=cache["ab"][0], relu=cache["relu"])
    return grad_x, {"kernels": grad_kernels, "bn_gamma": grad_gamma, "bn_beta": grad_beta}


def _coupling(cache, grad_y_dot: np.ndarray, grad_beta: np.ndarray, n: int):
    """(gamma's gradient, c, shift) from Σdz * y and Σdz over n positions.

    With x_hat = (y - mean) * inv_std, gamma's gradient is sum(dz * x_hat)
    = inv_std * (sum(dz * y) - mean * sum(dz)), and the conv's output
    gradient is a * (dz - sum(dz)/n - x_hat * sum(dz * x_hat)/n) = a * (dz
    - y * c + shift), with c = inv_std * sum(dz * x_hat)/n and shift = mean
    * c - sum(dz)/n."""
    mean, inv_std = cache["mean"], cache["inv_std"]
    grad_gamma = inv_std * (grad_y_dot - mean * grad_beta)
    c = inv_std * (grad_gamma / n)
    return grad_gamma, c, mean * c - grad_beta / n


def _output_grad(cache, grad_out: np.ndarray):
    """(gamma's and beta's gradients, the block input, the conv's output
    gradient before a), from a cache that holds y. Two passes run over y's
    slices (tensor_core.slices at C floats per position), as the pooling
    does. The first gates grad_out by a * y + b > 0, the bits every
    _bn_relu reader sees, into dz over grad_out, and sums dz and dz * y; the
    second writes dz - y * c + shift over dz. y is freed before the input is
    fetched; a gate cached, or a new array for dz or dy, would each hold one
    more block-sized array."""
    y, (a, b) = cache["y"], cache["ab"]
    if grad_out.shape != y.shape:
        raise ValueError(f"grad shape {grad_out.shape} != forward output shape {y.shape}")
    if not grad_out.flags.writeable:
        raise ValueError("grad_out must be writable: the backward writes over it")
    del cache["y"]
    chunks = list(tensor_core.slices(y.shape, y.shape[2]))
    grad_y_dot, grad_beta = np.zeros(y.shape[2]), np.zeros(y.shape[2])

    def gate(chunk):
        z = np.multiply(y[chunk], a, out=np.empty(y[chunk].shape))
        z += b
        dz = np.multiply(grad_out[chunk], z > 0, out=grad_out[chunk])
        return np.einsum("blc,blc->c", dz, y[chunk]), dz.sum(axis=(0, 1))

    for part_dot, part_beta in tensor_core.ordered_map(gate, chunks):
        grad_y_dot += part_dot
        grad_beta += part_beta
    grad_gamma, c, shift = _coupling(cache, grad_y_dot, grad_beta, y.shape[0] * y.shape[1])

    def couple(chunk):
        dz = grad_out[chunk]
        dz -= np.multiply(y[chunk], c, out=y[chunk])
        dz += shift

    for _ in tensor_core.ordered_map(couple, chunks):
        pass
    del y
    return grad_gamma, grad_beta, _block_input(cache), grad_out


def _pooled_output_grad(cache, grad_pooled: np.ndarray):
    """(gamma's and beta's gradients, the block input, a reader of the
    conv's output gradient before a), from the last block's cache, which
    holds the pooling's sums (S0, S1) instead of y. Its dz is grad_pooled /
    L wherever the gate passes, so Σdz = Σ_b dz * S0 and Σdz * y = Σ_b dz *
    S1 before any row is read. The reader recomputes the rows of y that
    conv1d_same_backward asks for, with the forward's correlate_slice on the
    block's input, and writes dz - y * c + shift over them: no block-sized
    array of y or of its gradient exists."""
    count, dot = cache["pool_sums"]
    if grad_pooled.shape != count.shape:
        raise ValueError(f"grad shape {grad_pooled.shape} != pooled shape {count.shape}")
    del cache["pool_sums"]
    x, (a, b), relu = _block_input(cache), cache["ab"], cache["relu"]
    dz = grad_pooled / x.shape[1]
    grad_beta, grad_y_dot = np.einsum("bc,bc->c", dz, count), np.einsum("bc,bc->c", dz, dot)
    grad_gamma, c, shift = _coupling(cache, grad_y_dot, grad_beta, x.shape[0] * x.shape[1])
    kernels = cache["block"].kernels
    prepared, left = tensor_core.prepare_kernels(kernels), tensor_core.same_padding(len(kernels))[0]

    def read(series, lo, hi):
        passed = dz[series, None]  # dz at every position of a series the gate passes
        rows = tensor_core.correlate_slice(x, series, lo, left, prepared, relu,
                                           np.empty((len(passed), hi - lo, kernels.shape[2])))
        scratch = np.multiply(rows, a)
        scratch += b
        gate = scratch > 0
        np.multiply(rows, c, out=scratch)
        rows = np.multiply(passed, gate, out=rows)
        rows -= scratch
        rows += shift
        return rows

    return grad_gamma, grad_beta, x, read


def _block_input(cache) -> np.ndarray:
    """The cache's x, called first if it is a function."""
    x = cache["x"]
    return x() if callable(x) else x


def conv_branch(blocks: list[ConvBlock], x: np.ndarray, training: bool):
    """Pooled (B, Cout) features of the blocks run in turn over a (B, L, Cin)
    input, and in training mode the per-block caches (else None).

    Training runs the whole batch through each block in turn, since batch
    norm takes its statistics over all of it before any block output can
    be read. Each block hands the next its conv output y and (a, b), which
    the next conv and the pooling read through ReLU(a * y + b). The caches
    hold one block-sized array each, its y, but block 0's and the last
    block's. Once block 1 has read y0, both their caches drop it, and block
    1's backward recomputes it (conv_branch_backward), since a conv of the
    one-channel input is cheap (1/160 of block 1's multiply-adds in the
    paper's model).
    The last block's cache keeps, instead of its y, the two (B, C) sums the
    pooling takes as it reads y (global_avg_pool), and its backward
    recomputes y a slice at a time. Both modes pool in global_avg_pool,
    which at inference runs the blocks depth first.
    """
    if not training:
        return global_avg_pool(x, None, blocks), None
    h, relu, caches = x, None, []
    for block in blocks:
        (h, relu), cache = conv_block_forward(block, h, relu)
        caches.append(cache)
        if len(caches) == 2:  # block 1 has read y0, which the backward recomputes
            del caches[0]["y"], cache["x"]
    pooled, caches[-1]["pool_sums"] = global_avg_pool(h, relu)
    del caches[-1]["y"]
    return pooled, caches


def conv_branch_backward(caches, grad_pooled: np.ndarray) -> list[dict[str, np.ndarray]]:
    """Each block's gradients, keyed by ConvBlock.TRAINED, in block order,
    from conv_branch's training caches and the gradient of its pooled
    features. The blocks run last to first, each popping its cache off
    caches, which ends empty, so that a block's y is freed as soon as its
    backward has used it. The last block takes the pooled gradient itself;
    each other block writes over the gradient it is handed, the input
    gradient of the block after it, which nothing else reads. Block 1's
    input is fetched once its y is freed: block 0's y, recomputed for
    block 0's cache as its y and block 1's as its input, as conv1d_same of
    the branch's input, run over the forward's slices, so bitwise the
    forward's y. Block 0 computes no gradient for the branch's input,
    which nothing reads."""
    if len(caches) > 1:
        first = caches[0]

        def recompute():
            # not through this module's conv1d_same, which the traced benchmark
            # wraps: a block span takes its first conv child's label
            first["y"] = tensor_core.conv1d_same(first["x"], first["block"].kernels)
            return first["y"]

        caches[1]["x"] = recompute
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
    if given, which each block runs in inference mode: batch norm is the
    fixed map a = gamma / sqrt(moving var + eps), b = beta + (bias - moving
    mean) * a, which folds the bias in. With no blocks (training), h is that
    y and relu = (a, b), and the pooling returns (pooled, (S0, S1)), the
    (B, C) sums over time S0 = Σ[a * y + b > 0] and S1 = Σ[a * y + b > 0] * y
    that the last block's backward reads instead of y.

    Tiles are tensor_core.slices of the (B, L) positions, at the most
    floats per position a tile holds: h's C, or a block's input rows, its
    conv's scratch and its output rows. Each tile runs in one pool thread:
    it widens each earlier block's range by the later blocks' same_padding
    halos, clipped to [0, L), runs each block's conv (correlate_slice, on
    kernels prepared once) on the previous rows, and sums the last rows'
    ReLU over time (_bn_relu): in place over a conv's tile output, or into
    a scratch over h, which it then reuses for S1. The sums are added in
    tile order and the features divided by L: the same at any WORKERS.
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
        rows, start, ab = h[series], 0, relu  # rows holds positions start onwards
        for (lo, hi), (prepared, (left, _), folded) in zip(ranges, steps):
            out = np.empty((len(rows), hi - lo, prepared[1].shape[-1]))
            rows = tensor_core.correlate_slice(rows, slice(None), lo - start, left, prepared,
                                               ab, out)
            start, ab = lo, folded
        rows = rows[:, ranges[-1][0] - start:ranges[-1][1] - start]
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
