"""Forward and backward passes for every layer of the hybrid classifier:
conv + batch-norm + ReLU blocks and the conv branch they make with global
average pooling, GRU and LSTM cells, inverted dropout, and the dense softmax
head with its cross-entropy loss.

All layers operate on float64 batches. Backward passes return exact analytic
gradients; the test suite checks each one against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import tensor_core
from .tensor_core import (_bn_relu, batch_slices, conv1d_same, conv1d_same_backward,
                          ordered_map)

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


def conv_block_forward(block: ConvBlock, x: np.ndarray, training: bool,
                       relu: tuple[np.ndarray, np.ndarray] | None = None):
    """ReLU(BN(conv(x))) for a (B, L, Cin) x, read as ReLU(a * x + b) if
    relu = (a, b) is given, as the previous block hands it on. Returns
    ((h, (a, b)), cache): the block's output is ReLU(a * h + b), which
    _bn_relu rebuilds wherever it is read, for the (B, L, Cout) array h that
    the block keeps and a pair of (Cout,) vectors (a, b). Both modes run the
    same conv, h = conv1d_same(x, kernels, bias, relu=relu), and write no
    output array.

    Training mode normalizes with batch statistics taken over all batch and
    time positions per channel, updates the moving statistics in place, and
    returns the backward cache. h is x_hat: the conv output, centred and
    normalized in place a chunk at a time, and (a, b) are copies of gamma
    and beta, so h is the only block-sized array. The cache keeps x_hat,
    gamma, beta, and x and relu as given. The chunks run on
    tensor_core.WORKERS threads like the conv's slices, and their partial
    sums are added in chunk order. The batch statistics must be finite,
    which any non-finite input or conv output, or an empty batch, makes
    them fail.

    Inference mode keeps the conv output itself, with a = gamma / sqrt(moving
    var + eps) and b = beta - moving mean * a, and None for the cache, so no
    activation outlives the pass. It checks nothing for finiteness;
    `model.forward` checks its input and pooled features.
    """
    y = conv1d_same(x, block.kernels, block.bias, relu=relu)
    if not training:
        a = block.bn_gamma / np.sqrt(block.bn_moving_var + block.bn_epsilon)
        return (y, (a, block.bn_beta - block.bn_moving_mean * a)), None
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
    gamma, beta = block.bn_gamma.copy(), block.bn_beta.copy()

    def normalize(chunk):
        np.multiply(y[chunk], inv_std, out=y[chunk])

    for _ in ordered_map(normalize, chunks):
        pass
    return (y, (gamma, beta)), {"block": block, "x": x, "relu": relu, "x_hat": y,
                                "inv_std": inv_std, "gamma": gamma, "beta": beta}


def conv_block_backward(cache, grad_out: np.ndarray, input_grad: bool = True):
    """Gradients of the composed ReLU(BN(conv)) w.r.t. input and parameters,
    from a training-mode cache, which the pass consumes.

    Includes the batch-statistics coupling terms of training-mode batch norm,
    with the gamma and beta the forward ran with. Returns (grad_x, grads)
    with grads keyed by ConvBlock.TRAINED; grad_x is None unless input_grad.
    grad_out is read a chunk at a time, so a broadcast view (the pooling's
    gradient) is never copied whole, and is left untouched; the chunks run as
    in the forward. The pass takes x_hat out of the cache and overwrites it
    with the conv's output gradient, so a cache serves one backward: a
    second raises ValueError. The cache's x and relu, which it leaves as
    they are, go to conv1d_same_backward: the block's input, or with relu =
    (gamma, beta) the previous block's x_hat, which its kernel gradient
    rebuilds the input from.
    """
    block: ConvBlock = cache["block"]
    x_hat, gamma, beta = cache.get("x_hat"), cache["gamma"], cache["beta"]
    if x_hat is None:
        raise ValueError("this conv block cache was already used by a backward pass")
    if grad_out.shape != x_hat.shape:
        raise ValueError(
            f"grad shape {grad_out.shape} != forward output shape {x_hat.shape}"
        )
    del cache["x_hat"]
    # closed form: with n = B*L and dx_hat = gamma * dz, mean(dx_hat) is
    # gamma * sum(dz) / n and mean(dx_hat * x_hat) is gamma * sum(dz * x_hat) / n,
    # so dy = (dz - sum(dz)/n - x_hat * sum(dz * x_hat)/n) * gamma * inv_std,
    # and the conv backward applies gamma * inv_std. dz, the ReLU-gated
    # grad_out, is gated per chunk by the output that _bn_relu rebuilds, as
    # the forward's readers do, in both passes, and the second writes dy over
    # x_hat: caching dz or the gate, or writing dy to a new array, would hold
    # one more block-sized array
    n, chunks = x_hat.shape[0] * x_hat.shape[1], list(_chunks(x_hat.shape))
    grad_gamma, grad_beta = np.zeros(x_hat.shape[2]), np.zeros(x_hat.shape[2])

    def gated(chunk):
        out = _bn_relu(x_hat[chunk], gamma, beta, np.empty(x_hat[chunk].shape))
        return np.multiply(grad_out[chunk], out > 0, out=out)

    def gate(chunk):
        dz = gated(chunk)
        return np.einsum("blc,blc->c", dz, x_hat[chunk]), dz.sum(axis=(0, 1))

    for part_gamma, part_beta in ordered_map(gate, chunks):
        grad_gamma += part_gamma
        grad_beta += part_beta
    mean_dz, mean_prod = grad_beta / n, grad_gamma / n

    def couple(chunk):
        dy, x_part = gated(chunk), x_hat[chunk]
        dy -= mean_dz
        np.subtract(dy, np.multiply(x_part, mean_prod, out=x_part), out=x_part)

    for _ in ordered_map(couple, chunks):
        pass
    grad_x, grad_kernels = conv1d_same_backward(cache["x"], block.kernels, x_hat, input_grad,
                                                scale=gamma * cache["inv_std"],
                                                relu=cache["relu"])
    return grad_x, {"kernels": grad_kernels, "bn_gamma": grad_gamma, "bn_beta": grad_beta}


def conv_branch(blocks: list[ConvBlock], x: np.ndarray, training: bool):
    """Pooled (B, Cout) features of the blocks run in turn over a (B, L, Cin)
    input, and in training mode the per-block caches (else None).

    Each block hands the next its kept array and (a, b), which the next
    conv and the pooling read through ReLU(a * h + b), so no block output
    is ever written. The batch runs in groups of whole series, each through
    every block and the pooling before the next group starts. Training runs
    the whole batch as one group, since batch norm takes its statistics over
    all of it, and the caches hold one block-sized array each, its x_hat.
    At inference a group holds at most `tensor_core.IM2COL_ELEMENTS` floats
    per block (or one series, if that is larger), however large B is, and
    only one group's activations are alive.
    """
    widest = max(block.kernels.shape[2] for block in blocks)
    group = max(1, len(x) if training
                else tensor_core.IM2COL_ELEMENTS // (x.shape[1] * widest))
    pooled, caches = np.empty((len(x), blocks[-1].kernels.shape[2])), []
    # an empty training batch still runs block 0, whose statistics refuse it
    for start in range(0, max(len(x), 1), group):
        h, relu = x[start:start + group], None
        for block in blocks:
            (h, relu), cache = conv_block_forward(block, h, training, relu)
            caches.append(cache)
        pooled[start:start + group] = global_avg_pool(h, *relu)
    return pooled, caches if training else None


def conv_branch_backward(caches, grad_pooled: np.ndarray) -> list[dict[str, np.ndarray]]:
    """Each block's gradients, keyed by ConvBlock.TRAINED, in block order,
    from conv_branch's training caches and the gradient of its pooled
    features. The blocks run last to first, each popping its cache off
    caches, which ends empty, so that a block's x_hat is freed as soon as
    its backward has used it. Nothing reads the gradient of the branch's
    input, so block 0 computes none."""
    grad = global_avg_pool_backward(grad_pooled, caches[-1]["x_hat"].shape[1])
    grads = [None] * len(caches)
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

def global_avg_pool(h: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel mean over the time axis, (B, L, C) -> (B, C), of a conv
    block's output ReLU(a * h + b), rebuilt by _bn_relu one _chunks chunk at
    a time into a chunk-sized scratch. The chunks run as in the blocks, and
    their sums are added in chunk order."""
    if h.shape[1] == 0:
        raise ValueError("global_avg_pool needs at least one time position")
    chunks = list(_chunks(h.shape))

    def time_sum(chunk):
        return _bn_relu(h[chunk], a, b, np.empty(h[chunk].shape)).sum(axis=1)

    pooled = np.zeros((h.shape[0], h.shape[2]))
    for (series, _), part in zip(chunks, ordered_map(time_sum, chunks)):
        pooled[series] += part
    return np.divide(pooled, h.shape[1], out=pooled)


def global_avg_pool_backward(grad_out: np.ndarray, length: int) -> np.ndarray:
    """grad_out / L at every time position, as a read-only broadcast view."""
    scaled = (grad_out / length)[..., None, :]
    return np.broadcast_to(scaled, scaled.shape[:-2] + (length, scaled.shape[-1]))


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
