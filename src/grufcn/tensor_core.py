"""Dense float64 tensor primitives: same-padded 1D convolution and
deterministic initializers.

Tensors are plain C-contiguous ``numpy.ndarray`` objects with dtype float64.
Apart from the generators :func:`Rng` returns, whose draws advance their
state, every function here returns the same result for the same inputs.
Every pass that cuts an array into pieces, the conv's, the conv blocks'
and the inference tiles that run every block on a few positions alike,
walks the slices that `slices` cuts to IM2COL_ELEMENTS floats, on a pool
of WORKERS threads, which the first such pass starts if WORKERS > 1. That
changes no result: the slices depend on IM2COL_ELEMENTS alone, and their
partial sums are added in slice order. A conv forward, its input gradient
and each inference tile run one per-slice routine, correlate_slice, on
kernels that prepare_kernels has transformed once for the path their shape
picks: im2col GEMMs, or Winograd F(4, k) GEMMs.
A conv reads its input either as given or through a per-channel ReLU(a * x
+ b), the form in which a conv block hands on its output (_bn_relu). A
training block's conv also returns its output's per-channel mean and
variance, which each slice takes from the rows it has written (_correlate).
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial

IM2COL_ELEMENTS = 1 << 19  # float64 elements per slice of a block-sized array (4 MiB)
# Winograd over im2col time on one x86-64 core, 128 output channels: 3-6x
# with 1 input channel, 1.1-1.9x with 8 or 16, 0.4-1.04x with 32
WINOGRAD_MIN_CHANNELS = 32


def worker_count() -> int:
    """Conv slices run at once: the usable CPUs over the BLAS threads each
    GEMM takes, read from OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, as
    OpenBLAS reads them. With neither set to a positive count, BLAS already
    spreads each GEMM over every core, so slices run one at a time."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas_threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if blas_threads > 0:
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            return max(1, cpus // blas_threads)
    return 1


WORKERS = worker_count()


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix="grufcn-conv")


if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def ordered_map(fn, items, ahead: int | None = None):
    """Yield fn(item) for each item, in order, with fn running on WORKERS
    pool threads at once, or in the calling thread if WORKERS is 1 or there
    is one item, where a pool thread would only add a hand-off. Every item
    is queued at once, so a thread that finishes one takes the next without
    waiting for the caller, unless ahead is given: then item i + ahead is
    queued only once the caller has taken result i and asks for the next,
    so at most ahead results exist at a time if the caller drops each
    before asking. Items not started when the caller stops are cancelled,
    and those running are waited for. fn runs under the caller's numpy
    floating-point error handling, which is kept per thread."""
    items = list(items)
    if WORKERS == 1 or len(items) == 1:
        yield from map(fn, items)
        return
    errors = np.geterr()

    def run(item):
        with np.errstate(**errors):
            return fn(item)

    ahead = len(items) if ahead is None else ahead
    pool, running = _pool(WORKERS), deque()
    try:
        for item in items:
            if len(running) == ahead:
                yield running.popleft().result()
            running.append(pool.submit(run, item))
        while running:
            yield running.popleft().result()
    finally:
        for future in running:
            future.cancel()
        wait(running)


def Rng(seed: int) -> np.random.Generator:
    """Deterministic random source: identical seed, identical draw sequence.
    PCG64 is named, not left to ``default_rng``, whose generator may change."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def same_padding(kernel_size: int) -> tuple[int, int]:
    """Left/right zero padding so stride-1 output length equals input length.

    For even kernels the extra zero goes on the right (pad_left=3, pad_right=4
    for k=8).
    """
    if kernel_size < 1:
        raise ValueError(f"kernel size must be >= 1, got {kernel_size}")
    left = (kernel_size - 1) // 2
    return left, kernel_size - 1 - left


def slices(shape, cost: int, unit: int = 1):
    """Yield the (series, positions) slices that cover an array of (B, L,
    ...) shape in slices of whole series, or of one series' positions,
    that hold at most IM2COL_ELEMENTS floats at cost floats per unit
    positions (at least one unit). Slices hold whole units, so the last may
    reach past L. Every pass that cuts a block-sized array into pieces
    walks these slices."""
    batch, length = shape[:2]
    span = -(-length // unit) * unit  # one series' positions in whole units
    rows = max(1, IM2COL_ELEMENTS // cost) * unit
    series, step = max(1, rows // max(1, span)), max(1, min(rows, span))
    for b in range(0, batch, series):
        for t in range(0, span, step):
            yield slice(b, b + series), slice(t, min(t + step, span))


def _bn_relu(h: np.ndarray, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = max(h * a + b, 0) in three in-place passes: a conv block's
    output, read from the array h it keeps and its per-channel (a, b). It is
    the one code that writes that output, for the next conv and the pooling
    alike, so both read the same bits; the backward's ReLU gate tests the
    same h * a + b > 0."""
    np.multiply(h, a, out=out)
    out += b
    return np.maximum(out, 0.0, out=out)


def _padded(x: np.ndarray, series: slice, positions: slice, k: int, left: int,
            relu: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """x[series] from positions.start - left to positions.stop + k - 1 - left,
    zero outside x; with relu = (a, b), _bn_relu of x there instead, so
    bitwise a conv block's output. (np.pad makes the same array with
    about three times the Python overhead, which every slice pays.)"""
    lo, hi = positions.start - left, positions.stop + k - 1 - left
    part = x[series, max(lo, 0):min(hi, x.shape[1])]
    padded = np.empty((part.shape[0], hi - lo, x.shape[2]))
    start = max(-lo, 0)
    stop = start + part.shape[1]
    padded[:, :start] = 0.0
    padded[:, stop:] = 0.0
    rows = padded[:, start:stop]
    if relu is None:
        rows[...] = part
    else:
        _bn_relu(part, *relu, rows)
    return padded


def _windows(padded: np.ndarray, taps: int, step: int) -> np.ndarray:
    """The read-only (S, n, taps, C) view of the (S, P, C) array padded whose
    window i is rows i * step to i * step + taps - 1, for the n that fit."""
    s0, s1, s2 = padded.strides
    n = (padded.shape[1] - taps) // step + 1
    return np.lib.stride_tricks.as_strided(
        padded, (padded.shape[0], n, taps, padded.shape[2]), (s0, step * s1, s1, s2),
        writeable=False)


def _im2col(x: np.ndarray, series: slice, positions: slice, k: int, left: int,
            relu: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Each covered (series, position) pair's window of the (B, L, Cin)
    input x, zero-padded x[b, t - left + j, :] for taps j = 0..k-1, as a
    row, tap-major; x is read through relu as in _padded."""
    windows = _windows(_padded(x, series, positions, k, left, relu), k, 1)
    cols = np.empty((windows.shape[0] * windows.shape[1], k * x.shape[2]))
    np.copyto(cols.reshape(windows.shape), windows)
    return cols


@functools.cache
def _winograd_matrices(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A^T, B^T, G) such that A^T ((G w) * (B^T d)) holds the 4 outputs
    sum_j d[i + j] w[j] of a k-tap kernel w on a tile d of k + 3 inputs
    (Lavin & Gray, CVPR 2016): transposed Toom-Cook at the first k + 2 of the
    points below and infinity, with B^T built exactly and rounded once.
    """
    points = [Fraction(p) for p in (0, 1, -1, 2, -2, 0.5, -0.5)][:k + 2]
    b_t = []
    for p in points:  # B^T's rows: each point's Lagrange basis polynomial, then prod (x - p)
        rest = [q for q in points if q != p]
        b_t.append([*polynomial.polyfromroots(rest) / math.prod(p - q for q in rest), 0])
    b_t = np.array(b_t + [polynomial.polyfromroots(points)], dtype=np.float64)
    # A and G evaluate a polynomial at each point, and take its top coefficient at infinity
    a, g = (np.vstack([polynomial.polyvander(np.array(points, dtype=np.float64), n - 1),
                       np.eye(n)[-1]]) for n in (4, k))
    for m in (a, b_t, g):
        m.flags.writeable = False  # every caller shares the cached arrays
    return a.T, b_t, g


def _slice_cost(k: int, c_in: int, c_out: int) -> tuple[int, int]:
    """(cost, unit): the floats one correlate_slice slice holds per unit
    output positions, on the path prepare_kernels picks for (k, Cin, Cout)
    kernels."""
    if k <= 5 and c_in >= WINOGRAD_MIN_CHANNELS:
        # per tile: v, m and the padded copy (4n + k - 1 <= 8n positions for n tiles)
        return (k + 11) * c_in + (k + 3) * c_out, 4
    # per position: its window, then its output row, which moments copies centred
    return k * c_in + c_out, 1


def prepare_kernels(kernels: np.ndarray):
    """(k, w, cost, unit): the (k, Cin, Cout) kernels as correlate_slice reads
    them, and the floats one of its slices holds per unit output positions.
    With k <= 5 and Cin >= WINOGRAD_MIN_CHANNELS, w is the (k + 3, Cin, Cout)
    G-transformed kernels of Winograd F(4, k), unit 4; else w is the (k * Cin,
    Cout) im2col matrix, unit 1. A caller that runs many slices prepares its
    kernels once."""
    k, c_in, c_out = kernels.shape
    cost, unit = _slice_cost(k, c_in, c_out)
    if unit == 4:
        u = np.matmul(_winograd_matrices(k)[2], kernels.reshape(k, -1))
        return k, u.reshape(k + 3, c_in, c_out), cost, unit
    return k, kernels.reshape(k * c_in, c_out), cost, unit


def correlate_slice(x: np.ndarray, series: slice, start: int, left: int, prepared,
                    relu: tuple[np.ndarray, np.ndarray] | None, dest: np.ndarray) -> np.ndarray:
    """dest, a contiguous (S, n, Cout) array, filled with output positions
    start to start + n of the correlation, without bias, of x[series], read
    through relu as in _padded and zero outside x, with kernels as
    prepare_kernels returned them: out[t] = sum_j x[t - left + j] @
    kernels[j]. im2col: one (n x k * Cin) @ (k * Cin x Cout) GEMM. Winograd:
    B^T on each tile of 4 outputs' k + 3 inputs, k + 3 (tiles x Cin) @ (Cin x
    Cout) GEMMs, then A^T; the last tile's inputs may reach past start + n +
    k - 1 - left, and its outputs past n are dropped. It starts no thread."""
    k, w, _, unit = prepared
    n, c_out = dest.shape[1], w.shape[-1]
    positions = slice(start, start + -(-n // unit) * unit)
    if unit == 1:
        np.matmul(_im2col(x, series, positions, k, left, relu), w, out=dest.reshape(-1, c_out))
        return dest
    alpha = k + 3
    a_t, b_t, _ = _winograd_matrices(k)
    windows = _windows(_padded(x, series, positions, k, left, relu), alpha, 4)
    shape = windows.shape[:2]
    count = shape[0] * shape[1]
    v, m = np.empty((count, alpha, x.shape[2])), np.empty((count, alpha, c_out))
    np.matmul(b_t, windows, out=v.reshape(shape + (alpha, x.shape[2])))
    np.matmul(v.swapaxes(0, 1), w, out=m.swapaxes(0, 1))
    # tile i's row j is output position start + 4i + j; the last may be cut
    products, full = m.reshape(shape + (alpha, c_out)), n // 4
    np.matmul(a_t, products[:, :full],
              out=dest[:, :4 * full].reshape(shape[:1] + (full, 4, c_out)))
    if full < shape[1]:
        dest[:, 4 * full:] = np.matmul(a_t, products[:, full])[:, :n - 4 * full]
    return dest


def _correlate(x: np.ndarray, kernels: np.ndarray, left: int,
               relu: tuple[np.ndarray, np.ndarray] | None = None, moments: bool = False):
    """The (B, L, Cout) correlate_slice of the whole (B, L, Cin) input x, one
    task per slice of slices(x.shape, cost, unit) as prepare_kernels sizes
    them. With moments, (out, mean, var), out's per-channel mean and biased
    variance (0 / 0 with no rows): each task reduces the rows it has just
    written, still in cache, to (count, mean, sum of squared deviations),
    merged in slice order by the pairwise update of Chan, Golub & LeVeque
    (1979): the same at any WORKERS."""
    prepared = prepare_kernels(kernels)
    out = np.empty(x.shape[:2] + (kernels.shape[2],))

    def task(item):
        series, positions = item
        # a slice is whole series or part of one series, so this view is contiguous
        rows = correlate_slice(x, series, positions.start, left, prepared, relu,
                               out[series, positions]).reshape(-1, out.shape[2])
        if moments:
            mean = rows.mean(axis=0)
            centred = rows - mean
            return len(rows), mean, np.einsum("nc,nc->c", centred, centred)

    count, mean, m2 = 0, np.zeros(out.shape[2]), np.zeros(out.shape[2])
    for n, part_mean, part_m2 in filter(None, ordered_map(task, slices(x.shape, *prepared[2:]))):
        delta = part_mean - mean
        mean = mean + delta * (n / (count + n))
        m2 = m2 + part_m2 + delta * (delta * (count * n / (count + n)))
        count += n
    return (out, mean, m2 / count) if moments else out


def conv1d_same(x: np.ndarray, kernels: np.ndarray, *,
                relu: tuple[np.ndarray, np.ndarray] | None = None, moments: bool = False):
    """Stride-1 cross-correlation with zero "same" padding, and no bias: a
    conv block folds its bias into batch norm's per-channel shift.

    x is (B, L, Cin), kernels is (k, Cin, Cout); returns the (B, L, Cout)
    output y. No kernel flip is applied. With a pair of (Cin,) vectors relu
    = (a, b), x is read as ReLU(a * x + b), rebuilt a slice at a time as in
    conv1d_same_backward: the next conv reads a conv block's output from the
    array the block keeps, so the output itself never exists. With moments,
    returns (y, mean, var), y's per-channel batch mean and (biased) variance
    over its B * L positions, taken slice by slice as the slices are written
    (_correlate), so no pass over y is added.
    """
    x = np.asarray(x, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    if x.ndim != 3 or kernels.ndim != 3:
        raise ValueError(
            f"conv1d_same expects (B,L,Cin) input and (k,Cin,Cout) kernels, "
            f"got {x.shape} and {kernels.shape}"
        )
    k, c_in, _ = kernels.shape
    if x.shape[2] != c_in:
        raise ValueError(f"input channels {x.shape[2]} != kernel channels {c_in}")
    return _correlate(x, kernels, same_padding(k)[0], relu, moments)


def conv1d_same_backward(
    x: np.ndarray, kernels: np.ndarray, grad_out, input_grad: bool = True,
    *, scale: np.ndarray | None = None, relu: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of conv1d_same w.r.t. its input (None unless input_grad) and
    its kernels; the bias gradient, grad_out's channel sums, is not computed.

    x is the forward's (B, L, Cin) input. grad_out is the (B, L, Cout)
    gradient of its output, or a reader of it: read(series, lo, hi)
    returns a (S, hi - lo, Cout) array of grad_out[series, lo:hi], called
    once per slice, with lo and hi the slice's positions widened by the
    input gradient's k - 1 halo (if input_grad) and clipped to [0, L).
    With a pair of (Cin,) vectors relu = (a, b), x is instead what the
    forward read its input from, ReLU(a * x + b) as in conv1d_same: each
    slice rebuilds its input rows into the padded copy it makes anyway, so
    no input-sized array exists. A (Cout,) scale, if given, multiplies each
    channel of grad_out without a pass over it: the input gradient
    correlates grad_out with the tap-reversed, transposed kernels times
    scale (prepared once, from a kernel-sized copy) and mirrored padding,
    and the kernel gradient scales its (Cout, k * Cin) sum.

    One walk over the slices of x does both, so a reader is called once
    per slice: each slice adds the GEMM of its grad_out rows, transposed,
    with its im2col of x (all k taps at once) to the kernel gradient, in
    slice order, then writes its rows of the input gradient with
    correlate_slice, in the pieces that slices cuts the slice into for
    that scratch. The slices hold k * Cin floats per position, the im2col;
    with a reader, also the rows it returns and, where wider than the
    im2col, the scratch of the forward conv, which a reader that
    recomputes the conv's output runs. So the result is the same at any
    WORKERS, with or without the input gradient.
    """
    x = np.asarray(x, dtype=np.float64)
    k, c_in, c_out = kernels.shape
    left, right = same_padding(k)
    length = x.shape[1]
    cost = k * c_in  # per position: the im2col
    if callable(grad_out):
        read = grad_out
        # and the rows it returns, then the wider of the im2col and a recompute's scratch
        forward_cost, forward_unit = _slice_cost(k, c_in, c_out)
        cost = c_out + max(cost, -(-forward_cost // forward_unit))
    else:
        grad_out = np.asarray(grad_out, dtype=np.float64)
        if x.ndim != 3 or grad_out.shape != (x.shape[0], length, c_out):
            raise ValueError(
                f"grad shape {grad_out.shape} does not match forward output "
                f"for input {x.shape} and {c_out} output channels"
            )

        def read(series, lo, hi):
            return grad_out[series, lo:hi]
    grad_x = None
    if input_grad:
        # grad_x[s] = sum_j (grad_out * scale)[s + left - j] @ kernels[j].T
        weights = kernels if scale is None else kernels * scale
        prepared = prepare_kernels(weights[::-1].transpose(0, 2, 1))
        del weights  # the prepared copy is all the walk keeps
        grad_x = np.empty(x.shape)
    # the kernel gradient is summed transposed: on one x86-64 core with
    # OpenBLAS 0.3.31, g.T @ cols ran at about 47 gflop/s where cols.T @ g
    # ran at 34-41 on the model's shapes

    def step(item):
        series, positions = item
        start, stop = positions.start, positions.stop
        lo, hi = (max(start - right, 0), min(stop + left, length)) if input_grad else (start, stop)
        rows = read(series, lo, hi)
        # a slice is whole series or part of one series, so these views are contiguous
        product = rows[:, start - lo:stop - lo].reshape(-1, c_out).T @ _im2col(
            x, series, positions, k, left, relu)
        if input_grad:  # in pieces of the slice, as slices cuts them for its own scratch
            dest = grad_x[series, positions]
            for part, span in slices(dest.shape, *prepared[2:]):
                correlate_slice(rows, part, start - lo + span.start, right, prepared, None,
                                dest[part, span])
        return product

    grad_w_t = np.zeros((c_out, k * c_in))
    for part in ordered_map(step, slices(x.shape, cost), ahead=WORKERS):
        grad_w_t += part
        del part  # so at most WORKERS products exist at once
    if scale is not None:
        grad_w_t *= scale[:, None]
    return grad_x, grad_w_t.T.reshape(kernels.shape)


def he_uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    """Uniform on [-sqrt(6/fan_in), +sqrt(6/fan_in)]."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, shape)


def glorot_uniform_init(rng: np.random.Generator, fan_in: int, fan_out: int,
                        shape) -> np.ndarray:
    """Uniform on [-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))]."""
    if fan_in + fan_out < 1:
        raise ValueError(f"fan_in + fan_out must be >= 1, got {fan_in}+{fan_out}")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)
