"""Dense float64 tensor primitives: same-padded 1D convolution, its
backward, and deterministic initializers.

Tensors are C-contiguous float64 ``numpy.ndarray`` objects. Apart from the
generators Rng returns, every function returns the same result for the same
inputs: a pass that cuts an array into pieces walks the slices that `slices`
cuts, on WORKERS threads (ordered_map), and adds its partial sums in slice
order, so no result depends on WORKERS.
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


def blas_core() -> str:
    """The kernel set that the OpenBLAS in numpy.libs picked for this CPU
    (``SkylakeX``), which bitwise determinism holds for: scipy-openblas
    wheels export its name with a prefix and suffix, other builds as
    openblas_get_corename. ``unknown`` where no such library names it."""
    import ctypes
    from pathlib import Path

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix="grufcn-conv")


if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def ordered_map(fn, items, ahead: int | None = None):
    """Yield fn(item) for each item, in order, with fn running under the
    caller's numpy error handling on WORKERS pool threads, started on first
    use, or in the calling thread if WORKERS is 1 or there is one item.
    Every item is queued at once, unless ahead is given: then item i + ahead
    is queued only once the caller has taken result i and asks for the
    next, so at most ahead results exist at a time if the caller drops each
    before asking. Items not started when the caller stops are cancelled,
    and those running are waited for."""
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
    reach past L."""
    batch, length = shape[:2]
    span = -(-length // unit) * unit  # one series' positions in whole units
    rows = max(1, IM2COL_ELEMENTS // cost) * unit
    series, step = max(1, rows // max(1, span)), max(1, min(rows, span))
    for b in range(0, batch, series):
        for t in range(0, span, step):
            yield slice(b, b + series), slice(t, min(t + step, span))


def _bn_relu(h: np.ndarray, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = max(h * a + b, 0) in three in-place passes: a conv block's
    output, from the conv output h it keeps and its per-channel (a, b). The
    next conv and the pooling both read that output through it, so they read
    the same bits, and the backward's gate tests the same h * a + b > 0."""
    np.multiply(h, a, out=out)
    out += b
    return np.maximum(out, 0.0, out=out)


def _padded(x: np.ndarray, series: slice, positions: slice, k: int, left: int,
            relu: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """x[series] from positions.start - left to positions.stop + k - 1 - left,
    zero outside x; with relu = (a, b), _bn_relu of x there instead. (np.pad
    makes the same array with about three times the Python overhead, which
    every slice pays.)"""
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
    """The read-only (S, n, taps, C) view of the contiguous (S, P, C) array
    padded whose window i is rows i * step to i * step + taps - 1, for the n
    that fit. The view holds padded alive until it is dropped."""
    s0, s1, s2 = padded.strides
    n = (padded.shape[1] - taps) // step + 1
    view = np.ndarray((padded.shape[0], n, taps, padded.shape[2]), padded.dtype,
                      buffer=padded, strides=(s0, step * s1, s1, s2))
    view.flags.writeable = False
    return view


def _im2col(padded: np.ndarray, k: int) -> np.ndarray:
    """The (S * n, k * C) im2col of the (S, n + k - 1, C) array padded: the
    window of each of its n output positions, rows t to t + k - 1, as a
    row, tap-major."""
    windows = _windows(padded, k, 1)
    cols = np.empty((windows.shape[0] * windows.shape[1], k * padded.shape[2]))
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


def prepare_kernels(kernels: np.ndarray):
    """(k, w, cost, unit): the (k, Cin, Cout) kernels as correlate_slice reads
    them, transformed once for the many slices that read them, and the
    floats of scratch one slice counts per unit output positions, which
    sizes the slices. With k <= 5 and Cin >= WINOGRAD_MIN_CHANNELS, w is
    the (k + 3, Cin, Cout) G-transformed kernels of Winograd F(4, k), unit
    4; else w is the (k * Cin, Cout) im2col matrix, unit 1."""
    k, c_in, c_out = kernels.shape
    if k <= 5 and c_in >= WINOGRAD_MIN_CHANNELS:
        alpha = k + 3
        u = np.matmul(_winograd_matrices(k)[2], kernels.reshape(k, -1))
        # per tile: v, m and the padded copy (4n + k - 1 <= 8n positions for n
        # tiles), of which at most two are live at once
        return k, u.reshape(alpha, c_in, c_out), (alpha + 8) * c_in + alpha * c_out, 4
    # per position: its window, then its output row, which moments copies centred
    return k, kernels.reshape(k * c_in, c_out), k * c_in + c_out, 1


def correlate_slice(x: np.ndarray | list[np.ndarray], series: slice, positions: slice,
                    left: int, prepared, relu: tuple[np.ndarray, np.ndarray] | None,
                    dest: np.ndarray | None = None) -> np.ndarray:
    """Output positions positions.start to positions.start + n of the
    correlation of x[series], read as _padded reads it, with kernels as
    prepare_kernels returned them: out[t] = sum_j x[t - left + j] @
    kernels[j]; the one per-slice routine of every conv, which starts no
    thread. Given dest, a contiguous (S, n, Cout) array, it fills and
    returns dest, and positions may reach past n, as slices cuts them; else
    n spans positions, and the output is allocated after the GEMMs.

    im2col: one (n x k * Cin) @ (k * Cin x Cout) GEMM. Winograd: B^T on each
    tile of 4 outputs from positions.start on, k + 3 (tiles x Cin) @ (Cin x
    Cout) GEMMs, then A^T, dropping the last tile's outputs past n. Each
    scratch array is freed after its last reader, so at most two of the
    input, the padded copy, the im2col or v, m and the output are live at
    once. x may be a one-element list, which correlate_slice empties: a
    caller that keeps no other reference hands the input over."""
    k, w, _, unit = prepared
    n = positions.stop - positions.start if dest is None else dest.shape[1]
    c_out = w.shape[-1]
    if isinstance(x, list):
        x = x.pop()
    padded = _padded(x, series, slice(positions.start, positions.start + -(-n // unit) * unit),
                     k, left, relu)
    del x
    if unit == 1:
        cols = _im2col(padded, k)
        del padded
        if dest is None:
            return np.matmul(cols, w).reshape(-1, n, c_out)
        np.matmul(cols, w, out=dest.reshape(-1, c_out))
        return dest
    alpha = k + 3
    a_t, b_t, _ = _winograd_matrices(k)
    windows = _windows(padded, alpha, 4)
    del padded
    shape, c_in = windows.shape[:2], windows.shape[3]
    v = np.empty((shape[0] * shape[1], alpha, c_in))
    np.matmul(b_t, windows, out=v.reshape(shape + (alpha, c_in)))
    del windows
    m = np.empty((len(v), alpha, c_out))
    np.matmul(v.swapaxes(0, 1), w, out=m.swapaxes(0, 1))
    del v
    if dest is None:
        dest = np.empty((shape[0], n, c_out))
    # tile i's row j is output position positions.start + 4i + j; the last may be cut
    products, full = m.reshape(shape + (alpha, c_out)), n // 4
    np.matmul(a_t, products[:, :full],
              out=dest[:, :4 * full].reshape(shape[:1] + (full, 4, c_out)))
    if full < shape[1]:
        dest[:, 4 * full:] = np.matmul(a_t, products[:, full])[:, :n - 4 * full]
    return dest


def conv1d_same(x: np.ndarray, kernels: np.ndarray, *,
                relu: tuple[np.ndarray, np.ndarray] | None = None, moments: bool = False):
    """The (B, L, Cout) stride-1 cross-correlation y of a (B, L, Cin) x with
    (k, Cin, Cout) kernels, with zero "same" padding, no kernel flip and no
    bias: a conv block folds its bias into batch norm's shift. With a pair
    of (Cin,) vectors relu = (a, b), x is read as ReLU(a * x + b) (_padded).

    One correlate_slice task per slice, as prepare_kernels sizes them. With
    moments, returns (y, mean, var), y's per-channel mean and biased
    variance (0 / 0 with no rows), with no pass over y: each task reduces
    the rows it has just written, still in cache, to (count, mean, sum of
    squared deviations), merged in slice order by the pairwise update of
    Chan, Golub & LeVeque (1979).
    """
    x = np.asarray(x, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    if x.ndim != 3 or kernels.ndim != 3:
        raise ValueError(
            f"conv1d_same expects (B,L,Cin) input and (k,Cin,Cout) kernels, "
            f"got {x.shape} and {kernels.shape}"
        )
    k, c_in, c_out = kernels.shape
    if x.shape[2] != c_in:
        raise ValueError(f"input channels {x.shape[2]} != kernel channels {c_in}")
    left, prepared = same_padding(k)[0], prepare_kernels(kernels)
    out = np.empty(x.shape[:2] + (c_out,))

    def task(item):
        series, positions = item
        # a slice is whole series or part of one series, so this view is contiguous
        rows = correlate_slice(x, series, positions, left, prepared, relu,
                               out[series, positions]).reshape(-1, c_out)
        if moments:
            mean = rows.mean(axis=0)
            centred = rows - mean
            return len(rows), mean, np.einsum("nc,nc->c", centred, centred)

    count, mean, m2 = 0, np.zeros(c_out), np.zeros(c_out)
    for n, part_mean, part_m2 in filter(None, ordered_map(task, slices(x.shape, *prepared[2:]))):
        delta = part_mean - mean
        mean = mean + delta * (n / (count + n))
        m2 = m2 + part_m2 + delta * (delta * (count * n / (count + n)))
        count += n
    return (out, mean, m2 / count) if moments else out


class ConvRows:
    """The (B, L, Cout) output of conv1d_same(x, kernels, relu=relu), never
    stored: indexing it with [series, lo:hi], 0 <= lo < hi <= L, recomputes
    those rows from the forward's tile grid, a multiple of the prepared
    kernels' unit, so where BLAS rounds alike they are bitwise the forward's.
    It has an array's shape and size, as conv1d_same_backward reads them."""

    def __init__(self, x: np.ndarray, kernels: np.ndarray,
                 relu: tuple[np.ndarray, np.ndarray] | None = None):
        self.shape = x.shape[:2] + kernels.shape[2:]
        self.size = math.prod(self.shape)
        self.prepared = prepare_kernels(kernels)
        self._x, self._left, self._relu = x, same_padding(kernels.shape[0])[0], relu

    def __getitem__(self, index: tuple[slice, slice]) -> np.ndarray:
        series, positions = index
        start = positions.start - positions.start % self.prepared[3]
        return correlate_slice(self._x, series, slice(start, positions.stop), self._left,
                               self.prepared, self._relu)[:, positions.start - start:]


def conv1d_same_backward(
    x: np.ndarray | ConvRows, kernels: np.ndarray, grad_out, input_grad: bool = True,
    *, scale: np.ndarray | None = None, relu: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Gradients of conv1d_same(x, kernels, relu=relu) w.r.t. its input
    (None unless input_grad) and its kernels; not the bias's.

    x is the forward's (B, L, Cin) input, an array or a ConvRows. grad_out
    is the (B, L, Cout) gradient of the output y, or a map of_output(rows,
    series, positions) that turns rows y[series, positions] in place into
    grad_out's; then each slice recomputes y over its positions, widened by
    the input gradient's k - 1 halo (if input_grad) and clipped to [0, L),
    and hands it to the map once. A (Cout,) scale multiplies each channel
    of grad_out, folded into the input gradient's prepared kernels and the
    kernel gradient's sum. With relu, the input gradient is the triple (dz,
    Σdz * x, Σdz) that a conv block's backward takes: each slice keeps the
    gate a * x + b > 0 of the input rows it rebuilds, and gates and sums
    each input-gradient piece as it is written.

    One walk over the slices does both gradients, reading x's rows once per
    slice: each slice adds its grad_out rows, transposed, times its im2col
    of x to the kernel gradient, then writes its input-gradient rows with
    correlate_slice, in the pieces slices cuts for that scratch.
    """
    if not isinstance(x, ConvRows):
        x = np.asarray(x, dtype=np.float64)
    k, c_in, c_out = kernels.shape
    left, right = same_padding(k)
    length = x.shape[1]
    cost = k * c_in  # per position: the im2col
    if callable(grad_out):
        of_output, output = grad_out, ConvRows(x, kernels, relu)
        # and the recomputed rows, then the wider of the im2col and the forward's scratch
        cost = c_out + max(cost, -(-output.prepared[2] // output.prepared[3]))

        def read(series, lo, hi):
            rows = output[series, lo:hi]
            of_output(rows, series, slice(lo, hi))
            return rows
    else:
        grad_out = np.asarray(grad_out, dtype=np.float64)
        if len(x.shape) != 3 or grad_out.shape != (x.shape[0], length, c_out):
            raise ValueError(
                f"grad shape {grad_out.shape} does not match forward output "
                f"for input {x.shape} and {c_out} output channels"
            )

        def read(series, lo, hi):
            return grad_out[series, lo:hi]
    grad_x, gated = None, input_grad and relu is not None
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
        # x's rows that the slice reads, its halo included, which a ConvRows recomputes
        first = max(start - left, 0)
        inputs = x[series, first:min(stop + right, length)]
        padded = _padded(inputs, slice(None), slice(start - first, stop - first), k, left, relu)
        gate = padded[:, left:left + stop - start] > 0 if gated else None
        cols = _im2col(padded, k)
        del padded
        # a slice is whole series or part of one series, so these views are contiguous
        product = rows[:, start - lo:stop - lo].reshape(-1, c_out).T @ cols
        del cols
        sums = np.zeros((2, c_in))
        if input_grad:  # in pieces of the slice, as slices cuts them for its own scratch
            dest, inputs = grad_x[series, positions], inputs[:, start - first:stop - first]
            shift = start - lo  # rows[:, shift] is position start
            for part, span in slices(dest.shape, *prepared[2:]):
                piece = correlate_slice(rows, part, slice(shift + span.start, shift + span.stop),
                                        right, prepared, None, dest[part, span])
                if gated:
                    dx = np.multiply(piece, gate[part, span], out=piece)
                    sums[0] += np.einsum("blc,blc->c", dx, inputs[part, span])
                    sums[1] += dx.sum(axis=(0, 1))
        return product, sums

    grad_w_t, sums = np.zeros((c_out, k * c_in)), np.zeros((2, c_in))
    for product, part_sums in ordered_map(step, slices(x.shape, cost), ahead=WORKERS):
        grad_w_t += product
        sums += part_sums
        del product  # so at most WORKERS products exist at once
    if scale is not None:
        grad_w_t *= scale[:, None]
    return (grad_x, *sums) if gated else grad_x, grad_w_t.T.reshape(kernels.shape)


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
