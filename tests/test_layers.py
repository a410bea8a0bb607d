import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from gradcheck import assert_grad_close, max_rel_error, numerical_grad

from grufcn import layers, tensor_core
from grufcn.layers import (
    ConvBlock,
    DenseSoftmax,
    GruCell,
    LstmCell,
    conv_block_backward,
    conv_block_forward,
    conv_branch,
    conv_branch_backward,
    cross_entropy,
    dense_softmax,
    dense_softmax_backward,
    dropout,
    global_avg_pool,
    gru_backward,
    gru_step,
    hard_sigmoid,
    lstm_backward,
    lstm_step,
)
from grufcn.tensor_core import Rng, conv1d_same, conv1d_same_backward

GRAD_TOL = 1e-5


def make_conv_block(rng, k, c_in, c_out, gamma_scale=1.0):
    return ConvBlock(
        kernels=rng.normal(size=(k, c_in, c_out)),
        bias=rng.normal(size=c_out),
        bn_gamma=np.ones(c_out) * gamma_scale,
        bn_beta=rng.normal(size=c_out) * 0.1,
        bn_moving_mean=np.zeros(c_out),
        bn_moving_var=np.ones(c_out),
    )


def make_gru_cell(rng, n_in, hidden, scale=0.5):
    return GruCell(
        W_zx=rng.normal(size=(n_in, hidden)) * scale,
        U_zh=rng.normal(size=(hidden, hidden)) * scale,
        b_z=rng.normal(size=hidden) * scale,
        W_rx=rng.normal(size=(n_in, hidden)) * scale,
        U_rh=rng.normal(size=(hidden, hidden)) * scale,
        b_r=rng.normal(size=hidden) * scale,
        W_x=rng.normal(size=(n_in, hidden)) * scale,
        U_h=rng.normal(size=(hidden, hidden)) * scale,
        b=rng.normal(size=hidden) * scale,
    )


def make_lstm_cell(rng, n_in, hidden, scale=0.5):
    params = {}
    for gate in ("i", "f", "g", "o"):
        params[f"W_{gate}x"] = rng.normal(size=(n_in, hidden)) * scale
        params[f"U_{gate}h"] = rng.normal(size=(hidden, hidden)) * scale
        params[f"b_{gate}"] = rng.normal(size=hidden) * scale
    return LstmCell(**params)


class TestHardSigmoid:
    def test_values(self):
        assert hard_sigmoid(np.array(0.0)) == 0.5
        assert hard_sigmoid(np.array(3.0)) == 1.0
        assert hard_sigmoid(np.array(-3.0)) == 0.0
        assert hard_sigmoid(np.array(1.0)) == pytest.approx(0.7)


def block_output(block, x, relu=None):
    """conv_block_forward's output ReLU(a * h + b), formed from the array h
    and the (a, b) it hands on, and its cache."""
    (h, (a, b)), cache = conv_block_forward(block, x, relu)
    return np.maximum(h * a + b, 0.0), cache


def pooled_grad(grad_pooled, length):
    """The gradient of the (B, L, C) array the features pool: grad_pooled / L
    at every position, as a new, writable array."""
    return np.repeat((grad_pooled / length)[:, None, :], length, axis=1)


def gated_grad(cache, grad_out):
    """The form in which a block's backward takes the gradient of its output
    from the next block's conv backward: grad_out gated by a * y + b > 0 as
    a new, writable array dz, with its per-channel sums Σdz * y and Σdz,
    formed from the y and (a, b) in a training cache."""
    y, (a, b) = cache["y"], cache["ab"]
    dz = grad_out * (y * a + b > 0)
    return dz, np.einsum("blc,blc->c", dz, y), dz.sum(axis=(0, 1))


def tile_cost(blocks):
    """The floats per position one inference tile holds at its widest step:
    a block's input rows, its conv's scratch (prepare_kernels' cost per unit
    positions, rounded up per position) and its output rows."""
    widest = 1
    for block in blocks:
        _, c_in, c_out = block.kernels.shape
        _, _, cost, unit = tensor_core.prepare_kernels(block.kernels)
        widest = max(widest, c_in + -(-cost // unit) + c_out)
    return widest


class TestConvBlock:
    def test_zero_input_identity_bn(self):
        block = make_conv_block(np.random.default_rng(0), 3, 1, 4)
        block.bias[:] = 0
        block.bn_beta[:] = 0
        out, _ = block_output(block, np.zeros((2, 5, 1)))
        assert np.allclose(out, 0.0)

    def test_relu_saturation(self):
        rng = np.random.default_rng(1)
        block = make_conv_block(rng, 3, 1, 4)
        block.bn_beta[:] = -10.0
        out, _ = block_output(block, rng.normal(size=(2, 5, 1)))
        assert np.all(out == 0.0)

    def test_training_mode_normalizes_batch(self):
        rng = np.random.default_rng(2)
        block = make_conv_block(rng, 5, 2, 3)
        block.bn_beta[:] = 0.0
        x = rng.normal(size=(4, 16, 2)) * 3 + 1
        _, cache = conv_block_forward(block, x)
        x_hat = (cache["y"] - cache["mean"]) * cache["inv_std"]
        means = x_hat.mean(axis=(0, 1))
        variances = x_hat.var(axis=(0, 1))
        assert np.all(np.abs(means) < 1e-9)
        # variance of x_hat is var/(var+eps), slightly below 1
        assert np.all(np.abs(variances - 1.0) < 1e-2)

    def test_moving_statistics_update(self):
        rng = np.random.default_rng(3)
        block = make_conv_block(rng, 3, 1, 2)
        x = rng.normal(size=(4, 8, 1)) * 2 + 5
        before_mean = block.bn_moving_mean.copy()
        conv_block_forward(block, x)
        assert not np.array_equal(block.bn_moving_mean, before_mean)
        # inference leaves them untouched
        frozen = block.bn_moving_mean.copy()
        conv_branch([block], x, False)
        assert np.array_equal(block.bn_moving_mean, frozen)

    def test_inference_output_matches_batch_norm_formula(self):
        # batch norm as one per-channel (a, b) on the conv output rounds
        # differently from the plain formula, but only in the last bits;
        # Cin = 2 reaches the im2col path, Cin = 40 the Winograd path. The
        # branch pools the block's output over time, in tiles of 2 positions
        rng = np.random.default_rng(6)
        for c_in in (2, 40):
            block = make_conv_block(rng, 5, c_in, 3)
            block.bn_gamma[:] = rng.normal(size=3) * 1.7
            block.bn_moving_mean[:] = rng.normal(size=3)
            block.bn_moving_var[:] = rng.uniform(0.5, 2.0, size=3)
            x = rng.normal(size=(3, 9, c_in))
            y = conv1d_same(x, block.kernels) + block.bias
            inv_std = 1.0 / np.sqrt(block.bn_moving_var + block.bn_epsilon)
            z = block.bn_gamma * ((y - block.bn_moving_mean) * inv_std) + block.bn_beta
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(tensor_core, "IM2COL_ELEMENTS", 2 * tile_cost([block]))
                pooled, cache = conv_branch([block], x, False)
            assert cache is None
            np.testing.assert_allclose(pooled, np.maximum(z, 0.0).mean(axis=1), rtol=0,
                                       atol=1e-12 * np.abs(z).max())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_inference_fold_makes_no_kernel_sized_copy(self, monkeypatch, workers):
        # a HandOutlines-length series through the 128->256 block: batch norm
        # adds a few Cout vectors, not scaled kernels, to the transformed
        # kernels the tiles share and one slice budget per running tile
        monkeypatch.setattr(tensor_core, "WORKERS", workers)
        rng = np.random.default_rng(9)
        block = make_conv_block(rng, 5, 128, 256)
        x = rng.normal(size=(1, 2709, 128))
        conv_branch([block], x, False)  # builds the cached transforms
        transformed_kernels = 8 * 128 * 256 * 8
        budget = workers * tensor_core.IM2COL_ELEMENTS * x.itemsize
        peak = traced_peak(lambda: conv_branch([block], x, False))
        assert peak <= transformed_kernels + budget + (64 << 10)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_inference_tiles_free_each_scratch_after_its_last_reader(self, monkeypatch,
                                                                     workers):
        # two HandOutlines-length series through the model's three blocks at
        # the default budget: beyond the prepared kernels, a running tile
        # holds at most two of a conv's input rows, padded copy, v, m and
        # output at once, with each block's output handed to the next conv
        # and freed once padded: 0.53 of a budget per worker measured, and
        # 0.88 with every one of them live until the tile's next conv
        monkeypatch.setattr(tensor_core, "WORKERS", workers)
        rng = np.random.default_rng(16)
        blocks = [make_conv_block(rng, 8, 1, 128), make_conv_block(rng, 5, 128, 256),
                  make_conv_block(rng, 3, 256, 128)]
        x = rng.normal(size=(2, 2709, 1))
        conv_branch(blocks, x, False)  # builds the cached transforms and the pool
        prepared = sum(tensor_core.prepare_kernels(block.kernels)[1].nbytes
                       for block in blocks)
        peak = traced_peak(lambda: conv_branch(blocks, x, False))
        assert peak - prepared <= workers * 0.6 * tensor_core.IM2COL_ELEMENTS * 8

    @pytest.mark.parametrize("c_in", [2, 40])  # the im2col and Winograd paths
    def test_training_statistics_match_mean_and_var(self, monkeypatch, c_in):
        # the conv's slices take the statistics as they write y, within
        # rounding of y.mean and y.var and bitwise the same at any worker
        # count; y is the conv without its bias, which only the moving
        # mean adds back
        rng = np.random.default_rng(8)
        block = make_conv_block(rng, 5, c_in, 3, gamma_scale=1.7)
        block.bn_moving_mean[:] = rng.normal(size=3)
        block.bn_moving_var[:] = rng.uniform(0.5, 2.0, size=3)
        x = rng.normal(size=(6, 40, c_in)) * 3 + 1
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", 1000)  # slices cut every series
        y = conv1d_same(x, block.kernels)
        mean, var = y.mean(axis=(0, 1)), y.var(axis=(0, 1))
        m = block.bn_momentum
        moving_mean = m * block.bn_moving_mean + (1 - m) * (mean + block.bias)
        moving_var = m * block.bn_moving_var + (1 - m) * var
        passes = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(tensor_core, "WORKERS", workers)
            trained = replace(block, bn_moving_mean=block.bn_moving_mean.copy(),
                              bn_moving_var=block.bn_moving_var.copy())
            out, cache = block_output(trained, x)
            assert np.array_equal(cache["y"], y)
            for got, expected in ((cache["mean"], mean),
                                  (cache["inv_std"] ** -2 - block.bn_epsilon, var),
                                  (trained.bn_moving_mean, moving_mean),
                                  (trained.bn_moving_var, moving_var)):
                assert max_rel_error(got, expected) <= 1e-12
            a, b = cache["ab"]
            assert np.array_equal(out, np.maximum(y * a + b, 0.0))
            passes.append((out, cache["mean"], cache["inv_std"], a, b,
                           trained.bn_moving_mean, trained.bn_moving_var))
        for other in passes[1:]:
            assert all(np.array_equal(p, q) for p, q in zip(passes[0], other, strict=True))

    def test_backward_leaves_its_inputs_untouched(self):
        # the block reads its input through a previous block's (a, b), as
        # blocks 1 and 2 do; grad_out is a plain gradient, or the pooling's,
        # gated. The backward uses up y and the gated gradient alone, and
        # returns its input gradient gated and summed in turn
        rng = np.random.default_rng(7)
        block = make_conv_block(rng, 3, 2, 4)
        x, relu = rng.normal(size=(2, 6, 2)), (rng.normal(size=2), rng.normal(size=2))
        for grad_out in (rng.normal(size=(2, 6, 4)),
                         pooled_grad(rng.normal(size=(2, 4)), 6)):
            passes = []
            for _ in range(2):
                _, cache = conv_block_forward(block, x, relu=relu)
                inputs = (x, *relu, *(getattr(block, f.name) for f in fields(block)))
                saved = [np.copy(a) for a in inputs]
                passes.append(conv_block_backward(cache, gated_grad(cache, grad_out)))
                assert "y" not in cache
                assert cache["x"] is x and cache["relu"] is relu
                assert all(np.array_equal(a, b) for a, b in zip(inputs, saved, strict=True))
            (grad_x, grads), (grad_x_again, grads_again) = passes
            assert len(grad_x) == 3
            assert all(np.array_equal(p, q) for p, q in zip(grad_x, grad_x_again, strict=True))
            assert all(np.array_equal(grads[k], grads_again[k]) for k in grads)

    def test_backward_writes_the_output_gradient_over_grad_out(self):
        # conv_branch_backward hands block 1 a gradient nothing else reads,
        # the next block's gated input gradient dz: its pass writes the
        # conv's output gradient (before the factor a) over dz
        rng = np.random.default_rng(7)
        block = make_conv_block(rng, 3, 2, 4)
        x, relu = rng.normal(size=(2, 6, 2)), (rng.normal(size=2), rng.normal(size=2))
        for grad_out in (rng.normal(size=(2, 6, 4)),
                         pooled_grad(rng.normal(size=(2, 4)), 6)):
            out, cache = block_output(block, x, relu=relu)
            assert 0 < np.count_nonzero(out) < out.size  # the gate passes some of grad_out
            x_hat = (cache["y"] - cache["mean"]) * cache["inv_std"]
            dz = grad_out * (out > 0)
            gated = gated_grad(cache, grad_out)
            conv_block_backward(cache, gated)
            expected = dz - dz.mean(axis=(0, 1)) - x_hat * (dz * x_hat).mean(axis=(0, 1))
            np.testing.assert_allclose(gated[0], expected, rtol=0, atol=1e-12)

    def test_read_only_grad_out_is_refused_before_the_cache_is_used(self):
        # the pass writes over the gated gradient dz, so a read-only dz is
        # refused before y leaves the cache, which then still serves a
        # backward
        rng = np.random.default_rng(7)
        block = make_conv_block(rng, 3, 2, 4)
        x = rng.normal(size=(2, 6, 2))
        _, cache = conv_block_forward(block, x)
        dz, *sums = gated_grad(cache, np.broadcast_to(rng.normal(size=(2, 1, 4)), (2, 6, 4)))
        dz.flags.writeable = False
        with pytest.raises(ValueError, match="must be writable"):
            conv_block_backward(cache, (dz, *sums))
        assert "y" in cache
        grad_x, grads = conv_block_backward(cache, (dz.copy(), *sums))
        _, fresh = conv_block_forward(block, x)
        grad_x_fresh, grads_fresh = conv_block_backward(fresh, (dz.copy(), *sums))
        assert np.array_equal(grad_x, grad_x_fresh)
        assert all(np.array_equal(grads[k], grads_fresh[k]) for k in grads)

    def test_gamma_gradient_survives_a_large_mean(self):
        # gamma's gradient sum(dz * x_hat) is formed from sum(dz * y) and
        # sum(dz), which cancel when |mean| is far above the spread of y; one
        # tap, so the zero padding adds no spread at the series' ends
        rng = np.random.default_rng(14)
        for c_in in (2, 40):
            block = make_conv_block(rng, 1, c_in, 3)
            x = rng.normal(size=(5, 11, c_in)) * 1e-5 + 1.0
            grad_out = rng.normal(size=(5, 11, 3))
            _, cache = conv_block_forward(block, x)
            y, (a, b) = cache["y"].copy(), cache["ab"]
            mean, inv_std = cache["mean"], cache["inv_std"]
            assert np.all(np.abs(mean) >= 100 * y.std(axis=(0, 1)))
            x_hat = (y - mean) * inv_std
            dz = grad_out * (y * a + b > 0)
            _, grads = conv_block_backward(cache, gated_grad(cache, grad_out))
            expected = (dz * x_hat).sum(axis=(0, 1))
            assert max_rel_error(grads["bn_gamma"], expected) <= 1e-12

    def test_inference_takes_no_statistics(self, monkeypatch):
        # inference runs no conv1d_same, so nothing takes moments: each tile
        # runs one correlate_slice per block, here 3 tiles of one series each
        calls, taps = [], []
        monkeypatch.setattr(layers, "conv1d_same",
                            lambda *args, **kwargs: calls.append(kwargs.get("moments", False))
                            or conv1d_same(*args, **kwargs))
        correlate = tensor_core.correlate_slice
        monkeypatch.setattr(tensor_core, "correlate_slice",
                            lambda *args: taps.append(args[4][0]) or correlate(*args))
        rng = np.random.default_rng(15)
        blocks = [make_conv_block(rng, 8, 1, 4), make_conv_block(rng, 5, 4, 40),
                  make_conv_block(rng, 3, 40, 3)]
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", 10 * tile_cost(blocks))
        conv_branch(blocks, rng.normal(size=(3, 10, 1)), False)
        assert calls == []
        assert taps == [8, 5, 3] * 3
        conv_branch(blocks, rng.normal(size=(3, 10, 1)), True)
        assert calls == [True] * 3

    def test_second_backward_on_one_cache_is_refused(self):
        rng = np.random.default_rng(7)
        block = make_conv_block(rng, 3, 2, 4)
        _, cache = conv_block_forward(block, rng.normal(size=(2, 6, 2)))
        grad_out = gated_grad(cache, rng.normal(size=(2, 6, 4)))
        conv_block_backward(cache, grad_out)
        with pytest.raises(ValueError, match="already used by a backward pass"):
            conv_block_backward(cache, grad_out)

    def test_non_finite_input_rejected(self):
        block = make_conv_block(np.random.default_rng(4), 3, 1, 2)
        bad = np.zeros((1, 4, 1))
        bad[0, 0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            conv_block_forward(block, bad)

    def test_overflowing_conv_output_rejected(self):
        # a finite input whose conv overflows makes the batch statistics
        # non-finite, which the training forward checks
        rng = np.random.default_rng(4)
        block = make_conv_block(rng, 3, 2, 2)
        block.kernels[...] = 1e300
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            conv_block_forward(block, rng.normal(size=(2, 5, 2)) * 1e10)

    def test_zero_grad_out_gives_zero_grads(self):
        rng = np.random.default_rng(5)
        block = make_conv_block(rng, 3, 2, 4)
        x = rng.normal(size=(2, 6, 2))
        out, cache = block_output(block, x)
        grad_x, grads = conv_block_backward(cache, gated_grad(cache, np.zeros_like(out)))
        assert np.all(grad_x == 0)
        assert all(np.all(g == 0) for g in grads.values())

    @pytest.mark.parametrize("seed", range(20))
    def test_backward_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        c_in = int(rng.integers(1, 3))
        c_out = int(rng.integers(1, 4))
        block = make_conv_block(rng, k, c_in, c_out)
        x = rng.normal(size=(2, 16, c_in))
        grad_out = rng.normal(size=(2, 16, c_out))

        def loss_after(setter):
            def f(v):
                setter(v)
                out, _ = block_output(block, x)
                return float(np.sum(out * grad_out))
            return f

        out, cache = block_output(block, x)
        grad_x, grads = conv_block_backward(cache, gated_grad(cache, grad_out))

        def set_x(v):
            x[...] = v
        assert_grad_close(grad_x, numerical_grad(loss_after(set_x), x.copy()),
                          GRAD_TOL, "conv_block x")
        # batch norm cancels the bias: no analytic gradient, a zero numeric one
        assert list(grads) == list(ConvBlock.TRAINED)
        for name in ("kernels", "bias", "bn_gamma", "bn_beta"):
            arr = getattr(block, name)
            def setter(v, arr=arr):
                arr[...] = v
            numeric = numerical_grad(loss_after(setter), arr.copy())
            assert_grad_close(grads.get(name, np.zeros_like(arr)), numeric, GRAD_TOL,
                              f"conv_block {name}")


def zero_cell(cls, n_in, hidden):
    return cls(*[np.zeros(s) for s in [(n_in, hidden), (hidden, hidden), (hidden,)]
                 * (len(fields(cls)) // 3)])


def general_gru(cell, x):
    """The general GRU step, written from its equations, at h_prev = 0."""
    h_prev = np.zeros((x.shape[0], cell.b.shape[0]))
    z = hard_sigmoid(x @ cell.W_zx + h_prev @ cell.U_zh + cell.b_z)
    r = hard_sigmoid(x @ cell.W_rx + h_prev @ cell.U_rh + cell.b_r)
    g = np.tanh(x @ cell.W_x + (r * h_prev) @ cell.U_h + cell.b)
    return (1.0 - z) * h_prev + z * g


def general_lstm(cell, x):
    """The general LSTM step, written from its equations, at h_prev = c_prev = 0."""
    h_prev = c_prev = np.zeros((x.shape[0], cell.b_i.shape[0]))
    i = hard_sigmoid(x @ cell.W_ix + h_prev @ cell.U_ih + cell.b_i)
    f = hard_sigmoid(x @ cell.W_fx + h_prev @ cell.U_fh + cell.b_f)
    g = np.tanh(x @ cell.W_gx + h_prev @ cell.U_gh + cell.b_g)
    o = hard_sigmoid(x @ cell.W_ox + h_prev @ cell.U_oh + cell.b_o)
    return o * np.tanh(f * c_prev + i * g)


def assert_cell_matches_general(cell, step, backward, general, rng, batch, label):
    """The step equals the general cell from a zero state, backward returns
    gradients of exactly the cell's TRAINED tensors, and central finite
    differences of the general cell's sum(h * grad_h) match them and are
    zero for every other tensor."""
    n_in, hidden = getattr(cell, fields(cell)[0].name).shape
    x = rng.normal(size=(batch, n_in))
    grad_h = rng.normal(size=(batch, hidden))
    h, cache = step(cell, x)
    assert np.array_equal(h, general(cell, x))
    grads = backward(cache, grad_h)
    assert list(grads) == list(type(cell).TRAINED)

    for f in fields(cell):
        arr = getattr(cell, f.name)
        def loss(v, arr=arr):
            arr[...] = v
            return float(np.sum(general(cell, x) * grad_h))
        assert_grad_close(grads.get(f.name, np.zeros_like(arr)),
                          numerical_grad(loss, arr.copy()), GRAD_TOL, f"{label} {f.name}")


def training_pass(block, x, grad_out):
    """One training-mode forward and backward of a copy of block, handed
    grad_out gated (gated_grad): the output, x_hat, moving statistics and
    every gradient, by name."""
    block = replace(block, bn_moving_mean=block.bn_moving_mean.copy(),
                    bn_moving_var=block.bn_moving_var.copy())
    out, cache = block_output(block, x)
    x_hat = (cache["y"] - cache["mean"]) * cache["inv_std"]
    grad_x, grads = conv_block_backward(cache, gated_grad(cache, grad_out))
    return {"out": out, "x_hat": x_hat, "moving_mean": block.bn_moving_mean,
            "moving_var": block.bn_moving_var, "grad_x": grad_x, **grads}


def plain_training_pass(block, x, grad_out):
    """training_pass from the textbook batch-norm formulas, whole arrays."""
    y = conv1d_same(x, block.kernels) + block.bias
    mean, var = y.mean(axis=(0, 1)), y.var(axis=(0, 1))
    inv_std = 1.0 / np.sqrt(var + block.bn_epsilon)
    x_hat = (y - mean) * inv_std
    z = x_hat * block.bn_gamma + block.bn_beta
    dz = grad_out * (z > 0)
    dy = block.bn_gamma * inv_std * (dz - dz.mean(axis=(0, 1))
                                     - x_hat * (dz * x_hat).mean(axis=(0, 1)))
    grad_x, grad_kernels = conv1d_same_backward(x, block.kernels, dy)
    m = block.bn_momentum
    return {"out": np.maximum(z, 0.0), "x_hat": x_hat,
            "moving_mean": m * block.bn_moving_mean + (1 - m) * mean,
            "moving_var": m * block.bn_moving_var + (1 - m) * var,
            "grad_x": grad_x, "kernels": grad_kernels,
            "bn_gamma": (dz * x_hat).sum(axis=(0, 1)), "bn_beta": dz.sum(axis=(0, 1))}


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkedTrainingBlock:
    """Training batch norm and ReLU run over tensor_core.slices of
    tensor_core.IM2COL_ELEMENTS floats; the chunking must not show beyond
    rounding."""

    # floats per chunk of a (5, 7, 3) block output: one position, three
    # positions (7 = 3 + 3 + 1), two whole series (5 = 2 + 2 + 1)
    @pytest.mark.parametrize("elements", [1, 9, 42])
    @pytest.mark.parametrize("c_in", [2, 40])  # the im2col and Winograd input gradients
    @pytest.mark.parametrize("pooled", [False, True])
    def test_chunks_match_one_chunk_and_plain_formula(self, monkeypatch, elements, c_in,
                                                      pooled):
        rng = np.random.default_rng(12)
        block = make_conv_block(rng, 5, c_in, 3, gamma_scale=1.7)
        block.bn_moving_mean[:] = rng.normal(size=3)
        block.bn_moving_var[:] = rng.uniform(0.5, 2.0, size=3)
        x = rng.normal(size=(5, 7, c_in)) * 3 + 1
        # a gradient constant in time, such as the pooling's, or a general one
        grad_out = (pooled_grad(rng.normal(size=(5, 3)), 7) if pooled
                    else rng.normal(size=(5, 7, 3)))
        one_chunk = training_pass(block, x, grad_out)
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", elements)
        assert len(list(tensor_core.slices((5, 7, 3), 3))) >= 3
        chunked = training_pass(block, x, grad_out)
        plain = plain_training_pass(block, x, grad_out)
        assert chunked.keys() == plain.keys()
        for name, value in chunked.items():
            assert max_rel_error(value, one_chunk[name]) <= 1e-12, name
            assert max_rel_error(value, plain[name]) <= 1e-12, name

    @pytest.mark.parametrize("elements", [1, 9, 42])
    @pytest.mark.parametrize("c_in", [2, 40])
    def test_chunks_are_bitwise_the_same_at_every_worker_count(self, monkeypatch, elements,
                                                               c_in):
        # the chunks run on tensor_core.WORKERS threads; their partial sums
        # are added in chunk order, so the worker count must not show at all
        rng = np.random.default_rng(13)
        block = make_conv_block(rng, 5, c_in, 3, gamma_scale=1.7)
        x = rng.normal(size=(5, 7, c_in)) * 3 + 1
        grad_out = rng.normal(size=(5, 7, 3))
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", elements)
        passes = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(tensor_core, "WORKERS", workers)
            passes.append(training_pass(block, x, grad_out))
        for other in passes[1:]:
            for name, value in passes[0].items():
                assert np.array_equal(other[name], value), name

    def test_pass_holds_one_block_sized_array_beyond_the_conv_backward(self):
        # the 128 -> 256, k = 5 block: its conv output y, while the backward
        # writes the conv's output gradient over the gated gradient it is
        # handed, plus the kernel copy the scaled input gradient makes and
        # chunk temporaries; an output array, a squared-deviation array, a
        # dz * y product or a ReLU mask would each add a block-sized array,
        # or an eighth of one. The gated gradient is formed, as grad_out
        # is, before the step, from a forward whose y is the step's
        rng = np.random.default_rng(10)
        block = make_conv_block(rng, 5, 128, 256)
        x = rng.normal(size=(32, 176, 128))
        grad_out = rng.normal(size=(32, 176, 256))
        conv_peak = traced_peak(lambda: conv1d_same_backward(x, block.kernels, grad_out))
        gated = gated_grad(conv_block_forward(block, x)[1], grad_out)

        def step():
            _, cache = conv_block_forward(block, x)
            conv_block_backward(cache, gated)

        bound = conv_peak + grad_out.nbytes + block.kernels.nbytes + (1 << 20)
        assert traced_peak(step) <= bound


def unfolded_branch(blocks, x):
    """Inference features of the blocks over the whole batch, as the plain
    formulas give them: a direct same-padded correlation plus the bias,
    batch norm with the moving statistics, ReLU, then the mean over time."""
    h = x
    for block in blocks:
        k = block.kernels.shape[0]
        padded = np.pad(h, ((0, 0), tensor_core.same_padding(k), (0, 0)))
        y = sum(padded[:, j:j + h.shape[1]] @ block.kernels[j] for j in range(k)) + block.bias
        inv_std = 1.0 / np.sqrt(block.bn_moving_var + block.bn_epsilon)
        h = np.maximum(
            block.bn_gamma * ((y - block.bn_moving_mean) * inv_std) + block.bn_beta, 0.0)
    return h.mean(axis=1)


class TestConvBranch:
    """conv_branch and conv_branch_backward on their own: blocks 1 and 2
    rebuild their inputs from the previous block's cache."""

    def test_backward_matches_finite_differences(self, monkeypatch):
        # 12 floats per im2col slice: 3, 1 and 1 positions of a 10-position series
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", 12)
        rng = np.random.default_rng(21)
        blocks = [make_conv_block(rng, 4, 1, 3), make_conv_block(rng, 3, 3, 4),
                  make_conv_block(rng, 2, 4, 2)]
        x = rng.normal(size=(3, 10, 1))
        grad_pooled = rng.normal(size=(3, 2))

        def loss():
            return float(np.sum(conv_branch(blocks, x, True)[0] * grad_pooled))

        caches = conv_branch(blocks, x, True)[1]
        grads = conv_branch_backward(caches, grad_pooled)
        assert caches == []  # each block's cache popped as its backward ran
        assert len(grads) == len(blocks)
        for i, block in enumerate(blocks):
            assert list(grads[i]) == list(ConvBlock.TRAINED)
            for name in ConvBlock.TRAINED:
                arr = getattr(block, name)

                def f(v, arr=arr):
                    arr[...] = v
                    return loss()
                assert_grad_close(grads[i][name], numerical_grad(f, arr.copy()), GRAD_TOL,
                                  f"block {i} {name}")

    @pytest.mark.parametrize("length", [1, 2, 7])  # all below block 0's 8 taps
    @pytest.mark.parametrize("elements", [1, 16])
    def test_series_shorter_than_block_0s_kernel(self, monkeypatch, length, elements):
        # block 1 reads y0 through a ConvRows and block 0 maps its recomputed
        # rows to their gradient, on slices of one or a few positions whose
        # halos reach past both ends of the series: the gradients match
        # finite differences, are bitwise the same at 1, 2 and 3 workers, and
        # every ConvRows is asked for rows in [0, L) alone
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", elements)
        rng = np.random.default_rng(27)
        blocks = [make_conv_block(rng, 8, 1, 3), make_conv_block(rng, 5, 3, 4),
                  make_conv_block(rng, 3, 4, 2)]
        x, grad_pooled = rng.normal(size=(3, length, 1)), rng.normal(size=(3, 2))
        reads, read = [], tensor_core.ConvRows.__getitem__
        monkeypatch.setattr(tensor_core.ConvRows, "__getitem__",
                            lambda rows, index: reads.append(index[1]) or read(rows, index))
        passes = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(tensor_core, "WORKERS", workers)
            passes.append(conv_branch_backward(conv_branch(blocks, x, True)[1], grad_pooled))
        for other in passes[1:]:
            for grads, expected in zip(other, passes[0], strict=True):
                assert all(np.array_equal(grads[k], expected[k]) for k in ConvBlock.TRAINED)
        assert reads and all(0 <= p.start < p.stop <= length for p in reads)
        monkeypatch.setattr(tensor_core, "WORKERS", 1)
        for i, block in enumerate(blocks):
            for name in ConvBlock.TRAINED:
                arr = getattr(block, name)

                def f(v, arr=arr):
                    arr[...] = v
                    return float(np.sum(conv_branch(blocks, x, True)[0] * grad_pooled))
                assert_grad_close(passes[0][i][name], numerical_grad(f, arr.copy()), GRAD_TOL,
                                  f"block {i} {name}")

    @staticmethod
    def last_block_pass(blocks, x, grad_pooled):
        """The last block's cache, from a training forward of the branch, and
        its backward's (grad_x, grads), run on its own."""
        cache = conv_branch(blocks, x, True)[1][-1]
        assert "y" not in cache
        return cache, conv_block_backward(dict(cache), grad_pooled)

    @staticmethod
    def array_last_block_backward(cache, grad_pooled):
        """The last block's backward as the whole-array formula gives it: y
        recomputed as one array, the pooled gradient broadcast over time,
        then gated and coupled into the conv's output gradient; the input
        gradient, that of the materialized input ReLU(a' * x + b'), gated by
        a' * x + b' > 0 and summed."""
        block, (a, b) = cache["block"], cache["ab"]
        x, (a_in, b_in) = cache["x"], cache["relu"]
        y = conv1d_same(x, block.kernels, relu=cache["relu"])
        dz = pooled_grad(grad_pooled, y.shape[1]) * (y * a + b > 0)
        mean, inv_std, n = cache["mean"], cache["inv_std"], y.shape[0] * y.shape[1]
        grad_beta = dz.sum(axis=(0, 1))
        grad_gamma = inv_std * ((dz * y).sum(axis=(0, 1)) - mean * grad_beta)
        c = inv_std * (grad_gamma / n)
        dy = dz - y * c + (mean * c - grad_beta / n)
        z_in = x * a_in + b_in
        grad_in, grad_kernels = conv1d_same_backward(np.maximum(z_in, 0.0), block.kernels, dy,
                                                     scale=a)
        dz_in = grad_in * (z_in > 0)
        grad_x = dz_in, np.einsum("blc,blc->c", dz_in, x), dz_in.sum(axis=(0, 1))
        return grad_x, {"kernels": grad_kernels, "bn_gamma": grad_gamma, "bn_beta": grad_beta}

    @pytest.mark.parametrize("winograd", [False, True])
    def test_last_block_recomputes_what_the_array_formula_gives(self, monkeypatch, winograd):
        # the last block keeps no y: its conv backward recomputes y over each
        # slice and its halo and writes the output gradient there. At 1, 2
        # and 3 workers, and at budgets that cut every series (one position,
        # a few) or hold whole ones, it matches the whole-array formula, and
        # each budget's gradients are bitwise the same at every worker count
        monkeypatch.setattr(tensor_core, "WINOGRAD_MIN_CHANNELS", 1 if winograd else 1 << 30)
        rng = np.random.default_rng(25)
        blocks = [make_conv_block(rng, 8, 1, 4), make_conv_block(rng, 5, 4, 6),
                  make_conv_block(rng, 3, 6, 5, gamma_scale=1.7)]
        x, grad_pooled = rng.normal(size=(4, 11, 1)), rng.normal(size=(4, 5))
        for elements in (1, 40, 300, 1 << 19):
            monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", elements)
            passes = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(tensor_core, "WORKERS", workers)
                cache, (grad_x, grads) = self.last_block_pass(blocks, x, grad_pooled)
                passes.append({**dict(zip(("x", "x_dot", "x_sum"), grad_x, strict=True)),
                               **grads})
            for other in passes[1:]:
                for name, value in passes[0].items():
                    assert np.array_equal(other[name], value), (elements, name)
            expected_x, expected = self.array_last_block_backward(cache, grad_pooled)
            for name, value in {**dict(zip(("x", "x_dot", "x_sum"), expected_x)),
                                **expected}.items():
                assert max_rel_error(passes[0][name], value) <= 1e-10, (elements, name)

    def test_last_block_reads_its_input_and_the_pooled_gradient_alone(self):
        # the pooled gradient is not written over, and a second backward on
        # the cache is refused
        rng = np.random.default_rng(26)
        blocks = [make_conv_block(rng, 4, 1, 3), make_conv_block(rng, 3, 3, 2),
                  make_conv_block(rng, 2, 2, 2)]
        caches = conv_branch(blocks, rng.normal(size=(3, 10, 1)), True)[1]
        last, grad_pooled = caches[-1], rng.normal(size=(3, 2))
        x, saved = last["x"], (last["x"].copy(), grad_pooled.copy())
        conv_block_backward(last, grad_pooled)
        assert last["x"] is x and "pool_sums" not in last
        assert np.array_equal(x, saved[0]) and np.array_equal(grad_pooled, saved[1])
        with pytest.raises(ValueError, match="already used by a backward pass"):
            conv_block_backward(last, grad_pooled)

    def test_refused_output_gradient_leaves_the_caches_usable(self):
        # a pooled gradient of the wrong shape for the last block, a triple
        # of the wrong shape for blocks 0 and 1, and a read-only dz for block
        # 1 are each refused before anything leaves the cache, which then
        # serves the branch's backward as a fresh cache does
        rng = np.random.default_rng(27)
        blocks = [make_conv_block(rng, 4, 1, 3), make_conv_block(rng, 3, 3, 4),
                  make_conv_block(rng, 2, 4, 2)]
        x, grad_pooled = rng.normal(size=(3, 10, 1)), rng.normal(size=(3, 2))
        expected = conv_branch_backward(conv_branch(blocks, x, True)[1], grad_pooled)
        read_only = np.ones((3, 10, 4))
        read_only.flags.writeable = False
        for i, grad_out, message in (
                (2, np.ones((3, 3)), "pooled shape"),
                (0, (np.ones((3, 10, 4)), np.ones(3), np.ones(3)), "forward output shape"),
                (1, (np.ones((3, 9, 4)), np.ones(4), np.ones(4)), "forward output shape"),
                (1, (read_only, np.ones(4), np.ones(4)), "must be writable")):
            caches = conv_branch(blocks, x, True)[1]
            with pytest.raises(ValueError, match=message):
                conv_block_backward(caches[i], grad_out)
            got = conv_branch_backward(caches, grad_pooled)
            for grads, fresh in zip(got, expected, strict=True):
                assert all(np.array_equal(grads[k], fresh[k]) for k in fresh), (i, message)

    @pytest.mark.parametrize("length", [1, 2, 3, 5, 7, 13, 40])
    @pytest.mark.parametrize("winograd", [False, True])
    def test_inference_tiles_match_the_unfolded_whole_batch(self, monkeypatch, length,
                                                            winograd):
        # tiles of 1, 2 or 3 positions cut inside a series, so each block's
        # halo crosses the tile edges; with winograd, blocks 1 and 2 take the
        # Winograd path, whose last tile of 4 outputs reaches past the range.
        # The tiles' sums are bitwise the same at any worker count
        monkeypatch.setattr(tensor_core, "WINOGRAD_MIN_CHANNELS", 1 if winograd else 1 << 30)
        rng = np.random.default_rng(23)
        blocks = [make_conv_block(rng, 8, 1, 4), make_conv_block(rng, 5, 4, 6),
                  make_conv_block(rng, 3, 6, 3)]
        for block in blocks:
            c_out = block.bias.shape
            block.bn_gamma[:] = rng.normal(1.0, 0.5, c_out)
            block.bn_moving_mean[:] = rng.normal(0.0, 0.5, c_out)
            block.bn_moving_var[:] = rng.uniform(0.5, 2.0, c_out)
        x = rng.normal(size=(3, length, 1))
        expected = unfolded_branch(blocks, x)
        for positions in (1, 2, 3, length):
            monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", positions * tile_cost(blocks))
            passes = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(tensor_core, "WORKERS", workers)
                passes.append(conv_branch(blocks, x, False)[0])
            assert all(np.array_equal(p, passes[0]) for p in passes[1:])
            np.testing.assert_allclose(passes[0], expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("winograd", [False, True])
    def test_inference_pools_what_training_pools(self, monkeypatch, winograd):
        # with bn_momentum 0 the moving statistics are the batch's own (plus
        # the bias), so inference folds batch norm into the (a, b) training
        # ran with, and both calls of global_avg_pool compute one function:
        # training's over the whole batch, inference's depth first in tiles
        monkeypatch.setattr(tensor_core, "WINOGRAD_MIN_CHANNELS", 1 if winograd else 1 << 30)
        rng = np.random.default_rng(24)
        blocks = [make_conv_block(rng, 8, 1, 4), make_conv_block(rng, 5, 4, 6),
                  make_conv_block(rng, 3, 6, 3)]
        # tiles of 7 positions; the training convs' slices cut every series too
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", 7 * tile_cost(blocks))
        for block in blocks:
            block.bn_momentum = 0.0
            block.bn_gamma[:] = rng.normal(1.0, 0.5, block.bias.shape)
            block.bn_beta[:] = rng.normal(0.0, 0.5, block.bias.shape)
            assert np.all(block.bias != 0)
        x = rng.normal(size=(4, 30, 1))
        for workers in (1, 2, 3):
            monkeypatch.setattr(tensor_core, "WORKERS", workers)
            trained = conv_branch(blocks, x, True)[0]
            np.testing.assert_allclose(conv_branch(blocks, x, False)[0], trained,
                                       rtol=0, atol=1e-12)

    @pytest.mark.filterwarnings("ignore:Mean of empty slice:RuntimeWarning")
    def test_empty_training_batch_is_refused(self):
        # batch norm has no statistics over zero series, so the one training
        # group still runs block 0, which refuses them
        rng = np.random.default_rng(22)
        blocks = [make_conv_block(rng, 4, 1, 3), make_conv_block(rng, 3, 3, 2)]
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            conv_branch(blocks, np.zeros((0, 10, 1)), True)


class TestGru:
    def test_zero_params_halve_state(self):
        # zero update-gate parameters put z at 0.5: h is half the candidate
        rng = np.random.default_rng(0)
        cell = zero_cell(GruCell, 3, 4)
        cell.W_x[...] = rng.normal(size=(3, 4))
        cell.b[...] = rng.normal(size=4)
        x = rng.normal(size=(2, 3))
        h, _ = gru_step(cell, x)
        assert np.allclose(h, 0.5 * np.tanh(x @ cell.W_x + cell.b))

    def test_zero_state_zero_params(self):
        h, _ = gru_step(zero_cell(GruCell, 3, 4), np.ones((1, 3)))
        assert np.allclose(h, 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_hidden_stays_in_open_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        cell = make_gru_cell(rng, 5, 6, scale=2.0)
        for _ in range(4):
            h, _ = gru_step(cell, rng.normal(size=(3, 5)))
            assert np.all(h > -1.0) and np.all(h < 1.0)

    def test_zero_final_grad_gives_zero_grads(self):
        rng = np.random.default_rng(0)
        cell = make_gru_cell(rng, 3, 4)
        _, cache = gru_step(cell, rng.normal(size=(2, 3)))
        grads = gru_backward(cache, np.zeros((2, 4)))
        assert all(np.all(g == 0) for g in grads.values())

    def test_zero_input_sequence_zeroes_feedforward_grads(self):
        rng = np.random.default_rng(1)
        cell = make_gru_cell(rng, 3, 4)
        _, cache = gru_step(cell, np.zeros((2, 3)))
        grads = gru_backward(cache, rng.normal(size=(2, 4)))
        for name in ("W_zx", "W_x"):
            assert np.all(grads[name] == 0)
        assert "W_rx" not in grads  # untrained: the zero state hides the reset gate
        assert np.any(grads["b"] != 0)

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("seed", range(10))
    def test_backward_matches_finite_differences(self, batch, seed):
        rng = np.random.default_rng(100 + seed)
        assert_cell_matches_general(make_gru_cell(rng, 3, 4), gru_step, gru_backward,
                                    general_gru, rng, batch, "gru")


class TestLstm:
    def test_zero_params_zero_cell(self):
        h, cache = lstm_step(zero_cell(LstmCell, 3, 4), np.ones((1, 3)))
        assert np.allclose(h, 0.0) and np.allclose(cache["i"] * cache["g"], 0.0)

    def test_zero_params_gates_at_half(self):
        # zero input/output-gate parameters put i and o at 0.5
        rng = np.random.default_rng(0)
        cell = zero_cell(LstmCell, 3, 4)
        cell.W_gx[...] = rng.normal(size=(3, 4))
        cell.b_g[...] = rng.normal(size=4)
        x = rng.normal(size=(2, 3))
        h, cache = lstm_step(cell, x)
        g = np.tanh(x @ cell.W_gx + cell.b_g)
        assert np.allclose(cache["i"], 0.5) and np.allclose(cache["o"], 0.5)
        assert np.allclose(h, 0.5 * np.tanh(0.5 * g))

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("seed", range(10))
    def test_backward_matches_finite_differences(self, batch, seed):
        rng = np.random.default_rng(200 + seed)
        assert_cell_matches_general(make_lstm_cell(rng, 3, 4), lstm_step, lstm_backward,
                                    general_lstm, rng, batch, "lstm")


class TestElementCounts:
    def test_gru_and_lstm_parameter_elements(self):
        rng = np.random.default_rng(0)
        n_in, hidden = 7, 5
        gru = make_gru_cell(rng, n_in, hidden)
        lstm = make_lstm_cell(rng, n_in, hidden)
        gru_names = [f.name for f in fields(gru)]
        lstm_names = [f.name for f in fields(lstm)]
        gru_total = sum(getattr(gru, n).size for n in gru_names)
        lstm_total = sum(getattr(lstm, n).size for n in lstm_names)
        assert gru_total == 3 * (n_in * hidden + hidden**2 + hidden)
        assert lstm_total == 4 * (n_in * hidden + hidden**2 + hidden)
        assert len([n for n in gru_names if not n.startswith("b")]) == 6
        assert len([n for n in gru_names if n.startswith("b")]) == 3
        assert len([n for n in lstm_names if not n.startswith("b")]) == 8
        assert len([n for n in lstm_names if n.startswith("b")]) == 4


class TestGlobalAvgPool:
    """global_avg_pool reads a block output ReLU(a * h + b) from h and (a, b)."""

    def test_constant_channel(self):
        x = np.full((2, 5, 3), 7.0)
        assert np.allclose(global_avg_pool(x, (np.ones(3), np.zeros(3)))[0], 7.0)

    def test_simple_mean(self):
        x = np.array([[[1.0], [2.0], [3.0]]])
        assert np.allclose(global_avg_pool(x, (np.ones(1), np.zeros(1)))[0], 2.0)

    def test_empty_length_rejected(self):
        with pytest.raises(ValueError):
            global_avg_pool(np.zeros((1, 0, 3)), (np.ones(3), np.zeros(3)))

    # floats per chunk of a (5, 7, 3) array: one position, three positions,
    # two whole series, and the whole array
    @pytest.mark.parametrize("elements", [1, 9, 42, 1 << 17])
    def test_chunks_match_the_mean_of_the_output(self, monkeypatch, elements):
        # training's pooling also returns the sums the last block's backward
        # reads: the count of gated positions and the sum of y over them
        rng = np.random.default_rng(14)
        h, a, b = rng.normal(size=(5, 7, 3)), rng.normal(size=3), rng.normal(size=3)
        gate = h * a + b > 0
        expected = (np.maximum(h * a + b, 0.0).mean(axis=1), gate.sum(axis=1),
                    (gate * h).sum(axis=1))
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", elements)
        passes = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(tensor_core, "WORKERS", workers)
            pooled, sums = global_avg_pool(h, (a, b))
            passes.append((pooled, *sums))
        assert all(np.array_equal(p, q) for other in passes[1:]
                   for p, q in zip(other, passes[0], strict=True))
        assert np.array_equal(passes[0][1], expected[1])
        for got, value in zip(passes[0], expected, strict=True):
            if elements >= 7 * 3:  # whole series per chunk: numpy's own sums
                assert np.array_equal(got, value)
            assert max_rel_error(got, value) <= 1e-12

    def test_backward_matches_finite_differences(self):
        # the pooling's backward is the last block's, which reads the
        # pooling's sums: a one-block branch, whose block is the last
        rng = np.random.default_rng(0)
        block = make_conv_block(rng, 3, 2, 3)
        x = rng.normal(size=(2, 6, 2))
        grad_pooled = rng.normal(size=(2, 3))
        grads = conv_branch_backward(conv_branch([block], x, True)[1], grad_pooled)[0]
        for name in ConvBlock.TRAINED:
            arr = getattr(block, name)

            def f(v, arr=arr):
                arr[...] = v
                return float(np.sum(conv_branch([block], x, True)[0] * grad_pooled))
            assert_grad_close(grads[name], numerical_grad(f, arr.copy()), GRAD_TOL, name)


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 5))
        out, _ = dropout(x, 0.0, training=True, rng=Rng(0))
        assert np.array_equal(out, x)

    def test_inference_is_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 5))
        out, _ = dropout(x, 0.9, training=False)
        assert np.array_equal(out, x)

    def test_survivor_fraction_and_mean(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=100_000) + 2.0
        out, mask = dropout(x, 0.8, training=True, rng=Rng(7))
        survivors = np.mean(mask > 0)
        assert survivors == pytest.approx(0.2, abs=0.01)
        assert out.mean() == pytest.approx(x.mean(), rel=0.03)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            dropout(np.zeros(3), 1.0, training=True, rng=Rng(0))


class TestDenseSoftmax:
    def test_uniform_logits(self):
        layer = DenseSoftmax(W=np.zeros((5, 4)), b=np.zeros(4))
        x = np.random.default_rng(0).normal(size=(2, 5))
        y = np.eye(4)[[1, 3]]
        probs = dense_softmax(layer, x)
        assert np.allclose(probs, 0.25)
        assert np.allclose(cross_entropy(probs, y), np.log(4.0))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        layer = DenseSoftmax(W=rng.normal(size=(5, 3)), b=rng.normal(size=3))
        probs = dense_softmax(layer, rng.normal(size=(4, 5)))
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        from grufcn.layers import softmax
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(3, 4))
        # max-subtraction keeps large shifts from overflowing
        assert np.allclose(softmax(logits), softmax(logits + 500.0), atol=1e-12)
        assert np.all(np.isfinite(softmax(logits + 5000.0)))

    def test_degenerate_onehot_rejected(self):
        probs = np.full((1, 3), 1 / 3)
        with pytest.raises(ValueError):
            cross_entropy(probs, np.array([[1.0, 1.0, 0.0]]))
        with pytest.raises(ValueError):
            cross_entropy(probs, np.array([[0.0, 0.0, 0.0]]))
        with pytest.raises(ValueError):
            cross_entropy(probs, np.array([[1.0, 0.0]]))

    def test_confident_wrong_prediction_has_finite_loss(self):
        loss = cross_entropy(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert np.all(np.isfinite(loss)) and loss[0] > 600

    def test_logit_gradient_is_probs_minus_onehot(self):
        rng = np.random.default_rng(3)
        layer = DenseSoftmax(W=rng.normal(size=(4, 3)), b=rng.normal(size=3))
        x = rng.normal(size=(2, 4))
        y = np.eye(3)[[0, 2]]
        grad_x, grads = dense_softmax_backward(layer, x, dense_softmax(layer, x), y)

        def mean_loss(features):
            return float(np.mean(cross_entropy(dense_softmax(layer, features), y)))

        def loss_of_w(v):
            layer.W[...] = v
            return mean_loss(x)

        assert_grad_close(grads["W"], numerical_grad(loss_of_w, layer.W.copy()),
                          GRAD_TOL, "dense W")

        def loss_of_b(v):
            layer.b[...] = v
            return mean_loss(x)

        assert_grad_close(grads["b"], numerical_grad(loss_of_b, layer.b.copy()),
                          GRAD_TOL, "dense b")
        assert_grad_close(grad_x, numerical_grad(mean_loss, x.copy()),
                          GRAD_TOL, "dense x")
