import dataclasses
import importlib.util
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from gradcheck import assert_grad_close, max_rel_error, numerical_grad
from writers import set_checkpoint_value

from grufcn import data_ucr, layers, tensor_core
from grufcn import model as model_mod
from grufcn.model import (
    ArchConfig,
    CHECKPOINT_MAGIC,
    CheckpointError,
    backward,
    build,
    forward,
    load_checkpoint,
    parameter_count,
    parameter_manifest,
    save_checkpoint,
    write_atomic,
)
from grufcn.tensor_core import Rng

# scripts/step_memory.py, whose phase peaks the memory tests read
_spec = importlib.util.spec_from_file_location(
    "step_memory", Path(__file__).resolve().parent.parent / "scripts" / "step_memory.py")
step_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_memory)

MISSING = object()  # header key to delete


def closed_form_count(length, classes, cell_kind="gru", hidden=8,
                      filters=(128, 256, 128), kernels=(8, 5, 3)):
    """Independent oracle: sum the tensor sizes straight from the layer
    definitions, without going through the manifest machinery."""
    total = 0
    c_in = 1
    for f, k in zip(filters, kernels):
        total += k * c_in * f + f          # kernels + bias
        total += 4 * f                     # gamma, beta, moving mean/var
        c_in = f
    gates = 3 if cell_kind == "gru" else 4
    total += gates * (length * hidden + hidden * hidden + hidden)
    feat = filters[-1] + hidden
    total += feat * classes + classes
    return total


class TestParameterCounts:
    def test_default_closed_forms(self):
        # with default filters/kernels/hidden the count is affine in (L, C)
        for length, classes in [(176, 37), (470, 5), (96, 2), (1639, 4)]:
            gru = parameter_count(ArchConfig(length, classes))
            lstm = parameter_count(ArchConfig(length, classes, cell_kind="lstm"))
            assert gru == 265944 + 24 * length + 137 * classes
            assert lstm == 266016 + 32 * length + 137 * classes

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_independent_oracle(self, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(2, 500))
        classes = int(rng.integers(2, 40))
        hidden = int(rng.integers(1, 20))
        n = int(rng.integers(1, 4))
        filters = tuple(int(f) for f in rng.integers(2, 64, size=n))
        kernels = tuple(int(k) for k in rng.integers(1, 9, size=n))
        kind = "gru" if seed % 2 == 0 else "lstm"
        config = ArchConfig(length, classes, cell_kind=kind, hidden_size=hidden,
                            conv_filters=filters, conv_kernels=kernels)
        assert parameter_count(config) == closed_form_count(
            length, classes, kind, hidden, filters, kernels
        )

    def test_count_is_exact_past_int64(self):
        # two 2**32-filter blocks hold 5 * 2**64 kernel entries, where
        # int64 products wrap
        config = ArchConfig(series_length=10, num_classes=2, conv_filters=(2**32, 2**32, 4))
        assert parameter_count(config) == 92233720497396777462
        assert parameter_count(config) == closed_form_count(10, 2, filters=(2**32, 2**32, 4))

    def test_structural_count_matches_allocated_model(self):
        config = ArchConfig(50, 3)
        model = build(config)
        allocated = sum(arr.size for arr in model.parameters().values())
        assert allocated == parameter_count(config)

    def test_gru_always_smaller_than_lstm(self):
        for length in (2, 24, 176, 720, 2709):
            for classes in (2, 7, 37, 60):
                gru = parameter_count(ArchConfig(length, classes))
                lstm = parameter_count(ArchConfig(length, classes, cell_kind="lstm"))
                assert gru < lstm

    def test_lstm_adds_one_gate_over_gru_for_every_registry_entry(self):
        # the paper's parameter claim: GRU-FCN is LSTM-FCN less one gate's
        # input weights, recurrent weights and bias, H * (L + H + 1) =
        # 8 * L + 72 at H = 8, so the gap grows with the series length
        entries = data_ucr.registry().values()
        assert len(entries) == 85
        for entry in entries:
            base = dict(series_length=entry.series_length, num_classes=entry.num_classes)
            gap = (parameter_count(ArchConfig(cell_kind="lstm", **base))
                   - parameter_count(ArchConfig(**base)))
            assert gap == 8 * entry.series_length + 72, entry.name

    def test_manifest_order_is_conv_cell_head(self):
        names = [n for n, _ in parameter_manifest(ArchConfig(10, 2))]
        assert names[0] == "conv0.kernels"
        assert names[-2:] == ["head.W", "head.b"]
        assert names.index("cell.W_zx") > names.index("conv2.bn_moving_var")


class TestArchConfig:
    def test_rejects_bad_cell_kind(self):
        with pytest.raises(ValueError, match="cell_kind"):
            ArchConfig(10, 2, cell_kind="rnn")

    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(ValueError):
            ArchConfig(0, 2)
        with pytest.raises(ValueError):
            ArchConfig(10, 1)
        with pytest.raises(ValueError):
            ArchConfig(10, 2, hidden_size=0)

    def test_rejects_mismatched_conv_lists(self):
        with pytest.raises(ValueError):
            ArchConfig(10, 2, conv_filters=(8, 8), conv_kernels=(3,))

    def test_rejects_dropout_one(self):
        with pytest.raises(ValueError):
            ArchConfig(10, 2, dropout_rate=1.0)

    @pytest.mark.parametrize("filters, kernels", [((), ()), ((8, 0), (3, 3)), ((8,), (-1,))])
    def test_rejects_empty_or_nonpositive_conv_sizes(self, filters, kernels):
        with pytest.raises(ValueError, match="conv block"):
            ArchConfig(10, 2, conv_filters=filters, conv_kernels=kernels)

    @pytest.mark.parametrize("changes", [
        {"series_length": 10.0}, {"num_classes": "2"}, {"hidden_size": 2.5}, {"seed": 0.5},
        {"conv_filters": (8, math.inf), "conv_kernels": (3, 3)},
        {"conv_filters": (8,), "conv_kernels": (3.0,)},
    ])
    def test_rejects_non_integer_sizes_and_seed(self, changes):
        with pytest.raises(ValueError, match="must be integers"):
            ArchConfig(**{"series_length": 10, "num_classes": 2, **changes})

    def test_accepts_batch_norm_bounds(self):
        ArchConfig(10, 2, bn_momentum=0.0)
        ArchConfig(10, 2, bn_momentum=1, bn_epsilon=1)


class TestBuild:
    def test_deterministic_under_seed(self):
        a = build(ArchConfig(30, 3, seed=11))
        b = build(ArchConfig(30, 3, seed=11))
        for name, arr in a.parameters().items():
            assert np.array_equal(arr, b.parameters()[name]), name

    def test_different_seeds_differ(self):
        a = build(ArchConfig(30, 3, seed=1))
        b = build(ArchConfig(30, 3, seed=2))
        assert not np.array_equal(a.head.W, b.head.W)

    def test_biases_start_at_zero_and_bn_is_identity(self):
        model = build(ArchConfig(30, 3))
        for block in model.blocks:
            assert np.all(block.bias == 0)
            assert np.all(block.bn_gamma == 1)
            assert np.all(block.bn_beta == 0)
            assert np.all(block.bn_moving_mean == 0)
            assert np.all(block.bn_moving_var == 1)
        for name, arr in model.parameters().items():
            if name.startswith("cell.b"):
                assert np.all(arr == 0), name
        assert np.all(model.head.b == 0)

    def test_trainable_excludes_moving_statistics(self):
        # and the conv biases batch norm cancels, and the 5 cell tensors a
        # zero state leaves untrained
        model = build(ArchConfig(30, 3))
        trainable = model.trainable_parameters()
        assert "conv0.bn_moving_mean" not in trainable
        assert "conv0.bias" not in trainable
        assert "conv0.kernels" in trainable
        assert len(model.parameters()) - len(trainable) == 3 * len(model.blocks) + 5
        assert list(trainable) == [n for n in model.parameters() if n in trainable]


class TestForward:
    def test_valid_probability_rows(self):
        model = build(ArchConfig(40, 5, seed=3))
        x = np.random.default_rng(0).normal(size=(6, 40))
        probs, _ = forward(model, x, training=False)
        assert probs.shape == (6, 5)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_inference_is_deterministic(self):
        model = build(ArchConfig(40, 5, seed=3))
        x = np.random.default_rng(0).normal(size=(6, 40))
        a, _ = forward(model, x, training=False)
        b, _ = forward(model, x, training=False)
        assert np.array_equal(a, b)

    def test_zero_input_zeroes_the_recurrent_branch(self):
        # zero biases and a zero initial state make the recurrent output 0
        model = build(ArchConfig(40, 5, seed=3))
        _, cache = forward(model, np.zeros((2, 40)), training=False)
        assert np.allclose(cache["features"][:, -model.config.hidden_size:], 0.0)

    def test_inference_cache_keeps_no_backward_state(self):
        model = build(ArchConfig(40, 5, seed=3))
        _, cache = forward(model, np.zeros((2, 40)), training=False)
        assert set(cache) == {"features", "probs"}
        with pytest.raises(ValueError, match="training-mode"):
            backward(model, cache, np.eye(5)[[0, 1]])

    def test_wrong_length_rejected(self):
        model = build(ArchConfig(40, 5))
        with pytest.raises(ValueError, match=r"batch shape \(2, 39\) does not match series"):
            forward(model, np.zeros((2, 39)), training=False)

    def test_training_dropout_needs_rng(self):
        model = build(ArchConfig(40, 5))
        with pytest.raises(ValueError):
            forward(model, np.zeros((2, 40)), training=True)

    def test_lstm_variant_runs(self):
        model = build(ArchConfig(40, 5, cell_kind="lstm", seed=3))
        probs, _ = forward(model, np.random.default_rng(1).normal(size=(3, 40)),
                           training=False)
        assert np.allclose(probs.sum(axis=1), 1.0)


# floats per position an inference tile of the model holds at its widest
# step, block 2: its 256 input channels, its Winograd F(4, 3) scratch
# ((6 + 8) * 256 + 6 * 128) / 4 = 1088 and its 128 output channels
TILE_COST = 256 + 1088 + 128


def tile_items(monkeypatch):
    """The items of every tensor_core.ordered_map call from now on, as lists."""
    calls = []
    ordered_map = tensor_core.ordered_map

    def spy(fn, items, **kwargs):
        calls.append(list(items))
        return ordered_map(fn, calls[-1], **kwargs)

    monkeypatch.setattr(tensor_core, "ordered_map", spy)
    return calls


class TestStreamedInference:
    """Inference runs the conv branch depth first, over tiles of the last
    block's positions sized by tensor_core.IM2COL_ELEMENTS; the tiling must
    not show in the output beyond rounding."""

    LENGTH = 40

    def model(self, cell_kind):
        model = build(ArchConfig(self.LENGTH, 4, cell_kind=cell_kind, seed=5))
        rng = np.random.default_rng(6)
        for block in model.blocks:
            block.bn_moving_mean[...] = rng.normal(0.0, 0.5, block.bn_moving_mean.shape)
            block.bn_moving_var[...] = rng.uniform(0.5, 2.0, block.bn_moving_var.shape)
        return model

    def tile_budget(self, monkeypatch, series):
        # floats per tile of whole series: series * L * TILE_COST
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", series * self.LENGTH * TILE_COST)

    @pytest.mark.parametrize("cell_kind", ["gru", "lstm"])
    @pytest.mark.parametrize("series", [1, 2, 3])
    def test_tiles_match_one_tile(self, monkeypatch, cell_kind, series):
        model = self.model(cell_kind)
        x = np.random.default_rng(0).normal(size=(5, self.LENGTH))
        tiles = tile_items(monkeypatch)
        whole_probs, whole = forward(model, x, training=False)
        assert [[positions for _, positions in items] for items in tiles] == [
            [slice(0, self.LENGTH)]]  # the whole batch in one tile
        self.tile_budget(monkeypatch, series)
        probs, cache = forward(model, x, training=False)
        assert tiles[1:] == [[(slice(start, start + series), slice(0, self.LENGTH))
                              for start in range(0, 5, series)]]
        np.testing.assert_allclose(probs, whole_probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cache["features"], whole["features"], rtol=0, atol=1e-12)

    def test_non_finite_input_in_last_tile_rejected(self, monkeypatch):
        model = self.model("gru")
        x = np.random.default_rng(0).normal(size=(5, self.LENGTH))
        x[4, 7] = np.nan
        self.tile_budget(monkeypatch, 2)
        with pytest.raises(FloatingPointError):
            forward(model, x, training=False)

    def test_overflow_inside_a_block_rejected(self):
        # the input is finite; block 1's conv overflows to Inf or NaN, which
        # the ReLU passes and block 2 turns into NaN: only the pooled
        # features show it
        model = self.model("gru")
        model.blocks[1].kernels[...] = 1e308
        x = np.random.default_rng(0).normal(size=(3, self.LENGTH))
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError,
                                                      match="conv-branch features"):
            forward(model, x, training=False)

    def test_peak_memory_does_not_grow_with_batch(self, monkeypatch):
        batch, length = 16, 1000
        model = build(ArchConfig(length, 3, seed=1))
        x = np.random.default_rng(0).normal(size=(batch, length))
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", length * 256)
        monkeypatch.setattr(tensor_core, "WORKERS", 2)
        tracemalloc.start()
        try:
            forward(model, x, training=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a whole-batch pass holds at least one (B, L, 256) float64 block output
        assert peak < batch * length * 256 * 8 / 2

    def test_peak_is_below_one_series_block_output(self, monkeypatch):
        # two HandOutlines-length series at 2 workers, in tiles of part of a
        # series: the transformed kernels and two running tiles, while one
        # series' block-by-block pass holds a (1, L, 256) block output
        length = 2709
        model = build(ArchConfig(length, 2, seed=1))
        x = np.random.default_rng(0).normal(size=(2, length))
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", 1 << 16)
        monkeypatch.setattr(tensor_core, "WORKERS", 2)
        tracemalloc.start()
        try:
            forward(model, x, training=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < length * 256 * 8


class TestFoldedInference:
    """Inference hands on each block's conv output with batch norm folded
    into one per-channel (a, b), which the next conv and the pooling read
    through ReLU(a * h + b); the model's output must match unfolded blocks,
    tile by tile."""

    LENGTH = 40

    def reference(self, model, x):
        # conv, then the plain batch-norm formula, then ReLU, whole batch
        h = x[:, :, None]
        for block in model.blocks:
            y = tensor_core.conv1d_same(h, block.kernels) + block.bias
            inv_std = 1.0 / np.sqrt(block.bn_moving_var + block.bn_epsilon)
            h = np.maximum(
                block.bn_gamma * ((y - block.bn_moving_mean) * inv_std) + block.bn_beta, 0.0)
        features = np.concatenate(
            [h.mean(axis=1), layers.gru_step(model.cell, x)[0]], axis=1)
        return layers.dense_softmax(model.head, features), features

    def test_forward_matches_unfolded_blocks(self, monkeypatch):
        model = build(ArchConfig(self.LENGTH, 4, seed=7))
        rng = np.random.default_rng(8)
        for block in model.blocks:
            c_out = block.bias.shape
            block.bias[...] = rng.normal(0.0, 0.5, c_out)
            block.bn_moving_mean[...] = rng.normal(0.0, 0.5, c_out)
            block.bn_moving_var[...] = rng.uniform(0.5, 2.0, c_out)
            block.bn_gamma[...] = rng.normal(1.0, 0.5, c_out)
            block.bn_beta[...] = rng.normal(0.0, 0.5, c_out)
        x = rng.normal(size=(7, self.LENGTH))
        expected_probs, expected_features = self.reference(model, x)
        # tiles of 7 positions: 6 per series, 42 for 7 series, whose halos
        # cross the tile edges
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", 7 * TILE_COST)
        taps = []
        correlate = tensor_core.correlate_slice

        def spy(*args):
            taps.append(args[4][0])  # the prepared kernels' taps
            return correlate(*args)

        monkeypatch.setattr(tensor_core, "correlate_slice", spy)
        probs, cache = forward(model, x, training=False)
        # one correlation per block per tile
        assert taps == list(model.config.conv_kernels) * 42
        np.testing.assert_allclose(probs, expected_probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cache["features"], expected_features, rtol=0, atol=1e-12)
        assert np.array_equal(probs.argmax(axis=1), expected_probs.argmax(axis=1))

    def test_kernels_are_prepared_once_per_forward(self, monkeypatch):
        # the tiles share each block's prepared (Winograd-transformed) kernels
        model = build(ArchConfig(self.LENGTH, 4, seed=7))
        x = np.random.default_rng(9).normal(size=(3, self.LENGTH))
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", 7 * TILE_COST)
        monkeypatch.setattr(tensor_core, "WORKERS", 2)
        shapes = []
        prepare = tensor_core.prepare_kernels
        monkeypatch.setattr(tensor_core, "prepare_kernels",
                            lambda kernels: shapes.append(kernels.shape) or prepare(kernels))
        tiles = tile_items(monkeypatch)
        for _ in range(2):
            forward(model, x, training=False)
        assert len(tiles) == 2 and all(len(items) == 18 for items in tiles)
        assert shapes == [block.kernels.shape for block in model.blocks] * 2


class TestWorkers:
    """The conv runs its slices on tensor_core.WORKERS threads; inference and
    a training step must give bitwise the same results at any worker count.
    At 64 floats per slice every conv of a 40-position series runs 5 or
    more slices: 5 per series for block 0's kernel gradient (8 taps, 1
    channel), 25 over the 5-series training batch, and more for the rest."""

    LENGTH = 40

    def model(self):
        model = build(ArchConfig(self.LENGTH, 4, cell_kind="lstm", dropout_rate=0.5, seed=9))
        rng = np.random.default_rng(10)
        for block in model.blocks:
            block.bn_moving_mean[...] = rng.normal(0.0, 0.5, block.bn_moving_mean.shape)
            block.bn_moving_var[...] = rng.uniform(0.5, 2.0, block.bn_moving_var.shape)
        return model

    def at_each_worker_count(self, monkeypatch, run):
        """run() at 1, 2 and 3 workers, with at least 5 slices per conv."""
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", 64)
        counts, results = [], []
        ordered_map = tensor_core.ordered_map

        def spy(fn, items, **kwargs):
            items = list(items)
            counts.append(len(items))
            return ordered_map(fn, items, **kwargs)

        monkeypatch.setattr(tensor_core, "ordered_map", spy)
        for workers in (1, 2, 3):
            monkeypatch.setattr(tensor_core, "WORKERS", workers)
            results.append(run())
        assert counts and min(counts) >= 5
        return results

    def test_inference_is_bitwise_the_same(self, monkeypatch):
        model = self.model()
        x = np.random.default_rng(11).normal(size=(5, self.LENGTH))
        results = self.at_each_worker_count(
            monkeypatch, lambda: forward(model, x, training=False))
        for probs, cache in results[1:]:
            assert np.array_equal(probs, results[0][0])
            assert np.array_equal(cache["features"], results[0][1]["features"])

    def test_training_step_is_bitwise_the_same(self, monkeypatch):
        # batch norm and ReLU walk the conv's slices: at 64 floats, one
        # position each (128 or 256 channels)
        rng = np.random.default_rng(12)
        x, y = rng.normal(size=(5, self.LENGTH)), np.eye(4)[[0, 3, 1, 2, 1]]

        def step():
            model = self.model()
            _, cache = forward(model, x, training=True, rng=Rng(13))
            loss, grads = backward(model, cache, y)
            return loss, grads, model.parameters()

        results = self.at_each_worker_count(monkeypatch, step)
        loss, grads, params = results[0]
        for other_loss, other_grads, other_params in results[1:]:
            assert other_loss == loss
            assert list(other_grads) == list(grads)
            for name in grads:
                assert np.array_equal(other_grads[name], grads[name]), name
            for name in params:  # the moving statistics the step updated
                assert np.array_equal(other_params[name], params[name]), name


class TestBackward:
    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    @pytest.mark.parametrize("filters, kernels", [((4, 5), (4, 3)), ((4, 5, 3), (4, 3, 2))],
                             ids=["2-blocks", "3-blocks"])
    def test_matches_finite_differences_end_to_end(self, kind, filters, kernels):
        # three blocks are the paper's depth: the last block recomputes its
        # y from the pooling's sums and its input, the middle block is
        # handed the last block's input gradient, and y0 is recomputed once
        # the middle block's y is freed
        self.check_step(ArchConfig(12, 3, cell_kind=kind, hidden_size=3,
                                   conv_filters=filters, conv_kernels=kernels,
                                   dropout_rate=0.0, seed=7))

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_one_block_step_matches_finite_differences_without_recompute(self, kind,
                                                                          monkeypatch):
        # a branch of one block has no block 0 to recompute: its block is
        # the last, which rebuilds y a slice at a time with correlate_slice,
        # so every conv1d_same is a training forward's, which takes moments
        calls = []
        conv = layers.conv1d_same
        monkeypatch.setattr(layers, "conv1d_same",
                            lambda *args, **kwargs: calls.append(kwargs) or conv(*args, **kwargs))
        self.check_step(ArchConfig(12, 3, cell_kind=kind, hidden_size=3,
                                   conv_filters=(4,), conv_kernels=(3,),
                                   dropout_rate=0.0, seed=7))
        assert calls and all(kwargs.get("moments") for kwargs in calls)

    @staticmethod
    def check_step(config):
        """A training step's gradients of every trainable parameter against
        central finite differences of the loss."""
        model = build(config)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 12))
        y = np.eye(3)[[0, 2, 1]]

        def loss():
            # dropout_rate 0 so the pass needs no rng and stays deterministic;
            # fresh moving stats each call so BN updates do not accumulate
            for block in model.blocks:
                block.bn_moving_mean[:] = 0
                block.bn_moving_var[:] = 1
            _, cache = forward(model, x, training=True, rng=Rng(0))
            l, _ = backward(model, cache, y)
            return l

        loss()  # populate cache path once
        _, cache = forward(model, x, training=True, rng=Rng(0))
        _, grads = backward(model, cache, y)
        assert set(grads) == set(model.trainable_parameters())

        for name, arr in model.trainable_parameters().items():
            def f(v, arr=arr):
                arr[...] = v
                return loss()
            numeric = numerical_grad(f, arr.copy())
            assert_grad_close(grads[name], numeric, 1e-4, name)

    def test_first_block_input_gradient_is_skipped(self, monkeypatch):
        # each block runs one conv backward, the last block's and block 0's
        # on a map of their output rows to their gradient, not an array, and
        # block 0's computes no gradient of the data, which no layer reads
        model = build(ArchConfig(20, 2, dropout_rate=0.0, seed=1))
        x = np.random.default_rng(3).normal(size=(4, 20))
        _, cache = forward(model, x, training=True, rng=Rng(0))
        calls = []
        conv_backward = layers.conv1d_same_backward

        def spy(inputs, kernels, grad_out, input_grad=True, **kwargs):
            grad_x, grad_kernels = conv_backward(inputs, kernels, grad_out, input_grad, **kwargs)
            calls.append((kernels.shape, callable(grad_out), grad_x is None))
            return grad_x, grad_kernels

        monkeypatch.setattr(layers, "conv1d_same_backward", spy)
        backward(model, cache, np.eye(2)[[0, 1, 1, 0]])
        assert calls == [((3, 256, 128), True, False), ((5, 128, 256), False, False),
                         ((8, 1, 128), True, True)]

    def test_loss_decreases_along_negative_gradient(self):
        model = build(ArchConfig(20, 2, dropout_rate=0.0, seed=1))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(8, 20))
        y = np.eye(2)[rng.integers(0, 2, size=8)]
        _, cache = forward(model, x, training=True, rng=Rng(0))
        loss0, grads = backward(model, cache, y)
        for name, arr in model.trainable_parameters().items():
            arr -= 0.05 * grads[name]
        for block in model.blocks:
            block.bn_moving_mean[:] = 0
            block.bn_moving_var[:] = 1
        _, cache = forward(model, x, training=True, rng=Rng(0))
        loss1, _ = backward(model, cache, y)
        assert loss1 < loss0


class TestRebuiltBlockInputs:
    """A training cache of block i > 0 keeps block i - 1's forward-time (a,
    b) instead of its input, which the conv backward rebuilds from them
    and block i - 1's conv output y a slice at a time. Block 2's cache
    shares block 1's y and keeps no y of its own, only the pooling's sums;
    block 0's y, one conv of a one-channel input, is kept by neither cache:
    block 1's holds a tensor_core.ConvRows of the branch input instead, and
    each slice of its conv backward recomputes the rows of y0 it reads."""

    LENGTH = 40

    def test_blocks_past_the_first_cache_no_input(self):
        model = build(ArchConfig(self.LENGTH, 4, seed=2))
        x = np.random.default_rng(3).normal(size=(3, self.LENGTH))
        caches = forward(model, x, training=True, rng=Rng(0))[1]["conv_caches"]
        assert caches[0]["x"].shape == (3, self.LENGTH, 1) and caches[0]["relu"] is None
        assert [sorted(cache.keys() & {"x", "y", "pool_sums"}) for cache in caches] == [
            ["x"], ["x", "y"], ["pool_sums", "x"]]
        assert isinstance(caches[1]["x"], tensor_core.ConvRows)
        assert caches[1]["x"].shape == (3, self.LENGTH, 128)
        assert caches[2]["x"] is caches[1]["y"]
        assert [s.shape for s in caches[2]["pool_sums"]] == [(3, 128)] * 2
        for prev, cache in zip(caches, caches[1:]):
            assert cache["relu"] is prev["ab"]

    def test_backward_reads_block_0s_output_a_slice_at_a_time(self, monkeypatch):
        # at 64 floats per slice block 1's conv backward runs many slices on
        # 2 workers; each recomputes the rows of y0 it reads, halo included
        # and clipped to [0, L), through the ConvRows in block 1's cache,
        # and those rows are the forward's y0 to within the rounding of a
        # GEMM cut differently. The backward runs no whole conv
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", 64)
        monkeypatch.setattr(tensor_core, "WORKERS", 2)
        model = build(ArchConfig(self.LENGTH, 4, cell_kind="lstm", seed=9))
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(5, self.LENGTH)), np.eye(4)[[0, 3, 1, 2, 1]]
        calls, reads = [], []
        conv = layers.conv1d_same

        def spy(inputs, kernels, **kwargs):
            out = conv(inputs, kernels, **kwargs)
            calls.append((kernels, np.copy(out[0] if kwargs.get("moments") else out)))
            return out

        monkeypatch.setattr(layers, "conv1d_same", spy)
        monkeypatch.setattr(tensor_core, "conv1d_same", spy)
        _, cache = forward(model, x, training=True, rng=Rng(1))
        assert len(calls) == len(model.blocks)
        assert all(kernels is block.kernels for (kernels, _), block in zip(calls, model.blocks))
        y0 = calls[0][1]
        calls.clear()
        read, rows_of_y0 = tensor_core.ConvRows.__getitem__, cache["conv_caches"][1]["x"]

        def reader(rows, index):
            out = read(rows, index)
            if rows is rows_of_y0:
                reads.append((index, out.copy()))
            return out

        monkeypatch.setattr(tensor_core.ConvRows, "__getitem__", reader)
        backward(model, cache, y)
        assert calls == []
        assert len(reads) == len(list(tensor_core.slices((5, self.LENGTH), 5 * 128)))
        for (series, positions), rows in reads:
            assert 0 <= positions.start < positions.stop <= self.LENGTH
            assert max_rel_error(rows, y0[series, positions]) <= 1e-12

    def test_recomputed_rows_are_bitwise_the_forwards(self, monkeypatch):
        # at L = 1639 the conv backwards of blocks 1 and 2 cut every series
        # into slices, some off the last block's Winograd tile grid of 4
        # positions. Every row read through a ConvRows, y0's (block 1's input
        # and block 0's recompute) and y2's, is still the forward's to the
        # bit, since each read starts its tiles on the forward's grid
        length = 1639
        model = build(ArchConfig(length, 4, cell_kind="lstm", seed=9))
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(8, length)), np.eye(4)[rng.integers(0, 4, 8)]
        outputs, owners, reads = {}, {}, []
        conv, init = layers.conv1d_same, tensor_core.ConvRows.__init__
        read = tensor_core.ConvRows.__getitem__

        def spy(inputs, kernels, **kwargs):
            out = conv(inputs, kernels, **kwargs)
            outputs[id(kernels)] = np.copy(out[0])
            return out

        def spy_init(rows, inputs, kernels, relu=None):
            init(rows, inputs, kernels, relu)
            owners[id(rows)] = rows, kernels  # holds both, so that no id is reused

        def reader(rows, index):
            out = read(rows, index)
            series, positions = index
            expected = outputs[id(owners[id(rows)][1])][series, positions]
            reads.append((positions, np.array_equal(out, expected)))
            return out

        monkeypatch.setattr(layers, "conv1d_same", spy)
        monkeypatch.setattr(tensor_core.ConvRows, "__init__", spy_init)
        monkeypatch.setattr(tensor_core.ConvRows, "__getitem__", reader)
        _, cache = forward(model, x, training=True, rng=Rng(1))
        backward(model, cache, y)
        assert len(owners) == 3 and any(p.start % 4 for p, _ in reads)
        assert [same for _, same in reads] == [True] * len(reads)

    def test_step_reads_the_forwards_gamma_and_beta(self, monkeypatch):
        # 64 floats per slice cut every series, so the rebuild reaches both
        # padding edges; every block's gamma and beta change between the
        # second forward and its backward
        monkeypatch.setattr(tensor_core, "IM2COL_ELEMENTS", 64)
        model = build(ArchConfig(self.LENGTH, 4, cell_kind="lstm", dropout_rate=0.5, seed=9))
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(5, self.LENGTH)), np.eye(4)[[0, 3, 1, 2, 1]]

        def step(overwrite):
            _, cache = forward(model, x, training=True, rng=Rng(1))
            if overwrite:
                for block in model.blocks:
                    block.bn_gamma[...] = rng.normal(size=block.bn_gamma.shape)
                    block.bn_beta[...] = rng.normal(size=block.bn_beta.shape)
            return backward(model, cache, y)

        loss, grads = step(False)
        loss_after, grads_after = step(True)
        assert loss_after == loss
        for name, grad in grads.items():
            assert np.array_equal(grads_after[name], grad), name

    def traced_step(self, monkeypatch, batch=32):
        """Unit size, and the traced peaks of a training forward and of the
        whole step, on an Adiac shape (B = 128) or a scaled one at 2
        workers; a unit is one (B, L, 128) float64 block output."""
        monkeypatch.setattr(tensor_core, "WORKERS", 2)
        length = 176
        model = build(ArchConfig(length, 37, cell_kind="lstm", seed=3))
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(batch, length)), np.eye(37)[rng.integers(0, 37, batch)]
        tracemalloc.start()
        try:
            _, cache = forward(model, x, training=True, rng=Rng(1))
            forward_peak = tracemalloc.get_traced_memory()[1]
            backward(model, cache, y)
            return batch * length * 128 * 8, forward_peak, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_training_forward_peak_in_block_outputs(self, monkeypatch):
        unit, forward_peak, _ = self.traced_step(monkeypatch)
        # block 1's conv holds y0 (1 unit) and its output y1 (2): 3, and
        # about 1.25 more of its in-flight slices at 2 workers (4.25
        # measured). Block 2's conv holds y1 and its output y2 (1), since
        # block 0's cache drops y0 once block 1 has read it: 3, and about
        # 1.1 (4.10). Keeping y0 to the backward adds 1 to block 2's (5.10);
        # keeping block 1's output alive for block 2's conv, 2 more.
        assert forward_peak < 4.7 * unit

    # The step's block arrays peak at 4 units, at two moments. Block 2's
    # conv backward holds block 1's y (2) and its input gradient (2): it
    # keeps no y of its own, and recomputes y2 a slice at a time and maps
    # its rows to their gradient. Block 1's couple pass holds its y (2) and
    # the gated gradient block 2 hands it (2). Block 1's conv backward holds
    # that gradient (2) and its own input gradient (1), gated as it is
    # written: it reads y0 a slice at a time, so no pass over y0 is left to
    # gate it. Slices, kernels and smaller arrays add a fixed amount, which
    # at B = 32 outweighs a unit: 5.82-5.91 units measured at B = 32, 4.49
    # at B = 128. Block 1's conv backward made a third 4-unit moment (6.47
    # and 4.63) when it held y0 whole, recomputed once block 1's y was
    # freed; the step peaked at 5 block arrays at two moments (6.63-6.75
    # and 5.43-5.45) when block 2 kept y2 and was handed the pooled
    # gradient as a (B, L, C) array, and y0 was recomputed before block 1's
    # backward; at 6 (8.11 at B = 32) when the cache kept y0 and block 1's
    # output gradient was written over its y; keeping block 2's y to its
    # end and dz in a new array added 3 more; caching blocks 1 and 2's
    # inputs as well, 3 more.
    def test_training_step_peak_in_block_outputs(self, monkeypatch):
        unit, _, peak = self.traced_step(monkeypatch)
        assert peak < 6.0 * unit

    def test_adiac_training_step_peak_in_block_outputs(self, monkeypatch):
        unit, _, peak = self.traced_step(monkeypatch, batch=128)
        assert peak < 4.6 * unit

    # the Coffee and Adiac shapes of the benchmark
    @pytest.mark.parametrize("batch, length, classes, cell",
                             [(28, 286, 2, "gru"), (128, 176, 37, "lstm")])
    def test_block_1s_backward_peaks_below_block_2s_conv_backward(self, batch, length,
                                                                  classes, cell):
        # block 1's backward holds at most 4 units, and its conv backward 3:
        # with y0 held whole beside block 1's output gradient and its input
        # gradient, it peaked 2.9 and 3.2 MiB above block 2's conv backward
        # (43.51 against 40.62 MiB at the Coffee shape), and set the step's
        # peak
        peaks = step_memory.phase_peaks(batch, length, classes, cell, workers=2)
        assert peaks["conv1 backward"] < peaks["conv2 conv backward"] == peaks["step"]

    def test_second_backward_on_one_cache_is_refused(self):
        model = build(ArchConfig(self.LENGTH, 4, seed=2))
        x = np.random.default_rng(3).normal(size=(3, self.LENGTH))
        _, cache = forward(model, x, training=True, rng=Rng(0))
        backward(model, cache, np.eye(4)[[0, 1, 2]])
        with pytest.raises(ValueError, match="already used by a backward pass"):
            backward(model, cache, np.eye(4)[[0, 1, 2]])


def test_failed_atomic_write_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "history.csv"
    write_atomic(path, [b"old\n"])

    def parts():
        yield b"new"
        raise OSError("disk full")
    with pytest.raises(OSError, match="disk full"):
        write_atomic(path, parts())
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["history.csv"]


class TestCheckpoint:
    def roundtrip(self, config, tmp_path, tag=""):
        model = build(config, rng=Rng(config.seed + 1000))
        path = tmp_path / f"model{tag}.ckpt"
        save_checkpoint(model, path)
        return model, load_checkpoint(path)

    def test_roundtrip_close_to_float32_precision(self, tmp_path):
        model, loaded = self.roundtrip(ArchConfig(60, 4, seed=5), tmp_path)
        for name, arr in model.parameters().items():
            assert np.max(np.abs(arr - loaded.parameters()[name])) < 1e-6, name
        assert loaded.config == model.config

    def test_roundtrip_predictions_match(self, tmp_path):
        model, loaded = self.roundtrip(ArchConfig(60, 4, seed=5), tmp_path)
        x = np.random.default_rng(0).normal(size=(4, 60))
        a, _ = forward(model, x, training=False)
        b, _ = forward(loaded, x, training=False)
        assert np.allclose(a, b, atol=1e-5)

    def test_magic_prefix_written(self, tmp_path):
        model = build(ArchConfig(10, 2))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        assert path.read_bytes().startswith(CHECKPOINT_MAGIC)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOTAMODL" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="bad checkpoint magic"):
            load_checkpoint(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + b'{"config":')
        with pytest.raises(CheckpointError, match="checkpoint header line is incomplete"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model = build(ArchConfig(10, 2))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(CheckpointError, match="payload holds"):
            load_checkpoint(path)

    def test_manifest_architecture_mismatch_rejected(self, tmp_path):
        import json
        model = build(ArchConfig(10, 2))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        body = raw[len(CHECKPOINT_MAGIC):]
        nl = body.index(b"\n")
        header = json.loads(body[:nl])
        header["manifest"][0][1] = [9, 9, 9]
        doctored = CHECKPOINT_MAGIC + json.dumps(header).encode() + b"\n" + body[nl + 1:]
        path.write_bytes(doctored)
        with pytest.raises(CheckpointError, match="manifest does not match the declared"):
            load_checkpoint(path)

    def test_failed_write_keeps_earlier_checkpoint(self, tmp_path):
        model = build(ArchConfig(10, 2))
        path = tmp_path / "best.ckpt"
        save_checkpoint(model, path)
        before = path.read_bytes()
        # conv0.bias, the second tensor, cannot become float32: the write
        # fails after conv0.kernels is out
        model.blocks[0].bias = np.full(model.blocks[0].bias.shape, "x", dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]

    @pytest.mark.parametrize("bad", [1e39, -1e39, np.nan, np.inf])
    def test_tensor_not_finite_in_float32_is_refused_before_writing(self, tmp_path,
                                                                    monkeypatch, bad):
        model = build(ArchConfig(10, 2))
        path = tmp_path / "best.ckpt"
        save_checkpoint(model, path)
        before = path.read_bytes()
        model.blocks[1].bn_moving_var[3] = bad
        opened = []
        monkeypatch.setattr(model_mod, "open", raising=False,
                            value=lambda *a, **k: opened.append(a) or open(*a, **k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the cast's overflow is reported, not warned
            with pytest.raises(CheckpointError, match="tensor conv1.bn_moving_var "):
                save_checkpoint(model, path)
        assert opened == []
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, bad):
        model = build(ArchConfig(10, 2))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        set_checkpoint_value(path, "cell.W_x", bad)
        set_checkpoint_value(path, "head.W", bad)
        with pytest.raises(CheckpointError, match="cell.W_x holds NaN or Inf"):
            load_checkpoint(path)

    @pytest.mark.parametrize("changes", [
        {"dropout": 0.5}, {"seed": MISSING}, {"cell_kind": "rnn"}, {"conv_filters": 128},
        {"conv_filters": [], "conv_kernels": []}, {"bn_epsilon": -10}, {"bn_epsilon": 0},
        {"bn_epsilon": "x"}, {"bn_epsilon": float("nan")}, {"bn_epsilon": float("inf")},
        {"bn_momentum": None}, {"bn_momentum": 1.5}, {"bn_momentum": -0.1},
        {"series_length": 10.0}, {"hidden_size": 8.0}, {"conv_filters": [math.inf, 256, 128]},
    ], ids=["unknown-key", "missing-key", "bad-cell-kind", "bad-filters",
            "empty-convs", "negative-bn-epsilon", "zero-bn-epsilon", "string-bn-epsilon",
            "nan-bn-epsilon", "inf-bn-epsilon", "null-bn-momentum", "bn-momentum-above-one",
            "negative-bn-momentum", "float-series-length", "float-hidden-size",
            "infinite-conv-filters"])
    def test_bad_header_config_rejected(self, tmp_path, changes):
        import json
        path = tmp_path / "m.ckpt"
        save_checkpoint(build(ArchConfig(10, 2)), path)
        body = path.read_bytes()[len(CHECKPOINT_MAGIC):]
        nl = body.index(b"\n")
        header = json.loads(body[:nl])
        for key, value in changes.items():
            if value is MISSING:
                del header["config"][key]
            else:
                header["config"][key] = value
        path.write_bytes(CHECKPOINT_MAGIC + json.dumps(header).encode() + body[nl:])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_deeply_nested_header_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + b"[" * 100_000 + b"\n")
        with pytest.raises(CheckpointError, match="unreadable checkpoint header"):
            load_checkpoint(path)

    def test_header_sizes_written_as_floats_load_by_the_configs_shapes(self, tmp_path):
        # 3.0 == 3, so the manifests match; the tensors take the config's shapes
        model = build(ArchConfig(10, 2))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        body = path.read_bytes()[len(CHECKPOINT_MAGIC):]
        nl = body.index(b"\n")
        header = json.loads(body[:nl])
        for entry in header["manifest"]:
            entry[1] = [float(n) for n in entry[1]]
        path.write_bytes(CHECKPOINT_MAGIC + json.dumps(header).encode() + body[nl:])
        loaded = load_checkpoint(path)
        for name, arr in model.parameters().items():
            assert loaded.parameters()[name].shape == arr.shape, name

    def test_payload_size_is_exact_past_int64(self, tmp_path):
        # the (2**62, 4) cell matrices hold 2**64 floats each, a count that
        # int64 products wrap to 0: a payload without them must not pass
        config = ArchConfig(2 ** 62, 2, hidden_size=4, conv_filters=(2,), conv_kernels=(3,))
        manifest = parameter_manifest(config)
        rest = sum(math.prod(shape) for _, shape in manifest if config.series_length not in shape)
        header = {"config": dataclasses.asdict(config),
                  "manifest": [[name, list(shape)] for name, shape in manifest]}
        path = tmp_path / "m.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + json.dumps(header).encode() + b"\n"
                         + bytes(4 * rest))
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(path)

    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip_random_architectures(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        config = ArchConfig(
            series_length=int(rng.integers(2, 120)),
            num_classes=int(rng.integers(2, 12)),
            cell_kind="gru" if seed % 2 == 0 else "lstm",
            hidden_size=int(rng.integers(1, 16)),
            conv_filters=tuple(int(f) for f in rng.integers(2, 32, size=n)),
            conv_kernels=tuple(int(k) for k in rng.integers(1, 9, size=n)),
            seed=seed,
        )
        model, loaded = self.roundtrip(config, tmp_path, tag=str(seed))
        for name, arr in model.parameters().items():
            assert np.max(np.abs(arr - loaded.parameters()[name])) < 1e-6, name


def _json_paths(node, prefix=()):
    """Every key path into a parsed JSON value, itself first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.integers(-2 ** 70, 2 ** 70)
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _variants(old):
    """Values near a header's number or list with a wrong type or size: the
    number as a float or string, negated, off by one, huge, infinite or NaN;
    the list one item short or long, or its numbers as floats."""
    if isinstance(old, list):
        return st.sampled_from([old[:-1], old + old[-1:],
                                [float(v) if isinstance(v, int) else v for v in old]])
    if isinstance(old, (int, float)) and not isinstance(old, bool):
        return st.sampled_from([float(old), str(old), -old, old + 1, old - 1, old * 2 ** 40,
                                math.inf, -math.inf, math.nan])
    return st.nothing()


class TestCheckpointFuzz:
    """load_checkpoint on mutations of a real small checkpoint returns a
    model or raises CheckpointError naming the file, and nothing else."""

    CONFIG = ArchConfig(6, 3, hidden_size=2, conv_filters=(2, 3), conv_kernels=(3, 2), seed=4)

    @pytest.fixture(scope="class")
    def original(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
        save_checkpoint(build(self.CONFIG), path)
        raw = path.read_bytes()
        newline = raw.index(b"\n", len(CHECKPOINT_MAGIC))
        return path, raw, json.loads(raw[len(CHECKPOINT_MAGIC):newline]), raw[newline:]

    @staticmethod
    @st.composite
    def mutations(draw, original):
        _, raw, header, payload = original
        kind = draw(st.sampled_from(["truncate", "flip", "edit"]))
        if kind == "truncate":
            return raw[:draw(st.integers(0, len(raw) - 1))]
        if kind == "flip":
            data = bytearray(raw)
            for _ in range(draw(st.integers(1, 4))):
                data[draw(st.integers(0, len(raw) - 1))] ^= draw(st.integers(1, 255))
            return bytes(data)
        header = json.loads(json.dumps(header))
        for _ in range(draw(st.integers(1, 3))):
            path = draw(st.sampled_from(list(_json_paths(header))))
            if not path:
                header = draw(JSON_VALUES)
                continue
            parent = header
            for key in path[:-1]:
                parent = parent[key]
            value = draw(st.just(MISSING) | JSON_VALUES | _variants(parent[path[-1]]))
            if value is MISSING:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            if isinstance(parent, dict) and draw(st.booleans()):
                parent[draw(st.text(max_size=6))] = draw(JSON_VALUES)
        return CHECKPOINT_MAGIC + json.dumps(header).encode("utf-8") + payload

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_load_returns_a_model_or_raises_checkpoint_error(self, original, data):
        path = original[0].with_name("mutated.ckpt")
        path.write_bytes(data.draw(self.mutations(original)))
        try:
            loaded = load_checkpoint(path)
        except CheckpointError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            return
        assert isinstance(loaded, model_mod.GruFcnModel)
