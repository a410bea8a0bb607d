import numpy as np
import pytest

from grufcn import train as train_mod
from grufcn.data_ucr import UcrDataset
from grufcn.model import ArchConfig, backward, build, forward, load_checkpoint
from grufcn.tensor_core import Rng
from grufcn.train import (
    LR_FLOOR,
    AdamState,
    EpochRecord,
    LrSchedule,
    TrainRun,
    adam_step,
    evaluate,
    fit,
    lr_at,
    one_hot,
    write_history_csv,
)
from test_layers import traced_peak


def reference_adam(grad_fn, p0, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent scalar Adam oracle written straight from the update rule."""
    p, m, v = float(p0), 0.0, 0.0
    for t in range(1, steps + 1):
        g = grad_fn(p)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def make_synthetic(n_per_class, length, noise, seed):
    """Two linearly separable series shapes plus Gaussian noise."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 1, length)
    shapes = [np.sin(2 * np.pi * t), -np.sin(2 * np.pi * t)]
    xs, ys = [], []
    for label, shape in enumerate(shapes):
        xs.append(shape + noise * rng.normal(size=(n_per_class, length)))
        ys.append(np.full(n_per_class, label))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    order = rng.permutation(len(y))
    return x[order], y[order]


def make_synthetic_dataset(n_train=16, n_test=8, length=24, noise=0.05, seed=0):
    train_x, train_y = make_synthetic(n_train // 2, length, noise, seed)
    test_x, test_y = make_synthetic(n_test // 2, length, noise, seed + 1)
    return UcrDataset("synthetic", train_x, train_y, test_x, test_y,
                      {0.0: 0, 1.0: 1})


class TestAdam:
    def test_matches_scalar_oracle_over_fifty_steps(self):
        # quadratic bowl: grad(p) = 2 * (p - 3)
        grad_fn = lambda p: 2.0 * (p - 3.0)
        expected = reference_adam(grad_fn, p0=-1.0, lr=0.05, steps=50)

        state = AdamState(lr=0.05)
        params = {"p": np.array([-1.0])}
        for _ in range(50):
            adam_step(state, params, {"p": 2.0 * (params["p"] - 3.0)})
        assert abs(float(params["p"][0]) - expected) < 1e-12

    def test_first_step_size_is_lr(self):
        # bias correction makes the first update lr * g/|g| up to epsilon
        for g in (1e-6, 1.0, 1e6):
            state = AdamState(lr=0.01)
            params = {"p": np.array([0.0])}
            adam_step(state, params, {"p": np.array([g])})
            # epsilon shaves ~g/(|g|+eps) off; visible only for tiny gradients
            assert float(params["p"][0]) == pytest.approx(-0.01, rel=0.02)

    def test_zero_gradient_is_a_no_op(self):
        state = AdamState(lr=0.1)
        params = {"p": np.array([2.5, -1.0])}
        before = params["p"].copy()
        for _ in range(3):
            adam_step(state, params, {"p": np.zeros(2)})
        assert np.array_equal(params["p"], before)

    def test_shape_mismatch_rejected(self):
        state = AdamState()
        with pytest.raises(ValueError, match=r"gradient shape \(4,\) != parameter shape \(3,\)"):
            adam_step(state, {"p": np.zeros(3)}, {"p": np.zeros(4)})

    def test_in_place_update_is_bitwise_the_textbook_expressions(self):
        # the step updates m, v and p in place; every value must still round
        # exactly as the whole-array expressions of the update rule
        rng = np.random.default_rng(3)
        shapes = {"w": (5, 4, 3), "b": (3,)}
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        expected = {name: p.copy() for name, p in params.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        state = AdamState(lr=0.01)
        for t in range(1, 9):
            grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
                     for name, shape in shapes.items()}
            adam_step(state, params, grads)
            for name, g in grads.items():
                m[name] = 0.9 * m[name] + (1 - 0.9) * g
                v[name] = 0.999 * v[name] + (1 - 0.999) * g * g
                m_hat = m[name] / (1 - 0.9 ** t)
                v_hat = v[name] / (1 - 0.999 ** t)
                expected[name] -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
                assert np.array_equal(state.m[name], m[name]), name
                assert np.array_equal(state.v[name], v[name]), name
                assert np.array_equal(params[name], expected[name]), name

    def test_descends_on_quadratic(self):
        state = AdamState(lr=0.05)
        params = {"p": np.array([4.0])}
        for _ in range(500):
            adam_step(state, params, {"p": 2.0 * params["p"]})
        assert abs(float(params["p"][0])) < 0.05


class TestLrSchedule:
    def test_stepped_decay_values(self):
        s = LrSchedule()
        assert lr_at(s, 0) == 0.01
        assert lr_at(s, 99) == 0.01
        assert lr_at(s, 100) == pytest.approx(0.008)
        assert lr_at(s, 250) == pytest.approx(0.0064)
        assert lr_at(s, 2050) == pytest.approx(0.01 * 0.8 ** 20)
        assert lr_at(s, 2050) > LR_FLOOR
        assert lr_at(s, 2150) == LR_FLOOR  # 0.01 * 0.8**21 dips below the floor

    def test_non_increasing(self):
        s = LrSchedule()
        rates = [lr_at(s, e) for e in range(0, 3000, 7)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert all(r >= LR_FLOOR for r in rates)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_at(LrSchedule(), -1)


class TestOneHot:
    def test_simple(self):
        out = one_hot(np.array([2, 0, 1]), 3)
        assert np.array_equal(out, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])


class TestEvaluate:
    def test_chunking_does_not_change_result(self):
        model = build(ArchConfig(24, 2, seed=0))
        ds = make_synthetic_dataset()
        full = evaluate(model, ds.test_x, ds.test_y, eval_batch=len(ds.test_y))
        tiny = evaluate(model, ds.test_x, ds.test_y, eval_batch=1)
        assert full[0] == pytest.approx(tiny[0], rel=1e-12)
        assert full[1] == tiny[1]

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_is_refused(self, chunk):
        model = build(ArchConfig(24, 2, seed=0))
        ds = make_synthetic_dataset()
        with pytest.raises(ValueError, match=f"chunk must be at least 1, got {chunk}"):
            train_mod.predict_proba(model, ds.test_x, chunk)
        with pytest.raises(ValueError, match="chunk must be at least 1"):
            evaluate(model, ds.test_x, ds.test_y, eval_batch=chunk)

    def test_oversized_eval_batch_is_capped(self):
        model = build(ArchConfig(24, 2, seed=0))
        ds = make_synthetic_dataset()
        loss, err = evaluate(model, ds.test_x, ds.test_y, eval_batch=10_000)
        assert np.isfinite(loss) and 0.0 <= err <= 1.0


class TestFit:
    def test_rejects_empty_training_split(self):
        model = build(ArchConfig(24, 2))
        ds = make_synthetic_dataset()
        empty = UcrDataset("empty", ds.train_x[:0], ds.train_y[:0],
                           ds.test_x, ds.test_y, ds.label_map)
        with pytest.raises(ValueError, match="empty"):
            fit(model, empty, TrainRun(epochs=1, train_batch=4, eval_batch=4))

    def test_rejects_empty_evaluation_split_before_any_work(self, monkeypatch):
        # each epoch ends with an evaluation, which has nothing to score
        model = build(ArchConfig(24, 2))
        ds = make_synthetic_dataset()
        empty = UcrDataset("empty", ds.train_x, ds.train_y, ds.test_x[:0], ds.test_y[:0],
                           ds.label_map)
        monkeypatch.setattr(train_mod.model_mod, "forward",
                            lambda *args, **kwargs: pytest.fail("fit ran a forward pass"))
        with pytest.raises(ValueError, match="evaluation split is empty"):
            fit(model, empty, TrainRun(epochs=1, train_batch=4, eval_batch=4))

    def test_rejects_length_mismatch(self):
        model = build(ArchConfig(23, 2))
        with pytest.raises(ValueError, match="dataset length 24 != model series length 23"):
            fit(model, make_synthetic_dataset(),
                TrainRun(epochs=1, train_batch=4, eval_batch=4))

    @pytest.mark.parametrize("field", ["train_batch", "eval_batch"])
    @pytest.mark.parametrize("size", [0, -1])
    def test_batch_below_one_is_refused_before_any_work(self, monkeypatch, field, size):
        # range(0, n, -1) is empty: such a run would train nothing and report a loss
        model = build(ArchConfig(24, 2, seed=1))
        before = {k: v.copy() for k, v in model.parameters().items()}
        monkeypatch.setattr(train_mod.model_mod, "forward",
                            lambda *args, **kwargs: pytest.fail("fit ran a forward pass"))
        sizes = {"train_batch": 4, "eval_batch": 4, field: size}
        run = TrainRun(epochs=2, **sizes)
        with pytest.raises(ValueError, match=f"{field} must be at least 1, got {size}"):
            fit(model, make_synthetic_dataset(), run)
        assert run.history == []
        for name, arr in model.parameters().items():
            assert np.array_equal(arr, before[name]), name

    def test_zero_epochs_leaves_model_untouched(self):
        model = build(ArchConfig(24, 2, seed=1))
        before = {k: v.copy() for k, v in model.parameters().items()}
        run = fit(model, make_synthetic_dataset(),
                  TrainRun(epochs=0, train_batch=4, eval_batch=4))
        assert run.history == []
        for name, arr in model.parameters().items():
            assert np.array_equal(arr, before[name]), name

    def test_history_records_every_epoch(self):
        model = build(ArchConfig(24, 2, seed=1))
        run = fit(model, make_synthetic_dataset(),
                  TrainRun(epochs=3, train_batch=4, eval_batch=4, seed=5))
        assert [rec.epoch for rec in run.history] == [0, 1, 2]
        assert all(rec.lr == 0.01 for rec in run.history)
        assert all(np.isfinite(rec.train_loss) for rec in run.history)

    def test_deterministic_under_fixed_seed(self):
        results = []
        for _ in range(2):
            model = build(ArchConfig(24, 2, seed=9))
            run = fit(model, make_synthetic_dataset(),
                      TrainRun(epochs=3, train_batch=4, eval_batch=4, seed=9))
            results.append((run, {k: v.copy() for k, v in model.parameters().items()}))
        (run_a, params_a), (run_b, params_b) = results
        assert run_a.history == run_b.history
        for name in params_a:
            assert np.array_equal(params_a[name], params_b[name]), name

    def test_different_seed_changes_trajectory(self):
        def final_loss(seed):
            model = build(ArchConfig(24, 2, seed=9))
            run = fit(model, make_synthetic_dataset(),
                      TrainRun(epochs=2, train_batch=4, eval_batch=4, seed=seed))
            return run.history[-1].train_loss
        assert final_loss(1) != final_loss(2)

    def test_best_checkpoint_written_and_loadable(self, tmp_path):
        model = build(ArchConfig(24, 2, seed=2))
        ckpt = tmp_path / "best.ckpt"
        run = fit(model, make_synthetic_dataset(),
                  TrainRun(epochs=3, train_batch=4, eval_batch=4, seed=2,
                           best_checkpoint_path=str(ckpt)))
        assert ckpt.exists()
        assert run.best_eval_loss == min(rec.eval_loss for rec in run.history)
        loaded = load_checkpoint(ckpt)
        probs, _ = forward(loaded, make_synthetic_dataset().test_x, training=False)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_partial_final_batch_is_trained_on(self):
        # 16 train rows with batch 5 -> final mini-batch of 1; must not crash
        model = build(ArchConfig(24, 2, seed=3))
        run = fit(model, make_synthetic_dataset(),
                  TrainRun(epochs=1, train_batch=5, eval_batch=4))
        assert len(run.history) == 1

    @pytest.mark.parametrize("kind, frozen", [
        ("gru", {"U_zh", "W_rx", "U_rh", "b_r", "U_h"}),
        ("lstm", {"U_ih", "W_fx", "U_fh", "b_f", "U_gh", "U_oh"}),
    ])
    def test_zero_state_leaves_recurrent_tensors_untrained(self, monkeypatch, kind, frozen):
        # one step from a zero state: the U_* matrices, the GRU reset gate and
        # the LSTM forget gate never reach the output; batch norm cancels the
        # conv biases
        frozen = {f"cell.{name}" for name in frozen} | {f"conv{i}.bias" for i in range(3)}
        model = build(ArchConfig(24, 2, cell_kind=kind, seed=4))
        ds = make_synthetic_dataset()
        _, cache = forward(model, ds.train_x, training=True, rng=Rng(0))
        _, grads = backward(model, cache, one_hot(ds.train_y, 2))
        # backward returns a gradient, and no all-zero one, for exactly the
        # trainable tensors: every tensor but the moving statistics and frozen
        trainable = model.trainable_parameters().keys()
        assert grads.keys() == trainable
        assert all(np.any(g) for g in grads.values())
        assert {n for n in model.parameters() if "moving" not in n} - trainable == frozen
        before = {k: v.copy() for k, v in model.parameters().items()}
        states = []
        monkeypatch.setattr(train_mod, "adam_step",
                            lambda state, *a: states.append(state) or adam_step(state, *a))
        fit(model, ds, TrainRun(epochs=2, train_batch=4, eval_batch=4, seed=4))
        # Adam keeps moments for the trained tensors only
        assert states and states[-1].m.keys() == states[-1].v.keys() == trainable
        for name, arr in model.parameters().items():
            if name in frozen:
                assert np.array_equal(arr, before[name]), name
            elif name.startswith("cell."):
                assert not np.array_equal(arr, before[name]), name

    def test_step_arrays_die_before_the_next_step(self):
        # two steps of 8 series: the second forward must not run beside the
        # first step's forward cache or gradients, so fit peaks where one
        # step does once Adam's moments exist, plus the moments
        model = build(ArchConfig(32, 2, seed=1))
        ds = make_synthetic_dataset(n_train=16, n_test=2, length=32)
        state = AdamState()

        def step():
            _, cache = forward(model, ds.train_x[:8], training=True, rng=Rng(0))
            _, grads = backward(model, cache, one_hot(ds.train_y[:8], 2))
            adam_step(state, model.trainable_parameters(), grads)

        step()  # allocates the moments outside the trace
        one_step = traced_peak(step)
        moments = sum(m.nbytes + v.nbytes for m, v in zip(state.m.values(), state.v.values()))
        model = build(ArchConfig(32, 2, seed=1))
        two_steps = traced_peak(lambda: fit(model, ds, TrainRun(epochs=1, train_batch=8,
                                                                eval_batch=2)))
        assert two_steps <= one_step + moments + (1 << 18)

    def test_learns_separable_synthetic(self):
        model = build(ArchConfig(24, 2, seed=0))
        ds = make_synthetic_dataset(n_train=32, n_test=16)
        run = fit(model, ds, TrainRun(epochs=15, train_batch=8, eval_batch=16, seed=0))
        _, train_err = evaluate(model, ds.train_x, ds.train_y, eval_batch=32)
        assert train_err == 0.0
        assert run.history[-1].eval_error <= 0.25


class TestHistoryCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "history.csv"
        write_history_csv(path, [
            EpochRecord(0, 0.01, 1.234567891, 0.5, 0.125),
            EpochRecord(1, 0.008, 0.9, 0.4, 0.0),
        ])
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,lr,train_loss,eval_loss,eval_error"
        assert lines[1] == "0,0.010000,1.234568,0.500000,0.125000"
        assert lines[2] == "1,0.008000,0.900000,0.400000,0.000000"
