"""Acceptance suite. Each test prints exactly one PASS/FAIL line for its
criterion before asserting, so the run log doubles as the acceptance report.

Criterion 3a needs the real benchmark archive on disk; point GRUFCN_UCR_ROOT
at it to enable that test, otherwise it reports SKIP.
"""

import os
import time
from dataclasses import fields

import numpy as np
import pytest
from gradcheck import max_rel_error, model_gradient_errors, numerical_grad

from grufcn import cli, layers, metrics
from grufcn.data_ucr import UcrDataset, find_split_files, make_dataset
from grufcn.model import ArchConfig, build, forward, load_checkpoint, save_checkpoint
from grufcn.tensor_core import Rng
from grufcn.train import TrainRun, evaluate, fit
from test_layers import make_conv_block, make_gru_cell, make_lstm_cell
from test_metrics import brute_force_wilcoxon

LAYER_TOL = 1e-5
END_TO_END_TOL = 1e-4


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {verdict}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_1_parameter_count_exactness(capsys):
    started = time.perf_counter()
    code = cli.main(["params", "--all", "--check"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    with capsys.disabled():
        report(
            1, "parameter-count exactness",
            code == 0 and "reference check: 0 mismatches" in out
            and "Total,23555876,23849100" in out and elapsed < 1.0,
            f"exit {code}, {elapsed:.2f}s",
        )


def _layer_instance_errors(seed):
    """Worst finite-difference relative error over one randomized instance of
    every layer backward."""
    rng = np.random.default_rng(seed)
    worst = 0.0

    # conv + batch-norm + ReLU block
    k = int(rng.integers(2, 6))
    c_in = int(rng.integers(1, 3))
    c_out = int(rng.integers(1, 4))
    block = make_conv_block(rng, k, c_in, c_out)
    x = rng.normal(size=(2, 8, c_in))
    grad_out = rng.normal(size=(2, 8, c_out))
    _, cache = layers.conv_block_forward(block, x)
    grad_x, grads = layers.conv_block_backward(cache, grad_out.copy())

    def conv_loss(arr, v):
        arr[...] = v
        (h, (a, b)), _ = layers.conv_block_forward(block, x)
        return float(np.sum(np.maximum(h * a + b, 0.0) * grad_out))

    worst = max(worst, max_rel_error(
        grad_x, numerical_grad(lambda v: conv_loss(x, v), x.copy())))
    # every tensor but the moving statistics; batch norm cancels the bias,
    # which gets no analytic gradient and must have a zero numeric one
    assert list(grads) == list(layers.ConvBlock.TRAINED)
    for name in ("kernels", "bias", "bn_gamma", "bn_beta"):
        arr = getattr(block, name)
        worst = max(worst, max_rel_error(
            grads.get(name, np.zeros_like(arr)),
            numerical_grad(lambda v, a=arr: conv_loss(a, v), arr.copy())))

    # recurrent cells, one step from a zero state; every tensor is checked:
    # a trained one against its analytic gradient, one the zero state leaves
    # untrained against zero
    for step, backward, make_cell in ((layers.gru_step, layers.gru_backward, make_gru_cell),
                                      (layers.lstm_step, layers.lstm_backward, make_lstm_cell)):
        n_in, hidden = 3, 3
        cell = make_cell(rng, n_in, hidden)
        xt = rng.normal(size=(2, n_in))
        grad_h = rng.normal(size=(2, hidden))
        _, cache = step(cell, xt)
        cell_grads = backward(cache, grad_h)
        assert list(cell_grads) == list(type(cell).TRAINED)

        def cell_loss(arr, v):
            arr[...] = v
            h, _ = step(cell, xt)
            return float(np.sum(h * grad_h))

        for f in fields(cell):
            arr = getattr(cell, f.name)
            worst = max(worst, max_rel_error(
                cell_grads.get(f.name, np.zeros_like(arr)),
                numerical_grad(lambda v, a=arr: cell_loss(a, v), arr.copy())))

    # global average pooling: the last block's backward takes its gradient
    # as grad_out / L at every position
    x = rng.normal(size=(2, 5, 3))
    grad_out = rng.normal(size=(2, 3))
    worst = max(worst, max_rel_error(
        np.repeat((grad_out / 5)[:, None, :], 5, axis=1),
        numerical_grad(
            lambda v: float(np.sum(v.mean(axis=1) * grad_out)), x.copy())))

    # dense softmax cross-entropy head
    head = layers.DenseSoftmax(W=rng.normal(size=(4, 3)), b=rng.normal(size=3))
    x = rng.normal(size=(2, 4))
    y = np.eye(3)[rng.integers(0, 3, size=2)]
    grad_x, grads = layers.dense_softmax_backward(head, x, layers.dense_softmax(head, x), y)

    def head_loss(arr, v):
        arr[...] = v
        return float(np.mean(layers.cross_entropy(layers.dense_softmax(head, x), y)))

    for name, arr in (("W", head.W), ("b", head.b)):
        worst = max(worst, max_rel_error(
            grads[name], numerical_grad(lambda v, a=arr: head_loss(a, v), arr.copy())))
    worst = max(worst, max_rel_error(
        grad_x, numerical_grad(lambda v: head_loss(x, v), x.copy())))
    return worst


def _end_to_end_instance_error(seed):
    rng = np.random.default_rng(10_000 + seed)
    config = ArchConfig(
        series_length=int(rng.integers(6, 12)),
        num_classes=int(rng.integers(2, 4)),
        cell_kind="gru" if seed % 2 == 0 else "lstm",
        hidden_size=2,
        conv_filters=(3, 4),
        conv_kernels=(3, 2),
        dropout_rate=0.0,
        seed=seed,
    )
    model = build(config)
    x = rng.normal(size=(3, config.series_length))
    y = np.eye(config.num_classes)[rng.integers(0, config.num_classes, size=3)]
    return max(model_gradient_errors(model, x, y).values())


def test_criterion_2_gradient_checks(capsys):
    started = time.perf_counter()
    layer_worst = max(_layer_instance_errors(seed) for seed in range(20))
    end_worst = max(_end_to_end_instance_error(seed) for seed in range(20))
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        report(
            2, "gradient checks",
            layer_worst <= LAYER_TOL and end_worst <= END_TO_END_TOL
            and elapsed < 60.0,
            f"layer worst {layer_worst:.2e} (tol {LAYER_TOL}), "
            f"end-to-end worst {end_worst:.2e} (tol {END_TO_END_TOL}), "
            f"{elapsed:.1f}s",
        )


def test_criterion_3a_coffee_reproduction(capsys):
    root = os.environ.get(cli.ROOT_ENV_VAR)
    if not root:
        with capsys.disabled():
            print(f"[criterion 3a] Coffee test error: SKIP "
                  f"(benchmark archive not available; set {cli.ROOT_ENV_VAR})")
        pytest.skip(f"{cli.ROOT_ENV_VAR} not set")
    train_file, test_file = find_split_files(root, "Coffee")
    dataset = make_dataset(train_file, test_file, "Coffee")
    errors = []
    for seed in (0, 1, 2):
        model = build(ArchConfig(dataset.series_length, dataset.num_classes, seed=seed))
        run = fit(model, dataset, TrainRun(epochs=500, train_batch=64,
                                           eval_batch=64, seed=seed))
        errors.append(run.history[-1].eval_error)
    median = float(np.median(errors))
    with capsys.disabled():
        report(3, "Coffee test error (3a)", median <= 0.05,
               f"median over 3 seeds {median:.4f} <= 0.05, per-seed {errors}")


def make_separable_dataset():
    """64 constant series, +1 for one class and -1 for the other, L=32."""
    length, per_class = 32, 32
    x = np.concatenate([np.ones((per_class, length)), -np.ones((per_class, length))])
    y = np.concatenate([np.zeros(per_class, dtype=int), np.ones(per_class, dtype=int)])
    order = np.random.default_rng(0).permutation(len(y))
    return UcrDataset("separable", x[order], y[order], x[order], y[order],
                      {-1.0: 1, 1.0: 0})


def test_criterion_3b_synthetic_separable(capsys):
    dataset = make_separable_dataset()
    model = build(ArchConfig(32, 2, seed=0))
    run = fit(model, dataset, TrainRun(epochs=50, train_batch=64, eval_batch=64, seed=0))
    _, train_error = evaluate(model, dataset.train_x, dataset.train_y, eval_batch=64)
    final_loss = run.history[-1].train_loss
    with capsys.disabled():
        report(3, "synthetic separable (3b)",
               train_error == 0.0 and final_loss < np.log(2) / 10,
               f"train error {train_error}, final loss {final_loss:.4f} "
               f"< ln(2)/10 after 50 epochs")


def test_criterion_4_statistics_oracles(capsys):
    rng = np.random.default_rng(0)
    wilcoxon_ok = True
    for trial in range(120):
        n = int(rng.integers(1, 13))
        a = rng.integers(0, 6, size=n) / 4.0
        b = rng.integers(0, 6, size=n) / 4.0
        if np.all(a == b):
            a = a + 0.25
        res = metrics.wilcoxon_signed_rank(a, b)
        w_ref, p_ref = brute_force_wilcoxon(a, b)
        if not (res.exact and res.statistic == w_ref and res.pvalue == p_ref):
            wilcoxon_ok = False
            break

    ranks_ok = True
    for _ in range(200):
        k = int(rng.integers(2, 14))
        row = rng.integers(0, 5, size=k) / 10.0
        if abs(metrics.tie_average_ranks(row).sum() - k * (k + 1) / 2) > 1e-12:
            ranks_ok = False
            break

    # MPCE and macro-f1 against straight-line formula re-evaluations
    formulas_ok = True
    for _ in range(50):
        d = int(rng.integers(1, 10))
        errs = rng.random(d)
        classes = rng.integers(2, 40, size=d)
        direct = sum(e / c for e, c in zip(errs, classes)) / d
        if abs(metrics.mpce(errs, classes) - direct) > 1e-12:
            formulas_ok = False
            break
        truths = rng.integers(0, 3, size=30)
        preds = rng.integers(0, 3, size=30)
        conf = metrics.confusion_counts(preds, truths, 3)
        f1s = []
        for c in range(3):
            tp = np.sum((preds == c) & (truths == c))
            fp = np.sum((preds == c) & (truths != c))
            fn = np.sum((preds != c) & (truths == c))
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f1s.append(2 * p * r / (p + r) if p + r else 0.0)
        if abs(metrics.f1_scores(conf) - np.mean(f1s)) > 1e-12:
            formulas_ok = False
            break

    with capsys.disabled():
        report(4, "statistics oracles", wilcoxon_ok and ranks_ok and formulas_ok,
               f"wilcoxon bit-for-bit over 120 trials: {wilcoxon_ok}, "
               f"rank conservation: {ranks_ok}, mpce/f1 1e-12: {formulas_ok}")


def test_criterion_5_published_statistics(capsys):
    from importlib import resources
    path = resources.files("grufcn.data").joinpath("published_errors.csv")
    matrix = metrics.ErrorMatrix.from_csv(path)
    mean_ranks, no_best = metrics.rank_models(matrix, missing_mode="exclude")
    from grufcn.data_ucr import registry_lookup
    classes = np.asarray([registry_lookup(d).num_classes for d in matrix.datasets],
                         dtype=float)
    col = matrix.column("GRU-FCN")
    value_mpce = metrics.mpce(col, classes)
    rank = mean_ranks["GRU-FCN"]
    best = no_best["GRU-FCN"]
    ok = (best == 39
          and abs(rank - 2.947) <= 0.05
          and abs(value_mpce - 0.0308) <= 0.002)
    with capsys.disabled():
        report(5, "published-statistics reproduction", ok,
               f"no. best {best} (required exactly 39), "
               f"mean rank {rank:.3f} (2.947 +/- 0.05), "
               f"MPCE {value_mpce:.4f} (0.0308 +/- 0.002)")


def test_criterion_6_determinism(capsys, tmp_path):
    rng = np.random.default_rng(0)
    t = np.linspace(0, 1, 20)
    lines = []
    for label, sign in ((1, 1.0), (2, -1.0)):
        for _ in range(8):
            row = sign * np.sin(2 * np.pi * t) + 0.05 * rng.normal(size=20)
            lines.append(",".join([str(label)] + [f"{v:.6f}" for v in row]))
    train = tmp_path / "d_TRAIN.csv"
    test = tmp_path / "d_TEST.csv"
    train.write_text("\n".join(lines[:10]) + "\n")
    test.write_text("\n".join(lines[10:]) + "\n")

    def run(out):
        return cli.main([
            "train", "--train-path", str(train), "--test-path", str(test),
            "--out", str(out), "--epochs", "3", "--train-batch", "4",
            "--eval-batch", "4", "--seed", "7",
        ])

    ok = run(tmp_path / "a") == 0 and run(tmp_path / "b") == 0
    identical = []
    for name in ("history.csv", "best.ckpt", "final.ckpt"):
        same = ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())
        identical.append((name, same))
    capsys.readouterr()
    with capsys.disabled():
        report(6, "training determinism",
               ok and all(same for _, same in identical),
               "byte-identical: " + ", ".join(f"{n}={s}" for n, s in identical))


def test_criterion_7_checkpoint_roundtrip(capsys, tmp_path):
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(50):
        config = ArchConfig(
            series_length=int(rng.integers(2, 200)),
            num_classes=int(rng.integers(2, 40)),
            cell_kind="gru" if i % 2 == 0 else "lstm",
            seed=i,
        )
        model = build(config, rng=Rng(1000 + i))
        path = tmp_path / f"m{i}.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        x = rng.normal(size=(4, config.series_length))
        a, _ = forward(model, x, training=False)
        b, _ = forward(loaded, x, training=False)
        worst = max(worst, float(np.max(np.abs(a - b))))
    with capsys.disabled():
        report(7, "checkpoint round-trip", worst <= 1e-6,
               f"worst probability deviation {worst:.2e} <= 1e-6 over 50 configs")
