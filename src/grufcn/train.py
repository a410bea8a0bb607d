"""Adam optimizer, the stepped learning-rate decay schedule, and the epoch
training loop with best-checkpoint tracking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model as model_mod
from .layers import cross_entropy
from .metrics import error_rate
from .model import GruFcnModel, save_checkpoint, write_atomic
from .tensor_core import Rng

BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8
# the learning rate falls by LR_FACTOR every LR_INTERVAL epochs, to LR_FLOOR
LR_FACTOR, LR_INTERVAL, LR_FLOOR = 0.8, 100, 1e-4


@dataclass
class AdamState:
    lr: float = 0.01
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(state: AdamState, params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray]) -> None:
    """One bias-corrected Adam update, applied to params in place, as are
    the moments m and v; every operation rounds as the update rule reads."""
    state.t += 1
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(
                f"gradient shape {g.shape} != parameter shape {p.shape} for {name}"
            )
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= BETA1
        m += (1 - BETA1) * g
        v *= BETA2
        v += (1 - BETA2) * g * g
        v_hat = v / (1 - BETA2 ** state.t)
        p -= state.lr * (m / (1 - BETA1 ** state.t)) / (np.sqrt(v_hat, out=v_hat) + EPSILON)


@dataclass
class LrSchedule:
    initial: float = 0.01


def lr_at(schedule: LrSchedule, epoch: int) -> float:
    """max(LR_FLOOR, initial * LR_FACTOR^(epoch // LR_INTERVAL));
    non-increasing."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return max(LR_FLOOR, schedule.initial * LR_FACTOR ** (epoch // LR_INTERVAL))


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    eval_loss: float
    eval_error: float


@dataclass
class TrainRun:
    epochs: int
    train_batch: int
    eval_batch: int
    seed: int = 0
    schedule: LrSchedule = field(default_factory=LrSchedule)
    history: list[EpochRecord] = field(default_factory=list)
    best_checkpoint_path: str | None = None
    best_eval_loss: float = float("inf")


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    eye = np.eye(num_classes)
    return eye[np.asarray(labels, dtype=int)]


def predict_proba(net: GruFcnModel, x: np.ndarray, chunk: int) -> np.ndarray:
    """Inference-mode class probabilities for every row of x, one forward
    pass per chunk of at most chunk rows (chunk >= 1)."""
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk}")
    return np.concatenate([model_mod.forward(net, x[start:start + chunk], training=False)[0]
                           for start in range(0, x.shape[0], chunk)])


def evaluate(net: GruFcnModel, x: np.ndarray, y: np.ndarray,
             eval_batch: int) -> tuple[float, float]:
    """Inference-mode mean cross-entropy and error rate, chunked by
    eval_batch."""
    probs = predict_proba(net, x, eval_batch)
    loss = float(np.mean(cross_entropy(probs, one_hot(y, net.config.num_classes))))
    return loss, error_rate(np.argmax(probs, axis=1), y)


def fit(net: GruFcnModel, dataset, run: TrainRun) -> TrainRun:
    """Train for run.epochs epochs of seeded-shuffle mini-batches; after each
    epoch run a full inference pass on the evaluation split and checkpoint
    whenever its loss improves. An empty split, or one of another length than
    the model's, is refused before any work."""
    for name in ("train_batch", "eval_batch"):
        if getattr(run, name) < 1:
            raise ValueError(f"{name} must be at least 1, got {getattr(run, name)}")
    for split, x in (("training", dataset.train_x), ("evaluation", dataset.test_x)):
        if x.shape[0] == 0:
            raise ValueError(f"{split} split is empty")
    for split, x in (("dataset", dataset.train_x), ("evaluation split", dataset.test_x)):
        if x.shape[1] != net.config.series_length:
            raise ValueError(f"{split} length {x.shape[1]} != model series length "
                             f"{net.config.series_length}")
    n = dataset.train_x.shape[0]
    train_hot = one_hot(dataset.train_y, net.config.num_classes)
    adam = AdamState()
    dropout_rng = Rng(run.seed)
    for epoch in range(run.epochs):
        adam.lr = lr_at(run.schedule, epoch)
        order = Rng(run.seed + epoch).permutation(n)
        losses = []
        for start in range(0, n, run.train_batch):
            idx = order[start:start + run.train_batch]
            xb = dataset.train_x[idx]
            yb = train_hot[idx]
            _, cache = model_mod.forward(net, xb, training=True, rng=dropout_rng)
            loss, grads = model_mod.backward(net, cache, yb)
            losses.append(loss * len(idx))
            adam_step(adam, net.trainable_parameters(), grads)
            del cache, grads  # else they live through the next forward or the evaluation
        train_loss = sum(losses) / n
        eval_loss, eval_error = evaluate(
            net, dataset.test_x, dataset.test_y, run.eval_batch
        )
        run.history.append(EpochRecord(epoch, adam.lr, train_loss, eval_loss, eval_error))
        if eval_loss < run.best_eval_loss:
            run.best_eval_loss = eval_loss
            if run.best_checkpoint_path is not None:
                save_checkpoint(net, run.best_checkpoint_path)
    return run


def write_history_csv(path, history: list[EpochRecord]) -> None:
    """epoch,lr,train_loss,eval_loss,eval_error with 6-decimal fixed floats,
    written with write_atomic."""
    text = "epoch,lr,train_loss,eval_loss,eval_error\n" + "".join(
        f"{rec.epoch},{rec.lr:.6f},{rec.train_loss:.6f},"
        f"{rec.eval_loss:.6f},{rec.eval_error:.6f}\n" for rec in history)
    write_atomic(path, [text.encode("utf-8")])
