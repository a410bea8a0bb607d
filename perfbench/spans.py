"""In-memory span recording around calls into grufcn's public functions.

A :class:`Tracer` replaces a function under the exact name its caller
resolves (``layers`` imports ``conv1d_same`` by name, ``train`` imports
``save_checkpoint`` by name, ``cli`` goes through module attributes), records
one span per call, and puts every original back when the ``patched`` block
ends. Spans stay in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

CONV_INDEX = {8: 0, 5: 1, 3: 2}  # kernel size -> block, for the paper's 8/5/3 branch
MIB = float(1 << 20)


class SetupReached(Exception):
    """Raised from a stop point to end a set-up-only invocation."""


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Point:
    """One function to wrap: where callers resolve it and how to name it."""

    module: str
    attr: str
    name: str
    label: Callable | None = None   # (args, kwargs) -> suffix such as "conv1", or None
    info: Callable | None = None    # (args, kwargs, result) -> dict, run after the span closes


def _arg(args, kwargs, index: int, name: str):
    """An argument by keyword or position; None when the call omits it."""
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _conv_label(args, kwargs):
    kernels = _arg(args, kwargs, 1, "kernels")
    index = CONV_INDEX.get(getattr(kernels, "shape", (None,))[0])
    return None if index is None else f"conv{index}"


def _conv_fwd_info(args, kwargs, result):
    x, kernels = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "kernels")
    k, c_in, c_out = kernels.shape
    positions = np.size(x) // c_in  # batch * length
    return {"gflop": 2.0 * positions * k * c_in * c_out / 1e9,
            "im2col_mib": positions * k * c_in * 8 / MIB}


def _conv_bwd_info(args, kwargs, result):
    x, kernels = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "kernels")
    k, c_in, c_out = kernels.shape
    positions = np.size(x) // c_in
    # kernel gradient and input gradient, each one forward's worth of MACs
    return {"gflop": 4.0 * positions * k * c_in * c_out / 1e9}


def _forward_info(args, kwargs, result):
    return {"training": bool(_arg(args, kwargs, 2, "training")),
            "batch": len(_arg(args, kwargs, 1, "batch")), "probs": result[0]}


def _adam_info(args, kwargs, result):
    grads = _arg(args, kwargs, 2, "grads")
    zero = {name: int(g.size - np.count_nonzero(g)) for name, g in grads.items()}
    return {"zero_elems": sum(zero.values()),
            "elems": sum(int(g.size) for g in grads.values()),
            "all_zero": sorted(n for n, g in grads.items() if zero[n] == g.size)}


def _fit_info(args, kwargs, result):
    return {"history": [(r.epoch, r.lr, r.train_loss, r.eval_loss, r.eval_error)
                        for r in result.history]}


def _dataset_info(args, kwargs, result):
    paths = (_arg(args, kwargs, 0, "train_path"), _arg(args, kwargs, 1, "test_path"))
    return {"mib": sum(Path(p).stat().st_size for p in paths) / MIB}


_FORWARD = Point("grufcn.model", "forward", "model.forward", info=_forward_info)
_LR_AT = Point("grufcn.train", "lr_at", "train.lr_at")  # marks each epoch's start
_FIT = Point("grufcn.train", "fit", "train.fit", info=_fit_info)
_RANK = Point("grufcn.metrics", "rank_models", "metrics.rank_models")

# Boundary points: enough to time epochs, steps, chunks and set-up. The timed
# run patches only these, so it adds a few calls per batch.
BOUNDARY = (_FORWARD, Point("grufcn.train", "adam_step", "train.adam_step"),
            _LR_AT, _FIT, _RANK)

# Every layer boundary the per-layer metrics name, for the traced run.
LAYERS = (
    _FORWARD, _LR_AT, _FIT, _RANK,
    Point("grufcn.train", "adam_step", "train.adam_step", info=_adam_info),
    Point("grufcn.layers", "conv1d_same", "tensor_core.conv1d_same",
          label=_conv_label, info=_conv_fwd_info),
    Point("grufcn.layers", "conv1d_same_backward", "tensor_core.conv1d_same_backward",
          label=_conv_label, info=_conv_bwd_info),
    Point("grufcn.layers", "conv_block_forward", "layers.conv_block_forward"),
    Point("grufcn.layers", "conv_block_backward", "layers.conv_block_backward"),
    Point("grufcn.layers", "gru_step", "layers.cell_step"),
    Point("grufcn.layers", "lstm_step", "layers.cell_step"),
    Point("grufcn.layers", "gru_backward", "layers.cell_backward"),
    Point("grufcn.layers", "lstm_backward", "layers.cell_backward"),
    Point("grufcn.layers", "dropout", "layers.dropout"),
    Point("grufcn.model", "backward", "model.backward"),
    Point("grufcn.model", "save_checkpoint", "model.save_checkpoint"),
    Point("grufcn.train", "save_checkpoint", "model.save_checkpoint"),
    Point("grufcn.model", "load_checkpoint", "model.load_checkpoint"),
    Point("grufcn.train", "evaluate", "train.evaluate"),
    Point("grufcn.data_ucr", "make_dataset", "data_ucr.make_dataset", info=_dataset_info),
    Point("grufcn.metrics", "wilcoxon_signed_rank", "metrics.wilcoxon_signed_rank"),
    Point("grufcn.metrics", "nemenyi_cd", "metrics.nemenyi_cd"),
    Point("grufcn.metrics", "cd_diagram_svg", "metrics.cd_diagram_svg"),
)


BLOCKS = ("layers.conv_block_forward", "layers.conv_block_backward")


class Tracer:
    """Collects spans (name, start, end, parent) for one invocation at a time."""

    def __init__(self, stop_at: frozenset = frozenset()):
        self.spans: list[Span] = []
        self.stop_at = stop_at
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def take(self) -> list[Span]:
        """The spans so far. A conv block span takes its conv child's block
        label, so blocks are told apart without reading their arguments."""
        spans, self.spans, self._stack = self.spans, [], []
        for child in spans:
            parent = spans[child.parent] if child.parent >= 0 else None
            if (parent is not None and parent.name in BLOCKS
                    and child.name.startswith("tensor_core.conv1d_same")
                    and child.name.count(".") == 2):
                parent.name += child.name[child.name.rindex("."):]
        return spans

    def _wrap(self, fn, point: Point):
        def wrapper(*args, **kwargs):
            name = point.name
            suffix = point.label(args, kwargs) if point.label is not None else None
            if suffix is not None:
                name = f"{name}.{suffix}"
            if point.name in self.stop_at:
                self.close(self.open(point.name))
                raise SetupReached(point.name)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if point.info is not None:
                self.spans[index].info = point.info(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def patched(self, points):
        saved = []
        try:
            for point in points:
                module = importlib.import_module(point.module)
                original = getattr(module, point.attr)
                saved.append((module, point.attr, original))
                setattr(module, point.attr, self._wrap(original, point))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover (children of
    one span never overlap: the program is single-threaded)."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def dump(spans: list[Span], path) -> None:
    """Write spans as JSON lines, dropping array-valued info."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            info = {k: v for k, v in s.info.items() if not isinstance(v, np.ndarray)}
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "info": info}) + "\n")
