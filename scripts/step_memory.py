#!/usr/bin/env python3
"""Per-phase memory peaks of one training step, traced with tracemalloc.

Builds the paper's model for series of length L, runs one untraced training
step to build the cached kernel transforms and the thread pool, then traces
a second step on the same batch of B random series and prints, in the order
the phases start, the most memory traced at once during each of them: each
conv block's forward, its backward, and within that backward its
output-gradient pass and its conv backward, then the whole step. A peak
counts every array alive at that moment, not only the phase's own.

    PYTHONPATH=src python scripts/step_memory.py --batch 28 --length 286
    PYTHONPATH=src python scripts/step_memory.py --batch 128 --length 176 \\
        --classes 37 --cell lstm

--workers sets tensor_core.WORKERS, the conv slices run at once (2 by
default, as the benchmark runs on two cores).
"""

import argparse
import tracemalloc

import numpy as np

from grufcn import layers, tensor_core
from grufcn.model import ArchConfig, backward, build, forward
from grufcn.tensor_core import Rng

MIB = 1 << 20


class Phases:
    """The traced peak of each named phase, phases nested inside others
    counting toward them too."""

    def __init__(self):
        self.peaks, self.open = {}, []

    def _fold(self):
        peak = tracemalloc.get_traced_memory()[1]
        for name in self.open:
            self.peaks[name] = max(self.peaks[name], peak)
        tracemalloc.reset_peak()

    def wrap(self, fn, name_of):
        def wrapper(*args, **kwargs):
            self._fold()
            name = name_of(*args)
            self.open.append(name)
            self.peaks[name] = 0
            try:
                return fn(*args, **kwargs)
            finally:
                self._fold()
                self.open.remove(name)
        return wrapper


def phase_peaks(batch: int, length: int, classes: int = 2, cell: str = "gru",
                workers: int = 2) -> dict[str, int]:
    """{phase: peak bytes} of one traced training step, in the order the
    phases start, the whole step last; the module attributes it wraps and
    tensor_core.WORKERS are restored on return."""
    model = build(ArchConfig(length, classes, cell_kind=cell, seed=3))
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(batch, length)), np.eye(classes)[rng.integers(0, classes, batch)]
    index = {id(block): i for i, block in enumerate(model.blocks)}
    index.update({id(block.kernels): i for i, block in enumerate(model.blocks)})
    phases = Phases()
    points = {
        "conv_block_forward": lambda block, *_: f"conv{index[id(block)]} forward",
        "conv_block_backward": lambda cache, *_: f"conv{index[id(cache['block'])]} backward",
        "_output_grad": lambda cache, *_: f"conv{index[id(cache['block'])]} output grad",
        "conv1d_same_backward": lambda _, kernels, *__: f"conv{index[id(kernels)]} conv backward",
    }
    saved = {name: getattr(layers, name) for name in points}
    saved_workers, tensor_core.WORKERS = tensor_core.WORKERS, workers

    def step():
        _, cache = forward(model, x, training=True, rng=Rng(1))
        backward(model, cache, y)

    try:
        step()  # builds the cached transforms and the pool outside the trace
        for name, name_of in points.items():
            setattr(layers, name, phases.wrap(saved[name], name_of))
        tracemalloc.start()
        try:
            phases.wrap(step, lambda: "step")()
        finally:
            tracemalloc.stop()
    finally:
        for name, fn in saved.items():
            setattr(layers, name, fn)
        tensor_core.WORKERS = saved_workers
    phases.peaks["step"] = phases.peaks.pop("step")
    return phases.peaks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--length", type=int, required=True)
    parser.add_argument("--classes", type=int, default=2)
    parser.add_argument("--cell", choices=("gru", "lstm"), default="gru")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    peaks = phase_peaks(args.batch, args.length, args.classes, args.cell, args.workers)
    print("phase,peak_mib")
    for name, peak in peaks.items():
        print(f"{name},{peak / MIB:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
