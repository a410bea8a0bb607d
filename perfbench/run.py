#!/usr/bin/env python3
"""Benchmark for grufcn: drives the ``grufcn`` CLI in process on seeded
synthetic inputs and prints end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload train-coffee --seed 1 --seconds 10 --trace 0

Run it from the repository root; it imports grufcn from ``src/``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` a traced pass adds spans around every
layer boundary and the metrics are the per-layer ones. perfbench/README.md
defines every metric.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads: one BLAS thread gives the steadiest medians.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import hashlib
import io
import json
import math
import platform
import shutil
import statistics
import tempfile
import time
import traceback
import tracemalloc
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import spans
import synth

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SPAN_DIR = ROOT / ".perfbench_out"
GOLDEN_PATH = HERE / "golden.json"
GOLDEN_SEED = 0

# Rounding-level tolerances for the golden comparison. Trained values pass
# through Adam steps, so they get more room than one forward pass does.
TRAIN_RTOL = 1e-6
TRAINED_PROB_ATOL = 1e-6
PROB_ATOL = 1e-9
STAT_RTOL = 1e-6


class BenchError(Exception):
    """The run measured nothing, so it has no result to print."""


@dataclass
class Invocation:
    """One ``grufcn`` CLI call and the spans recorded around it."""

    spans: list
    wall: float
    stdout: str
    error: str | None
    out_dir: Path
    peak_mib: float = 0.0
    setup_only: bool = False

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def setup_s(self, marker) -> float | None:
        """CLI start until the first call of ``marker``."""
        marks = self.named(marker)
        return marks[0].start - self.spans[0].start if marks else None


def invoke(argv, out_dir, points, stop_at=frozenset(), trace_memory=False) -> Invocation:
    from grufcn import cli

    tracer = spans.Tracer(stop_at)
    buf = io.StringIO()
    error, setup_only, peak = None, False, 0.0
    if trace_memory:
        # a fresh collector generation makes the peak independent of what
        # ran before: otherwise a collection lands at a different point
        gc.collect()
        tracemalloc.start()
    start = time.perf_counter()
    try:
        with tracer.patched(points), redirect_stdout(buf):
            root = tracer.open("cli")
            try:
                rc = cli.main([str(a) for a in argv])
            finally:
                tracer.close(root)
        if rc != 0:
            error = f"grufcn {argv[0]} exited with {rc}"
    except spans.SetupReached:
        setup_only = True
    except Exception:  # a failing op is counted and the run goes on
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    if trace_memory:
        peak = tracemalloc.get_traced_memory()[1] / spans.MIB
        tracemalloc.stop()
    if error:
        print(f"op failed: {' '.join(map(str, argv))}\n{error}", file=sys.stderr)
    return Invocation(tracer.take(), wall, buf.getvalue(), error, out_dir,
                      peak, setup_only)


def close_rel(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(1.0, abs(b))


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else ""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Case:
    """Inputs written for one seed. ``golden`` marks the inputs the stored
    golden values were generated from."""

    seed: int
    files: dict
    pick: list = field(default_factory=list)
    golden: bool = False


class TrainWorkload:
    """``grufcn train`` on a registry-shaped synthetic dataset. One op is
    one epoch: its training batches plus its eval pass."""

    marker = "model.forward"
    names = {"op_s": "epoch_s", "items_per_s": "train_series_per_s"}

    def __init__(self, name, why, dataset, cell, length, classes, sizes, epochs,
                 golden_sizes, setup_burst):
        self.name, self.why, self.dataset, self.cell = name, why, dataset, cell
        self.length, self.classes = length, classes
        self.sizes, self.golden_sizes = sizes, golden_sizes
        self.epochs = epochs
        self.setup_burst = setup_burst

    def prepare(self, seed, work, golden=False) -> Case:
        n_train, n_test = self.golden_sizes if golden else self.sizes
        tag = "golden" if golden else f"seed{seed}"
        files = {"train": work / f"{self.dataset}_{tag}_TRAIN.tsv",
                 "test": work / f"{self.dataset}_{tag}_TEST.tsv"}
        synth.train_splits(seed, self.length, self.classes, n_train, n_test,
                           files["train"], files["test"])
        return Case(seed, files, golden=golden)

    def memory_case(self, case, work) -> Case:
        """The golden inputs: the memory pass doubles as the golden check."""
        return self.prepare(GOLDEN_SEED, work, golden=True)

    def argv(self, case, out_dir):
        return ["train", "--dataset", self.dataset, "--train-path", case.files["train"],
                "--test-path", case.files["test"], "--cell", self.cell,
                "--epochs", self.epochs, "--seed", case.seed, "--out", out_dir]

    def ops(self, inv: Invocation) -> list[float]:
        """Epoch durations: each starts at its lr_at call, the last ends when
        fit returns."""
        starts = [s.start for s in inv.named("train.lr_at")]
        fit = inv.named("train.fit")
        if not fit:
            return []
        return [b - a for a, b in zip(starts, starts[1:] + [fit[0].end])]

    def items(self, inv: Invocation) -> tuple[int, float]:
        """Training series, and the time from each training forward to the
        end of its Adam step."""
        count, seconds, begun = 0, 0.0, None
        for s in inv.spans:
            if s.name == "model.forward" and s.info.get("training"):
                begun = s
            elif s.name == "train.adam_step" and begun is not None:
                count += begun.info["batch"]
                seconds += s.end - begun.start
                begun = None
        return count, seconds

    @staticmethod
    def history(inv):
        fit = inv.named("train.fit")
        return fit[0].info.get("history", []) if fit else []

    def final_probs(self, inv) -> np.ndarray:
        """Probabilities of the CLI's final test pass after training."""
        fit = inv.named("train.fit")
        after = [s.info["probs"] for s in inv.named("model.forward")
                 if fit and s.start >= fit[0].end]
        return np.concatenate(after) if after else np.zeros((0, self.classes))

    def digest(self, inv) -> str:
        return file_digest(inv.out_dir / "history.csv")

    def check(self, case, inv, golden, reference) -> tuple[int, int]:
        """(attempted, failed) epochs. Every epoch's losses must be finite and
        its LR follow the schedule; the golden inputs must reproduce the
        stored losses and final predictions; a repeat of the same inputs must
        reproduce the run's first history byte for byte."""
        from grufcn import train as train_mod

        attempted = self.epochs
        if inv.error:
            return attempted, attempted
        hist = self.history(inv)
        failed = attempted - len(hist)
        for epoch, lr, train_loss, eval_loss, eval_error in hist:
            failed += not (math.isfinite(train_loss) and math.isfinite(eval_loss)
                           and train_loss >= 0 and eval_loss >= 0 and 0 <= eval_error <= 1
                           and lr == train_mod.lr_at(train_mod.LrSchedule(), epoch))
        artifacts = ("history.csv", "best.ckpt", "final.ckpt", "summary.json")
        if not all((inv.out_dir / a).is_file() for a in artifacts):
            failed = attempted
        if case.golden:
            failed = max(failed, self.golden_mismatches(inv, golden))
        if reference is not None and (self.digest(inv) != self.digest(reference)
                                      or hist != self.history(reference)):
            failed = attempted
        return attempted, min(failed, attempted)

    def golden_mismatches(self, inv, golden) -> int:
        hist = self.history(inv)
        bad = abs(len(golden["history"]) - len(hist))
        for got, want in zip(hist, golden["history"]):
            bad += not (got[0] == want[0] and got[4] == want[4]
                        and all(close_rel(g, w, TRAIN_RTOL) for g, w in zip(got[1:4], want[1:4])))
        probs = self.final_probs(inv)
        want = np.asarray(golden["probs"])
        if (probs.shape != want.shape
                or np.argmax(probs, axis=1).tolist() != golden["predictions"]
                or not np.all(np.abs(probs - want) <= TRAINED_PROB_ATOL)):
            bad = max(bad, 1)
        return bad

    def golden_record(self, inv) -> dict:
        probs = self.final_probs(inv)
        return {"seed": GOLDEN_SEED, "sizes": list(self.golden_sizes),
                "history": [list(h) for h in self.history(inv)],
                "predictions": np.argmax(probs, axis=1).tolist(), "probs": probs.tolist()}


class InferWorkload:
    """``grufcn eval`` of a fixed checkpoint on a seeded subset of a fixed
    test pool, so the stored pool predictions check every chunk of every
    run. One op is one eval chunk."""

    marker = "model.forward"
    names = {"op_s": "infer_chunk_s", "items_per_s": "infer_series_per_s"}

    def __init__(self, name, why, dataset, length, classes, n_train, pool, n_test, chunk,
                 setup_burst):
        self.name, self.why, self.dataset = name, why, dataset
        self.length, self.classes = length, classes
        self.n_train, self.pool, self.n_test, self.chunk = n_train, pool, n_test, chunk
        self.setup_burst = setup_burst

    def prepare(self, seed, work, golden=False) -> Case:
        """A seeded training split (parsed, not used, as ``eval`` does) and a
        seeded choice of pool rows as the test split. The golden inputs are
        the whole pool."""
        from grufcn import model as model_mod

        files = {"train": work / f"{self.dataset}_TRAIN.tsv",
                 "test": work / f"{self.dataset}_TEST.tsv",
                 "checkpoint": work / f"{self.dataset}.ckpt"}
        labels, x = synth.infer_pool(self.length, self.classes, self.pool)
        if golden:
            pick = list(range(self.pool))
            synth.write_split(files["train"], labels[:self.chunk], x[:self.chunk])
        else:
            pick = synth.infer_train_split(seed, self.length, self.classes, self.n_train,
                                           self.pool, self.n_test, files["train"]).tolist()
        synth.write_split(files["test"], labels[pick], x[pick])
        synth.infer_checkpoint(model_mod, self.length, self.classes, files["checkpoint"])
        return Case(seed, files, pick, golden)

    def memory_case(self, case, work) -> Case:
        """The run's first chunk as the test split, and the same series as a
        small training split. The peak is the chunk's (2.8 GiB against 0.1
        GiB for parsing the full training split), and tracemalloc would slow
        that parse from 2 s to 10 s."""
        labels, x = synth.infer_pool(self.length, self.classes, self.pool)
        pick = case.pick[:self.chunk]
        files = {**case.files, "train": work / f"{self.dataset}_chunk_TRAIN.tsv",
                 "test": work / f"{self.dataset}_chunk_TEST.tsv"}
        synth.write_split(files["train"], labels[pick], x[pick])
        synth.write_split(files["test"], labels[pick], x[pick])
        return replace(case, files=files, pick=pick)

    def argv(self, case, out_dir):
        return ["eval", "--dataset", self.dataset, "--train-path", case.files["train"],
                "--test-path", case.files["test"], "--checkpoint", case.files["checkpoint"],
                "--eval-batch", self.chunk, "--predictions", out_dir / "predictions.csv"]

    def ops(self, inv):
        return [s.duration for s in inv.named("model.forward")]

    def items(self, inv):
        chunks = inv.named("model.forward")
        return sum(s.info["batch"] for s in chunks), sum(s.duration for s in chunks)

    def probs(self, inv) -> np.ndarray:
        chunks = [s.info["probs"] for s in inv.named("model.forward")]
        return np.concatenate(chunks) if chunks else np.zeros((0, self.classes))

    def digest(self, inv) -> str:
        return file_digest(inv.out_dir / "predictions.csv")

    def check(self, case, inv, golden, reference) -> tuple[int, int]:
        """(attempted, failed) chunks. Each chunk's predictions must equal the
        stored pool predictions and its probabilities match them within
        PROB_ATOL; the predictions file must agree with both."""
        attempted = -(-len(case.pick) // self.chunk)
        probs = self.probs(inv)
        want_p = np.asarray(golden["probs"])[case.pick]
        want_y = np.asarray(golden["predictions"])[case.pick]
        if inv.error or probs.shape != want_p.shape:
            return attempted, attempted
        failed = 0
        for start in range(0, len(case.pick), self.chunk):
            rows = slice(start, start + self.chunk)
            failed += not (np.array_equal(np.argmax(probs[rows], axis=1), want_y[rows])
                           and np.all(np.abs(probs[rows] - want_p[rows]) <= PROB_ATOL))
        path = inv.out_dir / "predictions.csv"
        lines = path.read_text().splitlines()[1:] if path.is_file() else []
        if [int(line.split(",")[1]) for line in lines] != want_y.tolist():
            failed = attempted
        return attempted, failed

    def golden_record(self, inv) -> dict:
        probs = self.probs(inv)
        return {"pool": self.pool, "predictions": np.argmax(probs, axis=1).tolist(),
                "probs": probs.tolist()}


class CompareWorkload:
    """``grufcn compare`` on the shipped table with seeded row and column
    order; the statistics must not depend on either. One op is one call."""

    marker = "metrics.rank_models"
    names = {"op_s": "compare_s", "items_per_s": "compare_calls_per_s"}
    setup_burst = 0

    def __init__(self, name, why):
        self.name, self.why = name, why

    def prepare(self, seed, work, golden=False) -> Case:
        path = work / f"errors_seed{seed}.csv"
        synth.permuted_error_table(None if golden else seed, path)
        return Case(seed, {"errors": path}, golden=golden)

    def memory_case(self, case, work) -> Case:
        """The shipped order: the peak of so small a call moves by about 10%
        with the row order, so a fixed order keeps it comparable."""
        return self.prepare(GOLDEN_SEED, work, golden=True)

    def argv(self, case, out_dir):
        return ["compare", "--errors", case.files["errors"], "--out", out_dir]

    def ops(self, inv):
        return [inv.spans[0].duration] if inv.spans and not inv.error else []

    def items(self, inv):
        ops = self.ops(inv)
        return len(ops), sum(ops)

    def digest(self, inv) -> str:
        return file_digest(inv.out_dir / "cd_diagram.svg")

    @staticmethod
    def parse(inv) -> dict:
        out = {"mean_rank": {}, "no_best": {}, "mpce": {}, "pvalues": {}}
        for line in inv.stdout.splitlines():
            if line.startswith("critical difference"):
                out["cd"] = float(line.rsplit(":", 1)[1])
            elif line.count(",") == 3 and not line.startswith("model,"):
                model, rank, best, mpce = line.split(",")
                out["mean_rank"][model] = float(rank)
                out["no_best"][model] = int(best)
                out["mpce"][model] = float(mpce)
        lines = (inv.out_dir / "wilcoxon_pvalues.csv").read_text().splitlines()
        models = lines[0].split(",")[1:]
        for line in lines[1:]:
            a, *cells = line.split(",")
            for b, cell in zip(models, cells):
                if cell:
                    out["pvalues"]["|".join(sorted((a, b)))] = float(cell)
        return out

    def check(self, case, inv, golden, reference) -> tuple[int, int]:
        """One op: ranks, "no. best", MPCE, every p-value and the CD must
        equal the stored values of the unpermuted table; the SVG must be
        the same as the run's first one."""
        if inv.error:
            return 1, 1
        try:
            got = self.parse(inv)
        except (OSError, ValueError, IndexError) as exc:
            print(f"compare output unreadable: {exc}", file=sys.stderr)
            return 1, 1
        ok = (got["no_best"] == golden["no_best"]
              and close_rel(got.get("cd", math.nan), golden["cd"], STAT_RTOL)
              and (reference is None or self.digest(inv) == self.digest(reference)))
        for key in ("mean_rank", "mpce", "pvalues"):
            ok = ok and got[key].keys() == golden[key].keys() and all(
                close_rel(got[key][k], golden[key][k], STAT_RTOL) for k in golden[key])
        return 1, int(not ok)

    def golden_record(self, inv) -> dict:
        return self.parse(inv)


WORKLOADS = {w.name: w for w in (
    TrainWorkload(
        "train-coffee",
        "Coffee shape (L=286, C=2, 28/28, GRU, batch 64): one partial batch per epoch; "
        "conv backward dominates, small-batch GEMMs",
        dataset="Coffee", cell="gru", length=286, classes=2, sizes=(28, 28), epochs=2,
        golden_sizes=(28, 28), setup_burst=10),
    TrainWorkload(
        "train-adiac-lstm",
        "Adiac shape (L=176, C=37, LSTM, batch 128): two full batches and a tail, so "
        "several Adam steps per epoch and large-batch GEMMs",
        dataset="Adiac", cell="lstm", length=176, classes=37, sizes=(262, 128), epochs=1,
        golden_sizes=(134, 128), setup_burst=15),
    InferWorkload(
        "infer-handoutlines",
        "HandOutlines shape (L=2709, chunk 64): forward-only eval of a checkpoint, no "
        "backward or Adam; forward conv, im2col memory, split parsing",
        dataset="HandOutlines", length=2709, classes=2, n_train=1000, pool=370,
        n_test=192, chunk=64, setup_burst=1),
    CompareWorkload(
        "compare-table",
        "shipped 85x13 error table in seeded order: ranks, 78 exact Wilcoxon tests, "
        "Nemenyi CD and SVG; the only workload that reaches metrics"),
)}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    v = sorted(values)
    if len(v) <= 10:
        return v[-1], 100.0
    i = len(v) - 11
    return v[i], 100.0 * (i + 1) / len(v)


def gradient_check(cell_kind: str) -> bool:
    """Central finite differences of model.backward on a tiny model, three
    elements of every trainable tensor."""
    from grufcn import model as model_mod
    from grufcn.tensor_core import Rng

    config = model_mod.ArchConfig(series_length=9, num_classes=3, cell_kind=cell_kind,
                                  hidden_size=3, conv_filters=(4, 5, 3), dropout_rate=0.5)
    net = model_mod.build(config)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 9))
    y = np.eye(3)[[0, 1, 2, 0, 1]]

    def loss_and_grads():
        _, cache = model_mod.forward(net, x, training=True, rng=Rng(3))
        return model_mod.backward(net, cache, y)

    _, grads = loss_and_grads()
    worst = 0.0
    for name, param in net.trainable_parameters().items():
        flat = param.reshape(-1)
        for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + 1e-6
            hi = loss_and_grads()[0]
            flat[i] = orig - 1e-6
            lo = loss_and_grads()[0]
            flat[i] = orig
            numeric = (hi - lo) / 2e-6
            analytic = grads[name].reshape(-1)[i]
            worst = max(worst, abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric)))
    return math.isfinite(worst) and worst <= 1e-5


# The end-to-end metrics the result line carries. op_s.tail is printed but
# not gated: with ten samples or fewer per run it is the maximum, which
# varies from run to run far more than the median does.
END_TO_END = ("setup_s", "op_s.p50", "items_per_s", "peak_alloc_mib")

LAYER_UNITS = {}
for _i in range(3):
    LAYER_UNITS[f"tensor_core.conv1d_same_backward.conv{_i}.s"] = "s"
    LAYER_UNITS[f"tensor_core.conv1d_same.conv{_i}.s"] = "s"
    LAYER_UNITS[f"layers.conv_block_forward.conv{_i}.self_s"] = "s"
    LAYER_UNITS[f"layers.conv_block_backward.conv{_i}.self_s"] = "s"
LAYER_UNITS.update({
    "tensor_core.conv1d_same.calls": "count",
    "tensor_core.conv1d_same_backward.calls": "count",
    "tensor_core.conv_fwd.gflop": "gflop",
    "tensor_core.conv_bwd.gflop": "gflop",
    "tensor_core.conv_fwd.gflop_per_s": "gflop/s",
    "tensor_core.conv_bwd.gflop_per_s": "gflop/s",
    "tensor_core.conv_fwd.im2col_mib": "MiB",
    "tensor_core.conv1d_same_backward.op_share": "ratio",
    "layers.cell_step.s": "s",
    "layers.cell_backward.s": "s",
    "layers.dropout.s": "s",
    "model.forward.self_s": "s",
    "model.backward.self_s": "s",
    "model.forward.calls": "count",
    "model.save_checkpoint.s": "s",
    "model.save_checkpoint.calls": "count",
    "model.load_checkpoint.s": "s",
    "train.adam_step.s": "s",
    "train.adam_step.calls": "count",
    "train.adam_step.frozen_elem_share": "ratio",
    "train.adam_step.frozen_tensors": "count",
    "train.evaluate.s": "s",
    "train.fit.self_s": "s",
    "data_ucr.make_dataset.s": "s",
    "data_ucr.make_dataset.mib": "MiB",
    "metrics.rank_models.s": "s",
    "metrics.wilcoxon_signed_rank.s": "s",
    "metrics.wilcoxon_signed_rank.calls": "count",
    "metrics.nemenyi_cd.s": "s",
    "metrics.cd_diagram_svg.s": "s",
    "cli.self_s": "s",
    "trace.unattributed_s": "s",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
})

# Counts that must repeat exactly for the same inputs, within a run and
# across runs.
COUNT_METRICS = tuple(k for k, u in LAYER_UNITS.items() if u in ("count", "gflop")) + (
    "tensor_core.conv_fwd.im2col_mib", "train.adam_step.frozen_elem_share",
    "data_ucr.make_dataset.mib")


def layer_metrics(workload, inv: Invocation) -> dict:
    """Per-layer numbers for one traced invocation. Times are seconds per
    invocation; ``self_s`` excludes the spans called from inside."""
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for s, st in zip(inv.spans, spans.self_times(inv.spans)):
        total[s.name] += s.duration
        own[s.name] += st
        calls[s.name] += 1

    def info_values(prefix, key):
        return [s.info[key] for s in inv.spans if s.name.startswith(prefix) and key in s.info]

    m = {}
    for i in range(3):
        for layer in ("tensor_core.conv1d_same", "tensor_core.conv1d_same_backward"):
            m[f"{layer}.conv{i}.s"] = total[f"{layer}.conv{i}"]
        for layer in ("layers.conv_block_forward", "layers.conv_block_backward"):
            m[f"{layer}.conv{i}.self_s"] = own[f"{layer}.conv{i}"]
    for key, layer in (("fwd", "tensor_core.conv1d_same"),
                       ("bwd", "tensor_core.conv1d_same_backward")):
        busy = sum(total[f"{layer}.conv{i}"] for i in range(3))
        gflop = sum(info_values(layer + ".", "gflop"))
        m[f"{layer}.calls"] = sum(calls[f"{layer}.conv{i}"] for i in range(3))
        m[f"tensor_core.conv_{key}.gflop"] = gflop
        m[f"tensor_core.conv_{key}.gflop_per_s"] = gflop / busy if busy else 0.0
    m["tensor_core.conv_fwd.im2col_mib"] = max(
        info_values("tensor_core.conv1d_same.", "im2col_mib"), default=0.0)
    op_total = sum(workload.ops(inv))
    bwd_busy = sum(total[f"tensor_core.conv1d_same_backward.conv{i}"] for i in range(3))
    m["tensor_core.conv1d_same_backward.op_share"] = bwd_busy / op_total if op_total else 0.0
    for name in ("layers.cell_step", "layers.cell_backward", "layers.dropout",
                 "model.save_checkpoint", "model.load_checkpoint", "train.adam_step",
                 "train.evaluate", "data_ucr.make_dataset", "metrics.rank_models",
                 "metrics.wilcoxon_signed_rank", "metrics.nemenyi_cd", "metrics.cd_diagram_svg"):
        m[f"{name}.s"] = total[name]
    for name in ("model.forward", "model.backward", "train.fit", "cli"):
        m[f"{name}.self_s"] = own[name]
    for name in ("model.forward", "model.save_checkpoint", "train.adam_step",
                 "metrics.wilcoxon_signed_rank"):
        m[f"{name}.calls"] = calls[name]
    adam = inv.named("train.adam_step")
    elems = sum(s.info["elems"] for s in adam)
    m["train.adam_step.frozen_elem_share"] = (
        sum(s.info["zero_elems"] for s in adam) / elems if elems else 0.0)
    m["train.adam_step.frozen_tensors"] = len(
        set.intersection(*(set(s.info["all_zero"]) for s in adam))) if adam else 0
    m["data_ucr.make_dataset.mib"] = sum(info_values("data_ucr.make_dataset", "mib"))
    # time in the invocation that no reported span owns: the epoch markers
    # and the glue between the benchmark's clock and the root span
    m["trace.unattributed_s"] = inv.wall - sum(own.values()) + own["train.lr_at"]
    return m


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": int(BLAS_THREADS),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """One benchmark run. Every op it attempts (epoch, chunk, compare call,
    gradient check) is counted, with those that raised or failed a check."""

    def __init__(self, workload, work, golden):
        self.wl, self.work, self.golden = workload, work, golden
        self.attempted = self.failed = 0
        self.setup_samples: list[float] = []
        self._outs = 0

    def count(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def call(self, case, points, **kwargs) -> Invocation:
        self._outs += 1
        out = self.work / f"out{self._outs}"
        out.mkdir()
        return invoke(self.wl.argv(case, out), out, points, **kwargs)

    def setups(self, case) -> None:
        """A burst of set-up-only invocations, each ended at the first
        forward (the first statistic for compare)."""
        for _ in range(self.wl.setup_burst):
            inv = self.call(case, spans.BOUNDARY, stop_at=frozenset({self.wl.marker}))
            if inv.setup_only:
                self.setup_samples.append(inv.setup_s(self.wl.marker))
            else:
                self.count(1, 1)

    def repeat(self, case, points, seconds, reference=None, with_setups=False):
        """Invocations on the same inputs, each checked against the first,
        for as long as the next one should still end within ``seconds``
        (at least one). With ``with_setups``, a set-up burst runs before each
        invocation and after the last: on a shared host the CPU speed drifts
        over seconds, and spreading the set-ups over the run keeps their
        median from catching one state."""
        invs = []
        start = last = time.perf_counter()
        while True:
            if with_setups:
                self.setups(case)
            inv = self.call(case, points)
            self.count(*self.wl.check(case, inv, self.golden, reference or
                                      (invs[0] if invs else None)))
            invs.append(inv)
            now = time.perf_counter()
            if (now - start) + (now - last) > seconds:
                break
            last = now
        if with_setups:
            self.setups(case)
        return invs

    def memory(self, case) -> Invocation:
        """The tracemalloc peak, in an invocation of its own, also checked."""
        inv = self.call(case, spans.BOUNDARY, trace_memory=True)
        self.count(*self.wl.check(case, inv, self.golden, None))
        return inv


def load_golden(name) -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)[name]


def run(workload, seed, seconds, trace) -> tuple[dict, dict]:
    """One run; returns (result object, report)."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        bench = Run(workload, work, load_golden(workload.name))
        bench.count(1, int(not gradient_check(getattr(workload, "cell", "gru"))))
        case = workload.prepare(seed, work)
        timed = bench.repeat(case, spans.BOUNDARY, seconds, with_setups=True)
        traced = bench.repeat(case, spans.LAYERS, seconds / 2, timed[0]) if trace else []
        memory = bench.memory(workload.memory_case(case, work))

        ops = [t for inv in timed for t in workload.ops(inv)]
        setup = bench.setup_samples + [
            s for s in (inv.setup_s(workload.marker) for inv in timed) if s is not None]
        n_items, busy = (sum(v) for v in zip(*(workload.items(inv) for inv in timed)))
        if not ops or not setup or not busy:
            raise BenchError("the timed pass completed no operation")
        tail_value, tail_pct = tail(ops)
        end_to_end = {
            "setup_s": (statistics.median(setup), "s"),
            "op_s.p50": (statistics.median(ops), "s"),
            "op_s.tail": (tail_value, "s"),
            "items_per_s": (n_items / busy, "1/s"),
            "peak_alloc_mib": (memory.peak_mib, "MiB"),
        }
        report = {
            "workload": workload.name, "seed": seed, "seconds": seconds,
            "environment": environment(),
            "op_samples": len(ops), "op_tail_percentile": tail_pct,
            "setup_samples": len(setup), "timed_invocations": len(timed),
            "digest": workload.digest(timed[0]),
        }
        metrics = {k: {"value": end_to_end[k][0], "unit": end_to_end[k][1]} for k in END_TO_END}
        if trace:
            per_inv = [layer_metrics(workload, inv) for inv in traced]
            counts = [{k: m[k] for k in COUNT_METRICS} for m in per_inv]
            if any(c != counts[0] for c in counts):
                bench.count(1, 1)
            layer = {k: statistics.median(m[k] for m in per_inv) for k in per_inv[0]}
            traced_ops = [t for inv in traced for t in workload.ops(inv)]
            if not traced_ops:
                raise BenchError("the traced pass completed no operation")
            layer["trace.op_s"] = statistics.median(traced_ops)
            layer["trace.overhead_s"] = layer["trace.op_s"] - statistics.median(ops)
            report.update(counts=counts[0], traced_invocations=len(traced),
                          traced_digest=workload.digest(traced[0]))
            metrics = {k: {"value": layer[k], "unit": u} for k, u in LAYER_UNITS.items()}
            SPAN_DIR.mkdir(exist_ok=True)
            spans.dump(traced[0].spans, SPAN_DIR / f"spans_{workload.name}_seed{seed}.jsonl")
        report.update(ops_attempted=bench.attempted,
                      ops_failed_ratio=bench.failed / bench.attempted,
                      end_to_end={report_name(workload, k): {"value": v, "unit": u}
                                  for k, (v, u) in end_to_end.items()})
        result = {"correct": bench.failed == 0, "attempted": bench.attempted,
                  "failed": bench.failed, "metrics": metrics}
        return result, report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report_name(workload, metric: str) -> str:
    """The workload's own name for a generic metric: op_s.p50 -> epoch_s.p50."""
    base, dot, rest = metric.partition(".")
    return workload.names.get(base, base) + dot + rest


def import_program() -> None:
    """Import grufcn from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "grufcn" / "cli.py").is_file():
        raise SystemExit(f"error: no grufcn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import grufcn

    if Path(grufcn.__file__).resolve().parent != (SRC / "grufcn").resolve():
        raise SystemExit(f"error: imported grufcn from {grufcn.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed pass: whole invocations, at least one, "
                             "while the next should end within it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    workload = WORKLOADS[args.workload]
    try:
        result, report = run(workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in report["end_to_end"].items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload.name} ops_failed_ratio = {report['ops_failed_ratio']:.6g} "
          f"(of {report['ops_attempted']} ops)")
    if args.trace:
        for name, m in result["metrics"].items():
            print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
