"""Checks of the benchmark itself. They are not part of the repository's
test suite (``tests/``); run them with

    python3 -m pytest perfbench/test_bench.py -q

The repeat tests run the benchmark twice per workload, about a minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run
import spans

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    report = json.loads(next(line for line in lines if line.startswith("report "))[7:])
    return report, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["train-coffee", "compare-table"])
def test_counts_and_outputs_repeat_exactly(workload):
    """Same seed, two runs: identical counts, computed gflop, im2col size,
    frozen share and checkpoint writes, and byte-identical history.csv (or
    SVG) from the timed and the traced invocations alike."""
    (first, r1), (second, r2) = (parse(bench(workload, 5, trace=1)) for _ in range(2))
    assert r1["correct"] and r2["correct"]
    assert r1["failed"] == r2["failed"] == 0
    assert first["counts"] == second["counts"]
    assert first["digest"] != ""
    assert first["digest"] == second["digest"] == first["traced_digest"] == second["traced_digest"]
    if workload == "train-coffee":
        share = r1["metrics"]["tensor_core.conv1d_same_backward.op_share"]["value"]
        assert share > 0.5, "conv backward should dominate the Coffee epoch"


def test_result_line_matches_benchmark_json():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        _, result = parse(bench("compare-table", 3, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
        for m in SPEC[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    for w in SPEC["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("compare-table", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_golden_check_rejects_a_wrong_statistic(tmp_path, monkeypatch):
    run.import_program()
    from grufcn import metrics

    workload = run.WORKLOADS["compare-table"]
    golden = run.load_golden(workload.name)
    case = workload.prepare(4, tmp_path)
    good = run.invoke(workload.argv(case, tmp_path / "good"), tmp_path / "good", spans.BOUNDARY)
    assert workload.check(case, good, golden, None) == (1, 0)
    real = metrics.nemenyi_cd
    monkeypatch.setattr(metrics, "nemenyi_cd", lambda *a, **k: real(*a, **k) * 1.001)
    bad = run.invoke(workload.argv(case, tmp_path / "bad"), tmp_path / "bad", spans.BOUNDARY)
    assert workload.check(case, bad, golden, None) == (1, 1)


def test_patched_names_are_restored():
    run.import_program()
    import importlib

    before = {(p.module, p.attr): getattr(importlib.import_module(p.module), p.attr)
              for p in spans.LAYERS}
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched(spans.LAYERS):
            assert all(getattr(importlib.import_module(m), a) is not f
                       for (m, a), f in before.items())
            raise RuntimeError("leave the block early")
    assert all(getattr(importlib.import_module(m), a) is f for (m, a), f in before.items())


def test_self_time_subtracts_children():
    outer = spans.Span("a", 0.0, 10.0)
    inner = [spans.Span("b", 1.0, 3.0, parent=0), spans.Span("c", 4.0, 8.0, parent=0),
             spans.Span("d", 5.0, 6.0, parent=2)]
    assert spans.self_times([outer, *inner]) == [4.0, 2.0, 3.0, 1.0]


def test_conv_block_spans_take_their_conv_label():
    tracer = spans.Tracer()
    block = tracer.open("layers.conv_block_backward")
    tracer.close(tracer.open("tensor_core.conv1d_same_backward.conv2"))
    tracer.close(block)
    assert [s.name for s in tracer.take()] == [
        "layers.conv_block_backward.conv2", "tensor_core.conv1d_same_backward.conv2"]


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(5))) == (4, 100.0)
    value, pct = run.tail(list(range(100)))
    assert value == 89 and pct == 90.0
