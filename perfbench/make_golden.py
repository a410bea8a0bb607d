#!/usr/bin/env python3
"""Regenerate perfbench/golden.json from the current grufcn sources.

    python3 perfbench/make_golden.py [workload ...]

Each workload's golden inputs go through the CLI once and the outputs the
benchmark checks are stored: the first epochs' losses and the final test
predictions for training, the predictions and probabilities of every pool
series for inference, and the statistics of the shipped table for compare.
Only regenerate when a change to the program is meant to change these.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(names) -> int:
    run.import_program()
    golden = json.loads(run.GOLDEN_PATH.read_text()) if run.GOLDEN_PATH.is_file() else {}
    run.WORK_ROOT.mkdir(exist_ok=True)
    for name in names or sorted(run.WORKLOADS):
        workload = run.WORKLOADS[name]
        work = Path(tempfile.mkdtemp(prefix=f"golden-{name}-", dir=run.WORK_ROOT))
        try:
            case = workload.prepare(run.GOLDEN_SEED, work, golden=True)
            out = work / "out"
            out.mkdir()
            inv = run.invoke(workload.argv(case, out), out, run.spans.BOUNDARY)
            if inv.error:
                print(f"{name}: {inv.error}", file=sys.stderr)
                return 1
            golden[name] = workload.golden_record(inv)
            print(f"{name}: recorded", file=sys.stderr)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
