"""Command-line surface: train, eval, params, compare.

Run settings resolve in three layers: explicit flags override the dataset
registry entry, which overrides built-in defaults. The archive root comes
from --root or the GRUFCN_UCR_ROOT environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from . import data_ucr, metrics, model as model_mod, train as train_mod

ROOT_ENV_VAR = "GRUFCN_UCR_ROOT"

# fallbacks for datasets loaded from explicit paths with no registry entry
DEFAULT_EPOCHS = 2000
DEFAULT_TRAIN_BATCH = 128
DEFAULT_TEST_BATCH = 128


def _shipped(name: str):
    return resources.files("grufcn.data").joinpath(name)


def _split_files(args) -> tuple[Path, Path, str]:
    """(train file, test file, dataset name) from explicit paths or the archive
    root. One of --train-path and --test-path without the other is refused."""
    if bool(args.train_path) != bool(args.test_path):
        given, missing = (("--train-path", "--test-path") if args.train_path
                          else ("--test-path", "--train-path"))
        raise ValueError(f"{given} needs {missing} as well")
    if args.train_path:
        name = args.dataset or Path(args.train_path).stem.replace("_TRAIN", "")
        return Path(args.train_path), Path(args.test_path), name
    if not args.dataset:
        raise ValueError("need --dataset (with --root) or --train-path/--test-path")
    root = args.root or os.environ.get(ROOT_ENV_VAR)
    if not root:
        raise ValueError(f"no archive root: pass --root or set {ROOT_ENV_VAR}")
    return *data_ucr.find_split_files(root, args.dataset), args.dataset


def _check_flags(args):
    """Reject batch sizes below 1, a negative epoch count or seed, a
    non-finite or non-positive lr and a dropout rate outside [0, 1)."""
    for flag, least in (("train_batch", 1), ("eval_batch", 1), ("epochs", 0), ("seed", 0)):
        if getattr(args, flag, None) is not None and getattr(args, flag) < least:
            raise ValueError(f"--{flag.replace('_', '-')} must be at least {least}, "
                             f"got {getattr(args, flag)}")
    if hasattr(args, "lr") and not (math.isfinite(args.lr) and args.lr > 0):
        raise ValueError(f"--lr must be finite and positive, got {args.lr}")
    if hasattr(args, "dropout") and not 0.0 <= args.dropout < 1.0:
        raise ValueError(f"--dropout must be in [0, 1), got {args.dropout}")


def _run_settings(args):
    """flags > registry > defaults for epochs and batch sizes."""
    epochs, train_batch, test_batch = DEFAULT_EPOCHS, DEFAULT_TRAIN_BATCH, DEFAULT_TEST_BATCH
    if args.dataset:
        try:
            entry = data_ucr.registry_lookup(args.dataset)
            epochs, train_batch, test_batch = entry.epochs, entry.train_batch, entry.test_batch
        except data_ucr.UnknownDatasetError:
            if not (args.train_path and args.test_path):
                raise
    if args.epochs is not None:
        epochs = args.epochs
    if args.train_batch is not None:
        train_batch = args.train_batch
    if args.eval_batch is not None:
        test_batch = args.eval_batch
    return epochs, train_batch, test_batch


def cmd_train(args) -> int:
    _check_flags(args)
    dataset = data_ucr.make_dataset(*_split_files(args))
    epochs, train_batch, test_batch = _run_settings(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = model_mod.ArchConfig(series_length=dataset.series_length,
                                  num_classes=dataset.num_classes, cell_kind=args.cell,
                                  dropout_rate=args.dropout, seed=args.seed)
    net = model_mod.build(config)
    run = train_mod.TrainRun(epochs=epochs, train_batch=train_batch, eval_batch=test_batch,
                             seed=args.seed, schedule=train_mod.LrSchedule(initial=args.lr),
                             best_checkpoint_path=str(out_dir / "best.ckpt"))
    started = time.perf_counter()
    train_mod.fit(net, dataset, run)
    elapsed = time.perf_counter() - started
    train_mod.write_history_csv(out_dir / "history.csv", run.history)
    model_mod.save_checkpoint(net, out_dir / "final.ckpt")
    if run.epochs == 0:
        # keep the artifact contract even when no epoch ran
        model_mod.save_checkpoint(net, out_dir / "best.ckpt")
    _, test_error, _, test_f1 = _test_metrics(net, dataset.test_x, dataset.test_y, test_batch)
    summary = {
        "dataset": dataset.name,
        "epochs": epochs,
        "train_batch": train_batch,
        "eval_batch": test_batch,
        "seed": args.seed,
        "cell_kind": args.cell,
        "parameter_count": model_mod.parameter_count(config),
        "final_test_error": test_error,
        "final_test_f1_macro": test_f1,
        "wall_clock_seconds": elapsed,
    }
    model_mod.write_atomic(out_dir / "summary.json",
                           [(json.dumps(summary, indent=2) + "\n").encode("utf-8")])
    print(f"trained {dataset.name}: test error {test_error:.6f}, "
          f"macro f1 {test_f1:.6f}, params {summary['parameter_count']}")
    return 0


def _test_metrics(net, test_x, test_y, chunk: int):
    """(predictions, error rate, confusion counts, macro-F1) on the test split."""
    preds = np.argmax(train_mod.predict_proba(net, test_x, chunk), axis=1)
    conf = metrics.confusion_counts(preds, test_y, net.config.num_classes)
    return preds, metrics.error_rate(preds, test_y), conf, metrics.f1_scores(conf)


def cmd_eval(args) -> int:
    _check_flags(args)
    train_file, test_file, _ = _split_files(args)
    net = model_mod.load_checkpoint(args.checkpoint)
    test_x, test_y, label_map = data_ucr.load_test_split(train_file, test_file)
    if test_x.shape[1] != net.config.series_length:
        raise ValueError(f"{args.checkpoint}: checkpoint expects series length "
                         f"{net.config.series_length}, {test_file} has {test_x.shape[1]}")
    if len(label_map) != net.config.num_classes:
        raise ValueError(f"{args.checkpoint}: checkpoint expects {net.config.num_classes} "
                         f"classes, {train_file} and {test_file} hold {len(label_map)}")
    chunk = args.eval_batch or DEFAULT_TEST_BATCH
    preds, err, conf, f1 = _test_metrics(net, test_x, test_y, chunk)
    print(f"test error: {err:.6f}")
    print(f"macro f1:   {f1:.6f}")
    print("class,tp,fp,fn")
    for c in range(len(label_map)):
        print(f"{c},{int(conf.tp[c])},{int(conf.fp[c])},{int(conf.fn[c])}")
    if args.predictions:
        rows = "".join(f"{i},{int(p)},{int(t)}\n" for i, (p, t) in enumerate(zip(preds, test_y)))
        model_mod.write_atomic(args.predictions,
                               [f"index,predicted,truth\n{rows}".encode("utf-8")])
    return 0


def _count_pair(entry) -> tuple[int, int]:
    base = dict(series_length=entry.series_length, num_classes=entry.num_classes)
    return (
        model_mod.parameter_count(model_mod.ArchConfig(cell_kind=model_mod.GRU, **base)),
        model_mod.parameter_count(model_mod.ArchConfig(cell_kind=model_mod.LSTM, **base)),
    )


def cmd_params(args) -> int:
    reg = data_ucr.registry()
    if args.all:
        names = list(reg)
    elif args.dataset:
        names = [data_ucr.registry_lookup(args.dataset).name]
    else:
        raise ValueError("need a dataset name or --all")
    counts = {name: _count_pair(reg[name]) for name in names}
    if args.all:
        counts["Total"] = tuple(map(sum, zip(*counts.values())))
    reference = None  # read and checked whole before any output
    if args.check is not None:
        reference = _int_table(args.check or _shipped("published_param_counts.csv"),
                               ("GRU-FCN", "LSTM-FCN"), counts)
    print("dataset,gru_fcn_params,lstm_fcn_params")
    for name, (g, l) in counts.items():
        print(f"{name},{g},{l}")
    if reference is not None:
        mismatches = [name for name in counts if counts[name] != reference[name]]
        for name in mismatches:
            print(f"MISMATCH {name}: computed {counts[name]}, "
                  f"reference {reference[name]}", file=sys.stderr)
        print(f"reference check: {len(mismatches)} mismatches")
        if mismatches:
            return 1
    return 0


def cmd_compare(args) -> int:
    errors = args.errors or _shipped("published_errors.csv")
    matrix = metrics.ErrorMatrix.from_csv(errors)
    try:
        class_counts = _load_class_counts(args.class_counts, matrix.datasets)
    except data_ucr.UnknownDatasetError as exc:  # a row of the error table names it
        raise data_ucr.UnknownDatasetError(f"{errors}: {exc}") from None
    mean_ranks, no_best = metrics.rank_models(matrix, missing_mode=args.missing_mode)
    cd = metrics.nemenyi_cd(len(matrix.models), len(matrix.datasets), alpha=args.alpha)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    print("model,mean_rank,no_best,mpce")
    for m in matrix.models:
        col = matrix.column(m)
        present = ~np.isnan(col)
        model_mpce = metrics.mpce(col[present], class_counts[present])
        print(f"{_csv_field(m)},{mean_ranks[m]:.6f},{no_best[m]},{model_mpce:.6f}")

    lines = ["model," + ",".join(map(_csv_field, matrix.models))]
    for i, a in enumerate(matrix.models):
        cells = []
        for j, b in enumerate(matrix.models):
            if j <= i:
                cells.append("")
                continue
            col_a, col_b = matrix.column(a), matrix.column(b)
            both = ~np.isnan(col_a) & ~np.isnan(col_b)
            try:
                res = metrics.wilcoxon_signed_rank(col_a[both], col_b[both])
                cells.append(f"{res.pvalue:.6e}")
            except metrics.UndefinedTestError:
                cells.append("")
        lines.append(_csv_field(a) + "," + ",".join(cells))
    model_mod.write_atomic(out_dir / "wilcoxon_pvalues.csv",
                           ["\n".join(lines + [""]).encode("utf-8")])

    print(f"critical difference (alpha={args.alpha}): {cd:.6f}")
    model_mod.write_atomic(out_dir / "cd_diagram.svg",
                           [metrics.cd_diagram_svg(mean_ranks, cd).encode("utf-8")])
    return 0


def _csv_field(text: str) -> str:
    """text as one CSV field, quoted as csv.writer quotes it: in quotes, its
    quotes doubled, if it holds a comma, a quote or a line break. (A
    csv.writer keeps a 128 KiB record buffer, which would double the peak
    allocation of a whole compare.)"""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _int_table(path, columns: tuple[str, ...], names) -> dict[str, tuple[int, ...]]:
    """{dataset: integer value of each column} from a per-dataset table,
    which must have each of columns in its header and a row for each of
    names; a short row or a non-integer field names its line."""
    rows = data_ucr.read_table(path)
    header = next(rows)
    absent = [c for c in columns if c not in header]
    if absent:
        raise ValueError(f"{path}: no column(s) {', '.join(absent)} in the header")
    indices = [header.index(c) for c in columns]
    table = {}
    for line, row in rows:
        try:
            table[row[0]] = tuple(int(row[i]) for i in indices)
        except (IndexError, ValueError):
            raise ValueError(f"{path}:{line}: need a dataset and integer "
                             f"{', '.join(columns)}") from None
    missing = [name for name in names if name not in table]
    if missing:
        raise ValueError(f"{path}: no row for dataset(s) {', '.join(missing)}")
    return table


def _load_class_counts(path, datasets) -> np.ndarray:
    if path:
        table = _int_table(path, ("classes",), datasets)
        few = [d for d in datasets if table[d][0] < 2]
        if few:
            raise ValueError(f"{path}: fewer than 2 classes for dataset(s) {', '.join(few)}")
        return np.asarray([table[d][0] for d in datasets], dtype=np.float64)
    return np.asarray([data_ucr.registry_lookup(d).num_classes for d in datasets],
                      dtype=np.float64)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grufcn",
        description="Train, evaluate, and statistically compare the hybrid "
                    "recurrent-convolutional univariate time-series classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_args(p):
        p.add_argument("--dataset", help="dataset name (resolved under the archive root)")
        p.add_argument("--root", help=f"archive root directory (fallback: ${ROOT_ENV_VAR})")
        p.add_argument("--train-path", help="explicit training split file")
        p.add_argument("--test-path", help="explicit test split file")

    p_train = sub.add_parser(
        "train",
        help="train a model and write history.csv, best.ckpt, final.ckpt, summary.json",
    )
    add_dataset_args(p_train)
    p_train.add_argument("--out", default="run", help="output directory (default: run)")
    p_train.add_argument("--seed", type=int, default=0, help="run seed (default: 0)")
    p_train.add_argument("--epochs", type=int, help="override registry epoch count")
    p_train.add_argument("--train-batch", type=int, help="override registry train batch size")
    p_train.add_argument("--eval-batch", type=int, help="override registry test batch size")
    p_train.add_argument("--lr", type=float, default=0.01,
                         help="initial learning rate (default: 0.01)")
    p_train.add_argument("--dropout", type=float, default=0.8,
                         help="recurrent-branch dropout rate (default: 0.8)")
    p_train.add_argument("--cell", choices=(model_mod.GRU, model_mod.LSTM),
                         default=model_mod.GRU, help="recurrent cell kind (default: gru)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    add_dataset_args(p_eval)
    p_eval.add_argument("--checkpoint", required=True, help="checkpoint file to load")
    p_eval.add_argument("--eval-batch", type=int, help="evaluation chunk size")
    p_eval.add_argument("--predictions", help="optional CSV of per-sample predictions")
    p_eval.set_defaults(func=cmd_eval)

    p_params = sub.add_parser(
        "params", help="print closed-form parameter counts for both cell kinds"
    )
    p_params.add_argument("dataset", nargs="?", help="dataset name")
    p_params.add_argument("--all", action="store_true", help="all 85 registry datasets")
    p_params.add_argument("--check", nargs="?", const="", default=None, metavar="CSV",
                          help="diff against a reference CSV "
                               "(no value: the shipped reference table)")
    p_params.set_defaults(func=cmd_params)

    p_cmp = sub.add_parser(
        "compare",
        help="rank models from an error-matrix CSV; emit Wilcoxon p-values and a CD diagram",
    )
    p_cmp.add_argument("--errors", help="error-matrix CSV "
                                        "(default: the shipped reference table)")
    p_cmp.add_argument("--class-counts", help="CSV with dataset,classes columns "
                                              "(default: the shipped registry)")
    p_cmp.add_argument("--missing-mode", choices=("exclude", "worst"), default="exclude",
                       help="how absent entries affect ranking (default: exclude)")
    p_cmp.add_argument("--alpha", type=float, default=0.05,
                       help="significance level for the critical difference (default: 0.05)")
    p_cmp.add_argument("--out", default="compare", help="output directory (default: compare)")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
