"""Command-line interface.

Subcommands: analyze (property reports), train (single cell), bench
(resumable sweep), compare (rank/CD/MCM statistics), trace (activation
applied to a series). Every invocation writes a manifest.json with the
fully resolved configuration into an output directory named by the hash of
the result-affecting settings.

Exit codes: 0 success; 1 a failed ``train`` cell, an ``analyze`` catalog
mismatch or another package error; 2 usage error; 3 data error; 4 numeric
divergence; 5 incomplete results matrix.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import activations as zoo
from .bench import ARCH_DEFAULTS, ResultsStore, TrainConfig, cell_payload, run_cell, run_sweep
from .data import data_root as resolve_data_root
from .data import load_dataset_pair
from .errors import ConfigError, DataError, LeakySineLUError, NumericError
from .properties import dead_region_trace, property_report, report_to_dict
from .stats import build_report, matrix_from_records, write_report_files

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_INCOMPLETE = 5
# The exit code of an error: the first kind it is an instance of decides.
ERROR_EXITS = ((ConfigError, EXIT_USAGE), (DataError, EXIT_DATA), (NumericError, EXIT_DIVERGED),
               (LeakySineLUError, 1))

# Settings that change where/how work runs but not what it computes.
_VOLATILE_KEYS = {"out", "jobs", "data_root"}


def _invocation_dir(command: str, out_root: str, resolved: dict) -> Path:
    hashed = {k: v for k, v in sorted(resolved.items()) if k not in _VOLATILE_KEYS}
    digest = hashlib.sha256(
        json.dumps({"command": command, **hashed}, sort_keys=True).encode()
    ).hexdigest()[:12]
    outdir = Path(out_root) / f"{command}-{digest}"
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out_root}: cannot make {outdir}: {exc.strerror}") from exc
    manifest = {
        "command": command,
        "invocation_hash": digest,
        "version": __version__,
        **resolved,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return outdir


def _resolve_root(args) -> str:
    root = resolve_data_root(args.data_root)
    if not root:
        raise DataError("no dataset root: pass --data-root or set UCR_DATA_ROOT")
    return root


def _unique(names) -> list[str]:
    """The non-empty names, repeats dropped, in first-occurrence order."""
    return [name for name in dict.fromkeys(names) if name]


def _parse_activations(value: str) -> list[str]:
    if value == "all":
        return list(zoo.ACTIVATION_NAMES)
    names = _unique(v.strip() for v in value.split(","))
    if not names:
        raise ConfigError("empty activation list")
    return names


def _parse_datasets(value: str) -> list[str]:
    if value.startswith("@"):
        path = Path(value[1:])
        if not path.is_file():
            raise DataError(f"dataset list file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: dataset list is not UTF-8 text: {exc}") from exc
        names = _unique(line.strip() for line in text.splitlines())
    else:
        names = _unique(v.strip() for v in value.split(","))
    if not names:
        raise ConfigError("empty dataset list")
    return names


def _overrides(args) -> dict:
    """Recipe overrides from the flags train and bench share; None keeps the default."""
    return {
        "epochs": args.epochs,
        "seed": args.seed,
        "batch_size": args.batch_size,
        "norm_enabled": False if args.no_norm_layers else None,
        "znorm": "none" if args.no_znorm else None,
    }


def cmd_analyze(args) -> int:
    names = _parse_activations(args.activation)
    resolved = {"activation": args.activation, "activations": names}
    outdir = _invocation_dir("analyze", args.out, resolved)
    reports = [property_report(name) for name in names]
    rows = []
    for rep in reports:
        doc = report_to_dict(rep)
        (outdir / f"properties_{rep.kind.name}.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        for key in (
            "limit_neg",
            "limit_pos",
            "monotone",
            "semi_periodic_period",
            "semi_periodic_max_dev",
            "empirical_min",
            "empirical_max",
            "matches_catalog",
        ):
            value = doc[key]
            if isinstance(value, dict):
                value = f"{value['verdict']}:{value['value']}"
            rows.append((rep.kind.name, key, value))
        status = "ok" if rep.matches_catalog else "MISMATCH " + "; ".join(rep.mismatches)
        note = f" ({rep.table_note})" if rep.table_note else ""
        print(f"{rep.kind.name}: {status}{note}")
    with open(outdir / "properties.csv", "w") as fh:
        fh.write("activation,property,value\n")
        for name, key, value in rows:
            fh.write(f"{name},{key},{value}\n")
    print(f"wrote {len(reports)} report(s) under {outdir}")
    return EXIT_OK if all(r.matches_catalog for r in reports) else 1


def cmd_train(args) -> int:
    root = _resolve_root(args)
    config = TrainConfig.for_architecture(args.arch, args.activation, **_overrides(args))
    resolved = {
        "dataset": args.dataset,
        "config": config.to_dict(),
        "data_root": root,
        "out": args.out,
    }
    load_dataset_pair(root, args.dataset)  # fail fast on missing/malformed data
    outdir = _invocation_dir("train", args.out, resolved)
    record = run_cell(cell_payload(args.dataset, config, root, checkpoint_dir=outdir))
    ResultsStore(outdir / "results.jsonl").append(record)
    if record["status"] == "diverged":
        print(f"diverged at epoch {record['diverged_epoch']}: {record['error']}",
              file=sys.stderr)
        return EXIT_DIVERGED
    if record["status"] != "completed":
        print(f"error: {record['error']}", file=sys.stderr)
        return 1
    print(f"dataset={args.dataset} arch={args.arch} activation={config.activation.name} "
          f"accuracy={record['accuracy']:.6f}")
    print(f"results under {outdir}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    root = _resolve_root(args)
    activations = _parse_activations(args.activations)
    datasets = _parse_datasets(args.datasets)
    overrides = _overrides(args)
    config_docs = {  # checks each activation name and setting before any data is read
        name: TrainConfig.for_architecture(args.arch, name, **overrides).to_dict()
        for name in activations
    }
    for name in datasets:
        load_dataset_pair(root, name)  # fail fast on missing/malformed data
    resolved = {
        "architecture": args.arch,
        "activations": activations,
        "datasets": datasets,
        "configs": config_docs,
        "data_root": root,
        "jobs": args.jobs,
        "out": args.out,
    }
    outdir = _invocation_dir("bench", args.out, resolved)
    store = ResultsStore(outdir / "results.jsonl")
    outcome = run_sweep(
        datasets,
        activations,
        args.arch,
        root,
        store,
        overrides=overrides,
        jobs=args.jobs,
        checkpoint_dir=outdir / "checkpoints",
    )
    print(f"{outcome.n_cached} cached, {outcome.n_trained} trained, "
          f"{outcome.n_failed} failed/diverged")
    print(f"results: {store.path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    results_path = Path(args.results)
    if not results_path.is_file():
        raise DataError(f"results file not found: {results_path}")
    records = ResultsStore(results_path).load()
    resolved = {
        "results": str(results_path),
        "architecture": args.arch,
        "alpha": args.alpha,
        "out": args.out,
    }
    matrix, missing = matrix_from_records(records, args.arch)
    if matrix is None:
        print("incomplete results matrix; missing cells:", file=sys.stderr)
        for dataset, method in missing:
            print(f"  {dataset} x {method}", file=sys.stderr)
        return EXIT_INCOMPLETE
    report = build_report(matrix, alpha=args.alpha)
    outdir = _invocation_dir("compare", args.out, resolved)
    written = write_report_files(report, matrix, outdir)
    for method in report.methods:
        print(f"{method}: avg_rank={report.avg_ranks[method]:.4f} "
              f"mean_acc={report.mean_accuracy[method]:.4f}")
    print(f"wrote {len(written)} file(s) under {outdir}")
    return EXIT_OK


def _trace_series(args) -> np.ndarray:
    if args.grid is not None:
        lo, hi, n = args.grid
        if not (np.isfinite([lo, hi]).all() and n >= 1 and n.is_integer()):
            raise ConfigError(f"--grid needs finite LO, HI and a whole N >= 1, got {lo} {hi} {n}")
        try:
            return np.linspace(lo, hi, int(n))
        except (ValueError, MemoryError) as exc:  # N beyond what numpy can allocate
            raise ConfigError(f"--grid cannot make {n:g} points: {exc}") from exc
    value = args.input
    path = Path(value)
    try:
        is_file = path.is_file()
    except OSError:  # e.g. longer than a file name may be: an inline row
        is_file = False
    try:
        if is_file:
            tokens = path.read_text(encoding="utf-8-sig").split()
        else:
            tokens = value.replace("\t", " ").split()
        series = np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"cannot parse trace input: {exc}") from exc
    if series.size == 0:
        raise DataError("trace input is empty")
    finite = np.isfinite(series)
    if not finite.all():
        raise DataError(f"trace input: non-finite value {tokens[int(np.argmin(finite))]!r}")
    return series


def cmd_trace(args) -> int:
    kind = zoo.activation(args.activation)
    series = _trace_series(args)
    values, dead_fraction = dead_region_trace(kind, series)
    derivs = zoo.array_derivative(kind, series)
    lines = ["x,value,derivative"]
    lines += [f"{repr(float(x))},{repr(float(v))},{repr(float(d))}"
              for x, v, d in zip(series, values, derivs)]
    text = "\n".join(lines) + "\n"
    if args.out_file:
        try:
            Path(args.out_file).write_text(text)
        except OSError as exc:
            raise ConfigError(f"--out {args.out_file}: cannot write: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)
    print(f"dead_fraction={dead_fraction}", file=sys.stderr)
    return EXIT_OK


def _alpha(text: str) -> float:
    """``--alpha``: a level in (0, 1), checked while the arguments are parsed,
    so a bad one exits 2 before the results file is read."""
    value = float(text)  # argparse reports a ValueError as a usage error too
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leakysinelu",
        description="Activation property analysis, training and comparison "
        "for univariate time series classification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="verify activation properties against the catalog")
    p.add_argument("--activation", required=True,
                   choices=list(zoo.ACTIVATION_NAMES) + ["all"])
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_analyze)

    # Flags shared by train and bench: the recipe overrides and where to read/write.
    cell = argparse.ArgumentParser(add_help=False)
    cell.add_argument("--arch", required=True, choices=list(ARCH_DEFAULTS))
    cell.add_argument("--data-root", dest="data_root",
                      help="directory of UCR datasets (default: $UCR_DATA_ROOT)")
    cell.add_argument("--epochs", type=int)
    cell.add_argument("--seed", type=int)
    cell.add_argument("--batch-size", dest="batch_size", type=int)
    cell.add_argument("--no-norm-layers", dest="no_norm_layers", action="store_true")
    cell.add_argument("--no-znorm", dest="no_znorm", action="store_true")
    cell.add_argument("--out", default="out")

    p = sub.add_parser("train", parents=[cell],
                       help="train one (architecture, activation, dataset) cell")
    p.add_argument("--activation", required=True, choices=list(zoo.ACTIVATION_NAMES))
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bench", parents=[cell], help="run a sweep over datasets x activations")
    p.add_argument("--activations", required=True,
                   help="comma-separated names or 'all'")
    p.add_argument("--datasets", required=True,
                   help="comma-separated names or @file with one name per line")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("compare", help="statistical comparison from a results file")
    p.add_argument("--results", required=True)
    p.add_argument("--arch", required=True, choices=list(ARCH_DEFAULTS))
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("trace", help="emit (x, value, derivative) CSV for a series")
    p.add_argument("--activation", required=True, choices=list(zoo.ACTIVATION_NAMES))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="tab/space-separated values or a file path")
    group.add_argument("--grid", nargs=3, type=float, metavar=("LO", "HI", "N"),
                       help="evaluate on N points from LO to HI")
    p.add_argument("--out", dest="out_file")
    p.set_defaults(func=cmd_trace)
    for p in (parser, *sub.choices.values()):
        p.allow_abbrev = False  # "--inp V" would bypass _protect_dash_values
    return parser


def _positional_number(token: str) -> str:
    """A '-'-led number such as "-1e-3" in exact positional form ("-0.001")."""
    try:
        value = float(token)
    except ValueError:
        return token
    return np.format_float_positional(value, trim="-") if np.isfinite(value) else token


def _protect_dash_values(argv: list[str]) -> list[str]:
    """Keep values that start with '-' from being read as options.

    argparse reads a token that starts with '-' as an option unless it is a
    plain negative number or holds a space. So ``--input V`` becomes the
    single token ``--input=V`` (a tab-separated row such as "-1.0\t2.0"),
    and any other '-'-led number, such as a ``--grid`` bound "-1e-3", is
    written in the positional form that argparse accepts.
    """
    out: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--input" and (value := next(tokens, None)) is not None:
            token = f"--input={value}"
        elif token.startswith("-"):
            token = _positional_number(token)
        out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_protect_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except LeakySineLUError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in ERROR_EXITS if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
