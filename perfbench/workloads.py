"""The three workloads: synthetic UCR-shaped inputs, the timed units and
the checks on their outputs.

Inputs follow the ``synth_series`` recipe of the test suite: class c is a
sinusoid with c+1 cycles plus Gaussian noise, so every class is separable
and a short training run reaches high accuracy. Only the inputs depend on
the seed; the package sees TSV files and CLI arguments, as a user's would.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ACTIVATION = "leakysinelu"
BATCH_SIZE = 16  # the recipe default; steps per epoch are derived from it

# Per size, per workload. "full" is what the benchmark measures; "toy" only
# proves that every metric is produced. ``floor`` is the accuracy every cell
# must reach: an FCN after 3 epochs still evaluates with batch-norm running
# statistics far from the batch ones, and scored 0.6 to 1.0 on seeds 1 to 20,
# so its floor is twice chance; every MLP cell scored 1.0.
SIZES = {
    "full": {
        "fcn_cell": {"arch": "fcn", "classes": 5, "train": 160, "test": 160,
                     "length": 128, "epochs": 3, "evals": 1, "floor": 0.4},
        "mlp_cell": {"arch": "mlp", "classes": 5, "train": 160, "test": 160,
                     "length": 128, "epochs": 50, "evals": 20, "floor": 0.6},
        "sweep": {"arch": "mlp", "classes": [2, 3, 4, 5], "train": 60, "test": 60,
                  "length": 128, "epochs": 5, "repeats": 5, "floor": 0.75,
                  "probe_datasets": 2, "probe_activations": ["relu", "leakysinelu"],
                  "probe_pairs": 3},
    },
    "toy": {
        "fcn_cell": {"arch": "fcn", "classes": 3, "train": 12, "test": 12,
                     "length": 16, "epochs": 1, "evals": 1, "floor": 0.0},
        "mlp_cell": {"arch": "mlp", "classes": 3, "train": 12, "test": 12,
                     "length": 16, "epochs": 2, "evals": 2, "floor": 0.0},
        "sweep": {"arch": "mlp", "classes": [2, 3], "train": 12, "test": 12,
                  "length": 16, "epochs": 1, "repeats": 2, "floor": 0.0,
                  "probe_datasets": 1, "probe_activations": ["relu", "leakysinelu"],
                  "probe_pairs": 1},
    },
}

SUBPROCESS_TIMEOUT_S = 90


def synth_split(rng, n_classes: int, n_series: int, length: int, noise: float = 0.05):
    """``n_series`` rows, equally many per class, labels 1..C in random order."""
    per_class = n_series // n_classes
    t = np.arange(length) / length
    labels, rows = [], []
    for c in range(n_classes):
        base = np.sin(2 * np.pi * (c + 1) * t)
        for _ in range(per_class):
            rows.append(base + noise * rng.normal(size=length))
            labels.append(c + 1)
    order = rng.permutation(len(rows))
    return [labels[i] for i in order], np.vstack(rows)[order]


def write_dataset(root: Path, name: str, rng, n_classes: int, n_train: int, n_test: int,
                  length: int) -> None:
    """Write <root>/<name>/<name>_{TRAIN,TEST}.tsv in the UCR layout."""
    d = root / name
    d.mkdir(parents=True, exist_ok=True)
    for split, n in (("TRAIN", n_train), ("TEST", n_test)):
        labels, series = synth_split(rng, n_classes, n, length)
        with open(d / f"{name}_{split}.tsv", "w") as fh:
            for label, row in zip(labels, series):
                fh.write("\t".join([str(label)] + [repr(float(v)) for v in row]) + "\n")


def record_digest(records) -> str:
    """SHA-256 of the deterministic fields of result records: everything
    except the wall-clock ``seconds`` and the checkpoint file path."""
    kept = [{k: v for k, v in r.items() if k not in ("seconds", "checkpoint")} for r in records]
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()


def cell_problems(rec: dict, floor: float) -> list[str]:
    """Why a cell record fails its output check (empty when it passes)."""
    where = f"{rec['dataset']}/{rec['config']['activation']['name']}"
    if rec["status"] != "completed":
        return [f"{where}: status {rec['status']}: {rec.get('error')}"]
    loss, acc = rec["final_train_loss"], rec["accuracy"]
    if loss is None or not math.isfinite(loss):
        return [f"{where}: final_train_loss {loss!r} is not finite"]
    if acc is None or acc < floor:
        return [f"{where}: accuracy {acc!r} below floor {floor}"]
    return []


class Run:
    """What one benchmark run accumulates: unit bookkeeping, samples taken
    outside the package, operation counts, failures and digests."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.units: list[dict] = []
        self._samples: dict[str, list[tuple[dict, float]]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def begin(self, traced: bool, warmup: bool) -> dict:
        unit = {"id": len(self.units) + 1, "traced": traced, "warmup": warmup, "ok": True}
        self.units.append(unit)
        self.tracer.unit = unit["id"]
        return unit

    def op(self, unit: dict, problems: list[str]) -> bool:
        """Count one checked operation; a failure also invalidates the unit's
        timings, so a failed operation is never timed as a success."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            unit["ok"] = False
        return not problems

    def sample(self, unit: dict, name: str, value: float) -> None:
        self._samples.setdefault(name, []).append((unit, value))

    def values(self, name: str, traced: bool | None = False) -> list[float]:
        """Samples of units that passed every check and were not warm-up,
        from traced units, untraced ones, or (``None``) both."""
        return [v for u, v in self._samples.get(name, ())
                if u["ok"] and not u["warmup"] and traced in (None, u["traced"])]


def _payload(bench, data_root: Path, dataset: str, arch: str, activation: str,
             epochs: int, seed: int, ckpt_dir: Path) -> dict:
    config = bench.TrainConfig.for_architecture(arch, activation, epochs=epochs, seed=seed)
    return {
        "dataset": dataset,
        "config": config.to_dict(),
        "config_hash": bench.cell_hash(dataset, config),
        "data_root": str(data_root),
        "checkpoint_dir": str(ckpt_dir),
    }


class CellWorkload:
    """One training cell through ``bench.run_cell``, then ``bench.evaluate``
    repeated on the reloaded checkpoint, whose accuracy must match."""

    dataset = "Synth"

    def __init__(self, pkg, size: dict, seed: int, work: Path):
        self.pkg, self.size, self.seed = pkg, size, seed
        self.data_root = work / "data"
        write_dataset(self.data_root, self.dataset, np.random.default_rng(seed),
                      size["classes"], size["train"], size["test"], size["length"])
        ckpt = work / "checkpoints"
        self.payload = _payload(pkg.bench, self.data_root, self.dataset, size["arch"],
                                ACTIVATION, size["epochs"], seed, ckpt)
        self.warm_payload = _payload(pkg.bench, self.data_root, self.dataset, size["arch"],
                                     ACTIVATION, 1, seed, ckpt)
        self.steps_per_train = size["epochs"] * math.ceil(size["train"] / BATCH_SIZE)
        self.setup_target = (self.dataset, size["arch"])

    def shapes(self) -> dict:
        s = self.size
        return {"arch": s["arch"], "activation": ACTIVATION, "classes": s["classes"],
                "train": s["train"], "test": s["test"], "length": s["length"],
                "epochs": s["epochs"], "batch_size": BATCH_SIZE, "evals_per_cell": s["evals"]}

    def warmup(self, run: Run, unit: dict) -> None:
        rec = self.pkg.bench.run_cell(self.warm_payload)
        run.op(unit, cell_problems(rec, 0.0))

    def unit(self, run: Run, unit: dict) -> None:
        bench, data, models = self.pkg.bench, self.pkg.data, self.pkg.models
        rec = bench.run_cell(self.payload)
        if not run.op(unit, cell_problems(rec, self.size["floor"])):
            return
        run.digests.add(record_digest([rec]))
        spec, state, _ = models.load_checkpoint(rec["checkpoint"])
        test = data.znormalize(data.load_dataset_pair(self.data_root, self.dataset)[1],
                               rec["config"]["znorm"])
        for _ in range(self.size["evals"]):
            acc = bench.evaluate(state, spec, test)
            run.op(unit, [] if acc == rec["accuracy"] else
                   [f"reloaded checkpoint scores {acc!r}, the cell recorded {rec['accuracy']!r}"])


_SUMMARY = re.compile(r"(\d+) cached, (\d+) trained, (\d+) failed")


def _cli(cli, argv) -> tuple[int, str]:
    """Run ``cli.main`` with its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


class SweepWorkload:
    """``bench --activations all`` over small datasets at --jobs 1, then
    ``compare`` on its results, then the same ``bench`` call again, which
    must take every cell from the results store."""

    def __init__(self, pkg, size: dict, seed: int, work: Path):
        self.pkg, self.size, self.seed, self.work = pkg, size, seed, work
        self.data_root = work / "data"
        rng = np.random.default_rng(seed)
        self.datasets = [f"Sweep{c}" for c in size["classes"]]
        for name, c in zip(self.datasets, size["classes"]):
            write_dataset(self.data_root, name, rng, c, size["train"], size["test"],
                          size["length"])
        self.n_cells = len(self.datasets) * len(pkg.activations.ACTIVATION_NAMES)
        self.steps_per_train = size["epochs"] * math.ceil(size["train"] / BATCH_SIZE)
        self.setup_target = (self.datasets[-1], size["arch"])

    def shapes(self) -> dict:
        s = self.size
        return {"arch": s["arch"], "activations": "all", "datasets": self.datasets,
                "classes": s["classes"], "train": s["train"], "test": s["test"],
                "length": s["length"], "epochs": s["epochs"], "batch_size": BATCH_SIZE,
                "jobs": 1, "cells": self.n_cells, "repeats": s["repeats"]}

    def _bench_argv(self, out: Path, datasets, activations: str, jobs: int) -> list[str]:
        return ["bench", "--arch", self.size["arch"], "--activations", activations,
                "--datasets", ",".join(datasets), "--data-root", str(self.data_root),
                "--jobs", str(jobs), "--epochs", str(self.size["epochs"]),
                "--seed", str(self.seed), "--out", str(out)]

    def warmup(self, run: Run, unit: dict) -> None:
        payload = _payload(self.pkg.bench, self.data_root, self.datasets[0], self.size["arch"],
                           ACTIVATION, self.size["epochs"], self.seed, self.work / "warmup")
        rec = self.pkg.bench.run_cell(payload)
        run.op(unit, cell_problems(rec, 0.0))

    def unit(self, run: Run, unit: dict) -> None:
        cli, tracer = self.pkg.cli, run.tracer
        out = self.work / f"pass{unit['id']}"
        argv = self._bench_argv(out, self.datasets, "all", 1)
        started = time.perf_counter()
        rc, text = tracer.call("cli.bench", _cli, cli, argv)
        bench_s = time.perf_counter() - started
        results = list(out.glob("bench-*/results.jsonl"))
        if rc != 0 or len(results) != 1:
            run.op(unit, [f"bench exited {rc}: {text.strip()[-300:]}"])
            return
        results = results[0]
        records = [json.loads(line) for line in results.read_text().splitlines()]
        for rec in records:
            run.op(unit, cell_problems(rec, self.size["floor"]))
        if len(records) != self.n_cells:
            run.op(unit, [f"bench wrote {len(records)} records for {self.n_cells} cells"])
            return
        run.sample(unit, "sweep_cells_per_h", 3600.0 * len(records) / bench_s)

        report_doc = None
        for _ in range(self.size["repeats"]):
            rc, text = tracer.call("cli.compare", _cli, cli, [
                "compare", "--results", str(results), "--arch", self.size["arch"],
                "--out", str(out / "compare")])
            reports = list((out / "compare").glob("compare-*/report.json"))
            if run.op(unit, [] if rc == 0 and len(reports) == 1 else
                      [f"compare exited {rc}: {text.strip()[-300:]}"]):
                report_doc = json.loads(reports[0].read_text())

        size_before = results.stat().st_size
        for _ in range(self.size["repeats"]):
            rc, text = tracer.call("cli.bench_resume", _cli, cli, argv)
            m = _SUMMARY.search(text)
            cached, trained, failed = map(int, m.groups()) if m else (0, -1, -1)
            problems = []
            if rc != 0 or (trained, failed) != (0, 0) or results.stat().st_size != size_before:
                problems = [f"resume pass exited {rc} and trained {trained} cell(s): "
                            f"{text.strip()[-300:]}"]
            if run.op(unit, problems):
                run.sample(unit, "resume_hit_ratio", cached / self.n_cells)

        key = lambda r: (r["dataset"], r["config"]["activation"]["name"])  # noqa: E731
        run.digests.add(hashlib.sha256(json.dumps(
            [record_digest(sorted(records, key=key)), report_doc], sort_keys=True
        ).encode()).hexdigest())

    def jobs_probe(self, run: Run, unit: dict, src: Path) -> None:
        """Time the probe grid in fresh processes at --jobs 1 and --jobs 2,
        alternating which goes first, and record t(jobs 1) / t(jobs 2)."""
        datasets = self.datasets[: self.size["probe_datasets"]]
        activations = ",".join(self.size["probe_activations"])
        env = dict(os.environ, PYTHONPATH=str(src))
        for i in range(self.size["probe_pairs"]):
            times = {}
            for jobs in ((1, 2) if i % 2 == 0 else (2, 1)):
                out = self.work / f"probe{i}-j{jobs}"
                argv = [sys.executable, "-m", "leakysinelu.cli",
                        *self._bench_argv(out, datasets, activations, jobs)]
                started = time.perf_counter()
                rc, text = run_bounded(argv, env)
                times[jobs] = time.perf_counter() - started
                m = _SUMMARY.search(text)
                ok = rc == 0 and m is not None and int(m.group(3)) == 0
                if not run.op(unit, [] if ok else [f"jobs={jobs} probe exited {rc}: {text[-300:]}"]):
                    return
            run.sample(unit, "j2_speedup", times[1] / times[2])


def run_bounded(argv, env=None, cwd=None) -> tuple[int, str]:
    """Run a child in its own process group; on timeout kill the whole group
    (pool workers included) and wait for it, so nothing is left running."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, env=env, cwd=cwd, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return -1, f"timed out after {SUBPROCESS_TIMEOUT_S} s\n{out}"
    return proc.returncode, out


WORKLOADS = {"fcn_cell": CellWorkload, "mlp_cell": CellWorkload, "sweep": SweepWorkload}
