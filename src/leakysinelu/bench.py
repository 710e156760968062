"""Training/evaluation cells and the resumable sweep runner.

A cell is one (dataset, activation, architecture) combination trained with
the recipe defaults: MLP uses Adadelta (lr 1.0, 1000 epochs), FCN uses Adam
(lr 0.001, 2000 epochs); batch size 16, per-series z-normalization, one seed.
Completed and diverged cells are cached in an append-only JSONL store keyed
by a hash of the full cell configuration; reruns skip them. ``run_cell`` is
the one way a cell runs: the sweep and the ``train`` command both call it.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import activations as zoo
from .data import Dataset, load_dataset_pair, znormalize
from .errors import ConfigError, DataError, NumericError, ShapeError
from .models import (
    ModelSpec,
    ModelState,
    build_fcn,
    build_mlp,
    forward,
    init_params,
    predict,
    save_checkpoint,
    wrap_params,
)
from .autodiff import Tape, sigmoid_bce, softmax_xent
from .optim import Adadelta, Adam

__all__ = [
    "TrainConfig",
    "RunResult",
    "DivergenceError",
    "ResultsStore",
    "train",
    "evaluate",
    "run_sweep",
    "run_cell",
    "cell_payload",
    "cell_hash",
    "build_spec",
]

SCHEMA_VERSION = 2

ARCH_DEFAULTS = {
    "mlp": {"optimizer": "adadelta", "learning_rate": 1.0, "epochs": 1000},
    "fcn": {"optimizer": "adam", "learning_rate": 0.001, "epochs": 2000},
}


class DivergenceError(NumericError):
    """Training produced a non-finite value; carries the epoch it happened."""

    def __init__(self, epoch: int, message: str):
        super().__init__(message)
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    architecture: str
    activation: zoo.ActivationKind
    optimizer: str
    learning_rate: float
    epochs: int
    batch_size: int = 16
    seed: int = 0
    znorm: str = "per_series"
    norm_enabled: bool = True

    def __post_init__(self):
        for name, least in (("epochs", 0), ("batch_size", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")

    @staticmethod
    def for_architecture(architecture: str, activation, **overrides) -> "TrainConfig":
        """Recipe defaults for one architecture, with explicit overrides."""
        if architecture not in ARCH_DEFAULTS:
            raise ConfigError(f"unknown architecture {architecture!r}")
        values = dict(ARCH_DEFAULTS[architecture])
        if architecture == "mlp":
            values["norm_enabled"] = False
        values.update({k: v for k, v in overrides.items() if v is not None})
        return TrainConfig(
            architecture=architecture, activation=zoo._as_kind(activation), **values
        )

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["activation"] = zoo.kind_to_dict(self.activation)
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "TrainConfig":
        values = {f.name: doc[f.name] for f in fields(TrainConfig)}
        values["activation"] = zoo.kind_from_dict(doc["activation"])
        return TrainConfig(**values)

    def make_optimizer(self):
        if self.optimizer == "adadelta":
            return Adadelta(lr=self.learning_rate)
        if self.optimizer == "adam":
            return Adam(lr=self.learning_rate)
        raise ConfigError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class RunResult:
    """Outcome of one cell. ``seconds`` is diagnostic only and excluded from
    the determinism contract; every other field is a pure function of the
    configuration."""

    dataset: str
    config: dict
    config_hash: str
    status: str  # completed | diverged | failed
    accuracy: float | None = None
    final_train_loss: float | None = None
    seconds: float = 0.0
    checkpoint: str | None = None
    error: str | None = None
    diverged_epoch: int | None = None

    def to_record(self) -> dict:
        return {"schema": SCHEMA_VERSION, **{f.name: getattr(self, f.name) for f in fields(self)}}

    @staticmethod
    def from_record(doc: dict) -> "RunResult":
        """Inverse of ``to_record``; a field missing from ``doc`` takes its default."""
        return RunResult(**{f.name: doc[f.name] for f in fields(RunResult) if f.name in doc})


def cell_hash(dataset_name: str, config: TrainConfig) -> str:
    doc = {"dataset": dataset_name, "config": config.to_dict()}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def cell_payload(dataset: str, config: TrainConfig, data_root, checkpoint_dir=None) -> dict:
    """The plain-dict description of one cell that ``run_cell`` executes."""
    return {
        "dataset": dataset,
        "config": config.to_dict(),
        "config_hash": cell_hash(dataset, config),
        "data_root": str(data_root),
        "checkpoint_dir": str(checkpoint_dir) if checkpoint_dir else None,
    }


def build_spec(config: TrainConfig, dataset: Dataset) -> ModelSpec:
    if config.architecture == "mlp":
        return build_mlp(dataset.length, dataset.n_classes, config.activation)
    return build_fcn(
        dataset.length, dataset.n_classes, config.activation, config.norm_enabled
    )


def _loss(spec: ModelSpec, logits, labels, tape: Tape | None = None):
    """The head's loss: binary cross-entropy on one sigmoid logit, else
    softmax cross-entropy."""
    loss_fn = sigmoid_bce if spec.head == "sigmoid" else softmax_xent
    return loss_fn(logits, labels, tape)


def _batches(n: int, batch_size: int, perm: np.ndarray):
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def train(
    spec: ModelSpec, dataset: Dataset, config: TrainConfig
) -> tuple[ModelState, list[float], object]:
    """Run the full epoch budget; returns (state, per-epoch loss history,
    optimizer state). Deterministic given the config seed; raises
    DivergenceError at the first non-finite loss."""
    if dataset.length != spec.input_length:
        raise ShapeError(
            f"dataset length {dataset.length} does not match spec ({spec.input_length})"
        )
    state = init_params(spec, config.seed)
    opt = config.make_optimizer()
    opt_state = opt.init_state(state.params)
    n = len(dataset)
    history: list[float] = []
    for epoch in range(config.epochs):
        rng = np.random.default_rng((config.seed, epoch))
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for idx in _batches(n, config.batch_size, perm):
            x = dataset.series[idx]
            y = dataset.labels[idx]
            tape = Tape()
            tensors = wrap_params(state)
            try:
                logits = forward(
                    spec, state, x, tape=tape, training=True, rng=rng,
                    param_tensors=tensors,
                )
                loss = _loss(spec, logits, y, tape)
                tape.backward(loss)
            except NumericError as exc:
                raise DivergenceError(epoch, str(exc)) from exc
            grads = {
                name: (t.grad if t.grad is not None else np.zeros_like(t.data))
                for name, t in tensors.items()
            }
            opt.step(opt_state, state.params, grads)
            epoch_loss += float(loss.data) * len(idx)
        history.append(epoch_loss / n)
    return state, history, opt_state


def evaluate(state: ModelState, spec: ModelSpec, dataset: Dataset, batch_size: int = 256) -> float:
    """Test accuracy: argmax head with lowest-index ties, or logit > 0 for
    the sigmoid head; dropout off, batch norm in inference mode."""
    correct = 0
    for start in range(0, len(dataset), batch_size):
        x = dataset.series[start : start + batch_size]
        y = dataset.labels[start : start + batch_size]
        correct += int((predict(spec, state, x) == y).sum())
    return correct / len(dataset)


def run_cell(payload: dict) -> dict:
    """Execute one cell described by a plain-dict payload (process-safe)."""
    config = TrainConfig.from_dict(payload["config"])
    started = time.perf_counter()
    result = RunResult(
        dataset=payload["dataset"],
        config=config.to_dict(),
        config_hash=payload["config_hash"],
        status="failed",
    )
    try:
        train_ds, test_ds = load_dataset_pair(payload["data_root"], payload["dataset"])
        train_ds = znormalize(train_ds, config.znorm)
        test_ds = znormalize(test_ds, config.znorm)
        spec = build_spec(config, train_ds)
        state, history, opt_state = train(spec, train_ds, config)
        result.accuracy = evaluate(state, spec, test_ds)
        if history:
            result.final_train_loss = history[-1]
        else:  # no epoch ran: the eval-mode loss of the initialization
            logits = forward(spec, state, train_ds.series, training=False)
            result.final_train_loss = float(_loss(spec, logits, train_ds.labels).data)
        if payload.get("checkpoint_dir"):
            ckpt_dir = Path(payload["checkpoint_dir"])
            ckpt_dir.mkdir(parents=True, exist_ok=True)
            ckpt = ckpt_dir / f"{payload['config_hash']}.npz"
            save_checkpoint(ckpt, spec, state, opt_state)
            result.checkpoint = str(ckpt)
        result.status = "completed"
    except DivergenceError as exc:
        result.status = "diverged"
        result.diverged_epoch = exc.epoch
        result.error = str(exc)
    except Exception as exc:  # noqa: BLE001 - a sweep never aborts on one cell
        result.status = "failed"
        result.error = f"{type(exc).__name__}: {exc}"
    result.seconds = time.perf_counter() - started
    return result.to_record()


class ResultsStore:
    """Append-only JSONL store; one record per cell outcome.

    A record counts once its line ends in a newline. An unterminated last
    line is the torn tail of an interrupted append: ``load`` ignores it, so
    that cell runs again, and ``append`` cuts it off before writing.
    """

    def __init__(self, path):
        self.path = Path(path)

    def load(self) -> list[dict]:
        if not self.path.is_file():
            return []
        records = []
        with open(self.path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith(b"\n"):
                    break
                if not line.strip():
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError as exc:
                    raise DataError(f"{self.path}:{lineno}: malformed record: {exc}") from exc
        return records

    def settled_hashes(self) -> set[str]:
        """Hashes with a determinate outcome (completed or diverged)."""
        return {
            r["config_hash"]
            for r in self.load()
            if r["status"] in ("completed", "diverged")
        }

    def append(self, record: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a+b") as fh:
            end = fh.seek(0, os.SEEK_END)
            if end:
                fh.seek(end - 1)
                if fh.read(1) != b"\n":
                    fh.seek(0)
                    fh.truncate(fh.read().rfind(b"\n") + 1)
            fh.write((json.dumps(record, sort_keys=True) + "\n").encode())


@dataclass
class SweepOutcome:
    records: list[dict]
    n_cached: int = 0
    n_trained: int = 0
    n_failed: int = 0


def run_sweep(
    dataset_names,
    activation_names,
    architecture: str,
    data_root,
    store: ResultsStore,
    overrides: dict | None = None,
    jobs: int = 1,
    checkpoint_dir=None,
) -> SweepOutcome:
    """Train every (dataset x activation) cell not already settled.

    Cells run independently (optionally in ``jobs`` worker processes); each
    failure is recorded without aborting the sweep, and the returned records
    cover every requested cell in (dataset, activation) order. A worker
    that dies breaks the pool: every cell whose record had not arrived is
    recorded as failed, so the next sweep runs it again.
    """
    dataset_names = list(dataset_names)
    activation_names = list(activation_names)
    if not dataset_names or not activation_names:
        raise ConfigError("sweep needs at least one dataset and one activation")
    overrides = overrides or {}
    cells = [
        cell_payload(
            ds, TrainConfig.for_architecture(architecture, act, **overrides),
            data_root, checkpoint_dir,
        )
        for ds in dataset_names
        for act in activation_names
    ]
    settled = store.settled_hashes()
    pending = [c for c in cells if c["config_hash"] not in settled]
    outcome = SweepOutcome(records=[], n_cached=len(cells) - len(pending))
    fresh: dict[str, dict] = {}

    def keep(record: dict) -> None:
        store.append(record)
        fresh[record["config_hash"]] = record

    if pending and jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(run_cell, payload) for payload in pending]
            for payload, future in zip(pending, futures):
                try:
                    keep(future.result())
                except BrokenProcessPool as exc:
                    keep(RunResult(
                        dataset=payload["dataset"], config=payload["config"],
                        config_hash=payload["config_hash"], status="failed",
                        error=f"BrokenProcessPool: {exc}",
                    ).to_record())
    else:
        for payload in pending:
            keep(run_cell(payload))
    outcome.n_trained = sum(1 for r in fresh.values() if r["status"] == "completed")
    outcome.n_failed = sum(1 for r in fresh.values() if r["status"] != "completed")
    by_hash: dict[str, dict] = {}
    for record in store.load():
        by_hash.setdefault(record["config_hash"], record)
        if record["status"] in ("completed", "diverged"):
            by_hash[record["config_hash"]] = record
    outcome.records = [by_hash[c["config_hash"]] for c in cells if c["config_hash"] in by_hash]
    return outcome
