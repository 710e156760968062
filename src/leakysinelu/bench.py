"""Training/evaluation cells and the resumable sweep runner.

A cell is one (dataset, activation, architecture) combination trained with
the recipe defaults: MLP uses Adadelta (lr 1.0, 1000 epochs), FCN uses Adam
(lr 0.001, 2000 epochs); batch size 16, per-series z-normalization, one seed.
The optimizer and its learning rate are the architecture's recipe, not
settings: a config writes them into its dict and hash but cannot change them.
Completed and diverged cells are cached in an append-only JSONL store keyed
by a hash of the full cell configuration; reruns skip them. ``run_cell`` is
the one way a cell runs: the sweep and the ``train`` command both call it.

Allocation policy: ``train`` first sets glibc's mmap and trim thresholds to
1 GiB, once per process. By default glibc unmaps each large freed array and
hands the heap's top back to the OS, so every training step faulted its
temporaries in again (about 1,900 minor faults per FCN step and 300 per MLP
step at L=128, B=16, and thousands more in each cell's set-up); with the
thresholds set, a step reuses the previous step's memory and takes none.
Max RSS over 6 FCN steps (B=16) is unchanged at L=128 (87 MB), and about
4 % higher at L=1024 (354 -> 370 MB), because freed temporaries stay on the
heap. On another C library the policy is left as it is.
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
from .data import ZNORM_MODES, Dataset, load_dataset_pair, znormalize
from .errors import ConfigError, DataError, NumericError, ShapeError
from .models import (
    ModelSpec,
    ModelState,
    check_architecture,
    forward,
    init_params,
    predict,
    save_checkpoint,
    wrap_params,
)
from .autodiff import Tape, sigmoid_bce, softmax_xent
from .optim import OPTIMIZERS

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
_SETTLED = ("completed", "diverged")  # statuses a rerun cannot change
BATCH_SIZE = 16  # rows per forward pass; none is larger than a training step's

# glibc's <malloc.h> parameter numbers, and the threshold given to both.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_THRESHOLD = 1 << 30
_heap_kept = False  # allocation policy is per process: set it once

ARCH_DEFAULTS = {
    "mlp": {"optimizer": "adadelta", "learning_rate": 1.0, "epochs": 1000, "norm_enabled": False},
    "fcn": {"optimizer": "adam", "learning_rate": 0.001, "epochs": 2000, "norm_enabled": True},
}
_RECIPE = ("optimizer", "learning_rate")  # an architecture's, never a config's own


def _known(kind: str, name: str, choices) -> None:
    """ConfigError naming the choices unless ``name`` is one of them."""
    if name not in choices:
        raise ConfigError(f"unknown {kind} {name!r}; choose from {', '.join(choices)}")


class DivergenceError(NumericError):
    """Training produced a non-finite value; carries the epoch it happened."""

    def __init__(self, epoch: int, message: str):
        super().__init__(message)
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    """One cell's settings. The optimizer and its learning rate are not among
    them: they are the architecture's recipe in ``ARCH_DEFAULTS``, read by
    the ``optimizer`` and ``learning_rate`` properties. ``to_dict`` writes
    both, so they stay in the cell hash, and ``from_dict`` rejects a doc that
    names others."""

    architecture: str
    activation: zoo.ActivationKind
    epochs: int
    norm_enabled: bool
    batch_size: int = BATCH_SIZE
    seed: int = 0
    znorm: str = "per_series"

    def __post_init__(self):
        check_architecture(self.architecture, self.norm_enabled)
        _known("znorm", self.znorm, ZNORM_MODES)
        for name, least in (("epochs", 0), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an int, got {value!r}")
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")

    @property
    def optimizer(self) -> str:
        return ARCH_DEFAULTS[self.architecture]["optimizer"]

    @property
    def learning_rate(self) -> float:
        return ARCH_DEFAULTS[self.architecture]["learning_rate"]

    @staticmethod
    def for_architecture(architecture: str, activation, **overrides) -> "TrainConfig":
        """Recipe defaults for one architecture, with explicit overrides."""
        _known("architecture", architecture, ARCH_DEFAULTS)
        values = {k: v for k, v in ARCH_DEFAULTS[architecture].items() if k not in _RECIPE}
        values.update({k: v for k, v in overrides.items() if v is not None})
        return TrainConfig(
            architecture=architecture, activation=zoo._as_kind(activation), **values
        )

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["activation"] = zoo.kind_to_dict(self.activation)
        doc.update({name: getattr(self, name) for name in _RECIPE})
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "TrainConfig":
        values = {f.name: doc[f.name] for f in fields(TrainConfig)}
        values["activation"] = zoo.kind_from_dict(doc["activation"])
        config = TrainConfig(**values)
        for name in _RECIPE:
            if doc[name] != getattr(config, name):
                raise ConfigError(f"{name} {doc[name]!r} is not the {config.architecture} "
                                  f"recipe's {getattr(config, name)!r}")
        return config

    def make_optimizer(self):
        return OPTIMIZERS[self.optimizer](lr=self.learning_rate)


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
    return ModelSpec(config.architecture, config.activation, dataset.length,
                     dataset.n_classes, config.norm_enabled)


def _loss(spec: ModelSpec, logits, labels, tape: Tape | None = None):
    """The head's loss: binary cross-entropy on one sigmoid logit, else
    softmax cross-entropy."""
    loss_fn = sigmoid_bce if spec.head == "sigmoid" else softmax_xent
    return loss_fn(logits, labels, tape)


def _keep_heap() -> None:
    """Keep freed memory on the heap for the rest of the process, on glibc.

    Sets ``M_MMAP_THRESHOLD`` and then ``M_TRIM_THRESHOLD`` to 1 GiB, once.
    Either setting alone turns glibc's dynamic mmap threshold off, which
    faults more than neither, so the trim threshold is set only if glibc
    took the mmap one. Where ``libc.so.6`` or ``mallopt`` is missing, or
    refuses the value, nothing is set and nothing is raised.
    """
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    import ctypes  # here, so that a process that never trains does not load it

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _HEAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, _HEAP_THRESHOLD)


def train(
    spec: ModelSpec, dataset: Dataset, config: TrainConfig
) -> tuple[ModelState, list[float], object]:
    """Run the full epoch budget; returns (state, per-epoch loss history,
    optimizer state). Deterministic given the config seed; raises
    DivergenceError at the first non-finite loss.

    Before the first step of a process it sets glibc's allocation policy
    (``_keep_heap``): a step's freed temporaries stay on the heap for the
    next step, so no step page-faults them in again. That costs no peak RSS
    at L=128 and about 4 % at L=1024, and it changes no number.
    """
    _keep_heap()
    if dataset.length != spec.input_length:
        raise ShapeError(
            f"dataset length {dataset.length} does not match spec ({spec.input_length})"
        )
    state = init_params(spec, config.seed)
    opt = config.make_optimizer()
    opt_state = opt.init_state(state.params)
    n = len(dataset)
    history: list[float] = []

    # A function, so that each step's arrays (tape, gradients, logits) die
    # before the next step allocates: kept until their names were rebound,
    # they split the heap, and an L=1024, B=16 FCN run's max RSS grew from
    # 370 MB after step 1 to 407 MB after step 3, against a flat 370.
    def step(idx, rng, epoch) -> float:
        tape = Tape()
        tensors = wrap_params(state)
        try:
            logits = forward(
                spec, state, dataset.series[idx], tape=tape, training=True, rng=rng,
                param_tensors=tensors,
            )
            loss = _loss(spec, logits, dataset.labels[idx], tape)
            tape.backward(loss)
        except NumericError as exc:
            raise DivergenceError(epoch, str(exc)) from exc
        opt.step(opt_state, state.params, {name: t.grad for name, t in tensors.items()})
        return float(loss.data)

    for epoch in range(config.epochs):
        rng = np.random.default_rng((config.seed, epoch))
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            epoch_loss += step(idx, rng, epoch) * len(idx)
        history.append(epoch_loss / n)
    return state, history, opt_state


def _batches(dataset: Dataset):
    """(series, labels) slices of ``BATCH_SIZE`` rows, in order."""
    for start in range(0, len(dataset), BATCH_SIZE):
        rows = slice(start, start + BATCH_SIZE)
        yield dataset.series[rows], dataset.labels[rows]


def evaluate(state: ModelState, spec: ModelSpec, dataset: Dataset) -> float:
    """Test accuracy: argmax head with lowest-index ties, or logit > 0 for
    the sigmoid head; dropout off, batch norm in inference mode."""
    correct = sum(int((predict(spec, state, x) == y).sum()) for x, y in _batches(dataset))
    return correct / len(dataset)


def _eval_loss(state: ModelState, spec: ModelSpec, dataset: Dataset) -> float:
    """The eval-mode loss of ``state`` over ``dataset``, each batch weighted
    by its length as in ``train``'s history."""
    total = 0.0
    for x, y in _batches(dataset):
        logits = forward(spec, state, x, training=False)
        total += float(_loss(spec, logits, y).data) * len(y)
    return total / len(dataset)


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
        # with no epoch run, the eval-mode loss of the initialization
        result.final_train_loss = history[-1] if history else _eval_loss(state, spec, train_ds)
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
        result.error = f"{type(exc).__name__}: {exc}"
    result.seconds = time.perf_counter() - started
    return result.to_record()


def _not_a_record(doc) -> str | None:
    """Why a results line is not a result record, else None. Only the fields
    the sweep and ``compare`` read are checked, so older config schemas load."""
    if not isinstance(doc, dict):
        return "not a JSON object"
    for key in ("dataset", "config_hash"):
        if not isinstance(doc.get(key), str):
            return f"no string {key!r}"
    config = doc.get("config")
    if not isinstance(config, dict) or not isinstance(config.get("architecture"), str):
        return "no 'config' object with a string 'architecture'"
    act = config.get("activation")
    if not isinstance(act, dict) or not isinstance(act.get("name"), str):
        return "no 'config.activation' object with a string 'name'"
    if doc.get("status") not in (*_SETTLED, "failed"):
        return f"status {doc.get('status')!r} is not completed, diverged or failed"
    acc = doc.get("accuracy")
    if doc["status"] == "completed" and (type(acc) not in (int, float) or not np.isfinite(acc)):
        return f"completed record with accuracy {acc!r}, not a finite number"
    return None


class ResultsStore:
    """Append-only JSONL store; one record per cell outcome.

    A record counts once its line ends in a newline. An unterminated last
    line is the torn tail of an interrupted append: ``load`` ignores it, so
    that cell runs again, and ``append`` cuts it off before writing. Any
    other line that is not a result record is a DataError naming path:line.
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
                    record = json.loads(line)
                except ValueError as exc:
                    raise DataError(f"{self.path}:{lineno}: malformed record: {exc}") from exc
                why = _not_a_record(record)
                if why:
                    raise DataError(f"{self.path}:{lineno}: not a result record: {why}")
                records.append(record)
        return records

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

    Cells run independently, in min(``jobs``, pending cells) worker processes,
    or in this process when that is 1; each failure is recorded without
    aborting the sweep, and the returned records hold one record per distinct
    cell in (dataset, activation) order. A worker that dies breaks the pool:
    every cell whose record had not arrived is recorded as failed, so the next
    sweep runs it again.
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
    cells = list({c["config_hash"]: c for c in cells}.values())  # a repeated cell runs once
    # A cell's record: its newest settled one, else the fresh record of the run below.
    settled = {r["config_hash"]: r for r in store.load() if r["status"] in _SETTLED}
    pending = [c for c in cells if c["config_hash"] not in settled]
    outcome = SweepOutcome(records=[], n_cached=len(cells) - len(pending))
    fresh: dict[str, dict] = {}

    def keep(record: dict) -> None:
        store.append(record)
        fresh[record["config_hash"]] = record

    # A fork-context pool starts all its workers at the first submit.
    workers = min(jobs, len(pending))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
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
    newest = {**settled, **fresh}
    outcome.records = [newest[c["config_hash"]] for c in cells]
    return outcome
