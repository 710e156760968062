"""Reference architectures: dropout MLP and 3-block FCN for univariate series.

The MLP is two dropout+dense(500) blocks followed by a dropout+dense head;
the FCN is three same-padded conv blocks (128/256/128 channels, kernels
8/5/3, optional batch norm) with global average pooling and a dense head.
Binary problems use a single sigmoid logit, multi-class a softmax head.

A ``ModelSpec`` is its five fields: architecture, activation, input length,
class count and whether the FCN has batch norm. Its head and its layer list
are properties worked out from them, and a checkpoint stores only the five.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from . import autodiff as ad
from . import activations as zoo
from .errors import ConfigError, DataError, ShapeError

__all__ = [
    "ModelSpec",
    "ModelState",
    "build_mlp",
    "build_fcn",
    "check_architecture",
    "init_params",
    "forward",
    "predict",
    "n_params",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = 1
ARCHITECTURES = ("mlp", "fcn")


def check_architecture(architecture: str, norm_enabled: bool) -> None:
    """ConfigError unless ``architecture`` is one of ``ARCHITECTURES`` and
    ``norm_enabled`` a bool that is False for the MLP, which has no
    normalization layer."""
    if architecture not in ARCHITECTURES:
        raise ConfigError(f"unknown architecture {architecture!r}; "
                          f"choose from {', '.join(ARCHITECTURES)}")
    # The layer list reads only its truth, so "no" or 0 would be a spec of its own.
    if not isinstance(norm_enabled, bool):
        raise ConfigError(f"norm_enabled must be a bool, got {norm_enabled!r}")
    if architecture == "mlp" and norm_enabled:
        raise ConfigError("norm_enabled must be False for mlp: it has no normalization layer")


@dataclass(frozen=True)
class ModelSpec:
    """One architecture/activation pair at one input length and class count:
    five fields, from which the head and the layer list are worked out."""

    architecture: str
    activation: zoo.ActivationKind
    input_length: int
    n_classes: int
    norm_enabled: bool

    def __post_init__(self):
        check_architecture(self.architecture, self.norm_enabled)
        for name, low in (("input_length", 1), ("n_classes", 2)):
            value = getattr(self, name)
            if type(value) is not int or value < low:  # bool is not an int here
                raise ConfigError(f"{name} must be an int >= {low}, got {value!r}")

    @property
    def head(self) -> str:
        """One sigmoid logit for two classes, else a softmax."""
        return "sigmoid" if self.n_classes == 2 else "softmax"

    @property
    def head_units(self) -> int:
        return 1 if self.n_classes == 2 else self.n_classes

    @property
    def layers(self) -> tuple[dict[str, Any], ...]:
        """The architecture's layers (see ``build_mlp``/``build_fcn``), then the head."""
        if self.architecture == "mlp":
            body = [
                {"type": "dropout", "p": 0.1}, {"type": "dense", "units": 500},
                {"type": "activation"},
                {"type": "dropout", "p": 0.2}, {"type": "dense", "units": 500},
                {"type": "activation"},
                {"type": "dropout", "p": 0.3},
            ]
        else:
            body = []
            for channels, kernel in ((128, 8), (256, 5), (128, 3)):
                body.append({"type": "conv", "channels": channels, "kernel": kernel})
                if self.norm_enabled:
                    body.append({"type": "batch_norm"})
                body.append({"type": "activation"})
            body.append({"type": "global_avg_pool"})
        return (*body, {"type": "dense", "units": self.head_units})

    def to_json(self) -> str:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["activation"] = zoo.kind_to_dict(self.activation)
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ModelSpec":
        """Inverse of ``to_json``; keys other than the five fields are ignored."""
        doc = json.loads(text)
        values = {f.name: doc[f.name] for f in fields(ModelSpec)}
        values["activation"] = zoo.kind_from_dict(doc["activation"])
        return ModelSpec(**values)


@dataclass
class ModelState:
    """Trainable parameters plus non-trainable buffers (BN running stats)."""

    params: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray] = field(default_factory=dict)
    seed: int = 0


def build_mlp(input_length: int, n_classes: int, activation) -> ModelSpec:
    """Dropout(.1)+dense(500), dropout(.2)+dense(500), dropout(.3)+head."""
    return ModelSpec("mlp", zoo._as_kind(activation), input_length, n_classes, False)


def build_fcn(
    input_length: int, n_classes: int, activation, norm_enabled: bool = True
) -> ModelSpec:
    """Three conv blocks (128/256/128 channels, kernels 8/5/3) + GAP + head."""
    return ModelSpec("fcn", zoo._as_kind(activation), input_length, n_classes, norm_enabled)


def init_params(spec: ModelSpec, seed: int) -> ModelState:
    """Deterministic initialization: uniform weights with variance 2/fan_in,
    zero biases, unit BN scales, activation parameters at their defaults."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    buffers: dict[str, np.ndarray] = {}
    width = spec.input_length if spec.architecture == "mlp" else 1
    for i, layer in enumerate(spec.layers):
        kind = layer["type"]
        if kind == "dense":
            fan_in = width
            limit = np.sqrt(6.0 / fan_in)
            params[f"l{i}.W"] = rng.uniform(-limit, limit, size=(fan_in, layer["units"]))
            params[f"l{i}.b"] = np.zeros(layer["units"])
            width = layer["units"]
        elif kind == "conv":
            fan_in = width * layer["kernel"]
            limit = np.sqrt(6.0 / fan_in)
            params[f"l{i}.W"] = rng.uniform(
                -limit, limit, size=(layer["channels"], width, layer["kernel"])
            )
            params[f"l{i}.b"] = np.zeros(layer["channels"])
            width = layer["channels"]
        elif kind == "batch_norm":
            params[f"l{i}.gamma"] = np.ones(width)
            params[f"l{i}.beta"] = np.zeros(width)
            buffers[f"l{i}.running_mean"] = np.zeros(width)
            buffers[f"l{i}.running_var"] = np.ones(width)
        elif kind == "activation":
            for name in spec.activation.learnable:
                params[f"l{i}.{name}"] = np.full(width, spec.activation.params[name])
    return ModelState(params=params, buffers=buffers, seed=seed)


def n_params(state: ModelState) -> int:
    return sum(p.size for p in state.params.values())


def wrap_params(state: ModelState) -> dict[str, ad.Tensor]:
    return {name: ad.Tensor(arr) for name, arr in state.params.items()}


def forward(
    spec: ModelSpec,
    state: ModelState,
    x: np.ndarray,
    *,
    tape: ad.Tape | None = None,
    training: bool = False,
    rng: np.random.Generator | None = None,
    param_tensors: dict[str, ad.Tensor] | None = None,
) -> ad.Tensor:
    """Run the layer sequence on a batch, returning the head logits (B, H).

    Accepts (B, L) or (B, 1, L) input. Pass ``param_tensors`` (from
    ``wrap_params``) to read back parameter gradients after ``backward``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3 and x.shape[1] == 1:
        flat = x[:, 0, :]
    elif x.ndim == 2:
        flat = x
    else:
        raise ShapeError(f"expected (B, L) or (B, 1, L) input, got {x.shape}")
    if flat.shape[1] != spec.input_length:
        raise ShapeError(
            f"input length {flat.shape[1]} does not match spec ({spec.input_length})"
        )
    pt = param_tensors if param_tensors is not None else wrap_params(state)
    # The FCN body is channel-major, (C, B, L), up to global_avg_pool, which
    # hands (B, C) to the head. The data batch needs no gradient.
    cur = ad.Tensor(flat if spec.architecture == "mlp" else flat[None], requires_grad=False)
    for i, layer in enumerate(spec.layers):
        kind = layer["type"]
        if kind == "dropout":
            cur = ad.dropout(cur, layer["p"], training, rng, tape)
        elif kind == "dense":
            cur = ad.affine(cur, pt[f"l{i}.W"], pt[f"l{i}.b"], tape)
        elif kind == "conv":
            cur = ad.conv1d_same(cur, pt[f"l{i}.W"], pt[f"l{i}.b"], tape)
        elif kind == "batch_norm":
            cur = ad.batch_norm1d(
                cur,
                pt[f"l{i}.gamma"],
                pt[f"l{i}.beta"],
                state.buffers[f"l{i}.running_mean"],
                state.buffers[f"l{i}.running_var"],
                training,
                tape,
            )
        elif kind == "global_avg_pool":
            cur = ad.global_avg_pool(cur, tape)
        elif kind == "activation":
            param = None
            for name in spec.activation.learnable:
                param = pt[f"l{i}.{name}"]
            cur = ad.activate(cur, spec.activation, tape, param=param)
    return cur


def predict(spec: ModelSpec, state: ModelState, x: np.ndarray) -> np.ndarray:
    """Predicted class indices; softmax ties resolve to the lowest index."""
    logits = forward(spec, state, x, training=False).data
    if spec.head == "softmax":
        return np.argmax(logits, axis=1)
    return (logits.reshape(-1) > 0.0).astype(np.int64)


def save_checkpoint(path, spec: ModelSpec, state: ModelState, opt_state) -> None:
    """Write spec, parameters, buffers and optimizer slots to one .npz file.

    The archive goes to ``<name>.tmp`` beside ``path`` and is then moved onto
    ``path`` itself (no suffix is added), so a crash mid-write leaves an
    earlier checkpoint there whole. On an error the temporary file is removed.
    """
    arrays: dict[str, np.ndarray] = {}
    for name, arr in state.params.items():
        arrays[f"param/{name}"] = arr
    for name, arr in state.buffers.items():
        arrays[f"buffer/{name}"] = arr
    meta: dict[str, Any] = {
        "format": CHECKPOINT_FORMAT,
        "spec": json.loads(spec.to_json()),
        "seed": state.seed,
        "optimizer": {"hyper": opt_state.hyper, "step_count": opt_state.step_count},
    }
    for name, slots in opt_state.slots.items():
        for slot, arr in slots.items():
            arrays[f"opt/{name}/{slot}"] = arr
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:  # a handle: np.savez adds ".npz" to a name without it
            np.savez(f, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Read back (spec, state, optimizer_state) from save_checkpoint.

    DataError, naming the path, for a missing file, one that is not an .npz
    archive, one without readable metadata, another checkpoint format, no
    optimizer state (which save_checkpoint always writes), metadata that
    lacks one of the spec's five fields, the seed or an optimizer key or
    holds one that ``ModelSpec`` rejects (an unknown activation or
    architecture, say, or a class count that is not an int >= 2), a seed or
    step count that is not an int >= 0, optimizer hyper-parameters that are
    not one optimizer's fields, or an array entry that is missing, extra or
    of another shape than the param/<name>, buffer/<name> and
    opt/<name>/<slot> entries that ``init_params(spec, seed)`` and that
    optimizer's ``SLOTS`` make, or that cannot be read without pickle, or is
    not finite float64. Any other key of ``meta.spec`` is ignored: files
    written before the spec became its five fields also hold its ``head``,
    ``head_units`` and ``layers``, which are never read.
    """
    from .optim import OPTIMIZERS, OptimizerState

    try:
        blob = np.load(path)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: cannot read checkpoint: {exc}") from exc
    if not isinstance(blob, np.lib.npyio.NpzFile):
        raise DataError(f"{path}: cannot read checkpoint: not an .npz archive")
    with blob:
        try:
            meta = json.loads(bytes(blob["meta"]).decode())
        except (KeyError, ValueError) as exc:
            raise DataError(f"{path}: not a checkpoint: no readable 'meta' entry") from exc
        found = meta.get("format") if isinstance(meta, dict) else None
        if found != CHECKPOINT_FORMAT:
            raise DataError(f"{path}: unsupported checkpoint format {found!r}")
        if "optimizer" not in meta:
            raise DataError(f"{path}: checkpoint has no optimizer state")
        try:
            spec = ModelSpec.from_json(json.dumps(meta["spec"]))
            seed = meta["seed"]
            hyper, step_count = meta["optimizer"]["hyper"], meta["optimizer"]["step_count"]
        except KeyError as exc:
            raise DataError(f"{path}: checkpoint metadata has no {exc}") from exc
        except (TypeError, ValueError, ConfigError) as exc:
            raise DataError(f"{path}: malformed checkpoint metadata: {exc}") from exc
        for name, value in (("seed", seed), ("optimizer.step_count", step_count)):
            if type(value) is not int or value < 0:  # bool is not an int here
                raise DataError(f"{path}: checkpoint {name} must be an int >= 0, got {value!r}")
        opt_name = next((name for name, cls in OPTIMIZERS.items() if isinstance(hyper, dict)
                         and hyper.keys() == {f.name for f in fields(cls)}), None)
        if opt_name is None:
            raise DataError(f"{path}: checkpoint optimizer.hyper {hyper!r} has the fields "
                            f"of none of the optimizers {', '.join(OPTIMIZERS)}")
        made, slot_names = init_params(spec, seed), OPTIMIZERS[opt_name].SLOTS
        want = {f"param/{name}": p.shape for name, p in made.params.items()}
        want.update({f"buffer/{name}": b.shape for name, b in made.buffers.items()})
        want.update({f"opt/{name}/{slot}": p.shape for name, p in made.params.items()
                     for slot in slot_names})
        arrays = {}
        for key in blob.files:
            if key == "meta":
                continue
            if key not in want:
                raise DataError(f"{path}: checkpoint entry {key!r} is not one the spec and "
                                f"{opt_name} make")
            try:
                arr = arrays[key] = blob[key]
            except ValueError as exc:  # an object array, which needs pickle
                raise DataError(f"{path}: cannot read checkpoint entry {key!r}: {exc}") from exc
            if arr.shape != want[key]:
                raise DataError(f"{path}: checkpoint entry {key!r} has shape {arr.shape}, "
                                f"the spec makes {want[key]}")
            if arr.dtype != np.float64:
                raise DataError(f"{path}: checkpoint entry {key!r} has dtype {arr.dtype}, "
                                f"not float64")
            if not np.isfinite(arr).all():
                raise DataError(f"{path}: checkpoint entry {key!r} holds a non-finite value")
        missing = sorted(want.keys() - arrays.keys())
        if missing:
            raise DataError(f"{path}: checkpoint has no entry {missing[0]!r}")
        params = {name: arrays[f"param/{name}"] for name in made.params}
        buffers = {name: arrays[f"buffer/{name}"] for name in made.buffers}
        slots = {name: {slot: arrays[f"opt/{name}/{slot}"] for slot in slot_names}
                 for name in made.params}
        state = ModelState(params=params, buffers=buffers, seed=seed)
        opt_state = OptimizerState(hyper=hyper, slots=slots, step_count=step_count)
    return spec, state, opt_state
