"""Reference architectures: dropout MLP and 3-block FCN for univariate series.

The MLP is two dropout+dense(500) blocks followed by a dropout+dense head;
the FCN is three same-padded conv blocks (128/256/128 channels, kernels
8/5/3, optional batch norm) with global average pooling and a dense head.
Binary problems use a single sigmoid logit, multi-class a softmax head.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from . import autodiff as ad
from . import activations as zoo
from .errors import ConfigError, ShapeError

__all__ = [
    "ModelSpec",
    "ModelState",
    "build_mlp",
    "build_fcn",
    "init_params",
    "forward",
    "predict",
    "n_params",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = 1


@dataclass(frozen=True)
class ModelSpec:
    """Declarative layer sequence for one architecture/activation pair."""

    architecture: str
    activation: zoo.ActivationKind
    input_length: int
    n_classes: int
    norm_enabled: bool
    head: str
    head_units: int
    layers: tuple[dict[str, Any], ...]

    def to_json(self) -> str:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["activation"] = zoo.kind_to_dict(self.activation)
        doc["layers"] = list(self.layers)
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ModelSpec":
        doc = json.loads(text)
        values = {f.name: doc[f.name] for f in fields(ModelSpec)}
        values["activation"] = zoo.kind_from_dict(doc["activation"])
        values["layers"] = tuple(doc["layers"])
        return ModelSpec(**values)


@dataclass
class ModelState:
    """Trainable parameters plus non-trainable buffers (BN running stats)."""

    params: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray] = field(default_factory=dict)
    seed: int = 0


def _check_sizes(input_length: int, n_classes: int) -> None:
    if input_length < 1:
        raise ConfigError(f"input_length must be >= 1, got {input_length}")
    if n_classes < 2:
        raise ConfigError(f"n_classes must be >= 2, got {n_classes}")


def _head(n_classes: int) -> tuple[str, int]:
    if n_classes == 2:
        return "sigmoid", 1
    return "softmax", n_classes


def build_mlp(input_length: int, n_classes: int, activation) -> ModelSpec:
    """Dropout(.1)+dense(500), dropout(.2)+dense(500), dropout(.3)+head."""
    _check_sizes(input_length, n_classes)
    head, units = _head(n_classes)
    layers = (
        {"type": "dropout", "p": 0.1},
        {"type": "dense", "units": 500},
        {"type": "activation"},
        {"type": "dropout", "p": 0.2},
        {"type": "dense", "units": 500},
        {"type": "activation"},
        {"type": "dropout", "p": 0.3},
        {"type": "dense", "units": units},
    )
    return ModelSpec(
        architecture="mlp",
        activation=zoo._as_kind(activation),
        input_length=input_length,
        n_classes=n_classes,
        norm_enabled=False,
        head=head,
        head_units=units,
        layers=layers,
    )


def build_fcn(
    input_length: int, n_classes: int, activation, norm_enabled: bool = True
) -> ModelSpec:
    """Three conv blocks (128/256/128 channels, kernels 8/5/3) + GAP + head."""
    _check_sizes(input_length, n_classes)
    head, units = _head(n_classes)
    layers: list[dict[str, Any]] = []
    for channels, kernel in ((128, 8), (256, 5), (128, 3)):
        layers.append({"type": "conv", "channels": channels, "kernel": kernel})
        if norm_enabled:
            layers.append({"type": "batch_norm"})
        layers.append({"type": "activation"})
    layers.append({"type": "global_avg_pool"})
    layers.append({"type": "dense", "units": units})
    return ModelSpec(
        architecture="fcn",
        activation=zoo._as_kind(activation),
        input_length=input_length,
        n_classes=n_classes,
        norm_enabled=norm_enabled,
        head=head,
        head_units=units,
        layers=tuple(layers),
    )


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
    update_running: bool = True,
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
    cur = ad.Tensor(flat if spec.architecture == "mlp" else flat[:, None, :])
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
                update_running=update_running,
            )
        elif kind == "global_avg_pool":
            cur = ad.global_avg_pool(cur, tape)
        elif kind == "activation":
            param = None
            for name in spec.activation.learnable:
                param = pt[f"l{i}.{name}"]
            cur = ad.activate(cur, spec.activation, tape, param=param)
        else:
            raise ConfigError(f"unknown layer type {kind!r}")
    return cur


def predict(spec: ModelSpec, state: ModelState, x: np.ndarray) -> np.ndarray:
    """Predicted class indices; softmax ties resolve to the lowest index."""
    logits = forward(spec, state, x, training=False).data
    if spec.head == "softmax":
        return np.argmax(logits, axis=1)
    return (logits.reshape(-1) > 0.0).astype(np.int64)


def save_checkpoint(path, spec: ModelSpec, state: ModelState, opt_state=None) -> None:
    """Write spec, parameters, buffers and optimizer slots to one .npz file."""
    arrays: dict[str, np.ndarray] = {}
    for name, arr in state.params.items():
        arrays[f"param/{name}"] = arr
    for name, arr in state.buffers.items():
        arrays[f"buffer/{name}"] = arr
    meta: dict[str, Any] = {
        "format": CHECKPOINT_FORMAT,
        "spec": json.loads(spec.to_json()),
        "seed": state.seed,
    }
    if opt_state is not None:
        meta["optimizer"] = {"hyper": opt_state.hyper, "step_count": opt_state.step_count}
        for name, slots in opt_state.slots.items():
            for slot, arr in slots.items():
                arrays[f"opt/{name}/{slot}"] = arr
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path):
    """Read back (spec, state, optimizer_state_or_None) from save_checkpoint."""
    from .optim import OptimizerState

    with np.load(path) as blob:
        meta = json.loads(bytes(blob["meta"]).decode())
        if meta["format"] != CHECKPOINT_FORMAT:
            raise ConfigError(f"unsupported checkpoint format {meta['format']}")
        spec = ModelSpec.from_json(json.dumps(meta["spec"]))
        params, buffers, slots = {}, {}, {}
        for key in blob.files:
            if key.startswith("param/"):
                params[key[6:]] = blob[key]
            elif key.startswith("buffer/"):
                buffers[key[7:]] = blob[key]
            elif key.startswith("opt/"):
                _, name, slot = key.split("/", 2)
                slots.setdefault(name, {})[slot] = blob[key]
        state = ModelState(params=params, buffers=buffers, seed=meta["seed"])
        opt_state = None
        if "optimizer" in meta:
            opt_state = OptimizerState(
                hyper=meta["optimizer"]["hyper"],
                slots=slots,
                step_count=meta["optimizer"]["step_count"],
            )
    return spec, state, opt_state
