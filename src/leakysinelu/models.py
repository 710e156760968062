"""Reference architectures: dropout MLP and 3-block FCN for univariate series.

The MLP is two dropout+dense(500) blocks followed by a dropout+dense head;
the FCN is three same-padded conv blocks (128/256/128 channels, kernels
8/5/3, optional batch norm) with global average pooling and a dense head.
Binary problems use a single sigmoid logit, multi-class a softmax head.
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


def _spec(
    architecture: str, activation, input_length: int, n_classes: int, norm_enabled: bool, body
) -> ModelSpec:
    """Check the sizes, append the head's dense layer to ``body`` and build the spec."""
    if input_length < 1:
        raise ConfigError(f"input_length must be >= 1, got {input_length}")
    if n_classes < 2:
        raise ConfigError(f"n_classes must be >= 2, got {n_classes}")
    head, units = ("sigmoid", 1) if n_classes == 2 else ("softmax", n_classes)
    return ModelSpec(
        architecture=architecture,
        activation=zoo._as_kind(activation),
        input_length=input_length,
        n_classes=n_classes,
        norm_enabled=norm_enabled,
        head=head,
        head_units=units,
        layers=(*body, {"type": "dense", "units": units}),
    )


def build_mlp(input_length: int, n_classes: int, activation) -> ModelSpec:
    """Dropout(.1)+dense(500), dropout(.2)+dense(500), dropout(.3)+head."""
    body = [
        {"type": "dropout", "p": 0.1},
        {"type": "dense", "units": 500},
        {"type": "activation"},
        {"type": "dropout", "p": 0.2},
        {"type": "dense", "units": 500},
        {"type": "activation"},
        {"type": "dropout", "p": 0.3},
    ]
    return _spec("mlp", activation, input_length, n_classes, False, body)


def build_fcn(
    input_length: int, n_classes: int, activation, norm_enabled: bool = True
) -> ModelSpec:
    """Three conv blocks (128/256/128 channels, kernels 8/5/3) + GAP + head."""
    body: list[dict[str, Any]] = []
    for channels, kernel in ((128, 8), (256, 5), (128, 3)):
        body.append({"type": "conv", "channels": channels, "kernel": kernel})
        if norm_enabled:
            body.append({"type": "batch_norm"})
        body.append({"type": "activation"})
    body.append({"type": "global_avg_pool"})
    return _spec("fcn", activation, input_length, n_classes, norm_enabled, body)


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
        else:
            raise ConfigError(f"unknown layer type {kind!r}")
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


def _rebuild(spec: ModelSpec) -> ModelSpec | None:
    """The spec ``build_mlp``/``build_fcn`` makes from ``spec``'s own fields."""
    if spec.architecture == "mlp":
        return build_mlp(spec.input_length, spec.n_classes, spec.activation)
    if spec.architecture == "fcn":
        return build_fcn(spec.input_length, spec.n_classes, spec.activation, spec.norm_enabled)
    return None


def load_checkpoint(path):
    """Read back (spec, state, optimizer_state) from save_checkpoint.

    DataError, naming the path, for a missing file, one that is not an .npz
    archive, one without readable metadata, another checkpoint format, no
    optimizer state (which save_checkpoint always writes), metadata that
    lacks a spec field, the seed or an optimizer key or holds one of the
    wrong type or value (an unknown activation, say), an input length,
    class count, seed or step count that is not an int in range, a spec
    that ``build_mlp``/``build_fcn`` would not make from its own fields,
    optimizer hyper-parameters that are not one optimizer's fields, or an
    array entry that is missing, extra or of another shape than the
    param/<name>, buffer/<name> and opt/<name>/<slot> entries that
    ``init_params(spec, seed)`` and that optimizer's ``SLOTS`` make, or that
    cannot be read without pickle, or is not finite float64.
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
        counts = {"spec.input_length": (spec.input_length, 1),
                  "spec.n_classes": (spec.n_classes, 2),
                  "seed": (seed, 0), "optimizer.step_count": (step_count, 0)}
        for name, (value, low) in counts.items():
            if type(value) is not int or value < low:  # bool is not an int here
                raise DataError(f"{path}: checkpoint {name} must be an int >= {low}, "
                                f"got {value!r}")
        if spec != _rebuild(spec):
            raise DataError(f"{path}: checkpoint spec is not the {spec.architecture!r} "
                            f"spec its own fields make")
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
