import io
import json
import os

import numpy as np
import pytest

from leakysinelu import activations as zoo
from leakysinelu.errors import ConfigError, DataError, ShapeError
from leakysinelu.models import (
    ModelSpec,
    build_fcn,
    build_mlp,
    forward,
    init_params,
    load_checkpoint,
    n_params,
    predict,
    save_checkpoint,
)
from leakysinelu.optim import Adadelta, Adam

from conftest import UNLIKE_IDS, UNLIKE_THE_CATALOG


class TestBuildMlp:
    def test_binary_head_and_parameter_count(self):
        spec = build_mlp(24, 2, "leakysinelu")
        assert spec.head == "sigmoid" and spec.head_units == 1
        state = init_params(spec, 0)
        assert n_params(state) == 263_501

    def test_multiclass_head_and_widths(self):
        spec = build_mlp(24, 3, "relu")
        assert spec.head == "softmax" and spec.head_units == 3
        widths = [l["units"] for l in spec.layers if l["type"] == "dense"]
        assert widths == [500, 500, 3]

    def test_dropout_probabilities(self):
        spec = build_mlp(24, 3, "relu")
        probs = tuple(l["p"] for l in spec.layers if l["type"] == "dropout")
        assert probs == (0.1, 0.2, 0.3)

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            build_mlp(0, 2, "relu")
        with pytest.raises(ConfigError):
            build_mlp(24, 1, "relu")


class TestModelSpec:
    @pytest.mark.parametrize("architecture, norm_enabled, message", [
        ("cnn", False, "unknown architecture 'cnn'; choose from mlp, fcn"),
        ("mlp", True, "norm_enabled must be False for mlp"),
    ], ids=["unknown-architecture", "norm-for-mlp"])
    def test_architecture_it_cannot_build_rejected(self, architecture, norm_enabled, message):
        with pytest.raises(ConfigError, match=message):
            ModelSpec(architecture, zoo.activation("relu"), 24, 3, norm_enabled)

    def test_equal_specs_are_one_key(self):
        a, b = build_fcn(16, 3, "prelu"), build_fcn(16, 3, zoo.activation("prelu"))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != build_fcn(16, 3, "snake")


class TestBuildFcn:
    def test_blocks(self):
        spec = build_fcn(96, 5, "snake")
        convs = [(l["channels"], l["kernel"]) for l in spec.layers if l["type"] == "conv"]
        assert convs == [(128, 8), (256, 5), (128, 3)]
        assert spec.head == "softmax" and spec.head_units == 5
        dense = [l for l in spec.layers if l["type"] == "dense"]
        assert len(dense) == 1 and dense[0]["units"] == 5

    def test_forward_shape_trace(self):
        spec = build_fcn(96, 5, "snake")
        state = init_params(spec, 0)
        x = np.random.default_rng(0).normal(size=(4, 1, 96))
        assert forward(spec, state, x).data.shape == (4, 5)

    def test_norm_disabled(self):
        spec = build_fcn(24, 3, "relu", norm_enabled=False)
        assert not any(l["type"] == "batch_norm" for l in spec.layers)
        assert sum(l["type"] == "batch_norm" for l in build_fcn(24, 3, "relu").layers) == 3


class TestInitParams:
    def test_deterministic(self):
        spec = build_mlp(24, 3, "prelu")
        a = init_params(spec, 7)
        b = init_params(spec, 7)
        assert set(a.params) == set(b.params)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_weight_variance_matches_scheme(self):
        spec = build_mlp(24, 3, "relu")
        state = init_params(spec, 0)
        w = state.params["l4.W"]  # the 500 -> 500 layer
        assert w.shape == (500, 500)
        assert abs(w.var() - 2.0 / 500) / (2.0 / 500) < 0.2

    def test_biases_zero(self):
        spec = build_fcn(24, 3, "relu")
        state = init_params(spec, 3)
        for name, arr in state.params.items():
            if name.endswith(".b") or name.endswith(".beta"):
                assert np.array_equal(arr, np.zeros_like(arr))

    def test_prelu_alpha_per_neuron(self):
        spec = build_mlp(24, 3, "prelu")
        state = init_params(spec, 0)
        alphas = [v for k, v in state.params.items() if k.endswith(".alpha")]
        assert [a.shape for a in alphas] == [(500,), (500,)]
        assert all(np.all(a == 0.25) for a in alphas)

    def test_snake_a_not_trainable_by_default(self):
        spec = build_fcn(24, 3, "snake")
        state = init_params(spec, 0)
        assert not any(k.endswith(".a") for k in state.params)


class TestForward:
    @pytest.mark.parametrize("arch", ["mlp", "fcn"])
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_output_shape(self, arch, batch):
        build = build_mlp if arch == "mlp" else build_fcn
        spec = build(24, 3, "leakysinelu")
        state = init_params(spec, 0)
        rng = np.random.default_rng(0)
        flat = forward(spec, state, rng.normal(size=(batch, 24)))
        assert flat.data.shape == (batch, 3)
        chan = forward(spec, state, rng.normal(size=(batch, 1, 24)))
        assert chan.data.shape == (batch, 3)

    def test_wrong_length_rejected(self):
        spec = build_mlp(24, 3, "relu")
        state = init_params(spec, 0)
        with pytest.raises(ShapeError):
            forward(spec, state, np.zeros((2, 25)))

    def test_predict_tie_breaks_to_lowest_index(self):
        spec = build_mlp(8, 3, "relu")
        state = init_params(spec, 0)
        for name in state.params:
            state.params[name][:] = 0.0
        preds = predict(spec, state, np.random.default_rng(1).normal(size=(6, 8)))
        assert np.array_equal(preds, np.zeros(6, dtype=np.int64))


class TestSerialization:
    def test_spec_round_trip(self):
        for spec in (
            build_mlp(24, 2, "leakysinelu"),
            build_fcn(96, 5, zoo.activation("prelu")),
            build_fcn(24, 3, "relu", norm_enabled=False),
        ):
            assert ModelSpec.from_json(spec.to_json()) == spec
            assert set(json.loads(spec.to_json())) == {
                "architecture", "activation", "input_length", "n_classes", "norm_enabled"}

    def test_checkpoint_round_trip(self, tmp_path):
        spec = build_fcn(24, 3, "prelu")
        state = init_params(spec, 5)
        opt = Adam()
        opt_state = opt.init_state(state.params)
        opt.step(opt_state, state.params, {k: np.ones_like(v) for k, v in state.params.items()})
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, spec, state, opt_state)
        spec2, state2, opt2 = load_checkpoint(path)
        assert spec2 == spec
        assert state2.seed == 5
        for name in state.params:
            assert np.array_equal(state.params[name], state2.params[name])
        for name in state.buffers:
            assert np.array_equal(state.buffers[name], state2.buffers[name])
        assert opt2.step_count == 1
        for name in opt_state.slots:
            for slot in opt_state.slots[name]:
                assert np.array_equal(opt_state.slots[name][slot], opt2.slots[name][slot])

    def test_failed_rewrite_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        spec = build_mlp(8, 2, "relu")
        state = init_params(spec, 0)
        opt_state = Adam().init_state(state.params)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, spec, state, opt_state)
        before, savez = path.read_bytes(), np.savez

        def torn_savez(file, **arrays):
            """Write the first half of the real archive, then fail."""
            buf = io.BytesIO()
            savez(buf, **arrays)
            with open(file, "wb") if isinstance(file, (str, os.PathLike)) else file as f:
                f.write(buf.getvalue()[: buf.tell() // 2])
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn_savez)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, spec, init_params(spec, 1), opt_state)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]
        assert path.read_bytes() == before
        assert load_checkpoint(path)[1].seed == 0

    @pytest.mark.parametrize("opt, hyper, slots", [
        (Adam(), {"lr": 0.001, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}, ["m", "v"]),
        (Adadelta(), {"lr": 1.0, "rho": 0.9, "eps": 1e-6}, ["sq_grad", "sq_update"]),
    ], ids=["adam", "adadelta"])
    def test_checkpoint_meta_pins_optimizer(self, tmp_path, opt, hyper, slots):
        spec = build_mlp(8, 2, "relu")
        state = init_params(spec, 0)
        opt_state = opt.init_state(state.params)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, spec, state, opt_state)
        with np.load(path) as blob:
            meta = json.loads(bytes(blob["meta"]).decode())
            files = blob.files
        assert meta["format"] == 1
        assert meta["optimizer"] == {"hyper": hyper, "step_count": 0}
        assert [k for k in files if k.startswith("opt/")] == [
            f"opt/{name}/{slot}" for name in state.params for slot in slots
        ]

    @staticmethod
    def _save_edited(path, edit_meta=None, drop_meta=False):
        """Save a checkpoint to ``path``, then rewrite it with its metadata
        passed through ``edit_meta`` or, with ``drop_meta``, removed."""
        spec = build_mlp(8, 2, "relu")
        state = init_params(spec, 0)
        save_checkpoint(path, spec, state, Adam().init_state(state.params))
        with np.load(path) as blob:
            arrays = {k: blob[k] for k in blob.files}
        meta = json.loads(bytes(arrays.pop("meta")).decode())
        if not drop_meta:
            edit_meta(meta)
            arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)

    def test_checkpoint_without_optimizer_state_rejected(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        self._save_edited(path, lambda meta: meta.pop("optimizer"))
        with pytest.raises(DataError, match="ckpt.npz: checkpoint has no optimizer state"):
            load_checkpoint(path)

    @pytest.mark.parametrize("where, key", [
        ((), "seed"), (("spec",), "n_classes"), (("spec",), "activation"),
        (("optimizer",), "hyper"), (("optimizer",), "step_count"),
    ])
    def test_checkpoint_metadata_missing_a_key_is_a_data_error(self, tmp_path, where, key):
        def drop(meta):
            for name in where:
                meta = meta[name]
            meta.pop(key)

        path = tmp_path / "ckpt.npz"
        self._save_edited(path, drop)
        with pytest.raises(DataError, match=f"ckpt.npz: checkpoint metadata has no '{key}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta["spec"]["activation"].update(name="swish"), "unknown activation"),
        (lambda meta: meta["spec"]["activation"].update(params={"alpha": 1.0}), "relu takes no"),
        (lambda meta: meta.update(optimizer=[1, 2]), "list"),
        (lambda meta: meta["spec"].update(architecture="cnn"), "unknown architecture 'cnn'"),
        (lambda meta: meta["spec"].update(norm_enabled=True), "norm_enabled must be False"),
        (lambda meta: meta["spec"].update(n_classes="two"), "n_classes must be an int >= 2"),
        (lambda meta: meta["spec"].update(n_classes=1), "n_classes must be an int >= 2"),
        (lambda meta: meta["spec"].update(input_length=16.5), "input_length must be an int"),
        (lambda meta: meta["spec"].update(input_length=True), "input_length must be an int"),
    ], ids=["unknown-activation", "unknown-parameter", "optimizer-not-a-dict",
            "unknown-architecture", "norm-for-mlp", "n-classes-text", "n-classes-one",
            "input-length-float", "input-length-bool"])
    def test_malformed_checkpoint_metadata_is_a_data_error(self, tmp_path, edit, message):
        path = tmp_path / "ckpt.npz"
        self._save_edited(path, edit)
        match = f"ckpt.npz: malformed checkpoint metadata: .*{message}"
        with pytest.raises(DataError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("activation", UNLIKE_THE_CATALOG, ids=UNLIKE_IDS)
    def test_activation_unlike_the_catalog_is_a_data_error(self, tmp_path, activation):
        path = tmp_path / "ckpt.npz"
        self._save_edited(path, lambda meta: meta["spec"].update(activation=activation))
        match = (f"ckpt.npz: malformed checkpoint metadata: "
                 f"{activation['name']} (takes|trains) no ")
        with pytest.raises(DataError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, name", [
        (lambda meta: meta.update(seed="abc"), "seed"),
        (lambda meta: meta.update(seed=-1), "seed"),
        (lambda meta: meta["optimizer"].update(step_count="x"), "optimizer.step_count"),
    ], ids=["seed-text", "seed-negative", "step-count-text"])
    def test_count_that_is_not_an_int_in_range_is_a_data_error(self, tmp_path, edit, name):
        path = tmp_path / "ckpt.npz"
        self._save_edited(path, edit)
        match = f"ckpt.npz: checkpoint {name} must be an int >= 0, got "
        with pytest.raises(DataError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value, entry, shapes", [
        ("input_length", 16, "l1.W", (r"\(8, 500\)", r"\(16, 500\)")),
        ("n_classes", 3, "l7.W", (r"\(500, 1\)", r"\(500, 3\)")),
    ], ids=["input-length", "n-classes"])
    def test_entry_shaped_for_another_spec_is_a_data_error(self, tmp_path, field, value, entry,
                                                           shapes):
        # The MLP's layer list does not depend on L, so only the shapes can
        # tell that this spec no longer fits the arrays saved at L=8; nor can
        # anything but the head's shape tell a changed class count.
        path = tmp_path / "ckpt.npz"
        self._save_edited(path, lambda meta: meta["spec"].update({field: value}))
        match = (f"ckpt.npz: checkpoint entry 'param/{entry}' has shape {shapes[0]}, "
                 f"the spec makes {shapes[1]}")
        with pytest.raises(DataError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("stored", [
        {"head": "sigmoid", "head_units": 1},
        {"head": "softmax", "head_units": 5, "layers": [{"type": "conv"}]},
    ], ids=["as-written", "contradicting"])
    def test_spec_keys_of_earlier_files_are_ignored(self, tmp_path, stored):
        # Files written before the spec became its five fields also hold its
        # head, head width and layer list; they load as before, unread.
        spec = build_mlp(8, 2, "relu")
        stored = {"layers": [dict(layer) for layer in spec.layers], **stored}
        path = tmp_path / "ckpt.npz"
        self._save_edited(path, lambda meta: meta["spec"].update(stored))
        state = init_params(spec, 0)
        opt_state = Adam().init_state(state.params)
        spec2, state2, opt2 = load_checkpoint(path)
        assert spec2 == spec and state2.seed == 0 and not state2.buffers
        for name in state.params:
            assert np.array_equal(state.params[name], state2.params[name])
            for slot in opt_state.slots[name]:
                assert np.array_equal(opt_state.slots[name][slot], opt2.slots[name][slot])
        assert (opt2.hyper, opt2.step_count) == (opt_state.hyper, 0)

    @staticmethod
    def _save_with_arrays(path, opt, edit):
        """Save an FCN checkpoint to ``path``, then rewrite it with its arrays
        (metadata included) passed through ``edit``."""
        spec = build_fcn(8, 3, "prelu")
        state = init_params(spec, 0)
        save_checkpoint(path, spec, state, opt.init_state(state.params))
        with np.load(path) as blob:
            arrays = {k: blob[k] for k in blob.files}
        edit(arrays)
        np.savez(path, **arrays)

    @pytest.mark.parametrize("opt, edit, message", [
        (Adam(), lambda a: a.update({"buffer/l1.running_var": np.ones(5)}),
         r"entry 'buffer/l1.running_var' has shape \(5,\), the spec makes \(128,\)"),
        (Adadelta(), lambda a: a.update({"opt/l0.W/sq_update": np.zeros((128, 1, 7))}),
         r"entry 'opt/l0.W/sq_update' has shape \(128, 1, 7\), the spec makes \(128, 1, 8\)"),
        (Adam(), lambda a: a.pop("param/l2.alpha"), "has no entry 'param/l2.alpha'"),
        (Adam(), lambda a: a.pop("opt/l0.b/v"), "has no entry 'opt/l0.b/v'"),
        (Adam(), lambda a: a.update({"param/extra": np.zeros(2)}),
         "entry 'param/extra' is not one the spec and adam make"),
        (Adadelta(), lambda a: a.update({"opt/l0.W/m": a["opt/l0.W/sq_grad"]}),
         "entry 'opt/l0.W/m' is not one the spec and adadelta make"),
    ], ids=["buffer-shape", "slot-shape", "missing-param", "missing-slot", "extra-param",
            "other-optimizers-slot"])
    def test_entry_the_spec_does_not_make_is_a_data_error(self, tmp_path, opt, edit, message):
        path = tmp_path / "ckpt.npz"
        self._save_with_arrays(path, opt, edit)
        with pytest.raises(DataError, match=f"ckpt.npz: checkpoint {message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value, message", [
        (np.zeros((8, 500), dtype=np.float32), "entry 'param/l1.W' has dtype float32, not"),
        (np.zeros((8, 500), dtype=np.complex128), "entry 'param/l1.W' has dtype complex128,"),
        (np.full((8, 500), "0.1"), "entry 'param/l1.W' has dtype <U3, not float64"),
        (np.full((8, 500), None), "cannot read checkpoint entry 'param/l1.W': Object arrays"),
        (np.full((8, 500), np.nan), "entry 'param/l1.W' holds a non-finite value"),
        (np.where(np.eye(8, 500) > 0, np.inf, 0.5), "entry 'param/l1.W' holds a non-finite"),
    ], ids=["float32", "complex128", "string", "object", "all-nan", "one-inf"])
    def test_entry_that_is_not_finite_float64_is_a_data_error(self, tmp_path, value, message):
        path = tmp_path / "ckpt.npz"
        spec = build_mlp(8, 2, "relu")
        state = init_params(spec, 0)
        save_checkpoint(path, spec, state, Adam().init_state(state.params))
        with np.load(path) as blob:
            arrays = {k: blob[k] for k in blob.files}
        arrays["param/l1.W"] = value
        np.savez(path, **arrays)
        with pytest.raises(DataError, match="ckpt.npz: (checkpoint )?" + message):
            load_checkpoint(path)

    def test_hyper_parameters_of_no_optimizer_are_a_data_error(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        self._save_edited(path, lambda meta: meta["optimizer"]["hyper"].update(momentum=0.9))
        with pytest.raises(DataError, match="ckpt.npz: checkpoint optimizer.hyper .* has the "
                                            "fields of none of the optimizers adam, adadelta"):
            load_checkpoint(path)

    def test_missing_checkpoint_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="absent.npz: cannot read checkpoint"):
            load_checkpoint(tmp_path / "absent.npz")

    @pytest.mark.parametrize("content", ["text", "npy"])
    def test_non_zip_checkpoint_is_a_data_error(self, tmp_path, content):
        path = tmp_path / "ckpt.npz"
        if content == "npy":
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(3))
        else:
            path.write_bytes(b"not a checkpoint at all\n")
        with pytest.raises(DataError, match="ckpt.npz: cannot read checkpoint"):
            load_checkpoint(path)

    def test_checkpoint_without_meta_is_a_data_error(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        self._save_edited(path, drop_meta=True)
        with pytest.raises(DataError, match="ckpt.npz: not a checkpoint: no readable 'meta'"):
            load_checkpoint(path)

    def test_optimizer_entry_without_a_slot_is_a_data_error(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        spec = build_mlp(8, 2, "relu")
        state = init_params(spec, 0)
        save_checkpoint(path, spec, state, Adam().init_state(state.params))
        with np.load(path) as blob:
            arrays = {k: blob[k] for k in blob.files}
        key = next(k for k in arrays if k.startswith("opt/"))
        arrays[key.rsplit("/", 1)[0]] = arrays.pop(key)
        np.savez(path, **arrays)
        with pytest.raises(DataError, match="ckpt.npz: checkpoint entry 'opt/[^/']+' is not"):
            load_checkpoint(path)

    def test_checkpoint_of_another_format_is_a_data_error(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        self._save_edited(path, lambda meta: meta.update(format=99))
        with pytest.raises(DataError, match="ckpt.npz: unsupported checkpoint format 99"):
            load_checkpoint(path)
