import concurrent.futures
import dataclasses
import os

import numpy as np
import pytest

from leakysinelu import activations as zoo
from leakysinelu import bench, models
from leakysinelu.autodiff import Tape
from leakysinelu.bench import (
    BATCH_SIZE,
    DivergenceError,
    ResultsStore,
    RunResult,
    TrainConfig,
    build_spec,
    cell_hash,
    cell_payload,
    evaluate,
    run_cell,
    run_sweep,
    train,
)
from leakysinelu.data import Dataset
from leakysinelu.errors import ConfigError, DataError
from leakysinelu.models import init_params, predict

from conftest import UNLIKE_IDS, UNLIKE_THE_CATALOG, make_ucr_root, toy_sine_vs_flat


class TestTrainConfig:
    def test_mlp_defaults_match_recipe(self):
        cfg = TrainConfig.for_architecture("mlp", "leakysinelu")
        assert (cfg.optimizer, cfg.learning_rate, cfg.epochs) == ("adadelta", 1.0, 1000)
        assert cfg.batch_size == 16 and cfg.znorm == "per_series"

    def test_fcn_defaults_match_recipe(self):
        cfg = TrainConfig.for_architecture("fcn", "relu")
        assert (cfg.optimizer, cfg.learning_rate, cfg.epochs) == ("adam", 0.001, 2000)

    def test_round_trip(self):
        cfg = TrainConfig.for_architecture("fcn", "prelu", epochs=5, seed=3)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("field, value", [
        ("architecture", "resnet"), ("znorm", "minmax"),
    ])
    def test_unknown_recipe_name_rejected(self, field, value):
        doc = TrainConfig.for_architecture("mlp", "relu").to_dict()
        doc[field] = value
        with pytest.raises(ConfigError, match=f"unknown {field} '{value}'"):
            TrainConfig.from_dict(doc)

    def test_norm_layers_rejected_for_mlp(self):
        # The MLP has no normalization layer, so the flag would only change the hash.
        with pytest.raises(ConfigError, match="norm_enabled must be False for mlp"):
            TrainConfig.for_architecture("mlp", "relu", norm_enabled=True)
        assert not TrainConfig.for_architecture("fcn", "relu", norm_enabled=False).norm_enabled

    @pytest.mark.parametrize("arch, field, value", [
        ("mlp", "optimizer", "adam"), ("mlp", "optimizer", "sgd"),
        ("fcn", "optimizer", "adadelta"), ("mlp", "learning_rate", 0.5),
        ("mlp", "learning_rate", float("nan")), ("mlp", "learning_rate", "1.0"),
        ("fcn", "learning_rate", 1.0),
    ], ids=["mlp-adam", "mlp-sgd", "fcn-adadelta", "mlp-rate-0.5", "mlp-rate-nan",
            "mlp-rate-text", "fcn-rate-1.0"])
    def test_doc_with_another_optimizer_or_rate_rejected(self, arch, field, value):
        # The recipe fixes both, so a payload naming others would record a
        # rate its cell never trained with.
        doc = TrainConfig.for_architecture(arch, "relu").to_dict()
        doc[field] = value
        with pytest.raises(ConfigError, match=f"{field} .* is not the {arch} recipe's "):
            TrainConfig.from_dict(doc)

    @pytest.mark.parametrize("activation", UNLIKE_THE_CATALOG, ids=UNLIKE_IDS)
    def test_doc_with_another_activation_setting_rejected(self, activation):
        doc = TrainConfig.for_architecture("fcn", "relu").to_dict()
        doc["activation"] = activation
        with pytest.raises(ConfigError, match=f"{activation['name']} (takes|trains) no "):
            TrainConfig.from_dict(doc)

    @pytest.mark.parametrize("field, value, wanted", [
        *((field, value, "an int") for field in ("epochs", "batch_size", "seed")
          for value in (2.5, 2.0, True, "2", np.int64(2))),
        ("norm_enabled", "no", "a bool"), ("norm_enabled", 0, "a bool"),
    ])
    def test_setting_of_the_wrong_type_rejected(self, field, value, wanted):
        # epochs=2.5 would fail the cell with a TypeError from range(), and
        # norm_enabled="no" build batch norm under a cell hash of its own.
        with pytest.raises(ConfigError, match=f"{field} must be {wanted}, got "):
            TrainConfig.for_architecture("fcn", "relu", **{field: value})

    def test_direct_construction_by_keyword(self):
        cfg = TrainConfig(architecture="mlp", activation=zoo.activation("relu"), epochs=10,
                          norm_enabled=False)
        assert cfg == TrainConfig.for_architecture("mlp", "relu", epochs=10)
        assert TrainConfig.for_architecture("fcn", "relu").norm_enabled

    @pytest.mark.parametrize("arch, activation, overrides, digest", [
        ("mlp", "leakysinelu", {},
         "2be7402b3839f3302f320a8d8e0838377db52474a183984ebc9a720e59174b8b"),
        ("fcn", "gelu", {"seed": 3, "epochs": 7},
         "a9f2e6d6d4a00301a9f571bb59c620fbb957a9778639d9a0327ba879d043b2c0"),
    ])
    def test_cell_hash_is_pinned(self, arch, activation, overrides, digest):
        # Field order and defaults may move; the hash of a recipe cell may not,
        # or every stored sweep would retrain.
        cfg = TrainConfig.for_architecture(arch, activation, **overrides)
        assert cell_hash("Coffee", cfg) == digest

    def test_hash_changes_with_config(self):
        a = TrainConfig.for_architecture("mlp", "relu")
        b = TrainConfig.for_architecture("mlp", "relu", seed=1)
        assert cell_hash("D", a) != cell_hash("D", b)
        assert cell_hash("D", a) == cell_hash("D", TrainConfig.for_architecture("mlp", "relu"))


class TestTrain:
    def test_toy_task_reaches_full_train_accuracy(self):
        ds = toy_sine_vs_flat()
        cfg = TrainConfig.for_architecture("mlp", "leakysinelu", epochs=200)
        spec = build_spec(cfg, ds)
        state, history, _ = train(spec, ds, cfg)
        assert evaluate(state, spec, ds) == 1.0
        assert history[-1] < history[0]

    def test_zero_epochs_returns_initialization(self):
        ds = toy_sine_vs_flat(n_per_class=4, length=16)
        cfg = TrainConfig.for_architecture("mlp", "relu", epochs=0)
        spec = build_spec(cfg, ds)
        state, history, _ = train(spec, ds, cfg)
        assert history == []
        init = init_params(spec, cfg.seed)
        for name in init.params:
            assert np.array_equal(state.params[name], init.params[name])

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("activation", ["prelu", "leakysinelu", "snake", "relu"])
    @pytest.mark.parametrize("build", [
        models.build_mlp, models.build_fcn,
        lambda length, n, kind: models.build_fcn(length, n, kind, norm_enabled=False),
    ], ids=["mlp", "fcn-bn", "fcn-no-bn"])
    def test_every_parameter_gets_a_gradient_of_its_shape(self, build, activation, n_classes):
        # train hands t.grad to the optimizer as it is: every op adds into
        # its parameters' gradients on every step.
        spec = build(16, n_classes, activation)
        state = init_params(spec, 0)
        tensors = models.wrap_params(state)
        tape = Tape()
        logits = models.forward(spec, state, np.random.default_rng(2).normal(size=(4, 16)),
                                tape=tape, training=True, rng=np.random.default_rng(0),
                                param_tensors=tensors)
        tape.backward(bench._loss(spec, logits, np.arange(4) % n_classes, tape))
        for name, t in tensors.items():
            assert t.grad is not None and t.grad.shape == t.data.shape, name

    def test_deterministic_given_seed(self):
        ds = toy_sine_vs_flat(n_per_class=6, length=16)
        cfg = TrainConfig.for_architecture("mlp", "snake", epochs=5)
        spec = build_spec(cfg, ds)
        s1, h1, _ = train(spec, ds, cfg)
        s2, h2, _ = train(spec, ds, cfg)
        assert h1 == h2
        for name in s1.params:
            assert np.array_equal(s1.params[name], s2.params[name])


class TestEvaluate:
    def _constant_predictor(self, n_classes):
        ds = toy_sine_vs_flat(n_per_class=5, length=8)
        if n_classes > 2:
            labels = np.arange(len(ds)) % n_classes
            ds = Dataset(ds.name, ds.series, labels, {str(i): i for i in range(n_classes)}, "test")
        cfg = TrainConfig.for_architecture("mlp", "relu")
        spec = build_spec(cfg, ds)
        state = init_params(spec, 0)
        for name in state.params:
            state.params[name][:] = 0.0
        return spec, state, ds

    def test_all_correct(self):
        spec, state, ds = self._constant_predictor(2)
        head_bias = state.params["l7.b"]
        head_bias[:] = 10.0  # always predict class 1
        ones = np.ones(len(ds), dtype=np.int64)
        only_ones = Dataset(ds.name, ds.series, ones, ds.label_map, "test")
        assert evaluate(state, spec, only_ones) == 1.0

    def test_all_wrong(self):
        spec, state, ds = self._constant_predictor(2)
        state.params["l7.b"][:] = 10.0
        zeros = np.zeros(len(ds), dtype=np.int64)
        only_zeros = Dataset(ds.name, ds.series, zeros, ds.label_map, "test")
        assert evaluate(state, spec, only_zeros) == 0.0

    def test_tied_logits_pick_lowest_class(self):
        spec, state, ds = self._constant_predictor(3)
        acc = evaluate(state, spec, ds)
        assert acc == float((ds.labels == 0).mean())

    def test_denominator_is_test_size(self):
        spec, state, ds = self._constant_predictor(2)
        state.params["l7.b"][:] = 10.0
        labels = np.array([1, 0, 1, 0, 1, 1, 0, 1, 1, 1], dtype=np.int64)
        mixed = Dataset(ds.name, ds.series, labels, ds.label_map, "test")
        assert evaluate(state, spec, mixed) == 0.7

    @pytest.mark.parametrize("arch", ["mlp", "fcn"])
    def test_no_forward_is_larger_than_a_training_batch(self, tmp_path, monkeypatch, arch):
        rows = []
        real_forward = models.forward

        def spy(spec, state, x, **kwargs):
            rows.append(len(x))
            return real_forward(spec, state, x, **kwargs)

        monkeypatch.setattr(models, "forward", spy)  # looked up by models.predict
        monkeypatch.setattr(bench, "forward", spy)  # imported by name into bench
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=20, n_test=19, length=12)
        config = TrainConfig.for_architecture(arch, "relu", epochs=0)
        record = run_cell(cell_payload("S1", config, root))
        assert record["status"] == "completed"
        # two classes: 40 training rows for the epoch-0 loss, then 38 for evaluate
        assert max(rows) <= BATCH_SIZE and sum(rows) == 40 + 38

    @pytest.mark.parametrize("arch, epochs", [("mlp", 5), ("fcn", 2)])
    def test_accuracy_matches_one_batch_predict(self, arch, epochs):
        ds = toy_sine_vs_flat(n_per_class=20, length=16)
        config = TrainConfig.for_architecture(arch, "leakysinelu", epochs=epochs)
        spec = build_spec(config, ds)
        state, _, _ = train(spec, ds, config)
        assert len(ds) > BATCH_SIZE
        reference = float((predict(spec, state, ds.series) == ds.labels).mean())
        assert evaluate(state, spec, ds) == reference


class TestSweep:
    def _store(self, tmp_path):
        return ResultsStore(tmp_path / "results.jsonl")

    def test_cardinality_and_cache(self, tmp_path):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        store = self._store(tmp_path)
        out = run_sweep(["S1"], ["relu", "sine"], "mlp", root, store, overrides={"epochs": 2})
        assert len(out.records) == 2
        assert out.n_trained == 2 and out.n_cached == 0
        again = run_sweep(["S1"], ["relu", "sine"], "mlp", root, store, overrides={"epochs": 2})
        assert again.n_trained == 0 and again.n_cached == 2
        assert len(store.load()) == 2

    def test_divergence_recorded_without_aborting(self, tmp_path, monkeypatch):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        store = self._store(tmp_path)
        blown = dict(zoo._REGISTRY)
        sine = blown["sine"].formula
        blown["sine"] = dataclasses.replace(
            blown["sine"],
            formula=lambda x, p: (np.full_like(x, np.inf), sine(x, p)[1]),
        )
        monkeypatch.setattr(zoo, "_REGISTRY", blown)
        out = run_sweep(["S1"], ["relu", "sine"], "mlp", root, store, overrides={"epochs": 2})
        by_act = {r["config"]["activation"]["name"]: r for r in out.records}
        assert by_act["relu"]["status"] == "completed"
        assert by_act["sine"]["status"] == "diverged"
        assert by_act["sine"]["diverged_epoch"] == 0

    def test_retried_failure_returns_the_newest_record(self, tmp_path, monkeypatch):
        store = self._store(tmp_path)
        attempts = []

        def failing_cell(payload):
            attempts.append(payload["config_hash"])
            return RunResult(
                dataset=payload["dataset"], config=payload["config"],
                config_hash=payload["config_hash"], status="failed",
                error=f"attempt {len(attempts)}",
            ).to_record()

        monkeypatch.setattr(bench, "run_cell", failing_cell)
        first = run_sweep(["S1"], ["relu"], "mlp", tmp_path, store)
        second = run_sweep(["S1"], ["relu"], "mlp", tmp_path, store)
        assert [r["error"] for r in first.records] == ["attempt 1"]
        assert [r["error"] for r in second.records] == ["attempt 2"]
        assert second.n_failed == 1 and second.n_cached == 0
        assert [r["error"] for r in store.load()] == ["attempt 1", "attempt 2"]

    def test_settled_record_outranks_a_newer_failure(self, tmp_path):
        store = self._store(tmp_path)
        cfg = TrainConfig.for_architecture("mlp", "relu")
        base = {"dataset": "S1", "config": cfg.to_dict(), "config_hash": cell_hash("S1", cfg)}
        store.append(RunResult(**base, status="completed", accuracy=0.5).to_record())
        store.append(RunResult(**base, status="failed", error="late").to_record())
        out = run_sweep(["S1"], ["relu"], "mlp", tmp_path, store)
        assert out.n_cached == 1 and out.n_trained == 0
        assert [r["status"] for r in out.records] == ["completed"]

    def test_missing_dataset_recorded_as_failure(self, tmp_path):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        store = self._store(tmp_path)
        out = run_sweep(["S1", "Ghost"], ["relu"], "mlp", root, store, overrides={"epochs": 1})
        statuses = {r["dataset"]: r["status"] for r in out.records}
        assert statuses == {"S1": "completed", "Ghost": "failed"}

    def test_repeated_cell_trains_once(self, tmp_path, monkeypatch):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        store = self._store(tmp_path)
        trained = []

        def counting_cell(payload):
            trained.append(payload["config_hash"])
            return run_cell(payload)

        monkeypatch.setattr(bench, "run_cell", counting_cell)
        out = run_sweep(["S1", "S1"], ["relu", "relu"], "mlp", root, store,
                        overrides={"epochs": 1})
        assert len(trained) == 1 and len(store.load()) == 1
        assert len(out.records) == 1 and out.n_trained == 1

    def test_pool_is_no_larger_than_the_pending_cells(self, tmp_path, monkeypatch):
        sizes, in_pool = [], []

        class RecordingPool:
            """Runs each submitted cell at once, here, and records the pool size."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, payload):
                in_pool.append(payload["config_hash"])
                future = concurrent.futures.Future()
                future.set_result(fn(payload))
                return future

        def quick_cell(payload):
            return RunResult(
                dataset=payload["dataset"], config=payload["config"],
                config_hash=payload["config_hash"], status="completed", accuracy=1.0,
            ).to_record()

        monkeypatch.setattr(bench.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(bench, "run_cell", quick_cell)
        store = self._store(tmp_path)
        three = run_sweep(["S1"], ["relu", "sine", "tanh"], "mlp", tmp_path, store, jobs=64)
        assert sizes == [3] and len(in_pool) == 3 and three.n_trained == 3
        # a resume with one pending cell runs it in this process
        four = run_sweep(["S1"], ["relu", "sine", "tanh", "elu"], "mlp", tmp_path, store,
                         jobs=64)
        assert sizes == [3] and len(in_pool) == 3
        assert four.n_cached == 3 and four.n_trained == 1

    def test_empty_lists_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_sweep([], ["relu"], "mlp", tmp_path, self._store(tmp_path))

    def test_checkpoint_written(self, tmp_path):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        store = self._store(tmp_path)
        out = run_sweep(
            ["S1"], ["relu"], "mlp", root, store,
            overrides={"epochs": 1}, checkpoint_dir=tmp_path / "ckpts",
        )
        record = out.records[0]
        assert record["checkpoint"] and (tmp_path / "ckpts").exists()

    def test_accuracy_in_unit_interval(self, tmp_path):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        out = run_sweep(["S1"], ["relu"], "mlp", root, self._store(tmp_path),
                        overrides={"epochs": 2})
        assert 0.0 <= out.records[0]["accuracy"] <= 1.0


class TestRunResult:
    def test_record_round_trip(self):
        result = RunResult(
            dataset="D",
            config={"architecture": "mlp"},
            config_hash="abc",
            status="completed",
            accuracy=0.75,
            final_train_loss=0.1,
            seconds=1.5,
            checkpoint="x.npz",
        )
        assert RunResult.from_record(result.to_record()) == result

    def test_run_cell_payload(self, tmp_path):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        cfg = TrainConfig.for_architecture("mlp", "relu", epochs=1)
        record = run_cell(
            {
                "dataset": "S1",
                "config": cfg.to_dict(),
                "config_hash": cell_hash("S1", cfg),
                "data_root": str(root),
                "checkpoint_dir": None,
            }
        )
        assert record["status"] == "completed"
        assert record["final_train_loss"] is not None


_CONFIG = {"architecture": "mlp", "activation": {"name": "relu"}}


class TestResultsStore:
    def _records(self):
        return [{"dataset": "S1", "config": _CONFIG, "config_hash": f"h{i}",
                 "status": "completed", "accuracy": i / 4}
                for i in range(3)]

    def test_torn_store_at_every_byte_offset(self, tmp_path):
        store = ResultsStore(tmp_path / "results.jsonl")
        records = self._records()
        for record in records:
            store.append(record)
        full = store.path.read_bytes()
        extra = {"dataset": "S1", "config": _CONFIG, "config_hash": "new",
                 "status": "completed", "accuracy": 1.0}
        for cut in range(len(full) + 1):
            store.path.write_bytes(full[:cut])
            loaded = store.load()
            assert loaded == records[: len(loaded)]
            assert len(loaded) == full[:cut].count(b"\n")
            store.append(extra)
            assert store.load() == loaded + [extra]

    def test_malformed_terminated_line_names_line(self, tmp_path):
        store = ResultsStore(tmp_path / "results.jsonl")
        store.append(self._records()[0])
        with open(store.path, "a") as fh:
            fh.write('{"config_hash": \n')
        with pytest.raises(DataError, match="results.jsonl:2:"):
            store.load()

    @pytest.mark.parametrize("line, why", [
        ('[1, 2]', "not a JSON object"),
        ('{"status": "completed"}', "no string 'dataset'"),
        ('{"dataset": "S1", "config_hash": "h", "status": "completed"}', "no 'config' object"),
        ('{"dataset": "S1", "config_hash": "h", "status": "done", '
         '"config": {"architecture": "mlp", "activation": {"name": "relu"}}}', "status 'done'"),
        ('{"dataset": "S1", "config_hash": "h", "status": "completed", '
         '"config": {"architecture": "mlp", "activation": "relu"}}', "'config.activation'"),
    ] + [
        ('{"dataset": "S1", "config_hash": "h", "status": "completed", "accuracy": %s, '
         '"config": {"architecture": "mlp", "activation": {"name": "relu"}}}' % acc,
         "accuracy") for acc in ("null", "true", '"0.5"', "NaN", "Infinity")
    ])
    def test_line_that_is_not_a_record_names_line(self, tmp_path, line, why):
        store = ResultsStore(tmp_path / "results.jsonl")
        store.append(self._records()[0])
        with open(store.path, "a") as fh:
            fh.write(line + "\n")
        with pytest.raises(DataError, match="results.jsonl:2: not a result record: ") as exc:
            store.load()
        assert why in str(exc.value)

    def test_record_of_another_config_schema_loads_and_misses_the_cache(self, tmp_path):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        store = ResultsStore(tmp_path / "results.jsonl")
        cfg = TrainConfig.for_architecture("mlp", "relu", epochs=1)
        old = {**cfg.to_dict(), "backend": "numpy"}
        del old["znorm"]
        store.append({"dataset": "S1", "config": old, "config_hash": "old-schema",
                      "status": "completed", "accuracy": 0.5})
        assert store.load()[0]["config_hash"] == "old-schema"
        out = run_sweep(["S1"], ["relu"], "mlp", root, store, overrides={"epochs": 1})
        assert out.n_cached == 0 and out.n_trained == 1


def _exit_on_sine(payload):
    """A cell runner whose worker process dies on the sine cells."""
    if payload["config"]["activation"]["name"] == "sine":
        os._exit(1)
    return run_cell(payload)


class TestBrokenPool:
    def test_dead_worker_fails_pending_cells_and_rerun_completes(self, tmp_path, monkeypatch):
        root = make_ucr_root(tmp_path / "ucr", ["S1", "S2"], n_train=8, n_test=8, length=12)
        store = ResultsStore(tmp_path / "results.jsonl")
        args = (["S1", "S2"], ["relu", "sine"], "mlp", root, store)
        monkeypatch.setattr(bench, "run_cell", _exit_on_sine)
        out = run_sweep(*args, overrides={"epochs": 2}, jobs=2)
        assert len(out.records) == 4 and len(store.load()) == 4
        assert out.n_trained + out.n_failed == 4
        for record in out.records:
            if record["config"]["activation"]["name"] == "sine":
                assert record["status"] == "failed"
            if record["status"] == "failed":
                assert record["error"].startswith("BrokenProcessPool")
        monkeypatch.undo()
        again = run_sweep(*args, overrides={"epochs": 2}, jobs=2)
        assert again.n_cached == out.n_trained
        assert again.n_trained == out.n_failed
        assert [r["status"] for r in again.records] == ["completed"] * 4


class TestRecordFields:
    def test_config_dict_has_every_field(self):
        # A field missing from to_dict would silently drop out of cell_hash;
        # the recipe's optimizer and rate are written beside the fields.
        cfg = TrainConfig.for_architecture("fcn", "snake", epochs=3)
        assert set(cfg.to_dict()) == {*TrainConfig.__dataclass_fields__, "optimizer",
                                      "learning_rate"}
