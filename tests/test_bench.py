import os

import numpy as np
import pytest

from leakysinelu import activations as zoo
from leakysinelu import bench
from leakysinelu.bench import (
    DivergenceError,
    ResultsStore,
    RunResult,
    TrainConfig,
    build_spec,
    cell_hash,
    evaluate,
    run_cell,
    run_sweep,
    train,
)
from leakysinelu.data import Dataset
from leakysinelu.errors import ConfigError, DataError
from leakysinelu.models import init_params

from conftest import make_ucr_root, toy_sine_vs_flat


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
        only_ones = Dataset(ds.name, ds.series, np.ones(len(ds), dtype=np.int64), ds.label_map, "test")
        assert evaluate(state, spec, only_ones) == 1.0

    def test_all_wrong(self):
        spec, state, ds = self._constant_predictor(2)
        state.params["l7.b"][:] = 10.0
        only_zeros = Dataset(ds.name, ds.series, np.zeros(len(ds), dtype=np.int64), ds.label_map, "test")
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
        blown = dict(zoo._FORWARD)
        blown["sine"] = lambda x, p: np.full_like(np.asarray(x, dtype=np.float64), np.inf)
        monkeypatch.setattr(zoo, "_FORWARD", blown)
        out = run_sweep(["S1"], ["relu", "sine"], "mlp", root, store, overrides={"epochs": 2})
        by_act = {r["config"]["activation"]["name"]: r for r in out.records}
        assert by_act["relu"]["status"] == "completed"
        assert by_act["sine"]["status"] == "diverged"
        assert by_act["sine"]["diverged_epoch"] == 0

    def test_missing_dataset_recorded_as_failure(self, tmp_path):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        store = self._store(tmp_path)
        out = run_sweep(["S1", "Ghost"], ["relu"], "mlp", root, store, overrides={"epochs": 1})
        statuses = {r["dataset"]: r["status"] for r in out.records}
        assert statuses == {"S1": "completed", "Ghost": "failed"}

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


class TestResultsStore:
    def _records(self):
        return [{"config_hash": f"h{i}", "status": "completed", "accuracy": i / 4}
                for i in range(3)]

    def test_torn_store_at_every_byte_offset(self, tmp_path):
        store = ResultsStore(tmp_path / "results.jsonl")
        records = self._records()
        for record in records:
            store.append(record)
        full = store.path.read_bytes()
        extra = {"config_hash": "new", "status": "completed", "accuracy": 1.0}
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
        # A field missing from to_dict would silently drop out of cell_hash.
        cfg = TrainConfig.for_architecture("fcn", "snake", epochs=3)
        assert set(cfg.to_dict()) == set(TrainConfig.__dataclass_fields__)
