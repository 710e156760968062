import json

import numpy as np
import pytest

from leakysinelu.cli import main

from conftest import make_ucr_root


def run(argv):
    return main(argv)


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def poison(root, name, value="nan"):
    """Overwrite the first value of the third training row; return the file."""
    path = root / name / f"{name}_TRAIN.tsv"
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    rows[2][1] = value
    path.write_text("".join("\t".join(r) + "\n" for r in rows))
    return path


class TestAnalyze:
    def test_all_activations(self, tmp_path, capsys):
        assert run(["analyze", "--activation", "all", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "leakysinelu: ok" in out
        outdir = next(tmp_path.glob("analyze-*"))
        assert (outdir / "manifest.json").is_file()
        assert (outdir / "properties.csv").is_file()
        assert len(list(outdir.glob("properties_*.json"))) == 10

    def test_single_activation(self, tmp_path):
        assert run(["analyze", "--activation", "leakysinelu", "--out", str(tmp_path)]) == 0
        outdir = next(tmp_path.glob("analyze-*"))
        doc = json.loads((outdir / "properties_leakysinelu.json").read_text())
        assert doc["limit_neg"]["verdict"] == "diverges"
        assert doc["monotone"] is True

    def test_unknown_activation_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["analyze", "--activation", "swish", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestTrain:
    def test_end_to_end(self, tmp_path, capsys):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        code = run([
            "train", "--arch", "mlp", "--activation", "leakysinelu",
            "--dataset", "S1", "--data-root", str(root),
            "--epochs", "2", "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        assert "accuracy=" in capsys.readouterr().out
        outdir = next((tmp_path / "out").glob("train-*"))
        records = read_jsonl(outdir / "results.jsonl")
        assert len(records) == 1 and records[0]["status"] == "completed"
        assert 0.0 <= records[0]["accuracy"] <= 1.0

    def test_zero_epochs_still_records(self, tmp_path):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        code = run([
            "train", "--arch", "mlp", "--activation", "relu", "--dataset", "S1",
            "--data-root", str(root), "--epochs", "0", "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        outdir = next((tmp_path / "out").glob("train-*"))
        records = read_jsonl(outdir / "results.jsonl")
        assert records[0]["status"] == "completed"

    @pytest.mark.parametrize("epochs", ["0", "2"])
    def test_record_matches_bench_cell(self, tmp_path, epochs):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        common = ["--arch", "mlp", "--data-root", str(root), "--epochs", epochs]
        assert run(["train", "--activation", "prelu", "--dataset", "S1", *common,
                    "--out", str(tmp_path / "t")]) == 0
        assert run(["bench", "--activations", "prelu", "--datasets", "S1", *common,
                    "--out", str(tmp_path / "b")]) == 0
        records = []
        for out in ("t", "b"):
            (record,) = read_jsonl(next((tmp_path / out).glob("*-*")) / "results.jsonl")
            del record["seconds"], record["checkpoint"]
            records.append(record)
        assert records[0] == records[1]
        assert records[0]["final_train_loss"] is not None

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_data_exits_3(self, tmp_path, capsys, value):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        path = poison(root, "S1", value)
        code = run([
            "train", "--arch", "mlp", "--activation", "relu", "--dataset", "S1",
            "--data-root", str(root), "--epochs", "1", "--out", str(tmp_path / "out"),
        ])
        assert code == 3
        assert f"{path}:3:2: non-finite" in capsys.readouterr().err

    def test_missing_dataset_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--arch", "mlp", "--activation", "relu"])
        assert exc.value.code == 2

    def test_missing_data_exits_3(self, tmp_path):
        code = run([
            "train", "--arch", "mlp", "--activation", "relu", "--dataset", "Ghost",
            "--data-root", str(tmp_path), "--out", str(tmp_path / "out"),
        ])
        assert code == 3

    def test_no_data_root_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.delenv("UCR_DATA_ROOT", raising=False)
        code = run([
            "train", "--arch", "mlp", "--activation", "relu", "--dataset", "S1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 3

    def test_env_var_data_root(self, tmp_path, monkeypatch):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        monkeypatch.setenv("UCR_DATA_ROOT", str(root))
        code = run([
            "train", "--arch", "mlp", "--activation", "relu", "--dataset", "S1",
            "--epochs", "1", "--out", str(tmp_path / "out"),
        ])
        assert code == 0


class TestBench:
    def test_sweep_and_rerun(self, tmp_path, capsys):
        root = make_ucr_root(tmp_path / "ucr", ["S1", "S2"], n_train=8, n_test=8, length=12)
        argv = [
            "bench", "--arch", "mlp", "--activations", "relu,sine,leakysinelu",
            "--datasets", "S1,S2", "--data-root", str(root),
            "--epochs", "2", "--out", str(tmp_path / "out"),
        ]
        assert run(argv) == 0
        assert "0 cached, 6 trained" in capsys.readouterr().out
        outdir = next((tmp_path / "out").glob("bench-*"))
        assert len(read_jsonl(outdir / "results.jsonl")) == 6
        assert run(argv) == 0
        assert "6 cached, 0 trained" in capsys.readouterr().out
        assert len(read_jsonl(outdir / "results.jsonl")) == 6

    def test_datasets_from_file(self, tmp_path):
        root = make_ucr_root(tmp_path / "ucr", ["S1", "S2"], n_train=8, n_test=8, length=12)
        listing = tmp_path / "sets.txt"
        listing.write_text("S1\nS2\n")
        code = run([
            "bench", "--arch", "mlp", "--activations", "relu",
            "--datasets", f"@{listing}", "--data-root", str(root),
            "--epochs", "1", "--out", str(tmp_path / "out"),
        ])
        assert code == 0

    def test_unknown_activation_exits_2(self, tmp_path):
        code = run([
            "bench", "--arch", "mlp", "--activations", "relu,bogus",
            "--datasets", "S1", "--data-root", str(tmp_path),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_non_finite_data_exits_3_without_caching(self, tmp_path):
        root = make_ucr_root(tmp_path / "ucr", ["S1", "S2"], n_train=8, n_test=8, length=12)
        poison(root, "S2")
        code = run([
            "bench", "--arch", "mlp", "--activations", "relu", "--datasets", "S1,S2",
            "--data-root", str(root), "--epochs", "1", "--out", str(tmp_path / "out"),
        ])
        assert code == 3
        assert not list((tmp_path / "out").glob("*/results.jsonl"))

    def test_parallel_matches_serial(self, tmp_path):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        base = [
            "bench", "--arch", "mlp", "--activations", "relu,sine",
            "--datasets", "S1", "--data-root", str(root), "--epochs", "2",
        ]
        assert run(base + ["--jobs", "1", "--out", str(tmp_path / "o1")]) == 0
        assert run(base + ["--jobs", "2", "--out", str(tmp_path / "o2")]) == 0
        rec1 = read_jsonl(next((tmp_path / "o1").glob("bench-*")) / "results.jsonl")
        rec2 = read_jsonl(next((tmp_path / "o2").glob("bench-*")) / "results.jsonl")

        def strip(records):
            cleaned = []
            for r in records:
                r = dict(r)
                r.pop("seconds")
                r.pop("checkpoint")
                cleaned.append(r)
            return sorted(cleaned, key=lambda r: r["config_hash"])

        assert strip(rec1) == strip(rec2)


class TestCompare:
    def _bench(self, tmp_path):
        root = make_ucr_root(tmp_path / "ucr", ["S1", "S2"], n_train=8, n_test=8, length=12)
        run([
            "bench", "--arch", "mlp", "--activations", "relu,sine,tanh",
            "--datasets", "S1,S2", "--data-root", str(root),
            "--epochs", "2", "--out", str(tmp_path / "out"),
        ])
        return next((tmp_path / "out").glob("bench-*")) / "results.jsonl"

    def test_report_artifacts(self, tmp_path):
        results = self._bench(tmp_path)
        code = run([
            "compare", "--results", str(results), "--arch", "mlp",
            "--out", str(tmp_path / "cmp"),
        ])
        assert code == 0
        outdir = next((tmp_path / "cmp").glob("compare-*"))
        report = json.loads((outdir / "report.json").read_text())
        assert set(report["avg_ranks"]) == {"relu", "sine", "tanh"}
        assert (outdir / "cd.csv").is_file()
        assert (outdir / "mcm.csv").is_file()
        assert len(list(outdir.glob("scatter_*_vs_*.csv"))) == 3

    def test_missing_cell_exits_5(self, tmp_path, capsys):
        results = self._bench(tmp_path)
        lines = results.read_text().splitlines()
        kept = [l for l in lines if '"sine"' not in l or '"S2"' not in l]
        trimmed = tmp_path / "trimmed.jsonl"
        trimmed.write_text("\n".join(kept) + "\n")
        code = run(["compare", "--results", str(trimmed), "--arch", "mlp",
                    "--out", str(tmp_path / "cmp")])
        assert code == 5
        assert "S2 x sine" in capsys.readouterr().err

    def test_missing_results_file_exits_3(self, tmp_path):
        code = run(["compare", "--results", str(tmp_path / "none.jsonl"),
                    "--arch", "mlp", "--out", str(tmp_path / "cmp")])
        assert code == 3


class TestTrace:
    def test_grid_derivative_nonnegative(self, tmp_path, capsys):
        code = run([
            "trace", "--activation", "leakysinelu",
            "--grid", str(-2 * np.pi), str(2 * np.pi), "200",
        ])
        assert code == 0
        captured = capsys.readouterr()
        rows = captured.out.strip().splitlines()
        assert rows[0] == "x,value,derivative"
        derivs = [float(r.split(",")[2]) for r in rows[1:]]
        assert len(derivs) == 200 and min(derivs) >= 0.0
        assert "dead_fraction=" in captured.err

    def test_relu_dead_fraction_matches_negatives(self, capsys):
        row = "\t".join(str(v) for v in [-1.0, -0.5, 2.0, 3.0])
        code = run(["trace", "--activation", "relu", "--input", row])
        assert code == 0
        assert "dead_fraction=0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("input_args, fraction", [
        (["--input", "-1e-3"], "1.0"),
        (["--input", "-1.0 -0.5 2.0 3.0"], "0.5"),
        (["--input=-1.0\t2.0"], "0.5"),
        (["--grid", "-1e-3", "1", "5"], "0.2"),
    ], ids=["scientific", "space-separated", "equals-form", "grid-scientific"])
    def test_dash_leading_input(self, input_args, fraction, capsys):
        code = run(["trace", "--activation", "relu", *input_args])
        assert code == 0
        assert f"dead_fraction={fraction}" in capsys.readouterr().err

    def test_dash_leading_from_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.argv",
            ["leakysinelu", "trace", "--activation", "relu", "--input", "-1.0\t2.0"],
        )
        assert main() == 0
        assert "dead_fraction=0.5" in capsys.readouterr().err

    def test_input_without_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["trace", "--activation", "relu", "--input"])
        assert exc.value.code == 2
        assert "argument --input: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1e-3", "0.5"])
    def test_abbreviated_option_exits_2(self, value):
        # Abbreviations are off, so "--inp" fails the same way for any value.
        with pytest.raises(SystemExit) as exc:
            run(["trace", "--activation", "relu", "--inp", value])
        assert exc.value.code == 2

    def test_input_file(self, tmp_path, capsys):
        p = tmp_path / "series.tsv"
        p.write_text("0.5\t-0.25\t1.0\n")
        code = run(["trace", "--activation", "sigmoid", "--input", str(p)])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

    def test_garbage_file_exits_3(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("hello\tworld\n")
        assert run(["trace", "--activation", "relu", "--input", str(p)]) == 3

    def test_output_file(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run(["trace", "--activation", "relu", "--grid", "-1", "1", "5",
                    "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("x,value,derivative")


class TestManifest:
    def test_identical_invocations_share_directory(self, tmp_path):
        args = ["analyze", "--activation", "relu", "--out", str(tmp_path)]
        assert run(args) == 0
        assert run(args) == 0
        assert len(list(tmp_path.glob("analyze-*"))) == 1

    def test_manifest_captures_resolved_config(self, tmp_path):
        run(["analyze", "--activation", "relu", "--out", str(tmp_path)])
        outdir = next(tmp_path.glob("analyze-*"))
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["kernel_backend"] in ("numba", "numpy")
        assert manifest["version"]


class TestBoundaryValidation:
    def _argv(self, tmp_path, command):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        common = ["--arch", "mlp", "--data-root", str(root), "--epochs", "1",
                  "--out", str(tmp_path / "out")]
        if command == "train":
            return ["train", "--activation", "relu", "--dataset", "S1", *common]
        return ["bench", "--activations", "relu", "--datasets", "S1", *common]

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--seed", "-1"),
        ("train", "--batch-size", "0"),
        ("train", "--epochs", "-3"),
        ("bench", "--seed", "-1"),
        ("bench", "--batch-size", "0"),
        ("bench", "--jobs", "0"),
    ])
    def test_bad_integer_setting_exits_2_writing_nothing(
        self, tmp_path, capsys, command, flag, value
    ):
        code = run(self._argv(tmp_path, command) + [flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert f"must be >= {1 if value == '0' else 0}, got {value}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "bench"])
    @pytest.mark.parametrize("content", ["[1, 2]", '"root"', '{"data_root": 5}'])
    def test_malformed_config_file_exits_3(self, tmp_path, capsys, command, content):
        path = tmp_path / "config.json"
        path.write_text(content)
        code = run(self._argv(tmp_path, command) + ["--config", str(path)])
        assert code == 3
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_data_root_is_used(self, tmp_path, monkeypatch):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        monkeypatch.delenv("UCR_DATA_ROOT", raising=False)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"data_root": str(root)}))
        code = run(["train", "--arch", "mlp", "--activation", "relu", "--dataset", "S1",
                    "--epochs", "1", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0


class TestSharedFlags:
    @pytest.mark.parametrize("command, own", [
        ("train", ["--activation", "relu", "--dataset", "S1"]),
        ("bench", ["--activations", "relu", "--datasets", "S1", "--jobs", "2"]),
    ])
    def test_train_and_bench_take_every_cell_flag(self, command, own):
        from leakysinelu.cli import build_parser

        args = build_parser().parse_args([
            command, *own, "--arch", "fcn", "--data-root", "r", "--config", "c",
            "--epochs", "3", "--seed", "4", "--batch-size", "5", "--no-norm-layers",
            "--no-znorm", "--out", "o",
        ])
        assert (args.arch, args.data_root, args.config_file, args.epochs, args.seed,
                args.batch_size, args.no_norm_layers, args.no_znorm, args.out) == (
                    "fcn", "r", "c", 3, 4, 5, True, True, "o")
