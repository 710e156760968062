import dataclasses
import json

import numpy as np
import pytest

from leakysinelu import activations as zoo
from leakysinelu import cli, errors
from leakysinelu.cli import main

from conftest import make_ucr_root, synth_series, write_tsv


def run(argv):
    return main(argv)


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


# Well-formed JSON lines that are not result records.
NOT_RECORDS = [
    '{"status": "completed"}',
    "[1, 2]",
    json.dumps({"dataset": "S1", "config_hash": "h", "status": "completed", "accuracy": None,
                "config": {"architecture": "mlp", "activation": {"name": "relu"}}}),
    json.dumps({"dataset": "S1", "config_hash": "h", "status": "completed", "accuracy": True,
                "config": {"architecture": "mlp", "activation": {"name": "relu"}}}),
]


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

    def test_wrong_period_exits_1(self, tmp_path, capsys, monkeypatch):
        wrong = dataclasses.replace(zoo.catalog("leakysinelu"), semi_periodic_period=2.0)
        monkeypatch.setattr(zoo, "_REGISTRY", {**zoo._REGISTRY, "leakysinelu": wrong})
        assert run(["analyze", "--activation", "all", "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "leakysinelu: MISMATCH semi-periodicity: derivative deviates by " in out
        assert "snake: ok" in out

    def test_unknown_activation_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["analyze", "--activation", "swish", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run(["analyze", "--activation", "relu", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --out {out}: cannot make ")


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

    @pytest.mark.parametrize("scale", [1.0, 1e-9])
    def test_trains_at_any_scale(self, tmp_path, capsys, scale):
        # Sines of 1 and 2 cycles plus 5 % noise: z-normalisation scales a
        # series of std 1e-9 as it scales one of std 1.
        rng = np.random.default_rng(0)
        for split in ("TRAIN", "TEST"):
            labels, series = synth_series(rng, (1, 2), 10, 32)
            (tmp_path / "S").mkdir(exist_ok=True)
            write_tsv(tmp_path / "S" / f"S_{split}.tsv", labels, scale * series)
        assert run(["train", "--arch", "mlp", "--activation", "leakysinelu", "--dataset", "S",
                    "--data-root", str(tmp_path), "--epochs", "30",
                    "--out", str(tmp_path / "out")]) == 0
        assert "accuracy=1.000000" in capsys.readouterr().out

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

    def test_no_data_root_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("UCR_DATA_ROOT", raising=False)
        code = run([
            "train", "--arch", "mlp", "--activation", "relu", "--dataset", "S1",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 3
        assert "pass --data-root or set UCR_DATA_ROOT" in capsys.readouterr().err

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

    def test_dataset_list_with_a_byte_order_mark(self, tmp_path, capsys):
        root = make_ucr_root(tmp_path / "ucr", ["S1", "S2"], n_train=8, n_test=8, length=12)
        listing = tmp_path / "sets.txt"
        listing.write_text("S1\nS2\n", encoding="utf-8-sig")
        base = ["bench", "--arch", "mlp", "--activations", "relu", "--data-root", str(root),
                "--epochs", "1", "--out", str(tmp_path / "out")]
        assert run(base + ["--datasets", "S1,S2"]) == 0
        assert "0 cached, 2 trained" in capsys.readouterr().out
        assert run(base + ["--datasets", f"@{listing}"]) == 0
        assert "2 cached, 0 trained" in capsys.readouterr().out

    @pytest.mark.parametrize("activations, datasets", [
        ("relu,relu", "S1"), ("relu", "S1,S1"), ("relu, relu,", "@list"),
    ])
    def test_repeated_names_share_the_invocation(self, tmp_path, capsys, activations, datasets):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        listing = tmp_path / "list"
        listing.write_text("S1\n\nS1\n")
        base = ["bench", "--arch", "mlp", "--data-root", str(root), "--epochs", "1",
                "--out", str(tmp_path / "out")]
        assert run(base + ["--activations", "relu", "--datasets", "S1"]) == 0
        assert "0 cached, 1 trained" in capsys.readouterr().out
        datasets = f"@{listing}" if datasets == "@list" else datasets
        assert run(base + ["--activations", activations, "--datasets", datasets]) == 0
        assert "1 cached, 0 trained" in capsys.readouterr().out
        (outdir,) = (tmp_path / "out").glob("bench-*")
        assert len(read_jsonl(outdir / "results.jsonl")) == 1

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

    @pytest.mark.parametrize("line", NOT_RECORDS)
    def test_line_that_is_not_a_record_exits_3(self, tmp_path, capsys, line):
        root = make_ucr_root(tmp_path / "ucr", ["S1"], n_train=8, n_test=8, length=12)
        argv = ["bench", "--arch", "mlp", "--activations", "relu", "--datasets", "S1",
                "--data-root", str(root), "--epochs", "1", "--out", str(tmp_path / "out")]
        assert run(argv) == 0
        (results,) = (tmp_path / "out").glob("bench-*/results.jsonl")
        with open(results, "a") as fh:
            fh.write(line + "\n")
        capsys.readouterr()
        assert run(argv) == 3
        assert f"{results}:2: not a result record: " in capsys.readouterr().err

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

    @pytest.mark.parametrize("results", ["complete", "incomplete", "missing"])
    @pytest.mark.parametrize("alpha", ["1.5", "0"])
    def test_bad_alpha_exits_2_without_output(self, tmp_path, capsys, alpha, results):
        # alpha is checked as the arguments are parsed, before the results file
        # is read, which would exit 5 for an incomplete file and 3 for a missing one.
        path = tmp_path / "absent.jsonl"
        if results != "missing":
            path = self._bench(tmp_path)
            if results == "incomplete":
                path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
        with pytest.raises(SystemExit) as exc:
            run(["compare", "--results", str(path), "--arch", "mlp",
                 "--alpha", alpha, "--out", str(tmp_path / "cmp")])
        assert exc.value.code == 2
        assert "argument --alpha: must be in (0, 1)" in capsys.readouterr().err
        assert not list((tmp_path / "cmp").glob("compare-*"))

    def test_two_configs_for_one_cell_exit_3_without_output(self, tmp_path, capsys):
        results = self._bench(tmp_path)
        lines = results.read_text().splitlines()
        record = json.loads(lines[0])
        record["config"]["epochs"] = 3
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("\n".join(lines + [json.dumps(record)]) + "\n")
        code = run(["compare", "--results", str(mixed), "--arch", "mlp",
                    "--out", str(tmp_path / "cmp")])
        assert code == 3
        err = capsys.readouterr().err
        assert repr(record["dataset"]) in err
        assert repr(record["config"]["activation"]["name"]) in err
        assert not list((tmp_path / "cmp").glob("compare-*"))

    def test_one_dataset_exits_3_without_output(self, tmp_path, capsys):
        results = self._bench(tmp_path)
        kept = [l for l in results.read_text().splitlines() if '"S2"' not in l]
        trimmed = tmp_path / "trimmed.jsonl"
        trimmed.write_text("\n".join(kept) + "\n")
        code = run(["compare", "--results", str(trimmed), "--arch", "mlp",
                    "--out", str(tmp_path / "cmp")])
        assert code == 3
        assert "found 1 dataset(s) and 3 activation(s)" in capsys.readouterr().err
        assert not list((tmp_path / "cmp").glob("compare-*"))

    @pytest.mark.parametrize("line", NOT_RECORDS)
    def test_line_that_is_not_a_record_exits_3(self, tmp_path, capsys, line):
        results = tmp_path / "one.jsonl"
        results.write_text(line + "\n")
        code = run(["compare", "--results", str(results), "--arch", "mlp",
                    "--out", str(tmp_path / "cmp")])
        assert code == 3
        assert f"{results}:1: not a result record: " in capsys.readouterr().err
        assert not list((tmp_path / "cmp").glob("compare-*"))

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

    @pytest.mark.parametrize("input_args, code, message", [
        (["--grid", "0", "1", "0"], 2, "--grid needs finite LO, HI and a whole N >= 1"),
        (["--grid", "0", "1", "-5"], 2, "--grid needs finite LO, HI and a whole N >= 1"),
        (["--grid", "0", "1", "2.7"], 2, "--grid needs finite LO, HI and a whole N >= 1"),
        (["--grid", "nan", "1", "3"], 2, "--grid needs finite LO, HI and a whole N >= 1"),
        (["--grid", "0", "inf", "3"], 2, "--grid needs finite LO, HI and a whole N >= 1"),
        # numpy refuses this N before it allocates anything
        (["--grid", "0", "1", "1e20"], 2, "--grid cannot make 1e+20 points"),
        (["--input", "1 nan -inf"], 3, "non-finite value 'nan'"),
        (["--input", "1 2 -inf"], 3, "non-finite value '-inf'"),
    ], ids=["grid-zero", "grid-negative", "grid-fraction", "grid-nan-lo", "grid-inf-hi",
            "grid-too-large", "input-nan", "input-inf"])
    def test_bad_input_rejected(self, input_args, code, message, capsys):
        assert run(["trace", "--activation", "relu", *input_args]) == code
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

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

    def test_inline_row_longer_than_a_file_name(self, capsys):
        # 128 values make a 511-character row, past any file system's NAME_MAX.
        row = "\t".join(["1.5"] * 128)
        assert run(["trace", "--activation", "leakysinelu", "--input", row]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 129

    def test_input_file(self, tmp_path, capsys):
        p = tmp_path / "series.tsv"
        p.write_text("0.5\t-0.25\t1.0\n")
        code = run(["trace", "--activation", "sigmoid", "--input", str(p)])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

    def test_input_file_with_a_byte_order_mark(self, tmp_path, capsys):
        outputs = []
        for encoding in ("utf-8", "utf-8-sig"):
            p = tmp_path / f"{encoding}.tsv"
            p.write_text("-1.0\t0.5\n", encoding=encoding)
            assert run(["trace", "--activation", "leakysinelu", "--input", str(p)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 3

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

    def test_output_file_in_a_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "trace.csv"
        code = run(["trace", "--activation", "relu", "--grid", "-1", "1", "5",
                    "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: --out {out}: cannot write: ")
        assert not out.parent.exists()


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
        assert "kernel_backend" not in manifest
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
    def test_config_flag_is_a_usage_error(self, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            run(self._argv(tmp_path, command) + ["--config", str(tmp_path / "c.json")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_bad_setting_outranks_missing_dataset(self, tmp_path, capsys, command):
        argv = self._argv(tmp_path, command) + ["--epochs", "-1"]
        argv[argv.index("S1")] = "NOPE"
        assert run(argv) == 2
        assert "epochs must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_train_missing_dataset_exits_3_writing_nothing(self, tmp_path):
        argv = self._argv(tmp_path, "train")
        argv[argv.index("S1")] = "NOPE"
        assert run(argv) == 3
        assert not list((tmp_path / "out").glob("train-*"))

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_non_utf8_dataset_exits_3_naming_the_line(self, tmp_path, capsys, command):
        argv = self._argv(tmp_path, command)
        path = tmp_path / "ucr" / "S1" / "S1_TRAIN.tsv"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"".join(lines))
        assert run(argv) == 3
        assert f"{path}:3: not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # Finite rows that z-normalisation would turn into zeros (the std overflows)
    # or NaN (the mean overflows).
    @pytest.mark.parametrize("row", [["1e308", "-1e308"], ["1e308"], ["9e307"]],
                             ids=["spread", "constant-1e308", "constant-9e307"])
    @pytest.mark.parametrize("command", ["train", "bench"])
    @pytest.mark.filterwarnings("error")  # a numpy overflow warning fails the test
    def test_series_that_cannot_be_scaled_exits_3_naming_the_line(
        self, tmp_path, capsys, command, row
    ):
        argv = self._argv(tmp_path, command)
        path = tmp_path / "ucr" / "S1" / "S1_TRAIN.tsv"
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        rows[2][1:] = (row * 12)[:12]
        path.write_text("".join("\t".join(r) + "\n" for r in rows))
        assert run(argv) == 3
        assert f"{path}:3: series mean or standard deviation overflows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_dataset_list_exits_3_naming_the_file(self, tmp_path, capsys):
        argv = self._argv(tmp_path, "bench")
        listing = tmp_path / "sets.txt"
        listing.write_bytes(b"S1\n\xe9t\xe9\n")
        argv[argv.index("S1")] = f"@{listing}"
        assert run(argv) == 3
        assert f"{listing}: dataset list is not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSharedFlags:
    @pytest.mark.parametrize("command, own", [
        ("train", ["--activation", "relu", "--dataset", "S1"]),
        ("bench", ["--activations", "relu", "--datasets", "S1", "--jobs", "2"]),
    ])
    def test_train_and_bench_take_every_cell_flag(self, command, own):
        from leakysinelu.cli import build_parser

        args = build_parser().parse_args([
            command, *own, "--arch", "fcn", "--data-root", "r",
            "--epochs", "3", "--seed", "4", "--batch-size", "5", "--no-norm-layers",
            "--no-znorm", "--out", "o",
        ])
        assert (args.arch, args.data_root, args.epochs, args.seed,
                args.batch_size, args.no_norm_layers, args.no_znorm, args.out) == (
                    "fcn", "r", 3, 4, 5, True, True, "o")


class TestExitCodes:
    # A subclass takes the code of the first kind in the table it belongs to.
    @pytest.mark.parametrize("error, code", [
        (errors.ConfigError, 2), (errors.DataError, 3), (errors.UnsupportedDatasetError, 3),
        (errors.NumericError, 4), (errors.ContractError, 1),
        (errors.ShapeError, 1), (errors.LeakySineLUError, 1),
    ])
    def test_each_error_kind_prints_one_line_and_exits_with_its_code(
            self, monkeypatch, capsys, error, code):
        def fail(args):
            raise error("it broke")

        monkeypatch.setattr(cli, "cmd_analyze", fail)
        assert run(["analyze", "--activation", "relu"]) == code
        assert capsys.readouterr().err == "error: it broke\n"

    def test_an_error_of_another_kind_is_not_caught(self, monkeypatch):
        def fail(args):
            raise ValueError("a bug")

        monkeypatch.setattr(cli, "cmd_analyze", fail)
        with pytest.raises(ValueError, match="a bug"):
            run(["analyze", "--activation", "relu"])
