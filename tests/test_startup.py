"""A training process never imports scipy: `stats` and GELU load it on first
use. A `compare` process loads only ``scipy.special`` (``chdtrc`` for the
Friedman tail, ``ndtr`` for Wilcoxon's normal approximation), never scipy's
statistics package. Each check runs in a fresh interpreter, because this test
process has already imported scipy through other tests."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import leakysinelu

SRC = Path(leakysinelu.__file__).resolve().parents[1]

CHILD = textwrap.dedent("""
    import sys

    import numpy as np

    import leakysinelu
    import leakysinelu.cli
    from leakysinelu import activations as zoo
    from leakysinelu import bench, stats
    from leakysinelu.data import Dataset

    rng = np.random.default_rng(0)
    labels = np.arange(12, dtype=np.int64) % 3
    t = np.arange(16) / 16
    series = np.sin(2 * np.pi * (labels[:, None] + 1) * t) + 0.05 * rng.normal(size=(12, 16))
    ds = Dataset(name="toy", series=series, labels=labels,
                 label_map={"0": 0, "1": 1, "2": 2}, split="train")
    for arch in ("mlp", "fcn"):
        config = bench.TrainConfig.for_architecture(arch, "leakysinelu", epochs=1)
        spec = bench.build_spec(config, ds)
        state, losses, _ = bench.train(spec, ds, config)
        assert len(losses) == 1 and np.isfinite(losses[0])
        assert 0.0 <= bench.evaluate(state, spec, ds) <= 1.0

    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert not loaded, f"scipy modules loaded by a training process: {loaded[:5]}"

    assert zoo.evaluate("gelu", 1.0) == 1.0 * 0.8413447460685429
    matrix = stats.AccuracyMatrix(methods=("a", "b", "c"), datasets=("d1", "d2"),
                                  values=np.array([[0.9, 0.8, 0.7], [0.6, 0.5, 0.4]]))
    stat, p = stats.friedman(matrix)
    # With df = 2 the chi-square tail is exp(-stat / 2).
    assert stat == 4.0 and abs(p - np.exp(-2.0)) < 1e-15
    print("ok")
""")


# 3 methods, so Friedman runs; 24 datasets with no tied accuracies, so every
# pair's Wilcoxon test takes the normal approximation and calls ndtr.
COMPARE_CHILD = textwrap.dedent("""
    import contextlib
    import io
    import json
    import sys
    from pathlib import Path

    import numpy as np

    from leakysinelu import cli

    results, out = sys.argv[1], sys.argv[2]
    rng = np.random.default_rng(0)
    with open(results, "w") as fh:
        for i in range(24):
            for name in ("leakysinelu", "relu", "sine"):
                fh.write(json.dumps({
                    "dataset": f"d{i:02d}", "config_hash": f"{i}-{name}",
                    "status": "completed", "accuracy": float(rng.uniform(0.5, 1.0)),
                    "config": {"architecture": "mlp", "activation": {"name": name}}}) + "\\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["compare", "--results", results, "--arch", "mlp", "--out", out]) == 0

    (path,) = Path(out).glob("compare-*/report.json")
    report = json.loads(path.read_text())
    assert report["friedman_p"] is not None and len(report["pairs"]) == 3
    assert "scipy.special" in sys.modules
    loaded = sorted(m for m in sys.modules if m == "scipy.stats" or m.startswith("scipy.stats."))
    assert not loaded, f"scipy.stats modules loaded by compare: {loaded[:5]}"
    print("ok")
""")


def run_child(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env=env, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "ok"


def test_training_process_loads_no_scipy():
    run_child(CHILD)


def test_compare_process_loads_no_scipy_stats(tmp_path):
    run_child(COMPARE_CHILD, str(tmp_path / "results.jsonl"), str(tmp_path / "cmp"))
