"""``tools/bench_pairs.py``: its seed lists and its workload choices, which
come from BENCHMARK.json."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("text, seeds", [("1-5", [1, 2, 3, 4, 5]), ("6-6", [6]),
                                         ("1,3,7", [1, 3, 7]), ("4", [4])])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


def argv(workload):
    return ["--topic", "t", "--parent", "HEAD", "--workload", workload]


def test_workload_choices_are_the_benchmarks():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names
    for name in names:
        assert bench_pairs.parse_args(argv(name), spec).workload == name
    longer = {**spec, "workloads": [*spec["workloads"], {"name": "fcn_long"}]}
    assert bench_pairs.parse_args(argv("fcn_long"), longer).workload == "fcn_long"
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(argv("fcn_long"), spec)
