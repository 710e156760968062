"""``tools/bench_pairs.py``: its seed lists, its workload choices, which
come from BENCHMARK.json, its summary of the pairs, the digests it takes
from them, how a rerun adds to a file, and its clean-up when it is stopped."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
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


METRICS = [{"name": "step_ms", "better": "lower"},
           {"name": "sweep_cells_per_h", "better": "higher"}]


def pair(parent, change):
    """A synthetic pair; each side is (step_ms, sweep_cells_per_h, correct, failed)."""
    def side(values):
        step, cells, correct, failed = values
        return {"step_ms": step, "sweep_cells_per_h": cells, "correct": correct,
                "failed": failed}
    return {"parent": side(parent), "change": side(change)}


def test_summarize_leaves_out_pairs_with_a_failed_run():
    pairs = [pair((10.0, 100.0, True, 0), (9.0, 110.0, True, 0)),
             pair((12.0, 90.0, True, 0), (11.0, 80.0, True, 0)),
             pair((11.0, 95.0, True, 0), (12.0, 99.0, True, 0)),
             # every unit of this change run failed, so its timings read 0.0
             pair((10.5, 97.0, True, 0), (0.0, 0.0, False, 3)),
             pair((0.0, 0.0, False, 2), (9.5, 105.0, True, 0))]
    got = bench_pairs.summarize(pairs, METRICS)
    assert got["excluded_pairs"] == 2
    assert got["step_ms"] == {"pairs": 3, "parent_median": 11.0, "change_median": 11.0,
                              "parent_iqr": 2.0, "change_wins": 2, "change_losses": 1}
    assert got["sweep_cells_per_h"]["change_median"] == 99.0
    assert (got["sweep_cells_per_h"]["change_wins"],
            got["sweep_cells_per_h"]["change_losses"]) == (2, 1)
    assert got["failed"] == {"parent": {"runs": 1, "operations": 2},
                             "change": {"runs": 1, "operations": 3}}


def test_summarize_with_no_pair_left_has_no_medians():
    pairs = [pair((10.0, 100.0, True, 0), (0.0, 0.0, False, 4))]
    got = bench_pairs.summarize(pairs, METRICS)
    assert got["excluded_pairs"] == 1
    assert got["step_ms"] == {"pairs": 0, "parent_median": None, "change_median": None,
                              "parent_iqr": 0.0, "change_wins": 0, "change_losses": 0}
    assert got["failed"]["change"] == {"runs": 1, "operations": 4}


BOUNDED = [{"name": "step_ms", "better": "lower", "bound": 0.25},
           {"name": "sweep_cells_per_h", "better": "higher", "bound": 0.25}]


def steps(parent, change):
    """Passing pairs of these step_ms values, sweep_cells_per_h held at 1."""
    return [pair((p, 1.0, True, 0), (c, 1.0, True, 0)) for p, c in zip(parent, change)]


@pytest.mark.parametrize("parent, change, want", [
    # medians 10 -> 12.6: worse by more than a quarter of the parent's
    ([10.0] * 10, [12.6] * 10, "worse"),
    # 10 pairs, 9 wins, medians 10 -> 9 apart by more than the parent's IQR 0.5
    ([9.5, 9.75, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.25, 10.5],
     [9.0] * 9 + [11.0], "gain"),
    # the same runs, but only 9 pairs: no gain, and the spread is narrow
    ([9.5, 9.75, 10.0, 10.0, 10.0, 10.0, 10.0, 10.25, 10.5],
     [9.0] * 8 + [11.0], "within bound"),
    # 8 of 10 wins is not nine in ten
    ([9.5, 9.75, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.25, 10.5],
     [9.0] * 8 + [11.0] * 2, "within bound"),
    # the parent's IQR (5) exceeds a quarter of its median (10)
    ([5.0, 5.0, 10.0, 15.0, 15.0], [9.0, 9.0, 11.0, 11.0, 10.0], "unresolved"),
    # ... unless every change run beats every parent run
    ([20.0, 20.0, 40.0, 60.0, 60.0], [9.0, 9.0, 11.0, 11.0, 10.0], "within bound"),
    ([10.0, 10.5], [10.2, 10.4], "within bound"),
])
def test_verdict_per_bounded_metric(parent, change, want):
    assert bench_pairs.summarize(steps(parent, change), BOUNDED)["step_ms"]["verdict"] == want


@pytest.mark.parametrize("change, want", [(74.0, "worse"), (110.0, "gain"),
                                          (90.0, "within bound")])
def test_verdict_of_a_rate_reads_higher_as_better(change, want):
    pairs = [pair((1.0, 100.0, True, 0), (1.0, change, True, 0))] * 10
    assert bench_pairs.summarize(pairs, BOUNDED)["sweep_cells_per_h"]["verdict"] == want


def test_metric_without_a_bound_has_no_verdict_and_no_pair_is_unresolved():
    assert "verdict" not in bench_pairs.summarize(steps([1.0], [1.0]), METRICS)["step_ms"]
    failed = [pair((10.0, 100.0, True, 0), (0.0, 0.0, False, 4))]
    assert bench_pairs.summarize(failed, BOUNDED)["step_ms"]["verdict"] == "unresolved"


@pytest.mark.parametrize("topic, verdicts", [
    ("derived", {("fcn_cell", "setup_s"): "unresolved", ("sweep", "setup_s"): "unresolved"}),
    ("copyfree", {("fcn_cell", "peak_rss_mb"): "gain"}),
])
def test_verdicts_of_committed_pairs(topic, verdicts):
    # Every other metric of these files reads within bound.
    doc = json.loads((ROOT / f"BENCH_{topic}.json").read_text())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for workload, entry in doc["workloads"].items():
        summary = bench_pairs.summarize(entry["pairs"], metrics)
        for m in metrics:
            want = verdicts.get((workload, m["name"]), "within bound")
            assert summary[m["name"]]["verdict"] == want, (workload, m["name"])


def fake_bench(monkeypatch, tmp_path, commits, odd=None):
    """Point bench_pairs at ``tmp_path`` with ``commits`` (rev -> sha) for git
    and stand-ins for snapshot, extract and run_once, whose runs give the
    digest ``d<seed>``, but ``x`` for the run ``odd`` (side, seed, number of
    the run in the test); returns the runs' (side, seed, seconds)
    list, each side told apart by the directory it is extracted to."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []

    def run_once(tree, workload, seed, seconds):
        side = tree.name
        runs.append((side, seed, seconds))
        values = {m["name"]: float(len(runs)) for m in spec["end_to_end"]}
        digest = "x" if (side, seed, len(runs)) == odd else f"d{seed}"
        values.update(correct=True, failed=0, digest=digest)
        return values, {"numpy": "x"}

    monkeypatch.setattr(bench_pairs.signal, "signal", lambda signum, handler: None)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda cmd, rev: commits[rev])
    monkeypatch.setattr(bench_pairs, "snapshot", lambda index: "c" * 40)
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: dest)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return runs


def call(workload, pairs, parent="HEAD", seeds="1,2"):
    return bench_pairs.main(["--topic", "t", "--parent", parent, "--workload", workload,
                             "--pairs", str(pairs), "--seeds", seeds])


@pytest.mark.parametrize("text", ["5-1", "0--1"])
def test_empty_seed_list_exits_2_before_anything_is_extracted(monkeypatch, tmp_path, capsys,
                                                               text):
    runs, extracted = fake_bench(monkeypatch, tmp_path, {"HEAD": "a" * 40}), []
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: extracted.append(rev) or dest)
    with pytest.raises(SystemExit) as exc:
        call("sweep", 1, seeds=text)
    assert exc.value.code == 2
    assert f"argument --seeds: no seed in {text!r}" in capsys.readouterr().err
    assert runs == extracted == [] and not (tmp_path / "BENCH_t.json").exists()


def test_rerun_appends_its_pairs_and_summarises_all(monkeypatch, tmp_path):
    runs, calls = fake_bench(monkeypatch, tmp_path, {"HEAD": "a" * 40}), []
    shared = bench_pairs.run_pairs
    monkeypatch.setattr(bench_pairs, "run_pairs",
                        lambda *args: calls.append(args) or shared(*args))
    assert call("mlp_cell", 2) == 0 and call("sweep", 1) == 0
    first = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert call("mlp_cell", 3) == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    pairs = doc["workloads"]["mlp_cell"]["pairs"]
    assert pairs[:2] == first["workloads"]["mlp_cell"]["pairs"]
    assert [p["seed"] for p in pairs] == [1, 2, 1, 2, 1]
    # the parent runs first in the even-numbered pairs of the list, across calls
    assert [p["first"] for p in pairs] == ["parent", "change"] * 2 + ["parent"]
    assert [run[:2] for run in runs[6:]] == [("parent", 1), ("change", 1), ("change", 2),
                                             ("parent", 2), ("parent", 1), ("change", 1)]
    summary = doc["summary"]["mlp_cell"]
    assert summary == bench_pairs.summarize(pairs, json.loads(
        (tmp_path / "BENCHMARK.json").read_text())["end_to_end"])
    assert summary["cell_s"]["pairs"] == 5
    # every call went through the shared pair function, after the pairs it had
    assert [len(c[2]) for c in calls] == [0, 0, 2]
    assert doc["workloads"]["sweep"] == first["workloads"]["sweep"]
    assert (doc["commits"]["parent"], doc["commits"]["change_tree"]) == ("a" * 40, "c" * 40)


def test_digests_come_from_the_timed_pairs(monkeypatch, tmp_path):
    runs = fake_bench(monkeypatch, tmp_path, {"HEAD": "a" * 40})
    assert call("mlp_cell", 3, seeds="1-2") == 0 and call("sweep", 1, seeds="7") == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    # every run is a timed one: no extra short run per side and seed
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert len(runs) == 8 and {s for *_, s in runs} == {seconds}
    pairs = doc["workloads"]["mlp_cell"]["pairs"]
    assert [(p["parent"]["digest"], p["change"]["digest"]) for p in pairs] == [
        ("d1", "d1"), ("d2", "d2"), ("d1", "d1")]
    assert doc["digests"] == {
        "mlp_cell seed 1": {"parent": "d1", "change": "d1", "equal": True},
        "mlp_cell seed 2": {"parent": "d2", "change": "d2", "equal": True},
        "sweep seed 7": {"parent": "d7", "change": "d7", "equal": True}}


# Runs 1-8 of four pairs are seed 1 parent, change; seed 2 change, parent;
# seed 1 parent, change; seed 2 change, parent.
@pytest.mark.parametrize("odd", [("parent", 1, 1), ("change", 1, 6), ("parent", 2, 8)])
def test_a_seed_is_unequal_when_one_of_its_runs_disagrees(monkeypatch, tmp_path, odd):
    runs = fake_bench(monkeypatch, tmp_path, {"HEAD": "a" * 40}, odd=odd)
    assert call("fcn_cell", 4) == 0
    assert runs[odd[2] - 1][:2] == odd[:2]
    got = json.loads((tmp_path / "BENCH_t.json").read_text())["digests"]
    assert {key: entry["equal"] for key, entry in got.items()} == {
        "fcn_cell seed 1": odd[1] != 1, "fcn_cell seed 2": odd[1] != 2}


def test_appended_pairs_without_digests_keep_the_recorded_digests(monkeypatch, tmp_path):
    fake_bench(monkeypatch, tmp_path, {"HEAD": "a" * 40})
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    side = {**{m["name"]: 1.0 for m in metrics}, "correct": True, "failed": 0}
    old = {"seed": 3, "first": "parent", "parent": side, "change": side}
    recorded = {"sweep seed 3": {"parent": "p", "change": "q", "equal": False}}
    (tmp_path / "BENCH_t.json").write_text(json.dumps({
        "commits": {"parent": "a" * 40}, "digests": recorded,
        "workloads": {"sweep": {"pairs": [old]}}}))
    assert call("sweep", 1, seeds="4") == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert doc["workloads"]["sweep"]["pairs"][0] == old
    assert doc["workloads"]["sweep"]["pairs"][1]["first"] == "change"
    assert doc["digests"] == {**recorded, "sweep seed 4": {"parent": "d4", "change": "d4",
                                                          "equal": True}}


def test_rerun_against_another_parent_exits_naming_the_file(monkeypatch, tmp_path):
    runs = fake_bench(monkeypatch, tmp_path, {"HEAD": "a" * 40, "HEAD~1": "b" * 40})
    assert call("mlp_cell", 1) == 0
    before = (tmp_path / "BENCH_t.json").read_text()
    del runs[:]
    with pytest.raises(SystemExit, match=r"BENCH_t\.json was measured against parent a+, "
                                         r"not b+"):
        call("mlp_cell", 1, parent="HEAD~1")
    with pytest.raises(SystemExit, match=r"BENCH_t\.json"):
        call("fcn_cell", 1, parent="HEAD~1")
    assert runs == []
    assert (tmp_path / "BENCH_t.json").read_text() == before


# A bench_pairs run whose parent tree is a stand-in: its perfbench/run.py
# writes its pid to argv[2] and sleeps, so the run is stopped mid-benchmark.
STOPPED_CHILD = textwrap.dedent("""
    import importlib.util, sys

    spec = importlib.util.spec_from_file_location("bench_pairs", sys.argv[1])
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    RUN = ("import os, time\\n"
           f"open({sys.argv[2]!r}, 'w').write(str(os.getpid()))\\n"
           "time.sleep(120)\\n")

    def extract(rev, dest):
        (dest / "perfbench").mkdir(parents=True)
        (dest / "perfbench" / "run.py").write_text(RUN)
        return dest

    bench_pairs.extract = extract
    sys.exit(bench_pairs.main(["--topic", "stopped", "--parent", "HEAD",
                               "--workload", "mlp_cell", "--pairs", "1"]))
""")


def wait_for(predicate, seconds=60.0):
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.05)


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_kills_the_run_and_removes_the_temporary_directory(tmp_path):
    temp, pid_file = tmp_path / "tmp", tmp_path / "run.pid"
    temp.mkdir()
    proc = subprocess.Popen(
        [sys.executable, "-c", STOPPED_CHILD, str(ROOT / "tools" / "bench_pairs.py"),
         str(pid_file)], env={**os.environ, "TMPDIR": str(temp)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        wait_for(lambda: pid_file.is_file() and pid_file.read_text())
        run_pid = int(pid_file.read_text())
        assert [p.name[:12] for p in temp.iterdir()] == ["bench_pairs-"]
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode != 0, stderr
        assert list(temp.iterdir()) == []
        wait_for(lambda: not alive(run_pid), seconds=10)
    finally:
        proc.kill()
        if pid_file.is_file() and pid_file.read_text() and alive(int(pid_file.read_text())):
            os.kill(int(pid_file.read_text()), signal.SIGKILL)
    assert not (ROOT / "BENCH_stopped.json").exists()
