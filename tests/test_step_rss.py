"""``tools/step_rss.py``: its summary of the pairs, its fixed shape, how a
rerun adds to a file, and one toy-size run of each side from its own tree."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402
import step_rss  # noqa: E402


def run(rss, step_s):
    return {"rss_mb": rss, "step_s": step_s}


def test_summarize_takes_the_final_rss_and_leaves_out_step_one():
    pairs = [{"parent": run([300.0, 350.0, 400.0], [9.0, 1.0, 3.0]),
              "change": run([200.0, 250.0, 260.0], [9.0, 2.0, 2.0])},
             {"parent": run([310.0, 360.0, 380.0], [9.0, 2.0, 2.0]),
              "change": run([390.0, 390.0, 390.0], [9.0, 1.0, 1.0])}]
    got = step_rss.summarize(pairs)
    assert got["max_rss_mb"] == {"parent_median": 390.0, "change_median": 325.0,
                                 "parent_iqr": 30.0, "change_wins": 1, "pairs": 2,
                                 "change_losses": 1}
    assert got["step1_max_rss_mb"] == {"parent_median": 305.0, "change_median": 295.0,
                                       "parent_iqr": 15.0, "change_wins": 1, "pairs": 2,
                                       "change_losses": 1}
    assert got["s_per_step"] == {"parent_median": 2.0, "change_median": 1.5,
                                 "parent_iqr": 0.0, "change_wins": 1, "pairs": 2,
                                 "change_losses": 0}
    assert got["excluded_pairs"] == 0
    assert got["failed"] == {side: {"runs": 0, "operations": 0} for side in ("parent", "change")}


def fake_runs(monkeypatch, tmp_path, commits):
    """Stand-ins for git (``commits``: rev -> sha), snapshot, extract and
    run_once, with the temporary directory under ``tmp_path``; returns the
    runs' sides, told apart by the directory each side is extracted to, and
    the calls of the shared pair function."""
    runs, calls = [], []

    def run_once(tree, seed):
        runs.append(tree.name)
        return run([100.0, 100.0 + len(runs)], [1.0, 0.5])

    def run_pairs(*args):
        calls.append(args)
        return shared(*args)

    shared = bench_pairs.run_pairs
    monkeypatch.setattr(bench_pairs.tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda signum, handler: None)
    monkeypatch.setattr(bench_pairs, "git", lambda cmd, rev: commits[rev])
    monkeypatch.setattr(bench_pairs, "snapshot", lambda index: "c" * 40)
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: dest)
    monkeypatch.setattr(step_rss, "run_once", run_once)
    monkeypatch.setattr(step_rss, "run_pairs", run_pairs)
    return runs, calls


def call(out_dir, pairs, parent="HEAD"):
    return step_rss.main(["--topic", "t", "--parent", parent, "--pairs", str(pairs)],
                         out_dir=out_dir)


@pytest.mark.parametrize("flag", ["--length", "--batch", "--steps"])
def test_the_shape_is_fixed(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        step_rss.parse_args(["--topic", "t", "--parent", "HEAD", flag, "512"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 512" in capsys.readouterr().err
    assert (step_rss.LENGTH, step_rss.BATCH, step_rss.STEPS) == (1024, 16, 6)


def test_rerun_appends_its_pairs_and_summarises_all(monkeypatch, tmp_path):
    runs, calls = fake_runs(monkeypatch, tmp_path, {"HEAD": "a" * 40})
    other = {"pairs": [], "summary": {}}
    (tmp_path / "BENCH_t.json").write_text(json.dumps({"step_rss": {"L=32 B=4": other}}))
    assert call(tmp_path, 1) == 0
    first = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert call(tmp_path, 2) == 0
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    pairs = doc["step_rss"]["L=1024 B=16"]["pairs"]
    assert pairs[:1] == first["step_rss"]["L=1024 B=16"]["pairs"]
    # the parent runs first in the even-numbered pairs of the list, across calls
    assert [p["first"] for p in pairs] == ["parent", "change", "parent"]
    assert runs == ["parent", "change", "change", "parent", "parent", "change"]
    assert len(calls) == 2 and [len(c[2]) for c in calls] == [0, 1]
    summary = doc["step_rss"]["L=1024 B=16"]["summary"]
    assert summary == step_rss.summarize(pairs) and summary["max_rss_mb"]["pairs"] == 3
    assert doc["step_rss"]["L=32 B=4"] == other
    assert doc["step_rss"]["L=1024 B=16"]["command"] == (
        "python3 tools/step_rss.py --topic t --parent HEAD --pairs 2 --seed 1")
    assert (doc["commits"]["parent"], doc["commits"]["change_tree"]) == ("a" * 40, "c" * 40)
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_t.json"]


def test_rerun_against_another_parent_exits_naming_the_file(monkeypatch, tmp_path):
    runs, _ = fake_runs(monkeypatch, tmp_path, {"HEAD": "a" * 40, "HEAD~1": "b" * 40})
    assert call(tmp_path, 1) == 0
    before = (tmp_path / "BENCH_t.json").read_text()
    del runs[:]
    with pytest.raises(SystemExit, match=r"BENCH_t\.json was measured against parent a+, "
                                         r"not b+"):
        call(tmp_path, 1, parent="HEAD~1")
    assert runs == []
    assert (tmp_path / "BENCH_t.json").read_text() == before


def test_toy_run_records_every_step_of_both_sides(tmp_path, monkeypatch):
    # The real runs at a toy shape in place of L=1024, 16 series and 6 steps.
    monkeypatch.setattr(step_rss, "LENGTH", 16)
    monkeypatch.setattr(step_rss, "BATCH", 4)
    monkeypatch.setattr(step_rss, "STEPS", 3)
    monkeypatch.setattr(bench_pairs.tempfile, "tempdir", str(tmp_path))
    (tmp_path / "BENCH_toy.json").write_text(json.dumps({"topic": "kept"}))
    argv = ["--topic", "toy", "--parent", "HEAD", "--pairs", "1"]
    assert step_rss.main(argv, out_dir=tmp_path) == 0
    doc = json.loads((tmp_path / "BENCH_toy.json").read_text())
    assert doc["topic"] == "kept"
    entry = doc["step_rss"]["L=16 B=4"]
    (pair,) = entry["pairs"]
    assert pair["first"] == "parent"
    for side in ("parent", "change"):
        assert len(pair[side]["rss_mb"]) == len(pair[side]["step_s"]) == 3
        assert pair[side]["rss_mb"] == sorted(pair[side]["rss_mb"]) and pair[side]["rss_mb"][0] > 0
        assert all(s > 0 for s in pair[side]["step_s"])
    assert entry["summary"]["max_rss_mb"]["pairs"] == 1
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_toy.json"]
