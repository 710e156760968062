"""``tools/step_rss.py``: its summary of the pairs, and one toy-size run of
each side from its own tree."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
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
                                 "parent_iqr": 30.0, "change_wins": 1, "pairs": 2}
    assert got["s_per_step"] == {"parent_median": 2.0, "change_median": 1.5,
                                 "parent_iqr": 0.0, "change_wins": 1, "pairs": 2}


def test_toy_run_records_every_step_of_both_sides(tmp_path, monkeypatch):
    monkeypatch.setattr(step_rss.tempfile, "tempdir", str(tmp_path))
    (tmp_path / "BENCH_toy.json").write_text(json.dumps({"topic": "kept"}))
    argv = ["--topic", "toy", "--parent", "HEAD", "--length", "16", "--batch", "4",
            "--steps", "3", "--pairs", "1"]
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
