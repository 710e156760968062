"""Max RSS and seconds per step of FCN training, parent tree against working tree.

Usage (from the repository root):

    python3 tools/step_rss.py --topic tapeslots --parent HEAD --pairs 3

The pairs are ``bench_pairs.run_pairs``'s: each side runs from its own
extracted tree, never from the checkout, from which the same sources read
15 MB more max RSS after step 2 at L=1024; pair i of a key's list runs the
parent first when i is even. Each run is a fresh interpreter that imports
the package from its tree's ``src`` and calls ``bench.train`` for one epoch
of ``STEPS`` FCN (LeakySineLU, Adam) steps of ``BATCH`` series of length
``LENGTH``, on synthetic UCR-shaped data: z-normalised noisy sines of 5
classes, drawn from ``--seed``. It reads ``ru_maxrss`` and the clock as
each step starts and once after the last, so it reports the max RSS after
every step (a release that breaks heap reuse shows as growth on later
steps) and each step's seconds. A failed run stops the tool.

Results go under ``step_rss`` in ``BENCH_<topic>.json`` at the root, keyed
by ``L=<LENGTH> B=<BATCH>``: each pair's seed and per-step lists, and
``bench_pairs.summarize`` over each run's max RSS after step 1 and after
the last step and its median seconds per step (step 1 left out: it pays
first-call costs). Files are kept as ``bench_pairs.py`` keeps them: a rerun
appends its pairs and summarises all of them, and a file measured against
another parent commit is left alone, the call exiting before it runs
anything. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from bench_pairs import ROOT, load, run_pairs
from bench_pairs import summarize as summarize_pairs

# The one L=1024 FCN shape measured: series length, batch size and steps.
LENGTH, BATCH, STEPS = 1024, 16, 6
METRICS = [{"name": name, "better": "lower"}
           for name in ("max_rss_mb", "step1_max_rss_mb", "s_per_step")]

# One run: train, marking ru_maxrss (KiB on Linux) and the clock at each step.
CHILD = """
import json, resource, sys, time
import numpy as np
from leakysinelu import bench
from leakysinelu.data import Dataset

length, batch, steps, seed = map(int, sys.argv[1:5])
rng = np.random.default_rng(seed)
labels = np.arange(batch * steps) % 5
t = np.linspace(0.0, 1.0, length)
raw = np.sin(2 * np.pi * (labels[:, None] + 1) * t)
raw += 0.5 * rng.normal(size=raw.shape)
series = (raw - raw.mean(axis=1, keepdims=True)) / raw.std(axis=1, keepdims=True)
ds = Dataset(name="StepRSS", series=series, labels=labels,
             label_map={str(c): c for c in range(5)}, split="train")
config = bench.TrainConfig.for_architecture("fcn", "leakysinelu", epochs=1, seed=seed,
                                            batch_size=batch)
spec = bench.build_spec(config, ds)
marks, forward = [], bench.forward

def mark():
    marks.append((time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))

def marked_forward(*args, **kwargs):
    mark()
    return forward(*args, **kwargs)

bench.forward = marked_forward
bench.train(spec, ds, config)
mark()
print(json.dumps({"rss_mb": [round(kib / 1024, 1) for _, kib in marks[1:]],
                  "step_s": [round(b - a, 4) for (a, _), (b, _) in zip(marks, marks[1:])]}))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--topic", required=True, help="writes BENCH_<topic>.json")
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    return p.parse_args(argv)


def run_once(tree: Path, seed: int) -> dict:
    """One fresh-process run in ``tree``: per-step max RSS (MB) and seconds."""
    cmd = [sys.executable, "-c", CHILD, str(LENGTH), str(BATCH), str(STEPS), str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=3600,
                          env={**os.environ, "PYTHONPATH": str(tree / "src")})
    if proc.returncode != 0:
        raise SystemExit(f"step_rss: run in {tree} failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(pairs: list[dict]) -> dict:
    """``bench_pairs.summarize`` of each run's final and step-1 max RSS and
    median seconds per step after step 1. Every kept run passed: a failed one
    stops the tool."""
    def per_run(run):
        later = run["step_s"][1:] or run["step_s"]
        return {"max_rss_mb": run["rss_mb"][-1], "step1_max_rss_mb": run["rss_mb"][0],
                "s_per_step": statistics.median(later), "correct": True, "failed": 0}

    return summarize_pairs(
        [{side: per_run(p[side]) for side in ("parent", "change")} for p in pairs], METRICS)


def describe(pair: dict) -> str:
    return ", ".join(f"{s} max RSS {pair[s]['rss_mb'][0]:.1f} -> {pair[s]['rss_mb'][-1]:.1f} MB "
                     "(step 1 -> last)" for s in ("parent", "change"))


def main(argv=None, out_dir: Path = ROOT) -> int:
    args = parse_args(argv)
    out_path = out_dir / f"BENCH_{args.topic}.json"
    doc, parent = load(out_path, args.parent, "step_rss")
    key = f"L={LENGTH} B={BATCH}"
    kept = doc.get("step_rss", {}).get(key, {"pairs": []})["pairs"]
    kept = run_pairs(doc, parent, kept, [args.seed], args.pairs, run_once, describe)
    doc.setdefault("step_rss", {})[key] = {
        "command": f"python3 tools/step_rss.py --topic {args.topic} --parent {args.parent} "
                   f"--pairs {args.pairs} --seed {args.seed}",
        "pairs": kept,
        "summary": summarize(kept),
    }
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
