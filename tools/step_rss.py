"""Max RSS and seconds per step of FCN training, parent tree against working tree.

Usage (from the repository root):

    python3 tools/step_rss.py --topic tapeslots --parent HEAD --length 1024 \
        --batch 16 --steps 6 --pairs 3

The parent is extracted as ``tools/bench_pairs.py`` extracts it; the change
is the working tree. Each run is a fresh interpreter that imports the
package from its tree's ``src`` and calls ``bench.train`` for one epoch of
``--steps`` FCN (LeakySineLU, Adam) steps of ``--batch`` series of length
``--length``, on synthetic UCR-shaped data: z-normalised noisy sines of 5
classes, drawn from ``--seed``. It reads ``ru_maxrss`` and the clock as each
step starts and once after the last, so it reports the max RSS after every
step (a release that breaks heap reuse shows as growth on later steps) and
each step's seconds. Pair i runs the parent first when i is even.

Results go under ``step_rss`` in ``BENCH_<topic>.json`` at the root, keyed
by ``L=<length> B=<batch>``: each run's per-step lists, and per side the
median over runs of the final max RSS and of the median seconds per step
(step 1 left out: it pays first-call costs), the parent's IQR of both, and
how many pairs the change won on each. Other keys of the file are kept, so
it can share a file with ``bench_pairs.py``. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, exit_on_signal, extract, git, iqr, median

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
    p.add_argument("--length", type=int, default=1024)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    return p.parse_args(argv)


def run_once(tree: Path, args) -> dict:
    """One fresh-process run in ``tree``: per-step max RSS (MB) and seconds."""
    cmd = [sys.executable, "-c", CHILD, str(args.length), str(args.batch), str(args.steps),
           str(args.seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=3600,
                          env={**os.environ, "PYTHONPATH": str(tree / "src")})
    if proc.returncode != 0:
        raise SystemExit(f"step_rss: run in {tree} failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(pairs: list[dict]) -> dict:
    """Per side: medians over runs of the final max RSS and of the median
    seconds per step after step 1; the parent's IQR; the change's wins."""
    def per_run(run):
        later = run["step_s"][1:] or run["step_s"]
        return {"max_rss_mb": run["rss_mb"][-1], "s_per_step": statistics.median(later)}

    out = {}
    for metric in ("max_rss_mb", "s_per_step"):
        parent = [per_run(p["parent"])[metric] for p in pairs]
        change = [per_run(p["change"])[metric] for p in pairs]
        out[metric] = {"parent_median": median(parent), "change_median": median(change),
                       "parent_iqr": round(iqr(parent), 4),
                       "change_wins": sum(c < p for p, c in zip(parent, change)),
                       "pairs": len(pairs)}
    return out


def main(argv=None, out_dir: Path = ROOT) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, exit_on_signal)
    out_path = out_dir / f"BENCH_{args.topic}.json"
    work = Path(tempfile.mkdtemp(prefix="step_rss-"))
    try:
        sides = {"parent": extract(args.parent, work / "parent"), "change": ROOT}
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], args)
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{s} max RSS {pair[s]['rss_mb'][-1]:.1f} MB" for s in ("parent", "change")),
                flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    doc = json.loads(out_path.read_text()) if out_path.is_file() else {}
    doc.setdefault("step_rss", {})[f"L={args.length} B={args.batch}"] = {
        "command": f"python3 tools/step_rss.py --topic {args.topic} --parent {args.parent} "
                   f"--length {args.length} --batch {args.batch} --steps {args.steps} "
                   f"--pairs {args.pairs} --seed {args.seed}",
        "commits": {"parent": git("rev-parse", args.parent),
                    "change": f"working tree on {git('rev-parse', 'HEAD')}"},
        "pairs": pairs,
        "summary": summarize(pairs),
    }
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
