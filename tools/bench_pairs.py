"""Alternating parent/change pairs of ``perfbench/run.py --trace 0``.

Usage (from the repository root):

    python3 tools/bench_pairs.py --topic layout --parent HEAD~1 --workload fcn_cell \
        --pairs 10 --seeds 1-5 --digest-seeds 1-10

The parent is extracted with ``git archive <rev> | tar -x`` into a temporary
directory. The change is the working tree, untracked files included and
ignored ones left out, written as a git tree through a temporary index (the
index and HEAD are not touched) and extracted the same way beside it; its
tree id is recorded under ``commits``. So neither side runs from the
checkout, whose directory alone moved a run's max RSS. Each run lasts
BENCHMARK.json's ``run_seconds``. The i-th pair of a call runs
seed ``seeds[i % len(seeds)]`` on both sides; the parent runs first in the
even-numbered pairs of the workload's list, so appended pairs keep alternating.
``--digest-seeds`` adds one ``--seconds 1`` run per side and seed, to compare
the determinism digests. Results go to ``BENCH_<topic>.json`` at the root:
the per-pair metric values, each side's median, the parent's interquartile
range, how many pairs the change won and lost (by BENCHMARK.json's
``better``) and, for a metric with a ``bound``, its verdict (worse, gain,
unresolved or within bound; see ``verdict``), all over the pairs whose runs
both passed their output checks,
how many pairs that left out, each side's failed runs and failed operations,
the digests and the machine stamp (the report's env, the C library and its
malloc environment variables). ``--workload`` is one of BENCHMARK.json's
workloads. An existing file is updated in place, one workload at a time, so
several calls can fill one file: a call for a workload the file already has
appends its pairs and summarises all of them. A file measured against another
parent commit is left alone, and the call exits naming it before it runs
anything. SIGTERM and SIGINT stop it cleanly: the running benchmark is killed
and the temporary directory removed. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The C library and its malloc settings decide how often a step faults its
# temporaries in, so they go into the machine stamp with the BLAS config.
MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


def parse_seeds(text: str) -> list[int]:
    """``1-5`` or ``1,3,7``."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def parse_args(argv, spec: dict):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--topic", required=True, help="writes BENCH_<topic>.json")
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seeds", type=parse_seeds, default=[1])
    p.add_argument("--digest-seeds", type=parse_seeds, default=[])
    return p.parse_args(argv)


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True, capture_output=True,
                          text=True).stdout.strip()


def snapshot(index: Path) -> str:
    """The id of a git tree of the working tree, untracked files included,
    made through the temporary index file ``index``."""
    env = {**os.environ, "GIT_INDEX_FILE": str(index)}
    git("add", "-A", env=env)
    return git("write-tree", env=env)


def extract(rev: str, dest: Path) -> Path:
    """The tree of ``rev`` under ``dest``, through ``git archive | tar -x``."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit(f"bench_pairs: cannot extract {rev}")
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its result object plus the report's digest and env."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=4 * seconds + 300)
    lines = proc.stdout.strip().splitlines()
    report = next((json.loads(line)["perfbench_report"] for line in lines
                   if line.startswith('{"perfbench_report"')), None)
    if not lines or report is None:
        raise SystemExit(f"bench_pairs: no report from {tree} (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update(correct=result["correct"], failed=result["failed"])
    return {"values": values, "digest": report["digest"], "env": report["env"]}


def median(values: list[float]) -> float | None:
    return round(statistics.median(values), 4) if values else None


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], wins: int, bound: float,
            lower: bool) -> str:
    """One metric's reading, by the first rule that holds:

    - ``worse``: the change's median is worse than the parent's by more than
      ``bound`` times the parent's median;
    - ``gain``: at least 10 pairs, the change won at least nine in ten, and
      the medians differ in the better direction by more than the parent's IQR;
    - ``unresolved``: the parent's IQR exceeds ``bound`` times its median and
      not every change run beats every parent run (or no pair is left);
    - ``within bound``: otherwise.
    """
    if not parent:
        return "unresolved"
    p_med, c_med, spread = statistics.median(parent), statistics.median(change), iqr(parent)
    better_by = p_med - c_med if lower else c_med - p_med
    if -better_by > bound * abs(p_med):
        return "worse"
    if len(parent) >= 10 and 10 * wins >= 9 * len(parent) and better_by > spread:
        return "gain"
    all_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if spread > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "within bound"


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: medians, the parent's IQR, wins and losses over the pairs
    whose runs both passed their output checks (a run that failed every unit
    reads 0.0 for its timings), and, for a metric with a ``bound``, its
    ``verdict``; medians are None when no pair is left. Failed runs and
    operations are counted over all pairs."""
    good = [p for p in pairs if p["parent"]["correct"] and p["change"]["correct"]]
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [p["parent"][name] for p in good]
        change = [p["change"][name] for p in good]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
        out[name] = {"pairs": len(good), "parent_median": median(parent),
                     "change_median": median(change), "parent_iqr": round(iqr(parent), 4),
                     "change_wins": wins, "change_losses": losses}
        if "bound" in m:
            out[name]["verdict"] = verdict(parent, change, wins, m["bound"], lower)
    out["excluded_pairs"] = len(pairs) - len(good)
    out["failed"] = {side: {"runs": sum(not p[side]["correct"] for p in pairs),
                            "operations": sum(p[side]["failed"] for p in pairs)}
                     for side in ("parent", "change")}
    return out


def check_parent(doc: dict, parent: str, out_path: Path, tool: str) -> None:
    """Exit, naming ``out_path``, if its ``doc`` was measured against a parent
    commit other than ``parent``."""
    recorded = doc.get("commits", {}).get("parent", parent)
    if recorded != parent:
        raise SystemExit(f"{tool}: {out_path.name} was measured against parent {recorded}, "
                         f"not {parent}; choose another --topic")


def order(index: int) -> tuple[str, str]:
    """The sides of the ``index``-th pair of a list in run order: the parent
    first when ``index`` is even, so pairs appended by a later call keep
    alternating."""
    return ("parent", "change") if index % 2 == 0 else ("change", "parent")


def exit_on_signal(signum, frame):
    """Stop as SystemExit, so that ``finally`` blocks run and ``subprocess.run``
    kills the benchmark it is waiting for."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    signal.signal(signal.SIGTERM, exit_on_signal)
    out_path = ROOT / f"BENCH_{args.topic}.json"
    doc = json.loads(out_path.read_text()) if out_path.is_file() else {}
    parent = git("rev-parse", args.parent)
    check_parent(doc, parent, out_path, "bench_pairs")
    kept = doc.get("workloads", {}).get(args.workload, {"pairs": []})["pairs"]
    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        tree = snapshot(work / "index")
        sides = {"parent": extract(args.parent, work / "parent"),
                 "change": extract(tree, work / "change")}
        pairs, env = [], None
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            sides_in_order = order(len(kept) + i)
            pair = {"seed": seed, "first": sides_in_order[0]}
            for side in sides_in_order:
                run = run_once(sides[side], args.workload, seed, spec["run_seconds"])
                pair[side] = run["values"]
                env = env or run["env"]
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{s} cell_s {pair[s]['cell_s']:.3f}" for s in ("parent", "change")),
                flush=True)
        digests = doc.setdefault("digests", {})
        for seed in args.digest_seeds:
            got = {side: run_once(tree, args.workload, seed, 1.0)["digest"]
                   for side, tree in sides.items()}
            got["equal"] = got["parent"] == got["change"]
            digests[f"{args.workload} seed {seed}"] = got
            print(f"digest {args.workload} seed {seed}: equal={got['equal']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    doc["topic"] = args.topic
    doc["command"] = "python3 perfbench/run.py --workload <w> --seed <s> --seconds " \
                     f"{spec['run_seconds']:g} --trace 0"
    doc["method"] = ("alternating parent/change pairs, each side run from its own extracted "
                     "tree; pair i of a workload's list runs the parent first when i is even. "
                     "Digests: one run per side with --seconds 1.")
    doc["commits"] = {"parent": parent, "change_tree": tree,
                      "change": f"working tree on {git('rev-parse', 'HEAD')}"}
    if env is not None:
        doc["machine"] = {k: v for k, v in env.items() if k not in ("commit", "src_sha256")}
        doc["machine"]["libc"] = " ".join(platform.libc_ver())
        doc["machine"].update({k: os.environ.get(k) for k in MALLOC_ENV})
    if pairs:
        kept = kept + pairs
        doc.setdefault("workloads", {})[args.workload] = {"pairs": kept}
        doc.setdefault("summary", {})[args.workload] = summarize(kept, spec["end_to_end"])
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
