"""Benchmark of the leakysinelu training and comparison pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload fcn_cell --seed 1 --seconds 20 --trace 0

Workloads and metrics are listed in BENCHMARK.json at the repository root;
perfbench/README.md defines each metric. ``--trace 0`` measures the
end-to-end metrics with one timer around each coarse call; ``--trace 1``
alternates plain and traced units and reports the per-layer metrics and the
tracing overhead. The run works in ``.perfbench/`` under the root, prints a
JSON report line, one line per metric, and, last, the result object. It
exits 1 when an output check fails and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import metrics as mx
from tracer import Tracer
from workloads import SIZES, WORKLOADS, Run, run_bounded

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = {"full": 5, "toy": 1}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["fcn_cell", "mlp_cell", "sweep"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "toy"], default="full",
                   help="toy shrinks every input; used by the smoke test")
    return p.parse_args(argv)


def import_package():
    sys.path.insert(0, str(SRC))
    from leakysinelu import activations, autodiff, bench, cli, data, kernels, models, optim

    return SimpleNamespace(activations=activations, autodiff=autodiff, bench=bench, cli=cli,
                           data=data, kernels=kernels, models=models, optim=optim)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "leakysinelu").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_runtime(numpy) -> dict:
    """Thread count and build string reported by the OpenBLAS numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    if not libs:
        return {}
    lib = ctypes.CDLL(libs[0])  # the copy numpy already loaded
    found = {}
    for key, name, restype in (("threads", "get_num_threads", ctypes.c_int),
                               ("config", "get_config", ctypes.c_char_p)):
        # numpy wheels bundle OpenBLAS with renamed, 64-bit-integer symbols.
        fn = getattr(lib, f"scipy_openblas_{name}64_", None) or getattr(lib, f"openblas_{name}", None)
        if fn is not None:
            fn.restype = restype
            value = fn()
            found[key] = value.decode() if isinstance(value, bytes) else value
    return found


def env_stamp(pkg) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 **_blas_runtime(numpy)},
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "kernel_backend": pkg.kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def measure_setup(run, unit, wl) -> None:
    """One cold set-up in a fresh process, as one checked operation."""
    dataset, arch = wl.setup_target
    rc, out = run_bounded([sys.executable, str(HERE / "setup_probe.py"),
                           str(wl.data_root), dataset, arch, str(wl.seed)], cwd=ROOT)
    try:
        value = json.loads(out.strip().splitlines()[-1])["setup_s"] if rc == 0 else None
    except (IndexError, ValueError, KeyError):
        value = None
    if run.op(unit, [] if value else [f"setup probe exited {rc}: {out[-300:]}"]):
        run.sample(unit, "setup_s", value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "leakysinelu" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'leakysinelu'}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"perfbench: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    pkg = import_package()
    size = SIZES[args.size][args.workload]
    out_root = ROOT / ".perfbench"
    work = out_root / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    run = Run(tracer)
    try:
        wl = WORKLOADS[args.workload](pkg, size, args.seed, work)
        setup_unit = run.begin(traced=False, warmup=False)
        n_probes = 0 if args.trace else SETUP_REPEATS[args.size]

        def do(fn, traced: bool, warmup: bool) -> None:
            unit = run.begin(traced, warmup)
            (mx.install_layers if traced else mx.install_coarse)(tracer, pkg)
            try:
                fn(run, unit)
            except Exception as exc:  # noqa: BLE001 - reported as a failed operation
                run.op(unit, [f"{type(exc).__name__}: {exc}"])
            finally:
                tracer.restore()

        do(wl.warmup, traced=False, warmup=True)
        # Start another unit only while it would end closer to --seconds than
        # stopping now, so a run takes --seconds give or take half a unit. The
        # set-up probes are spread over the run, so that they sample the
        # machine's speed across it rather than in its first seconds.
        started = time.perf_counter()
        k = probes = 0
        while True:
            do(wl.unit, traced=bool(args.trace) and k % 2 == 1, warmup=False)
            k += 1
            elapsed = time.perf_counter() - started
            done = k >= (2 if args.trace else 1) and elapsed + 0.5 * elapsed / k >= args.seconds
            while probes < n_probes and (done or probes < n_probes * elapsed / args.seconds):
                measure_setup(run, setup_unit, wl)
                probes += 1
            if done:
                break
        if args.trace and hasattr(wl, "jobs_probe"):
            do(lambda r, u: wl.jobs_probe(r, u, SRC), traced=False, warmup=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # One more checked operation: every unit of the run gave the same digest.
    run.op({"ok": True}, [] if len(run.digests) == 1 else
           [f"determinism: {len(run.digests)} different record digests"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values, samples = mx.end_to_end(run, tracer, wl.steps_per_train, peak_rss_mb)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "shapes": wl.shapes(),
              "env": env_stamp(pkg), "digest": sorted(run.digests), "samples": samples,
              "units": len(run.units), "problems": run.problems[:20]}
    if args.trace:
        values, report["op_table_ms_per_step"] = mx.per_layer(run, tracer, wl.steps_per_train)
        trace_path = out_root / f"trace-{args.workload}-s{args.seed}.jsonl"
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps({"perfbench_report": report}, sort_keys=True))
    for m in wanted:
        print(f"{args.workload} {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    for problem in run.problems[:20]:
        print(f"FAILED CHECK: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
