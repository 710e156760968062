"""Wrap points and the metrics computed from the recorded spans.

End-to-end metrics come from units run with only the coarse timers
installed; per-layer metrics come from units run with every wrap point
installed. Per-step figures are self times of spans under ``bench.train``
divided by the optimizer steps those calls took.
"""

from __future__ import annotations

import statistics

from tracer import Tracer, self_times, under

# Span names whose self time, per training step, is a per-layer metric
# named "<span>_ms".
PER_STEP = (
    "autodiff.conv1d_same.fwd", "autodiff.conv1d_same.bwd",
    "kernels.conv1d_forward", "kernels.conv1d_grad_input", "kernels.conv1d_grad_kernel",
    "autodiff.activate.fwd", "autodiff.activate.bwd",
    "activations.array_value", "activations.array_derivative",
    "autodiff.batch_norm1d.fwd", "autodiff.batch_norm1d.bwd",
    "autodiff.affine.fwd", "autodiff.affine.bwd",
    "autodiff.dropout.fwd", "autodiff.dropout.bwd",
    "autodiff.loss.fwd", "autodiff.loss.bwd",
    "autodiff.Tape.backward", "optim.step", "kernels.update",
)
# Calls per training step: metric name -> span name.
PER_STEP_COUNT = {
    "autodiff.tape_records_per_step": "autodiff.Tape.record",
    "kernels.update_calls_per_step": "kernels.update",
}
# Span names whose whole duration, per call, is a metric "<span>_ms".
PER_CALL = (
    "models.init_params", "models.save_checkpoint",
    "data.load_dataset_pair", "data.znormalize",
    "bench.ResultsStore.append", "bench.ResultsStore.load",
    "stats.matrix_from_records", "stats.build_report", "stats.write_report_files",
)
# The tape ops of the baseline table: fwd + bwd, children included.
TABLE_OPS = ("conv1d_same", "batch_norm1d", "activate", "affine", "dropout", "loss",
             "global_avg_pool")


def install_coarse(tracer: Tracer, pkg) -> None:
    """The only wrappers of an end-to-end unit: one timer per coarse call."""
    for attr in ("run_cell", "train", "evaluate"):
        tracer.wrap(pkg.bench, attr, f"bench.{attr}")


def _forward_name(args, kwargs) -> str:
    return "models.forward_infer" if kwargs.get("tape") is None else "models.forward_train"


def install_layers(tracer: Tracer, pkg) -> None:
    """Every wrap point, each on the attribute its caller looks up."""
    install_coarse(tracer, pkg)
    ad, bench, cli, kernels = pkg.autodiff, pkg.bench, pkg.cli, pkg.kernels
    for attr in ("array_value", "array_derivative"):
        tracer.wrap(pkg.activations, attr, f"activations.{attr}")  # looked up by autodiff
    for attr in ("affine", "conv1d_same", "batch_norm1d", "dropout", "activate",
                 "global_avg_pool"):
        tracer.wrap(ad, attr, f"autodiff.{attr}.fwd")  # looked up by models.forward
    tracer.wrap_tape_record(ad.Tape)
    tracer.wrap(ad.Tape, "backward", "autodiff.Tape.backward")
    for attr in ("softmax_xent", "sigmoid_bce"):
        tracer.wrap(bench, attr, "autodiff.loss.fwd")  # imported by name into bench
    for attr in ("conv1d_forward", "conv1d_grad_input", "conv1d_grad_kernel"):
        tracer.wrap(kernels, attr, f"kernels.{attr}")  # looked up by autodiff
    for attr in ("adam_update", "adadelta_update"):
        tracer.wrap(kernels, attr, "kernels.update")  # looked up by optim
    for cls in (pkg.optim.Adam, pkg.optim.Adadelta):
        tracer.wrap(cls, "step", "optim.step")
    tracer.wrap(pkg.models, "forward", _forward_name)  # looked up by models.predict
    tracer.wrap(bench, "forward", _forward_name)  # looked up by bench.train
    tracer.wrap(bench, "init_params", "models.init_params")
    tracer.wrap(bench, "save_checkpoint", "models.save_checkpoint")
    for owner in (bench, cli):
        tracer.wrap(owner, "load_dataset_pair", "data.load_dataset_pair")
    tracer.wrap(bench, "znormalize", "data.znormalize")
    tracer.wrap(bench.ResultsStore, "append", "bench.ResultsStore.append")
    tracer.wrap(bench.ResultsStore, "load", "bench.ResultsStore.load")
    tracer.wrap(cli, "run_sweep", "bench.run_sweep")
    for attr in ("matrix_from_records", "build_report", "write_report_files"):
        tracer.wrap(cli, attr, f"stats.{attr}")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def summary(values) -> dict:
    """Sample count, median, quartiles and extremes of one metric's samples."""
    if not values:
        return {"n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def _durations(spans, name: str, units: set) -> list[float]:
    return [(end - start) / 1e9 for n, start, end, _, u in spans if n == name and u in units]


def unit_ids(run, traced: bool) -> set:
    return {u["id"] for u in run.units if u["ok"] and not u["warmup"] and u["traced"] == traced}


def end_to_end(run, tracer: Tracer, steps_per_train: int,
               peak_rss_mb: float) -> tuple[dict, dict]:
    """(metric values, sample summaries) from the units run without tracing."""
    units = unit_ids(run, traced=False)
    cells = _durations(tracer.spans, "bench.run_cell", units)
    samples = {
        "setup_s": run.values("setup_s"),
        "cell_s": cells,
        "step_ms": [t * 1e3 / steps_per_train
                    for t in _durations(tracer.spans, "bench.train", units)],
        "eval_ms": [t * 1e3 for t in _durations(tracer.spans, "bench.evaluate", units)],
        # A sweep's pass throughput; for one cell it is the rate of cells
        # back to back.
        "sweep_cells_per_h": run.values("sweep_cells_per_h") or [3600.0 / c for c in cells],
    }
    values = {name: _median(v) for name, v in samples.items()}
    values["peak_rss_mb"] = peak_rss_mb
    return values, {name: summary(v) for name, v in samples.items()}


def per_layer(run, tracer: Tracer, steps_per_train: int) -> tuple[dict, dict]:
    """(per-layer metric values, baseline op table) from the traced units."""
    spans = tracer.spans
    units = unit_ids(run, traced=True)
    own = self_times(spans)
    in_train = under(spans, "bench.train")
    steps = steps_per_train * len(_durations(spans, "bench.train", units))
    step_self: dict[str, float] = {}
    step_incl: dict[str, float] = {}
    step_calls: dict[str, int] = {}
    call_total: dict[str, float] = {}
    call_count: dict[str, int] = {}
    for i, (name, start, end, _, unit) in enumerate(spans):
        if unit not in units:
            continue
        if in_train[i]:
            step_self[name] = step_self.get(name, 0.0) + own[i] / 1e6
            step_incl[name] = step_incl.get(name, 0.0) + (end - start) / 1e6
            step_calls[name] = step_calls.get(name, 0) + 1
        call_total[name] = call_total.get(name, 0.0) + (end - start) / 1e6
        call_count[name] = call_count.get(name, 0) + 1

    def per_step(table, name):
        return table.get(name, 0.0) / steps if steps else 0.0

    def per_call(name):
        return call_total[name] / call_count[name] if call_count.get(name) else 0.0

    metrics = {f"{name}_ms": per_step(step_self, name) for name in PER_STEP}
    for metric, name in PER_STEP_COUNT.items():
        metrics[metric] = per_step(step_calls, name)
    for name in PER_CALL:
        metrics[f"{name}_ms"] = per_call(name)

    infer = sum((end - start) / 1e6 for n, start, end, parent, u in spans
                if n == "models.forward_infer" and u in units
                and parent >= 0 and spans[parent][0] == "bench.evaluate")
    n_evals = call_count.get("bench.evaluate", 0)
    metrics["models.forward_infer_ms"] = infer / n_evals if n_evals else 0.0

    cells = _durations(spans, "bench.run_cell", units)
    train_in_cells = sum((end - start) / 1e9 for n, start, end, parent, u in spans
                         if n == "bench.train" and u in units
                         and parent >= 0 and spans[parent][0] == "bench.run_cell")
    metrics["bench.run_cell_overhead_ms"] = (
        1e3 * (sum(cells) - train_in_cells) / len(cells) if cells else 0.0)

    untraced = unit_ids(run, traced=False)
    metrics["bench.evaluate_ms"] = 1e3 * _median(_durations(spans, "bench.evaluate", untraced))
    metrics["cli.bench_resume_s"] = _median(_durations(spans, "cli.bench_resume", untraced))
    metrics["cli.compare_s"] = _median(_durations(spans, "cli.compare", untraced))
    metrics["bench.resume_cache_hit_ratio"] = _median(run.values("resume_hit_ratio", None))
    plain = _median(_durations(spans, "bench.run_cell", untraced))
    traced = _median(cells)
    metrics["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0) if plain and traced else 0.0
    speedups = run.values("j2_speedup")
    metrics["bench.run_sweep.j2_speedup"] = _median(speedups)
    s = summary(speedups)
    metrics["bench.run_sweep.j2_speedup_iqr"] = s["q3"] - s["q1"] if s["n"] else 0.0

    table = {"steps": steps}
    for op in TABLE_OPS:
        table[op] = {d: per_step(step_incl, f"autodiff.{op}.{d}") for d in ("fwd", "bwd")}
    table["optim.step"] = per_step(step_incl, "optim.step")
    table["step_ms_traced"] = per_step(step_incl, "bench.train")
    table["step_ms_untraced"] = _median([t * 1e3 / steps_per_train for t in
                                         _durations(spans, "bench.train", untraced)])
    return metrics, table
