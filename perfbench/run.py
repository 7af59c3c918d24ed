#!/usr/bin/env python3
"""strandseg benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (nothing needs building):

    python3 perfbench/run.py --workload eval64 --seed 1 --seconds 28 --trace 0

Workloads (inputs are generated from --seed; see workloads.py):
  train64      desk training, 3 epochs of 128+32 scenes at 64 px from a fixed init
  eval64       `strandseg eval` (both methods) on 4 datasets of 25 held-out 64 px scenes
               with the checkpoint in perfbench/data/ (made by make_checkpoint.py)
  maps512      instances_from_maps on oracle maps of 512 px, 3-strand scenes
  gradcheck16  gradcheck.run_suite, one 16x16 fixture per operation; run it by
               hand: it is not in BENCHMARK.json (see the Gradcheck16 docstring)

An operation is one image (eval64, maps512), one epoch (train64) or one
gradcheck fixture. A run repeats the same operations (eval64 passes over its
images 4 or 5 times); an operation's latency is the median of its repeats,
so that a slow spell of the machine does not pass for a slow image. Every
workload reports every end-to-end metric:
  setup_s      median of 5 set-ups, each a fresh interpreter importing
               strandseg plus building the inputs: scene generation, PGM/SEGT
               round-trip, checkpoint load, oracle-map build
  op_ms_p50    median over operations of their latency: pipeline.infer (eval64),
               instances_from_maps (maps512), epoch (train64), fixture (gradcheck16)
  op_ms_tail   the highest of p99/p90/p50 with at least 10 operations beyond
               it (p90 on eval64); the median when fewer than 20 were timed
  items_per_s  work done per timed second: training samples (train + val),
               images through both eval methods and evaluate_dataset, maps
               images, parameter entries gradient-checked
  peak_rss_mb  peak resident memory of this process

With --trace 1 every unit runs twice, untraced and then with spans installed
(tracer.py); the traced outputs must be bit-identical to the untraced ones.
That run reports the per-layer metrics: self time and calls per operation
for each span, counters per operation, the tracing overhead (traced against
untraced time of the same units) and the share of traced time no span covers.

Quality is checked, not reported as a metric: every failed check counts as a
failed operation and makes "correct" false (see the check methods in
workloads.py). The last line of stdout is the JSON result. The lines before
it give provenance, sample counts, quality figures and, on the `named` line,
the workload's end-to-end figures under the names users know them by
(infer_ms_p50, train_samples_per_s, ap, ...); `report.py` runs every
workload and prints those as one table.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import env

SETUP_REPEATS = 5

END_TO_END = (("setup_s", "s"), ("op_ms_p50", "ms"), ("op_ms_tail", "ms"),
              ("items_per_s", "1/s"), ("peak_rss_mb", "MB"))

# (metric, unit, span or counter it reads, kind)
PER_LAYER = (
    ("network.forward_full.self_ms", "ms", "network.forward_full", "self_ms"),
    ("network.forward_full.calls", "count", "network.forward_full", "calls"),
    ("network.backward.self_ms", "ms", "network.backward", "self_ms"),
    ("network.discriminative_loss.self_ms", "ms", "network.discriminative_loss", "self_ms"),
    ("network.total_loss_and_grad.self_ms", "ms", "network.total_loss_and_grad", "self_ms"),
    ("network.forward.self_ms", "ms", "network.forward", "self_ms"),
    ("network.forward.gflops_computed", "GFLOP", "network.forward.gflops_computed", "counter"),
    ("optim.adamw_step.self_ms", "ms", "optim.adamw_step", "self_ms"),
    ("optim.adamw_step.calls", "count", "optim.adamw_step", "calls"),
    ("synth.make_training_labels.self_ms", "ms", "synth.make_training_labels", "self_ms"),
    ("training.downsample_labels.self_ms", "ms", "training.downsample_labels", "self_ms"),
    ("grids.upsample_bilinear.self_ms", "ms", "grids.upsample_bilinear", "self_ms"),
    ("clustering.augment_coordinates.self_ms", "ms", "clustering.augment_coordinates", "self_ms"),
    ("clustering.mean_shift.self_ms", "ms", "clustering.mean_shift", "self_ms"),
    ("clustering.points", "count", "clustering.points", "counter"),
    ("clustering.seeds", "count", "clustering.seeds", "counter"),
    ("clustering.clusters", "count", "clustering.clusters", "counter"),
    ("clustering.window_bytes_computed", "B", "clustering.window_bytes_computed", "peak"),
    ("intersections.build_instances.self_ms", "ms", "intersections.build_instances", "self_ms"),
    ("intersections.min_similarity.self_ms", "ms", "intersections.min_similarity", "self_ms"),
    ("intersections.multi_assigned_pixels", "count", "intersections.multi_assigned_pixels",
     "counter"),
    ("metrics.connected_components.self_ms", "ms", "metrics.connected_components", "self_ms"),
    ("metrics.evaluate_dataset.self_ms", "ms", "metrics.evaluate_dataset", "self_ms"),
    ("metrics.greedy_match_counts.calls", "count", "metrics.greedy_match_counts", "calls"),
    ("pipeline.fg_pixels", "count", "pipeline.fg_pixels", "counter"),
    ("pipeline.instances_from_maps.self_ms", "ms", "pipeline.instances_from_maps", "self_ms"),
    ("gradcheck.run_suite.self_ms", "ms", "gradcheck.run_suite", "self_ms"),
    ("gradcheck.loss_evals", "count", "gradcheck.loss_evals", "counter"),
)


def _percentile(values, q):
    import numpy as np  # imported late: env.pin_blas_threads must run first

    return float(np.percentile(values, q))


def tail_percentile(n: int) -> int:
    """Highest of p99/p90/p50 with at least 10 of n samples beyond it, else 50."""
    for q in (99, 90, 50):
        if n * (100 - q) / 100 >= 10:
            return q
    return 50


def start_up_s() -> float:
    """Wall time of a fresh interpreter importing strandseg's CLI.

    Every command pays it, and work moved to import time would hide from a
    set-up timed only inside this process. There is no timeout: with one,
    `subprocess` polls for the child's exit at up to 50 ms intervals, which
    would round the time up by as much.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import strandseg.cli"], check=True,
                   env=dict(os.environ, PYTHONPATH=env.SRC))
    return time.perf_counter() - start


def run_units(workload, seconds: float, tracer=None) -> tuple:
    """(untraced, traced) units from k = 0 while the next one fits in `seconds`.

    A step is expected to take the mean time of the steps so far, and at
    least one runs. With a tracer, each step runs unit k untraced and then
    traced, so that slow spells of the machine hit both alike.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        k = len(untraced)
        untraced.append(workload.unit(k))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(workload.unit(k))
            finally:
                tracer.uninstall()
        if (time.perf_counter() - start) * (k + 2) / (k + 1) > seconds:
            return untraced, traced


def judge(workload, units) -> tuple:
    """(failed operations, digest per unit, quality info by unit key)."""
    failed, digests, quality, by_key = 0, [], {}, {}
    for k, unit in enumerate(units):
        unit_failed, quality[workload.key(k)] = workload.check(k, unit.outputs)
        digest = workload.digest(unit.outputs)
        if by_key.setdefault(workload.key(k), digest) != digest:
            unit_failed = unit.attempted  # not reproducible
        failed += min(unit_failed, unit.attempted)
        digests.append(digest)
    return failed, digests, quality


def end_to_end(setup_s, units) -> tuple:
    """(metrics, timings, operations timed, tail percentile)."""
    repeats = {}
    for unit in units:
        for op, ms in unit.op_ms.items():
            repeats.setdefault(op, []).append(ms)
    op_ms = [_percentile(times, 50) for times in repeats.values()]
    q = tail_percentile(len(op_ms))
    return {
        "setup_s": _percentile(setup_s, 50),
        "op_ms_p50": _percentile(op_ms, 50),
        "op_ms_tail": _percentile(op_ms, q),
        "items_per_s": sum(u.items for u in units) / sum(u.wall_s for u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, sum(map(len, repeats.values())), len(op_ms), q


def per_layer(tracer, traced, untraced) -> dict:
    ops = sum(u.attempted for u in traced)
    traced_s = sum(u.wall_s for u in traced)
    untraced_s = sum(u.wall_s for u in untraced)
    values = {}
    for metric, _, source, kind in PER_LAYER:
        if kind == "self_ms":
            values[metric] = tracer.self_s.get(source, 0.0) * 1e3 / ops
        elif kind == "calls":
            values[metric] = tracer.calls.get(source, 0) / ops
        elif kind == "counter":
            values[metric] = tracer.counters.get(source, 0.0) / ops
        else:
            values[metric] = tracer.peaks.get(source, 0.0)
    values["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
    values["trace.uncovered_pct"] = (1.0 - tracer.covered_s / traced_s) * 100.0
    return values


PER_LAYER_UNITS = dict([(m, u) for m, u, _, _ in PER_LAYER]
                       + [("trace.overhead_pct", "%"), ("trace.uncovered_pct", "%"),
                          ("training.epoch_s", "s"), ("ops_attempted", "count"),
                          ("ops_failed", "count")])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env.pin_blas_threads()
    try:
        env.add_sources()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print("provenance " + json.dumps(env.provenance(), sort_keys=True))

    cls = WORKLOADS[args.workload]
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start_up = start_up_s()
        start = time.perf_counter()
        workload = cls(args.seed)
        setup_s.append(start_up + time.perf_counter() - start)
    workload.warm_up()

    tracer = Tracer() if args.trace else None
    untraced, traced = run_units(workload, args.seconds, tracer)
    failed, digests, quality = judge(workload, untraced)
    attempted = sum(u.attempted for u in untraced)
    e2e, n_timed, n_ops, q = end_to_end(setup_s, untraced)
    print(f"{args.workload} seed={args.seed} units={len(untraced)} failed={failed} "
          f"op_ms p50={e2e['op_ms_p50']:.2f} p{q}={e2e['op_ms_tail']:.2f} "
          f"operations={n_ops} timings={n_timed} setup_s={sorted(setup_s)}")
    print("quality " + json.dumps(quality, sort_keys=True))
    named = {"setup_s": (e2e["setup_s"], "s"), **workload.named(e2e, q, quality),
             "peak_rss_mb": (e2e["peak_rss_mb"], "MB")}
    print("named " + json.dumps({name: {"value": value, "unit": unit}
                                 for name, (value, unit) in named.items()}))

    if tracer is None:
        metrics, units = e2e, dict(END_TO_END)
    else:
        attempted += sum(u.attempted for u in traced)
        for unit, digest in zip(traced, digests):
            if workload.digest(unit.outputs) != digest:
                failed += unit.attempted  # tracing changed an output
        metrics = per_layer(tracer, traced, untraced)
        epochs = [ms / 1e3 for u in traced for ms in u.op_ms.values()]
        metrics["training.epoch_s"] = _percentile(epochs, 50) if cls.name == "train64" else 0.0
        metrics["ops_attempted"] = attempted
        metrics["ops_failed"] = failed
        traced_e2e = end_to_end(setup_s, traced)[0]
        print("traced " + json.dumps({k: traced_e2e[k] for k in ("op_ms_p50", "op_ms_tail",
                                                                   "items_per_s")}))
        units = PER_LAYER_UNITS

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
