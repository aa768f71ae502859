"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload service-drift --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats (build + workload) iterations for ``--seconds``
of wall time, set-up included (at least three, so set-up time is a
median), and reports the end-to-end metrics in reference seconds (see
``workloads.calibration_s``).  ``--trace 1`` runs one untraced
iteration, then one traced iteration with wrappers around each layer's
entry points, both without calibration passes, and reports the
per-layer metrics; the traced iteration's simulated outcomes must equal
the untraced one's.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans of a traced run are written to
``.perfbench/trace-<workload>-seed<seed>.npz`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: The checkout root: the benchmark directory sits directly under it.
ROOT = HERE.parent

#: Iterations per ``--trace 0`` run: at least this many set-ups.
MIN_ITERATIONS = 3
MAX_ITERATIONS = 16
#: Stop starting iterations after this much wall time, so a slow host
#: still finishes well inside the 180 s a run may take.
WALL_BUDGET_S = 110.0
#: The observability layer's share of a traced run may not exceed the
#: 5 % ingest-overhead ceiling the runtime bench tier enforces.
OBSERVABILITY_CEILING = 0.05

END_TO_END = {
    "setup_s": "s",
    "ops_per_ref_s": "1/s",
    "sim_cost_usd": "usd",
    "peak_rss_mb": "MB",
}

PER_LAYER = [
    ("sim.events", "count"),
    ("sim.self_s", "s"),
    ("net.weather.calls", "count"),
    ("net.weather.self_s", "s"),
    ("net.weather.repeat_ratio", "ratio"),
    ("net.capacity.calls", "count"),
    ("net.capacity.self_s", "s"),
    ("net.topology.lookups", "count"),
    ("net.alloc.calls", "count"),
    ("net.alloc.self_s", "s"),
    ("net.alloc.flows_per_call", "count"),
    ("net.transfer.started", "count"),
    ("net.transfer.cancelled", "count"),
    ("net.transfer.self_s", "s"),
    ("net.transfer.peak_active", "count"),
    ("net.wan_gb", "GB"),
    ("net.measurement.calls", "count"),
    ("net.measurement.self_s", "s"),
    ("net.measurement.probe_transfers", "count"),
    ("pipeline.train_s", "s"),
    ("pipeline.train.self_s", "s"),
    ("pipeline.gauge.calls", "count"),
    ("pipeline.gauge.self_s", "s"),
    ("pipeline.predict.calls", "count"),
    ("pipeline.predict.self_s", "s"),
    ("pipeline.plan.calls", "count"),
    ("pipeline.plan.self_s", "s"),
    ("pipeline.deploy.self_s", "s"),
    ("runtime.service.self_s", "s"),
    ("runtime.scheduler.calls", "count"),
    ("runtime.scheduler.self_s", "s"),
    ("runtime.scheduler.queue_wait_p50_s", "s"),
    ("runtime.scheduler.peak_queue", "count"),
    ("runtime.scheduling.steals", "count"),
    ("runtime.scheduling.parallel.self_s", "s"),
    ("runtime.scheduling.parallel.shard_wall_max_s", "s"),
    ("runtime.scheduling.parallel.shard_wall_sum_s", "s"),
    ("runtime.scheduling.parallel.pool_wall_s", "s"),
    ("runtime.scheduling.parallel.workers_used", "count"),
    ("runtime.scheduling.parallel.fell_back", "count"),
    ("runtime.scheduling.parallel.pool_efficiency", "ratio"),
    ("runtime.control.preemptions", "count"),
    ("runtime.control.throttle_moves", "count"),
    ("runtime.control.concurrency_high_water", "count"),
    ("runtime.control.self_s", "s"),
    ("runtime.observability.calls", "count"),
    ("runtime.observability.self_s", "s"),
    ("runtime.observability.share", "ratio"),
    ("runtime.telemetry.calls", "count"),
    ("runtime.telemetry.self_s", "s"),
    ("runtime.drift.checks", "count"),
    ("runtime.drift.replans", "count"),
    ("runtime.drift.replans_per_check", "ratio"),
    ("runtime.drift.self_s", "s"),
    ("runtime.recalibrator.ticks", "count"),
    ("runtime.recalibrator.self_s", "s"),
    ("runtime.recalibrator.adjustments_per_tick", "ratio"),
    ("trace.wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_pct", "%"),
]


def _import_program():
    """Put the checkout's ``src`` first on the path and import the bench.

    Fails (exit 2) when the checkout has no program to measure.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    from perfbench import spans, workloads

    return spans, workloads


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reference_check(workloads, name: str, seed: int, sim: dict) -> tuple[bool, str]:
    """Compare simulated outcomes with the committed reference, if any."""
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()).get(name, {}) if path.is_file() else {}
    expected = reference.get(str(seed))
    if expected is None:
        return True, f"no committed reference for seed {seed}"
    bad = [
        key
        for key, value in expected.items()
        if key not in sim or not math.isclose(sim[key], value, rel_tol=workloads.REL_TOL, abs_tol=1e-12)
    ]
    return not bad, (f"differs in {bad}" if bad else "matches the committed reference")


def _same_sim(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] == b[k] for k in a)


def _print_checks(checks: dict[str, tuple[bool, str]]) -> bool:
    ok = True
    for name, (passed, detail) in checks.items():
        ok &= passed
        print(f"check {name}: {'ok' if passed else 'FAILED'} ({detail})")
    return ok


def _issue_metrics(workloads, outcomes) -> None:
    """Print the workload's named end-to-end metrics with units."""
    first = outcomes[0]
    print(f"setup_s: {statistics.median(o.setup_ref_s for o in outcomes):.4f} reference s, "
          f"{statistics.median(o.setup_s for o in outcomes):.4f} host s (median of {len(outcomes)} builds)")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.attempted - o.completed for o in outcomes)
    if first.op_ms:
        for label, samples in (
            ("", [ms for o in outcomes for ms in o.op_ms]),
            (" in reference ms", [ms for o in outcomes for ms in o.op_ref_ms]),
        ):
            pct, tail = workloads.percentile_tail(samples)
            print(f"replan_ms_p50{label}: {statistics.median(samples):.3f} ms ({len(samples)} re-plans)")
            print(f"replan_ms_tail{label}: {tail:.3f} ms (p{pct:.1f} of {len(samples)} re-plans)")
        print(f"failed_frac: {failed / attempted:.4f} (re-plans that raised / attempted)")
    else:
        print(f"jobs_per_wall_s: {_ops_per_wall_s(outcomes):.4f} 1/s "
              f"({first.attempted} jobs per iteration, {len(outcomes)} iterations)")
        print(f"sim_jct_p50_s: {first.sim['sim_jct_p50_s']:.4f} s")
        print(f"sim_jct_tail_s: {first.sim['sim_jct_tail_s']:.4f} s "
              f"(p{first.sim['sim_jct_tail_pct']:.1f} of {first.completed} jobs)")
        print(f"slo_attainment: {first.sim['slo_attainment']:.4f}")
        print(f"failed_frac: {failed / attempted:.4f} (jobs not completed / submitted)")
    print(f"sim_cost_usd: {first.sim['sim_cost_usd']:.6f} usd")
    for k, o in enumerate(outcomes):
        print(f"iteration {k}: setup {o.setup_s:.4f} s = {o.setup_ref_s:.4f} reference s, "
              f"measured {o.measured_s:.4f} s = {o.measured_ref_s:.4f} reference s, "
              f"{o.completed}/{o.attempted} operations")
    print(f"peak_rss_mb: {_peak_rss_mb():.1f} MB")


def run_untraced(workload, inputs, seconds: float, wall_start: float):
    """Iterations for ``seconds`` of wall time, set-up included (at least three).

    An iteration starts only if, at the mean pace so far, it ends
    within ``seconds``; so a run lasts about ``seconds`` whatever the
    host's speed, and a fast host measures more iterations.
    """
    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < MAX_ITERATIONS:
        elapsed = time.perf_counter() - start
        if len(outcomes) >= MIN_ITERATIONS:
            pace = elapsed / len(outcomes)
            if elapsed + pace > seconds or time.perf_counter() - wall_start > WALL_BUDGET_S:
                break
        outcome = workload.run_once(inputs)
        outcomes.append(outcome)
        gc.collect()
    return outcomes


def _ops_per_ref_s(outcomes) -> float:
    """Operations completed per reference second, as a median over the run.

    Where operations are timed one by one (the re-gauge loop's
    re-plans), the rate at the median operation time; otherwise the
    median of the iterations' rates.  Reference seconds are host
    seconds rescaled by the calibration loop run beside each operation
    (see ``workloads.to_reference_s``).
    """
    samples = [ms for o in outcomes for ms in o.op_ref_ms]
    if samples:
        return 1000.0 / statistics.median(samples)
    return statistics.median(o.completed / o.measured_ref_s for o in outcomes)


def _ops_per_wall_s(outcomes) -> float:
    """Operations completed per measured host second, totalled over the run."""
    return sum(o.completed for o in outcomes) / sum(o.measured_s for o in outcomes)


def layer_metrics(tracer, outcome, wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    pool = "runtime.scheduling.parallel"
    self_s = tracer.layer_self_times(pool)
    calls = tracer.layer_calls()
    counts = tracer.total_counts()
    facts = outcome.facts

    def c(key):
        return float(counts.get(key, 0.0))

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for layer in (
        "sim", "net.weather", "net.capacity", "net.alloc", "net.transfer",
        "net.measurement", "pipeline.train", "pipeline.gauge", "pipeline.predict",
        "pipeline.plan", "pipeline.deploy", "runtime.service", "runtime.scheduler",
        "runtime.scheduling.parallel", "runtime.control", "runtime.observability",
        "runtime.telemetry", "runtime.drift", "runtime.recalibrator",
    ):
        m[f"{layer}.calls"] = float(calls.get(layer, 0))
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["sim.events"] = c("sim.events")
    m["net.weather.repeat_ratio"] = ratio(c("net.weather.repeats"), c("net.weather.derivations"))
    m["net.topology.lookups"] = c("net.topology.lookups")
    m["net.alloc.flows_per_call"] = ratio(c("net.alloc.flows"), m["net.alloc.calls"])
    m["net.transfer.started"] = c("net.transfer.started")
    m["net.transfer.cancelled"] = c("net.transfer.cancelled")
    m["net.transfer.peak_active"] = c("net.transfer.active.peak")
    m["net.wan_gb"] = c("net.transfer.delivered_mbits") / 8.0 / 1024.0
    m["net.measurement.probe_transfers"] = c("net.measurement.probe_transfers")
    m["pipeline.train_s"] = tracer.inclusive_seconds("pipeline.train")
    m["runtime.scheduler.queue_wait_p50_s"] = facts.get("queue_wait_p50_s", 0.0)
    m["runtime.scheduler.peak_queue"] = c("runtime.scheduler.queue.peak")
    m["runtime.scheduling.steals"] = facts.get("steals", 0.0)
    walls = tracer.shard_walls
    workers = facts.get("workers_used", 0.0)
    pool_wall = facts.get("pool_wall_s", 0.0)
    m["runtime.scheduling.parallel.shard_wall_max_s"] = max(walls, default=0.0)
    m["runtime.scheduling.parallel.shard_wall_sum_s"] = sum(walls)
    m["runtime.scheduling.parallel.pool_wall_s"] = pool_wall
    m["runtime.scheduling.parallel.workers_used"] = workers
    m["runtime.scheduling.parallel.fell_back"] = facts.get("fell_back", 0.0)
    m["runtime.scheduling.parallel.pool_efficiency"] = ratio(sum(walls), workers * pool_wall)
    m["runtime.control.preemptions"] = facts.get("preemptions", 0.0)
    m["runtime.control.throttle_moves"] = facts.get("throttle_moves", 0.0)
    m["runtime.control.concurrency_high_water"] = facts.get("concurrency_high_water", 0.0)
    m["runtime.observability.share"] = ratio(m["runtime.observability.self_s"], wall_s)
    m["runtime.drift.checks"] = c("runtime.drift.checks")
    m["runtime.drift.replans"] = facts.get("replans", 0.0)
    m["runtime.drift.replans_per_check"] = ratio(m["runtime.drift.replans"], m["runtime.drift.checks"])
    m["runtime.recalibrator.ticks"] = c("runtime.recalibrator.ticks")
    m["runtime.recalibrator.adjustments_per_tick"] = ratio(
        facts.get("recal_adjustments", 0.0), m["runtime.recalibrator.ticks"]
    )
    m["trace.wall_s"] = wall_s
    m["unattributed_s"] = wall_s - sum(self_s.values())
    m["trace_overhead_pct"] = 100.0 * (wall_s - untraced_wall_s) / untraced_wall_s
    return {name: m[name] for name, _ in PER_LAYER}


def main(argv=None) -> int:
    """Command-line entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="store this seed's simulated outcomes as the committed reference",
    )
    args = parser.parse_args(argv)
    wall_start = time.perf_counter()
    spans, workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.generate(args.seed)
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}: {len(inputs.submissions)} generated jobs, start {inputs.start_s:.1f} s")

    checks: dict[str, tuple[bool, str]] = {}
    if args.trace == 0:
        outcomes = run_untraced(workload, inputs, args.seconds, wall_start)
        for k, outcome in enumerate(outcomes):
            for name, result in outcome.checks.items():
                if not result[0] or k == 0:
                    checks[name] = result
        first = outcomes[0]
        checks["iterations_replay"] = (
            all(_same_sim(o.sim, first.sim) for o in outcomes),
            f"{len(outcomes)} iterations, identical simulated outcomes",
        )
        checks["reference"] = _reference_check(workloads, workload.name, args.seed, first.sim)
        correct = _print_checks(checks)
        _issue_metrics(workloads, outcomes)
        metrics = {
            "setup_s": statistics.median(o.setup_ref_s for o in outcomes),
            "ops_per_ref_s": _ops_per_ref_s(outcomes),
            "sim_cost_usd": first.sim["sim_cost_usd"],
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = END_TO_END
        attempted = sum(o.attempted for o in outcomes)
        failed = sum(o.attempted - o.completed for o in outcomes)
        if args.record_reference:
            _record_reference(workload.name, args.seed, first.sim)
    else:
        workloads.CALIBRATING = False
        t0 = time.perf_counter()
        untraced = workload.run_once(inputs)
        untraced_wall = time.perf_counter() - t0
        gc.collect()
        run_id = f"{workload.name}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
        tracer = spans.Tracer(run_id)
        installation = spans.install(tracer)
        try:
            t0 = time.perf_counter()
            traced = workload.run_once(inputs)
            wall = time.perf_counter() - t0
        finally:
            installation.restore()
        checks.update(traced.checks)
        checks["tracing_is_observation_only"] = (
            _same_sim(traced.sim, untraced.sim),
            "traced and untraced simulated outcomes are identical",
        )
        checks["reference"] = _reference_check(workloads, workload.name, args.seed, traced.sim)
        metrics = layer_metrics(tracer, traced, wall, untraced_wall)
        share = metrics["runtime.observability.share"]
        checks["observability_share"] = (
            share <= OBSERVABILITY_CEILING,
            f"{100 * share:.2f}% of traced wall (ceiling {100 * OBSERVABILITY_CEILING:.0f}%)",
        )
        print(f"wrappers: {len(installation.installed)} installed, {len(installation.skipped)} skipped")
        for path in installation.skipped:
            print(f"skipped wrapper (target missing): {path}")
        correct = _print_checks(checks)
        attributed = wall - metrics["unattributed_s"]
        print(f"traced wall {wall:.4f} s = layer self times {attributed:.4f} s "
              f"+ unattributed {metrics['unattributed_s']:.4f} s")
        for name, value in sorted(tracer.layer_self_times("runtime.scheduling.parallel").items(),
                                  key=lambda kv: -kv[1]):
            print(f"  {name:<30} self {value:9.4f} s  {100 * value / wall:5.1f}%")
        dump = ROOT / ".perfbench" / f"trace-{workload.name}-seed{args.seed}.npz"
        tracer.dump(dump)
        print(f"spans written to {dump.relative_to(ROOT)} (run id {run_id})")
        units = dict(PER_LAYER)
        attempted = traced.attempted
        failed = traced.attempted - traced.completed

    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _record_reference(name: str, seed: int, sim: dict) -> None:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    reference.setdefault(name, {})[str(seed)] = sim
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
