"""Tests of the benchmark itself: seeded inputs, span arithmetic, smoke runs.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.
"""

import pytest

from perfbench import spans, workloads


def _spans(rows):
    """A span set from ``(name, start, end, parent)`` rows."""
    out = spans.Spans()
    for name, start, end, parent in rows:
        if name not in out.names:
            out.names.append(name)
        out.name.append(out.names.index(name))
        out.start.append(start)
        out.end.append(end)
        out.parent.append(parent)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    """The generated mix is a function of the seed alone."""
    workload = workloads.WORKLOADS[name]
    assert workload.generate(3).fingerprint() == workload.generate(3).fingerprint()
    assert workload.generate(3).fingerprint() != workload.generate(4).fingerprint()


def test_self_time_subtracts_child_spans():
    """Self time is span time minus the children's, on a nested set."""
    # root [0, 10] ⊃ a [1, 4] ⊃ a' [2, 3]; root ⊃ b [5, 9]
    rows = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    got = spans.self_times(_spans(rows))
    assert got == pytest.approx({"root": 3.0, "a": 3.0, "b": 4.0})
    assert sum(got.values()) == pytest.approx(10.0)
    assert spans.root_time(_spans(rows)) == pytest.approx(10.0)


def test_worker_spans_fold_in_by_wall_share():
    """Worker shards count by wall share; the layers still sum to the wall."""
    tracer = spans.Tracer("test")
    pool = tracer.name_id("pool")
    tracer.spans.name.append(pool)
    tracer.spans.start.append(0.0)
    tracer.spans.end.append(10.0)
    tracer.spans.parent.append(-1)
    worker = [("pool", 1.0, 9.0, -1), ("net", 2.0, 8.0, 0)]
    for _ in range(2):
        shard = _spans(worker)
        tracer.harvest((shard.names, shard.name, shard.start, shard.end, shard.parent, {}))
    tracer.workers_used = 2
    totals = tracer.layer_self_times("pool")
    # Two shards ran side by side: 2 × 6 s of net work over 2 workers.
    assert totals["net"] == pytest.approx(6.0)
    # The pool keeps its start-up/idle time plus the shards' own glue.
    assert totals["pool"] == pytest.approx(4.0)
    assert sum(totals.values()) == pytest.approx(10.0)


def test_install_wraps_bindings_and_restore_puts_them_back(monkeypatch):
    """Wrappers reach from-import bindings; missing targets are listed."""
    import repro.net.sharing as sharing
    import repro.net.simulator as simulator

    original = sharing.allocate
    bogus = spans.Target("net.alloc", "repro.net.sharing:no_such_function")
    monkeypatch.setattr(spans, "targets", lambda: [spans.Target("net.alloc", "repro.net.sharing:allocate"), bogus])
    tracer = spans.Tracer("test")
    installation = spans.install(tracer)
    try:
        assert sharing.allocate is not original
        assert simulator.allocate is sharing.allocate
        assert installation.skipped == [bogus.path]
        flows = [sharing.PairFlow(0, 1, weight=1.0, cap=100.0)]
        assert sharing.allocate(flows, [50.0, 50.0], [50.0, 50.0]) == [50.0]
    finally:
        installation.restore()
    assert sharing.allocate is original
    assert simulator.allocate is original
    assert tracer.layer_calls() == {"net.alloc": 1}
    assert tracer.counts["net.alloc.flows"] == 1.0


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a handful of operations."""
    monkeypatch.setattr(workloads, "DRIFT_JOBS", 2)
    monkeypatch.setattr(workloads, "BURST_JOBS", 2)
    monkeypatch.setattr(workloads, "REGAUGE_CALLS", 2)
    monkeypatch.setattr(workloads, "BATCH_JOBS", 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_at_tiny_size(tiny, name):
    """Every workload runs end to end and passes its checks."""
    workload = workloads.WORKLOADS[name]
    outcome = workload.run_once(workload.generate(1))
    assert outcome.completed == outcome.attempted > 0
    assert all(passed for passed, _ in outcome.checks.values()), outcome.checks
    assert outcome.setup_s > 0 and outcome.measured_s > 0 and outcome.measured_ref_s > 0
    assert outcome.sim["sim_cost_usd"] > 0


def test_traced_pass_is_observation_only(tiny):
    """Tracing changes no simulated outcome and reports every layer metric."""
    from perfbench import run

    workload = workloads.WORKLOADS["regauge-loop"]
    inputs = workload.generate(2)
    untraced = workload.run_once(inputs)
    tracer = spans.Tracer("test")
    installation = spans.install(tracer)
    try:
        traced = workload.run_once(inputs)
    finally:
        installation.restore()
    assert traced.sim == untraced.sim
    metrics = run.layer_metrics(tracer, traced, wall_s=10.0, untraced_wall_s=9.0)
    assert [name for name, _ in run.PER_LAYER] == list(metrics)
    assert metrics["pipeline.gauge.calls"] == 1 + workloads.REGAUGE_CALLS
    assert metrics["net.transfer.started"] == metrics["net.transfer.cancelled"] > 0
    assert metrics["trace_overhead_pct"] == pytest.approx(100.0 / 9.0)


def test_reference_seconds_rescale_by_host_speed():
    """A host twice as slow as the reference halves the reported time."""
    slow = 2.0 * workloads.REFERENCE_CALIBRATION_S
    assert workloads.to_reference_s(4.0, slow) == pytest.approx(2.0)
    assert workloads.to_reference_s(4.0, workloads.REFERENCE_CALIBRATION_S) == pytest.approx(4.0)


def test_ops_per_ref_s_is_a_median():
    """Per-operation samples give the rate at their median; else per iteration."""
    from perfbench import run

    def outcome(completed, ref_s, op_ref_ms=()):
        return workloads.Outcome(
            setup_s=1.0, setup_ref_s=1.0, measured_s=ref_s, measured_ref_s=ref_s, attempted=completed,
            completed=completed, op_ref_ms=list(op_ref_ms),
        )

    timed = [outcome(3, 0.6, [100.0, 200.0, 300.0]), outcome(2, 9.0, [250.0, 5000.0])]
    assert run._ops_per_ref_s(timed) == pytest.approx(1000.0 / 250.0)
    drains = [outcome(10, 1.0), outcome(10, 2.0), outcome(10, 100.0)]
    assert run._ops_per_ref_s(drains) == pytest.approx(5.0)


def test_percentile_tail_keeps_ten_samples_beyond():
    """The tail is the highest percentile with ten samples beyond it."""
    values = [float(v) for v in range(1, 101)]
    pct, tail = workloads.percentile_tail(values)
    assert tail == 90.0
    assert sum(v > tail for v in values) == 10
    assert pct == pytest.approx(90.0)
    assert workloads.percentile_tail([3.0, 1.0]) == (100.0, 3.0)

