"""The benchmark's four workloads.

Each workload turns a seed into generated inputs (:meth:`Workload.generate`)
and runs one *iteration* on them (:meth:`Workload.iterate`): build a
:class:`~repro.runtime.service.PipelineService` (timed as set-up), then
drive the measured phase through the service's public API (timed as the
workload's host time) and read back what the run produced.

The service config is fixed per workload and sets only the knobs that
workload needs; ``kernel`` and the training sizes stay at their
defaults.  Observability (on by default) stays on only for
service-drift, the one workload meant to measure it.  ``--seed`` reaches the program only as generated inputs: the
job mix (sizes, skew, arrivals, deadlines, tenants) or, for the
re-gauge loop, the simulated instant the loop starts at.

Workload sizes below were chosen so that one iteration's measured phase
takes a few host seconds on a 2-core x86 host; a run repeats iterations
(see ``run.py``).

Measured host time is also reported in *reference seconds*: a fixed
calibration loop (:func:`calibration_s`) runs either side of every build
and measured operation, and their host time is rescaled by how much slower
or faster than :data:`REFERENCE_CALIBRATION_S` the loop ran at that
moment.  On a shared host whose speed swings between runs, that
removes the swing and keeps the program's own cost.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.cloud.regions import PAPER_REGIONS
from repro.gda.engine.dag import JobSpec, StageSpec
from repro.gda.workloads.terasort import terasort_job
from repro.gda.workloads.tpcds import tpcds_job
from repro.gda.workloads.wordcount import wordcount_job
from repro.net.dynamics import StaticModel
from repro.pipeline.config import ServiceConfig
from repro.runtime.drift import ReplanEvent
from repro.runtime.scheduling.shards import shard_for_tenant
from repro.runtime.scheduling.slo import SLO, deadline_met
from repro.runtime.service import PipelineService
from repro.sim.kernel import Simulator

#: Relative bound for "equal" simulated outcomes — the same 1e-6 the
#: kernel parity tests use.
REL_TOL = 1e-6

#: Host seconds one calibration pass takes on the reference host (the
#: 2-core x86 build host at its faster speed): a reference second is a
#: host second on a host that runs the loop in this time.
REFERENCE_CALIBRATION_S = 0.015
#: Rounds of one calibration pass, sized to take about
#: ``REFERENCE_CALIBRATION_S`` on the reference host.
CALIBRATION_ROUNDS = 400
#: Off for the traced pass, whose spans would otherwise count the
#: passes run inside a build or drain as the enclosing layer's time:
#: each pass then returns at once and reference seconds equal host
#: seconds.
CALIBRATING = True
#: Calibration passes at each mark of a :class:`ReferenceClock`.
CALIBRATION_PASSES = 5
#: Host seconds of program time between calibration passes inside a
#: build or a drain (see :class:`SampledPhase`).
CALIBRATION_EVERY_S = 0.2

# -- service-drift ------------------------------------------------------
DRIFT_SCENARIO = "diurnal+flash-crowd"
DRIFT_JOBS = 5
DRIFT_SCALE_MB = 1200.0
#: Open-loop arrivals: the first lands as the flash crowd (onset
#: t = 600 s, 120 s ramp) reaches full depth, the rest follow on a
#: jittered fixed-rate grid, so every seed's jobs run inside the crunch
#: and the drift detector fires.
DRIFT_FIRST_ARRIVAL_S = 720.0
DRIFT_GAP_S = 5.0
DRIFT_GAP_JITTER_S = 2.0
#: Deadlines (seconds from arrival): every other job is urgent, the
#: rest are slack-rich, so the preemption policy and the governor
#: both have donors and beneficiaries.
DRIFT_URGENT_DEADLINE_S = (15.0, 45.0)
DRIFT_RELAXED_DEADLINE_S = (300.0, 600.0)
DRIFT_MAX_CONCURRENT = 2
#: Control-plane tick: the job window lasts about a simulated minute,
#: so the default 45 s tick would act at most once.
DRIFT_CONTROL_INTERVAL_S = 10.0

# -- shuffle-burst ------------------------------------------------------
BURST_JOBS = 12
BURST_SCALE_MB = 1200.0
BURST_MAX_CONCURRENT = 64

# -- regauge-loop -------------------------------------------------------
REGAUGE_CALLS = 16
#: Simulated seconds the loop advances between forced re-plans — one
#: weather noise period, so each re-gauge sees new weather.
REGAUGE_INTERVAL_S = 300.0

# -- batch-drain --------------------------------------------------------
BATCH_JOBS = 240
BATCH_SHARDS = 4
BATCH_TENANTS = 16
BATCH_MAX_CONCURRENT = 32
#: Centre of the deadline spread ``drain_parallel`` attaches.
BATCH_DEADLINE_S = 900.0


def calibration_s() -> float:
    """Host seconds of one pass of a fixed CPU-bound reference loop.

    The loop mixes what the program's hot paths do (small numpy
    generator draws, tuple-keyed dict updates, float arithmetic) but
    calls nothing of the program, so its time tracks only the host's
    speed at the moment it runs.
    """
    if not CALIBRATING:
        return REFERENCE_CALIBRATION_S
    start = time.perf_counter()
    table: dict[tuple[int, int], float] = {}
    acc = 0.0
    for k in range(CALIBRATION_ROUNDS):
        acc += float(np.random.default_rng(k * 7919 + 13).normal(0.0, 1.0))
        for j in range(60):
            key = (k % 17, j)
            table[key] = table.get(key, 0.0) * 0.5 + j * 1.5
            acc += min(table[key], 3.0)
    return time.perf_counter() - start


def to_reference_s(host_s: float, calibration: float) -> float:
    """Host seconds rescaled to the reference host's speed."""
    return host_s * REFERENCE_CALIBRATION_S / calibration


class ReferenceClock:
    """Rescales host seconds by calibration passes run either side of them.

    Each :meth:`rescale` runs ``passes`` calibration passes, so one
    mark closes the interval just timed and opens the next.
    ``calibrating_s`` totals the host time the passes themselves took.
    """

    def __init__(self, passes: int = CALIBRATION_PASSES) -> None:
        self.calibrating_s = 0.0
        self.last = self._passes(passes)

    def _passes(self, passes: int) -> list[float]:
        times = [calibration_s() for _ in range(passes)]
        self.calibrating_s += sum(times)
        return times

    def rescale(self, host_s: float, passes: int = CALIBRATION_PASSES) -> float:
        """``host_s`` just measured, in reference seconds."""
        now = self._passes(passes)
        calibration = statistics.median(self.last + now)
        self.last = now
        return to_reference_s(host_s, calibration)


class SampledPhase:
    """Times a simulator-driven phase in host and reference seconds.

    The host's speed can change within a phase of a few seconds, so the
    phase is cut into slices: ``Simulator.schedule``, which the program
    calls at every reallocation and job step of every simulator (the
    live WAN's and each probe mesh's), is wrapped on the class, and its
    first call after ``CALIBRATION_EVERY_S`` of host time runs one
    calibration pass.  Each slice is rescaled by the passes either side
    of it, and the passes' own time is left out of both totals.  The
    wrapper only delegates, so the simulation is unchanged.
    """

    def __init__(self, clock: ReferenceClock, closing_passes: int = CALIBRATION_PASSES) -> None:
        self.clock = clock
        self.closing_passes = closing_passes
        self.host_s = 0.0
        self.ref_s = 0.0
        self._mark = 0.0

    def __enter__(self) -> "SampledPhase":
        schedule = self._schedule = vars(Simulator)["schedule"]

        def sampled_schedule(*args, **kwargs):
            if time.perf_counter() - self._mark >= CALIBRATION_EVERY_S:
                self._cut(passes=1)
            return schedule(*args, **kwargs)

        Simulator.schedule = sampled_schedule
        self._mark = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._cut(passes=self.closing_passes)
        Simulator.schedule = self._schedule

    def _cut(self, passes: int) -> None:
        elapsed = time.perf_counter() - self._mark
        self.host_s += elapsed
        self.ref_s += self.clock.rescale(elapsed, passes)
        self._mark = time.perf_counter()


class PoolCalibration:
    """Times a parallel drain whose work happens in pool workers.

    The workers' cores may be busier than the parent's, so the host's
    speed is sampled where the shards run.  For the drain's duration the
    parallel module's ``run_shard`` (what the pool maps over the tasks)
    is re-bound to a wrapper that drains its shard inside a
    :class:`SampledPhase`, in the process that runs it, and hands the phase's totals home on the
    ``ShardResult``; ``ShardExecutor.run`` is wrapped to collect them.
    Both are restored on exit.
    """

    def __init__(self) -> None:
        #: Per shard: (host s, reference s, host s spent calibrating).
        self.shards: list[tuple[float, float, float]] = []

    def __enter__(self) -> "PoolCalibration":
        from repro.runtime.scheduling import parallel

        self._parallel = parallel
        self._run_shard = parallel.run_shard
        self._run = vars(parallel.ShardExecutor)["run"]
        inner_shard, inner_run, shards = self._run_shard, self._run, self.shards

        # functools.wraps keeps the original's name, so the pool can
        # pickle the wrapper by reference.
        @functools.wraps(inner_shard)
        def run_shard(task):
            clock = ReferenceClock(passes=1)
            with SampledPhase(clock, closing_passes=1) as phase:
                result = inner_shard(task)
            result.perfbench_calibration = (phase.host_s, phase.ref_s, clock.calibrating_s)
            return result

        @functools.wraps(inner_run)
        def run(executor, tasks):
            results = inner_run(executor, tasks)
            for result in results:
                shards.append(result.perfbench_calibration)
                del result.perfbench_calibration
            return results

        parallel.run_shard = run_shard
        parallel.ShardExecutor.run = run
        return self

    def __exit__(self, *exc) -> None:
        self._parallel.run_shard = self._run_shard
        self._parallel.ShardExecutor.run = self._run

    def rescale(self, wall_s: float, workers: int) -> tuple[float, float]:
        """The drain's wall without the shards' calibration, in host and reference s.

        The calibration passes ran inside the workers, side by side, so
        each worker's share of them is taken off the wall; what remains
        is rescaled by the shards' program-time-weighted speed.
        """
        host = sum(h for h, _, _ in self.shards)
        ref = sum(r for _, r, _ in self.shards)
        calibrating = sum(c for _, _, c in self.shards)
        program_wall = wall_s - calibrating / max(1, workers)
        return program_wall, program_wall * ref / host


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _skewed_inputs(
    rng: np.random.Generator, keys: tuple[str, ...], total_mb: float, hot: int
) -> dict[str, float]:
    """Input spread over ``keys`` with ``keys[hot]`` holding a double share.

    The hot DC goes with the job's index, not the seed: which DC is hot
    sets how long a job's shuffle takes, so a seed-drawn hot DC would
    make the amount of work, not just its details, depend on the seed.
    """
    weights = rng.uniform(0.8, 1.2, size=len(keys))
    weights[hot % len(keys)] *= 2.0
    weights /= weights.sum()
    return {dc: float(total_mb * w) for dc, w in zip(keys, weights)}


def _analytics_job(index: int, inputs: dict[str, float], total_mb: float) -> JobSpec:
    """Cycle WordCount / TeraSort / a TPC-DS query, as the paper mixes them."""
    kind = index % 3
    if kind == 0:
        return wordcount_job(
            inputs, intermediate_mb=total_mb * 0.8, name=f"wordcount-{index}"
        )
    if kind == 1:
        return terasort_job(inputs, name=f"terasort-{index}")
    query = (82, 95, 11, 78)[(index // 3) % 4]
    job = tpcds_job(query, inputs)
    return JobSpec(
        name=f"{job.name}-{index}", stages=job.stages, input_mb_by_dc=job.input_mb_by_dc
    )


@dataclass(frozen=True)
class Submission:
    """One generated job: arrival delay (simulated s), spec and SLO."""

    delay_s: float
    job: JobSpec
    slo: Optional[SLO] = None


@dataclass
class Inputs:
    """Everything a workload's seed generates."""

    submissions: list[Submission] = field(default_factory=list)
    #: Simulated start time of the re-gauge loop (regauge-loop only).
    start_s: float = 0.0

    def fingerprint(self) -> tuple:
        """A hashable digest of the generated inputs."""
        return (
            self.start_s,
            tuple(
                (
                    round(s.delay_s, 9),
                    s.job.name,
                    tuple(sorted((k, round(v, 9)) for k, v in s.job.input_mb_by_dc.items())),
                    tuple(st.name for st in s.job.stages),
                    None if s.slo is None else (s.slo.deadline_s, s.slo.tenant),
                )
                for s in self.submissions
            ),
        )


@dataclass
class Outcome:
    """What one iteration produced."""

    setup_s: float
    #: ``setup_s`` in reference seconds (see :func:`to_reference_s`).
    setup_ref_s: float
    measured_s: float
    #: ``measured_s`` in reference seconds (see :func:`to_reference_s`).
    measured_ref_s: float
    attempted: int
    completed: int
    #: Host milliseconds per operation, when operations are timed one
    #: by one (the re-gauge loop's re-plans).
    op_ms: list[float] = field(default_factory=list)
    #: ``op_ms`` in reference milliseconds, operation by operation.
    op_ref_ms: list[float] = field(default_factory=list)
    #: Deterministic simulated outcomes: equal for equal inputs.
    sim: dict[str, float] = field(default_factory=dict)
    #: Correctness checks: name → (passed, detail).
    checks: dict[str, tuple[bool, str]] = field(default_factory=dict)
    #: Host-side facts the per-layer report reads off the public API.
    facts: dict[str, float] = field(default_factory=dict)


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; with ten or fewer samples there is
    no such percentile and the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    rank = n - 11
    return 100.0 * (rank + 1) / n, ordered[rank]


def _job_outcome(tickets, probe_cost_usd: float) -> dict[str, float]:
    """Simulated JCT, attainment and dollars of finished tickets."""
    jcts = [t.jct_s for t in tickets]
    verdicts = [deadline_met(t) for t in tickets]
    judged = [v for v in verdicts if v is not None]
    job_usd = sum(t.result.cost.total_usd for t in tickets if t.result is not None)
    tail_pct, tail = percentile_tail(jcts)
    return {
        "sim_jct_p50_s": statistics.median(jcts),
        "sim_jct_tail_s": tail,
        "sim_jct_tail_pct": tail_pct,
        "slo_attainment": sum(judged) / len(judged) if judged else 1.0,
        "sim_cost_usd": job_usd + probe_cost_usd,
        "sim_wan_gb": sum(t.result.wan_gb for t in tickets if t.result is not None),
    }


class TransferLedger:
    """Records every transfer started on one live network.

    Installed on the *instance* (never the class), so it sees only the
    service's own WAN — not the throw-away probe networks a gauge
    builds.  Used for the byte-conservation check.
    """

    def __init__(self, network) -> None:
        self.transfers = []
        start = network.start_transfer

        def start_transfer(*args, **kwargs):
            transfer = start(*args, **kwargs)
            self.transfers.append(transfer)
            return transfer

        network.start_transfer = start_transfer

    def expected_wan_mbits(self) -> float:
        """Payload delivered by the recorded WAN transfers."""
        total = 0.0
        for t in self.transfers:
            if t.src == t.dst:
                continue
            total += t.transferred_mbits if t.cancelled else t.size_mbits
        return total


def _conservation_check(ledger: TransferLedger, network) -> tuple[bool, str]:
    unfinished = [t for t in ledger.transfers if not t.done]
    expected = ledger.expected_wan_mbits()
    delivered = network.total_wan_mbits()
    ok = not unfinished and abs(expected - delivered) <= REL_TOL * max(1.0, delivered)
    return ok, (
        f"started {expected:.3f} Mbit vs delivered {delivered:.3f} Mbit, "
        f"{len(unfinished)} unfinished"
    )


def _build(
    config: ServiceConfig, clock: ReferenceClock, weather=None
) -> tuple[PipelineService, float, float]:
    """Build a service; its set-up time in host and reference seconds."""
    with SampledPhase(clock) as phase:
        service = PipelineService.build(config, weather=weather)
    return service, phase.host_s, phase.ref_s


@dataclass(frozen=True)
class Workload:
    """A named workload: its config, input generator and iteration."""

    name: str
    why: str
    config: Callable[[], ServiceConfig]
    generate: Callable[[int], Inputs]
    iterate: Callable[["Workload", Inputs], Outcome]

    def run_once(self, inputs: Inputs) -> Outcome:
        """One iteration: build a service, run the inputs, read the outcome."""
        return self.iterate(self, inputs)


# -- service-drift ------------------------------------------------------


def _drift_config() -> ServiceConfig:
    return ServiceConfig(
        scenario=DRIFT_SCENARIO,
        max_concurrent=DRIFT_MAX_CONCURRENT,
        recalibrate=True,
        preemption="urgent-slo",
        governor=True,
        autoscale=True,
        control_interval_s=DRIFT_CONTROL_INTERVAL_S,
    )


def _drift_generate(seed: int) -> Inputs:
    rng = _rng(seed, 1)
    subs = []
    for index in range(DRIFT_JOBS):
        total = DRIFT_SCALE_MB * float(rng.uniform(0.95, 1.05))
        job = _analytics_job(index, _skewed_inputs(rng, PAPER_REGIONS, total, index), total)
        arrival = DRIFT_FIRST_ARRIVAL_S + index * DRIFT_GAP_S
        arrival += float(rng.uniform(-DRIFT_GAP_JITTER_S, DRIFT_GAP_JITTER_S))
        window = DRIFT_URGENT_DEADLINE_S if index % 2 else DRIFT_RELAXED_DEADLINE_S
        deadline = float(rng.uniform(*window))
        subs.append(Submission(max(0.0, arrival), job, SLO(deadline_s=deadline)))
    return Inputs(submissions=subs)


def _drain_iterate(workload: Workload, inputs: Inputs, weather=None) -> Outcome:
    """Build, submit every generated job as a simulator event, drain."""
    clock = ReferenceClock()
    service, setup_s, setup_ref_s = _build(workload.config(), clock, weather)
    ledger = TransferLedger(service.network)
    with SampledPhase(clock) as phase:
        for sub in inputs.submissions:
            service.submit_at(sub.delay_s, sub.job, slo=sub.slo)
        service.run()
    service.stop()
    summary = service.summary()
    completed = list(service.scheduler.completed)
    sim = _job_outcome(completed, summary.probe_cost_usd)
    sim["replans"] = float(summary.replans)
    sim["preemptions"] = float(summary.preemptions)
    sim["throttle_moves"] = float(summary.throttle_moves)
    checks = {
        "all_jobs_completed": (
            len(completed) == len(inputs.submissions),
            f"{len(completed)}/{len(inputs.submissions)} completed",
        ),
        "wan_bytes_conserved": _conservation_check(ledger, service.network),
        "throttle_ledger_balanced": (
            summary.throttle_moves == summary.throttle_releases,
            f"{summary.throttle_moves} moves / {summary.throttle_releases} releases",
        ),
    }
    facts = {
        "queue_wait_p50_s": statistics.median(t.wait_s for t in completed) if completed else 0.0,
        "steals": float(summary.work_steals),
        "preemptions": float(summary.preemptions),
        "throttle_moves": float(summary.throttle_moves),
        "concurrency_high_water": float(summary.concurrency_high_water),
        "replans": float(summary.replans),
        "recal_adjustments": float(summary.recal_adjustments),
    }
    if service.hub is not None:
        service.hub.close()
    return Outcome(
        setup_s=setup_s,
        setup_ref_s=setup_ref_s,
        measured_s=phase.host_s,
        measured_ref_s=phase.ref_s,
        attempted=len(inputs.submissions),
        completed=len(completed),
        sim=sim,
        checks=checks,
        facts=facts,
    )


# -- shuffle-burst ------------------------------------------------------


def _burst_config() -> ServiceConfig:
    # No online re-planning: a drift re-plan's probe mesh would add a
    # gauge to some seeds' drains and not others'; re-plans are what
    # service-drift and regauge-loop measure.
    return ServiceConfig(max_concurrent=BURST_MAX_CONCURRENT, online=False, observability=False)


def _burst_generate(seed: int) -> Inputs:
    rng = _rng(seed, 2)
    subs = []
    for index in range(BURST_JOBS):
        total = BURST_SCALE_MB * float(rng.uniform(0.95, 1.05))
        inputs = _skewed_inputs(rng, PAPER_REGIONS, total, index)
        if index % 2 == 0:
            job = terasort_job(inputs, name=f"terasort-{index}")
        else:
            query = (78, 95)[(index // 2) % 2]
            base = tpcds_job(query, inputs)
            job = JobSpec(f"{base.name}-{index}", base.stages, base.input_mb_by_dc)
        subs.append(Submission(0.0, job))
    return Inputs(submissions=subs)


def _burst_iterate(workload: Workload, inputs: Inputs) -> Outcome:
    return _drain_iterate(workload, inputs, weather=StaticModel())


# -- regauge-loop -------------------------------------------------------


def _regauge_config() -> ServiceConfig:
    return ServiceConfig(online=False, observability=False)


def _regauge_generate(seed: int) -> Inputs:
    rng = _rng(seed, 3)
    # Start somewhere inside the first weather noise period: every seed
    # interpolates different weather, yet idles the same simulated time.
    return Inputs(start_s=float(rng.uniform(0.0, REGAUGE_INTERVAL_S)))


def _regauge_iterate(workload: Workload, inputs: Inputs) -> Outcome:
    """A closed loop: force a re-plan, advance a fixed interval, repeat."""
    clock = ReferenceClock()
    service, setup_s, setup_ref_s = _build(workload.config(), clock)
    service.run(until=service.sim.now + inputs.start_s)
    op_ms: list[float] = []
    op_ref_ms: list[float] = []
    errors: list[str] = []
    predicted_sum = 0.0
    measured = 0.0
    measured_ref = 0.0
    for call in range(REGAUGE_CALLS):
        now = service.sim.now
        event = ReplanEvent(
            time=now, src=PAPER_REGIONS[0], dst=PAPER_REGIONS[1],
            observed_mbps=0.0, predicted_mbps=0.0, rel_error=0.0,
        )
        start = time.perf_counter()
        try:
            service.replan(event)
        except Exception as exc:  # a raising re-plan is a failed operation, reported below
            errors.append(repr(exc))
        elapsed = time.perf_counter() - start
        elapsed_ref = clock.rescale(elapsed, passes=1)
        measured += elapsed
        measured_ref += elapsed_ref
        op_ms.append(elapsed * 1000.0)
        op_ref_ms.append(elapsed_ref * 1000.0)
        predicted_sum += float(service.predicted.off_diagonal().sum())
        service.run(until=now + REGAUGE_INTERVAL_S)
    service.stop()
    summary = service.summary()
    sim = {
        "replans": float(summary.replans),
        "probe_transfers": float(summary.probe_transfers),
        "sim_cost_usd": summary.probe_cost_usd,
        "predicted_mbps_sum": predicted_sum,
    }
    checks = {
        "all_replans_recorded": (
            summary.replans == REGAUGE_CALLS - len(errors),
            f"{summary.replans} recorded of {REGAUGE_CALLS} forced; errors: {errors or 'none'}",
        ),
        "wan_idle": (
            service.network.total_wan_mbits() == 0.0,
            f"{service.network.total_wan_mbits():.3f} Mbit on the live WAN",
        ),
    }
    facts = {"replans": float(summary.replans)}
    return Outcome(
        setup_s=setup_s,
        setup_ref_s=setup_ref_s,
        measured_s=measured,
        measured_ref_s=measured_ref,
        attempted=REGAUGE_CALLS,
        completed=REGAUGE_CALLS - len(errors),
        op_ms=op_ms,
        op_ref_ms=op_ref_ms,
        sim=sim,
        checks=checks,
        facts=facts,
    )


# -- batch-drain --------------------------------------------------------


def _batch_workers() -> int:
    return max(1, min(BATCH_SHARDS, os.cpu_count() or 1))


def _batch_config() -> ServiceConfig:
    return ServiceConfig(
        scheduler="deadline-edf",
        scheduler_shards=BATCH_SHARDS,
        shard_workers=_batch_workers(),
        max_concurrent=BATCH_MAX_CONCURRENT,
        slo_deadline_s=BATCH_DEADLINE_S,
        observability=False,
    )


def _batch_generate(seed: int) -> Inputs:
    """Small two-stage jobs whose inputs live in the tenant's home pair.

    The tenant is the job name's leading word, which is how the shard
    router and ``drain_parallel`` (whose mix carries no SLOs) read it.
    """
    rng = _rng(seed, 4)
    subs = []
    for index in range(BATCH_JOBS):
        tenant = f"tenant{int(rng.integers(0, BATCH_TENANTS))}"
        home = shard_for_tenant(tenant, BATCH_SHARDS)
        a, b = PAPER_REGIONS[2 * home], PAPER_REGIONS[2 * home + 1]
        mb = float(rng.uniform(6.0, 10.0))
        job = JobSpec(
            name=f"{tenant}-{index}",
            stages=[
                StageSpec("map", cpu_s_per_mb=0.005, output_ratio=1.0),
                StageSpec("reduce", cpu_s_per_mb=0.005, output_ratio=0.1, shuffle=True),
            ],
            input_mb_by_dc={a: mb, b: mb * float(rng.uniform(0.5, 1.5))},
        )
        subs.append(Submission(0.0, job))
    return Inputs(submissions=subs)


def _batch_iterate(workload: Workload, inputs: Inputs) -> Outcome:
    clock = ReferenceClock()
    service, setup_s, setup_ref_s = _build(workload.config(), clock)
    with PoolCalibration() as pool:
        start = time.perf_counter()
        stats = service.drain_parallel([(s.delay_s, s.job) for s in inputs.submissions])
        wall_s = time.perf_counter() - start
    measured_s, measured_ref_s = pool.rescale(wall_s, service.parallel_workers)
    records = list(service.parallel_records)
    summary = service.summary()
    service.stop()
    jcts = [r.jct_s for r in records]
    met = [r for r in records if r.met is True]
    judged = [r for r in records if r.met is not None]
    tail_pct, tail = percentile_tail(jcts)
    sim = {
        "sim_jct_p50_s": statistics.median(jcts),
        "sim_jct_tail_s": tail,
        "sim_jct_tail_pct": tail_pct,
        "slo_attainment": len(met) / len(judged) if judged else 1.0,
        "sim_cost_usd": summary.probe_cost_usd,
        "makespan_s": stats["makespan_s"],
        "events": stats["events_processed"],
    }
    reconciled = stats["submitted"] == stats["completed"] + stats["queued"] + stats["running"]
    checks = {
        "all_jobs_completed": (
            len(records) == len(inputs.submissions),
            f"{len(records)}/{len(inputs.submissions)} completed",
        ),
        "shards_reconcile": (
            bool(reconciled),
            f"submitted {stats['submitted']:.0f} = completed + queued + running",
        ),
    }
    facts = {
        "queue_wait_p50_s": statistics.median(r.wait_s for r in records),
        "pool_wall_s": service.parallel_wall_s,
        "workers_used": float(service.parallel_workers),
        "fell_back": float(service.parallel_fell_back),
    }
    return Outcome(
        setup_s=setup_s,
        setup_ref_s=setup_ref_s,
        measured_s=measured_s,
        measured_ref_s=measured_ref_s,
        attempted=len(inputs.submissions),
        completed=len(records),
        sim=sim,
        checks=checks,
        facts=facts,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "service-drift",
            "the paper's dynamic case: drift re-planning, recalibration, control plane and observability all run",
            _drift_config,
            _drift_generate,
            _drain_iterate,
        ),
        Workload(
            "shuffle-burst",
            "a t=0 burst of shuffle-heavy jobs: hundreds of concurrent transfers under frozen weather load allocation, not weather",
            _burst_config,
            _burst_generate,
            _burst_iterate,
        ),
        Workload(
            "regauge-loop",
            "a closed loop of forced re-plans on an idle WAN: gauging, prediction and planning dominate",
            _regauge_config,
            _regauge_generate,
            _regauge_iterate,
        ),
        Workload(
            "batch-drain",
            "a large t=0 burst of small homed-tenant jobs through the process-parallel shard drain",
            _batch_config,
            _batch_generate,
            _batch_iterate,
        ),
    )
}
