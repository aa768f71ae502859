"""Invariants the runtime must hold under injected faults.

Four fault families (circuit kills, telemetry corruption, recalibrator
stalls, crashed shard workers) against four invariants:

1. **Recalibration bounds** — the published capacity stays inside
   ``[floor, ceiling]`` and never exceeds the weather-free topology
   ceiling, even when the telemetry feeding it is absurd garbage.
2. **Byte conservation** — a circuit failing over mid-transfer loses
   no payload: every in-flight transfer still delivers exactly its
   size, completing exactly once.
3. **Governor ledger** — every bandwidth cap the governor applies is
   released; ``throttle_moves == throttle_releases`` at drain no
   matter what the circuits did.
4. **Ticket termination** — every submitted job ticket reaches
   ``done`` exactly once: no lost jobs, no double completions.

All timelines are seeded; a failure here is replayable byte for byte.
"""

from collections import Counter

import pytest

from chaos.injector import (
    ABSURD_RATE_MBPS,
    POISON_ADMISSION,
    FaultInjector,
    KilledCircuits,
)
from repro.net.dynamics import FluctuationModel
from repro.net.simulator import NetworkSimulator
from repro.net.topology import Topology
from repro.pipeline.config import ServiceConfig
from repro.runtime.scheduling.parallel import ShardExecutor, build_tasks
from repro.runtime.scheduling.slo import spread_slos
from repro.runtime.service import PipelineService, default_job_mix

pytestmark = pytest.mark.chaos

REGIONS = ("us-east-1", "us-west-1", "ap-southeast-1")
SEED = 23
JOBS = 4

#: Tiny-but-real predictor: chaos tests exercise the runtime, not the
#: model, so training is kept to seconds.
FAST = dict(n_training_datasets=3, n_estimators=2)


def _service(**overrides) -> PipelineService:
    settings = dict(
        regions=REGIONS,
        seed=SEED,
        scenario="circuit-flap",
        recalibrate=True,
        slo_deadline_s=2400.0,
        max_concurrent=4,
        **FAST,
    )
    settings.update(overrides)
    service = PipelineService.build(ServiceConfig(**settings))
    service.submit_mix(
        default_job_mix(REGIONS, count=JOBS, seed=SEED, scale_mb=2000.0)
    )
    return service


class TestRecalibrationBounds:
    """Invariant 1, under faults: telemetry corruption + recal stall."""

    def test_capacity_within_bounds_under_corruption_and_stall(self):
        service = _service()
        injector = FaultInjector(service, seed=SEED)
        for delay in (120.0, 360.0, 600.0):
            injector.at(delay, injector.corrupt_telemetry, 12)
        injector.at(180.0, injector.stall_recalibrator, 2)
        service.run()
        recalibrator = service.recalibrator
        assert recalibrator is not None
        # The faults landed: absurd samples sit in the store, and the
        # stall swallowed exactly the requested ticks.
        corrupted = [e for e in injector.log if e[1] == "corrupt_telemetry"]
        assert len(corrupted) == 36
        src, dst, _ = corrupted[0][2]
        peak = max(
            rate for _, rate in service.telemetry.series(src, dst).samples
        )
        assert peak >= ABSURD_RATE_MBPS * 0.5
        assert recalibrator.stalled_ticks == 2
        assert recalibrator.ticks > 0
        # The invariant: every published capacity inside [floor,
        # ceiling], and never above the weather-free topology ceiling.
        assert recalibrator.within_bounds() == []
        for src, dst in recalibrator.current.pairs():
            value = recalibrator.current.get(src, dst)
            assert value <= service._topology_ceiling(src, dst) + 1e-6
        service.stop()


class TestFailoverByteConservation:
    """Invariant 2: kill + restore a circuit under live transfers."""

    def test_inflight_bytes_survive_kill_and_restore(self):
        topology = Topology.build(REGIONS, "t2.medium")
        network = NetworkSimulator(
            topology, fluctuation=FluctuationModel(seed=SEED)
        )
        wrapper = KilledCircuits(network.fluctuation)
        network.fluctuation = wrapper
        completed: list = []
        plan = [
            ("us-east-1", "us-west-1", 20000.0),
            ("us-east-1", "us-west-1", 15000.0),
            ("us-west-1", "ap-southeast-1", 12000.0),
        ]
        transfers = [
            network.start_transfer(
                src, dst, size, on_complete=completed.append,
                tag=f"job{i}:shuffle",
            )
            for i, (src, dst, size) in enumerate(plan)
        ]
        pair = (topology.index("us-east-1"), topology.index("us-west-1"))

        def kill() -> None:
            wrapper.killed.update({pair, pair[::-1]})
            network._reallocate()

        def restore() -> None:
            wrapper.killed.clear()
            network._reallocate()

        mid_kill: dict[str, list[float]] = {}

        def probe() -> None:
            network.active_transfers()  # advances progress to now
            mid_kill["delivered"] = [
                t.transferred_mbits for t in transfers
            ]

        network.sim.schedule(2.0, kill)
        network.sim.schedule(30.0, probe)
        network.sim.schedule(60.0, restore)
        network.sim.run()
        # Every transfer was genuinely in flight through the outage…
        assert all(0.0 < d for d in mid_kill["delivered"])
        assert any(
            d < size for d, (_, _, size) in zip(mid_kill["delivered"], plan)
        )
        # …and every one completed exactly once with full payload.
        assert len(completed) == len(transfers)
        assert len({id(t) for t in completed}) == len(transfers)
        for transfer in transfers:
            assert transfer.finish_time is not None
            assert transfer.finish_time > 2.0
            assert transfer.transferred_mbits == pytest.approx(
                transfer.size_mbits
            )
        total = sum(size for _, _, size in plan)
        assert network.total_wan_mbits() == pytest.approx(total, rel=1e-3)


class TestGovernorLedger:
    """Invariant 3: apply/release stays balanced through circuit chaos."""

    def test_throttle_ledger_balances_under_circuit_chaos(self):
        service = _service(governor=True)
        injector = FaultInjector(service, seed=SEED)
        injector.at(
            120.0, injector.kill_circuit, "us-east-1", "ap-southeast-1"
        )
        injector.at(
            480.0, injector.restore_circuit, "us-east-1", "ap-southeast-1"
        )
        injector.at(240.0, injector.stall_recalibrator, 1)
        service.run()
        service.stop()
        control = service.control
        assert control is not None
        assert control.throttle_moves == control.throttle_releases
        # The run actually drained — a wedged queue would also "balance".
        assert len(service.scheduler.completed) == JOBS
        assert not service.scheduler.queued
        assert not service.scheduler.running


class TestTicketTermination:
    """Invariant 4: every ticket reaches ``done`` exactly once."""

    def test_every_ticket_terminates_exactly_once(self):
        service = _service()
        injector = FaultInjector(service, seed=SEED)
        injector.at(90.0, injector.kill_circuit, "us-east-1", "us-west-1")
        injector.at(
            300.0, injector.restore_circuit, "us-east-1", "us-west-1"
        )
        finishes: Counter = Counter()
        chained = service.scheduler.on_event

        def counting(kind: str, ticket) -> None:
            if kind == "finish":
                finishes[id(ticket)] += 1
            if chained is not None:
                chained(kind, ticket)

        service.scheduler.on_event = counting
        service.run()
        tickets = service.scheduler.completed
        assert len(tickets) == JOBS
        assert len({id(t) for t in tickets}) == JOBS  # no double entries
        assert all(t.state == "done" for t in tickets)
        assert all(finishes[id(t)] == 1 for t in tickets)
        assert sum(finishes.values()) == JOBS  # no phantom finishes
        assert not service.scheduler.queued
        assert not service.scheduler.running
        service.stop()


class TestCrashedShardWorker:
    """Fault 4: a worker process dies mid-drain (poisoned task)."""

    @staticmethod
    def _tasks():
        mix = default_job_mix(REGIONS, count=6, seed=SEED)
        entries = [
            (delay, job, None, slo)
            for delay, job, slo in spread_slos(mix, 1800.0, seed=SEED)
        ]
        return build_tasks(
            entries,
            2,
            regions=REGIONS,
            vm="t2.medium",
            profile="vpc-peering",
            scenario=None,
            seed=SEED,
            admission="deadline-edf",
            default_policy="tetrium",
            max_concurrent=4,
            admit_batch=16,
        )

    def test_crash_surfaces_cleanly_from_pool_and_serial(self):
        tasks = self._tasks()
        poisoned = [tasks[0], FaultInjector.poison_shard_task(tasks[1])]
        pooled = ShardExecutor(2)
        # The pool dies, the serial retry re-raises the real error —
        # a crashed worker is loud, never a silently dropped shard.
        with pytest.raises(KeyError, match=POISON_ADMISSION):
            pooled.run(poisoned)
        assert pooled.fell_back
        serial = ShardExecutor(0)
        with pytest.raises(KeyError, match=POISON_ADMISSION):
            serial.run(poisoned)
        # The executor survives its crash: healthy tasks still drain.
        results = pooled.run(tasks)
        assert len(results) == 2
        assert sum(len(r.records) for r in results) == 6
