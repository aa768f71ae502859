"""Unit and scale tests for :mod:`repro.runtime.scheduling.shards`."""

import pytest

from repro.gda.engine.cluster import GeoCluster
from repro.gda.engine.dag import JobSpec, StageSpec
from repro.net.dynamics import StaticModel
from repro.runtime.scenarios import scenario
from repro.runtime.scheduler import JobScheduler
from repro.runtime.scheduling import SLO, ShardedScheduler as LazyExport
from repro.runtime.scheduling.shards import (
    ShardedScheduler,
    shard_for_tenant,
    split_concurrency,
)

PAIR = ("us-east-1", "us-west-1")


def _job(name, mb=60.0):
    return JobSpec(
        name=name,
        stages=[
            StageSpec(
                "map", cpu_s_per_mb=0.01, output_ratio=1.0, shuffle=False
            ),
            StageSpec(
                "reduce", cpu_s_per_mb=0.01, output_ratio=0.1, shuffle=True
            ),
        ],
        input_mb_by_dc={k: mb for k in PAIR},
    )


def _cluster(weather=None):
    return GeoCluster.build(
        PAIR,
        "t2.medium",
        fluctuation=weather if weather is not None else StaticModel(),
    )


def _tenant_for_shard(index, shards):
    """A tenant name that hashes to ``index`` (deterministic search)."""
    for i in range(1000):
        name = f"tenant{i}"
        if shard_for_tenant(name, shards) == index:
            return name
    raise AssertionError("no tenant found")  # pragma: no cover


class TestHashing:
    def test_stable_across_calls(self):
        assert shard_for_tenant("acme", 4) == shard_for_tenant("acme", 4)

    def test_in_range(self):
        for tenant in ("a", "acme", "wordcount", "tpcds", "x" * 50):
            for shards in (1, 2, 3, 7):
                assert 0 <= shard_for_tenant(tenant, shards) < shards

    def test_known_value(self):
        # CRC-32 is standardized, so routing is stable across machines
        # and Python versions (unlike the salted builtin hash()).
        import zlib

        assert shard_for_tenant("acme", 4) == zlib.crc32(b"acme") % 4

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            shard_for_tenant("acme", 0)


class TestSplitConcurrency:
    def test_even_split(self):
        assert split_concurrency(8, 4) == [2, 2, 2, 2]

    def test_remainder_goes_to_first_shards(self):
        assert split_concurrency(7, 4) == [2, 2, 2, 1]

    def test_every_shard_gets_a_slot(self):
        assert split_concurrency(2, 4) == [1, 1, 1, 1]

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            split_concurrency(4, 0)


class TestSurface:
    def test_lazy_package_export_is_the_class(self):
        assert LazyExport is ShardedScheduler

    def test_shard_count_and_budget(self):
        sched = ShardedScheduler(_cluster(), shards=3, max_concurrent=7)
        assert sched.shard_count == 3
        assert sched.max_concurrent == 7
        assert [s.max_concurrent for s in sched.shards] == [3, 2, 2]

    def test_set_max_concurrent_resplits(self):
        sched = ShardedScheduler(_cluster(), shards=3, max_concurrent=6)
        sched.set_max_concurrent(9)
        assert [s.max_concurrent for s in sched.shards] == [3, 3, 3]
        with pytest.raises(ValueError):
            sched.set_max_concurrent(0)

    def test_default_policy_propagates(self):
        sched = ShardedScheduler(_cluster(), shards=2)
        sched.default_policy = "kimchi"
        assert all(s.default_policy == "kimchi" for s in sched.shards)

    def test_set_admission_propagates(self):
        sched = ShardedScheduler(_cluster(), shards=2)
        sched.set_admission("deadline-edf")
        assert all(
            type(s.admission).__name__ == "DeadlineAdmission"
            for s in sched.shards
        )

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardedScheduler(_cluster(), shards=0)

    def test_stats_zero_state(self):
        sched = ShardedScheduler(_cluster(), shards=2)
        stats = sched.stats()
        assert stats["completed"] == 0.0
        assert stats["shards"] == 2.0
        assert stats["slo_attainment"] == 1.0


class TestRouting:
    def test_tenant_slo_routes_to_its_shard(self):
        sched = ShardedScheduler(_cluster(), shards=4, max_concurrent=4)
        job = _job("whatever-0")
        slo = SLO(deadline_s=600.0, tenant="acme")
        assert sched.shard_of(job, slo) == shard_for_tenant("acme", 4)

    def test_anonymous_jobs_route_by_name_prefix(self):
        sched = ShardedScheduler(_cluster(), shards=4, max_concurrent=4)
        assert sched.shard_of(_job("wordcount-3")) == shard_for_tenant(
            "wordcount", 4
        )

    def test_submit_lands_on_routed_shard_modulo_stealing(self):
        sched = ShardedScheduler(_cluster(), shards=2, max_concurrent=2)
        tenant = _tenant_for_shard(1, 2)
        ticket = sched.submit(
            _job("routed-0"), slo=SLO(deadline_s=600.0, tenant=tenant)
        )
        # First submission: its shard has a free slot, so no stealing
        # can have moved it — it runs where it was routed.
        assert any(t is ticket for t in sched.shards[1].running)


class TestStealing:
    def test_idle_shards_steal_queued_work(self):
        sched = ShardedScheduler(
            _cluster(), shards=4, max_concurrent=4, admission="deadline-edf"
        )
        for i in range(12):
            sched.submit(
                _job(f"burst-{i}"),
                slo=SLO(deadline_s=30000.0, tenant="acme"),
            )
        # One slot per shard, all submissions routed to one tenant's
        # shard: every other busy slot was filled by stealing.
        assert len(sched.running) == 4
        assert sched.steal_count >= 3
        sched.sim.run()
        stats = sched.stats()
        assert stats["completed"] == 12.0
        assert stats["steals"] == float(sched.steal_count)

    def test_steal_events_fire(self):
        events = []
        sched = ShardedScheduler(_cluster(), shards=2, max_concurrent=2)
        sched.on_event = lambda kind, ticket: events.append(kind)
        for i in range(6):
            sched.submit(
                _job(f"ev-{i}"), slo=SLO(deadline_s=30000.0, tenant="acme")
            )
        sched.sim.run()
        assert "steal" in events
        assert events.count("admit") == 6

    def test_no_steals_without_contention(self):
        sched = ShardedScheduler(_cluster(), shards=2, max_concurrent=4)
        sched.submit(_job("solo-0"), slo=SLO(deadline_s=600.0, tenant="a"))
        sched.sim.run()
        assert sched.steal_count == 0


class TestPreemption:
    def test_preempt_requeues_victim_on_its_shard(self):
        sched = ShardedScheduler(_cluster(), shards=2, max_concurrent=2)
        tenant = _tenant_for_shard(0, 2)
        victim = sched.submit(
            _job("victim-0"), slo=SLO(deadline_s=9000.0, tenant=tenant)
        )
        checkpoint = sched.preempt(victim)
        assert checkpoint is not None
        assert victim.preemptions == 1
        sched.sim.run()
        assert sched.stats()["completed"] == 1.0

    def test_cross_shard_beneficiary_is_stolen_first(self):
        sched = ShardedScheduler(_cluster(), shards=2, max_concurrent=2)
        t0 = _tenant_for_shard(0, 2)
        t1 = _tenant_for_shard(1, 2)
        victim = sched.submit(
            _job("vic-0"), slo=SLO(deadline_s=9000.0, tenant=t0)
        )
        sched.submit(_job("busy-0"), slo=SLO(deadline_s=9000.0, tenant=t1))
        beneficiary = sched.submit(
            _job("benef-0"), slo=SLO(deadline_s=300.0, tenant=t1)
        )
        assert any(t is beneficiary for t in sched.shards[1].queued)
        before = sched.steal_count
        sched.preempt(victim, beneficiary)
        assert sched.steal_count == before + 1
        # The beneficiary took the vacated slot on the victim's shard.
        assert any(t is beneficiary for t in sched.shards[0].running)
        sched.sim.run()
        assert sched.stats()["completed"] == 3.0

    def test_preempting_unknown_ticket_raises(self):
        sched = ShardedScheduler(_cluster(), shards=2)
        ghost = sched.submit(_job("ghost-0"))
        sched.sim.run()
        with pytest.raises(ValueError, match="not running"):
            sched.preempt(ghost)


N_SCALE = 2000


@pytest.mark.slow
class TestScale:
    """The 100× target: 2000 queued jobs across 4 shards."""

    def _drive(self, scheduler):
        for i in range(N_SCALE):
            slo = SLO(
                # Scrambled-but-generous deadlines: EDF has real work
                # to do, yet a drained queue attains them.
                deadline_s=3600.0 * 24 + ((i * 7919) % N_SCALE) * 60.0,
                tenant=f"tenant{i % 16}",
            )
            scheduler.submit(_job(f"crowd-{i}", mb=40.0), slo=slo)
        scheduler.sim.run()
        return scheduler.stats()

    @pytest.fixture(scope="class")
    def sharded(self):
        weather = scenario("flash-crowd", seed=7)
        sched = ShardedScheduler(
            _cluster(weather),
            shards=4,
            max_concurrent=4,
            admission="deadline-edf",
        )
        return self._drive(sched), sched

    @pytest.fixture(scope="class")
    def single(self):
        weather = scenario("flash-crowd", seed=7)
        sched = JobScheduler(
            _cluster(weather), max_concurrent=4, admission="deadline-edf"
        )
        return self._drive(sched), sched

    def test_all_jobs_complete(self, sharded):
        stats, sched = sharded
        assert stats["completed"] == float(N_SCALE)
        assert stats["queued"] == stats["running"] == 0.0
        assert stats["submitted"] == float(N_SCALE)

    def test_attainment_no_worse_than_single_shard(self, sharded, single):
        sharded_stats, _ = sharded
        single_stats, _ = single
        assert (
            sharded_stats["slo_attainment"]
            >= single_stats["slo_attainment"]
        )

    def test_sharding_actually_stole_work(self, sharded):
        stats, sched = sharded
        assert stats["steals"] > 0
        assert sched.peak_concurrency == 4
