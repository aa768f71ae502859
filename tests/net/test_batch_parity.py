"""Golden-file tests: the transfer store against the frozen reference.

``transfer_golden.json`` holds the outcomes of the per-object reference
advance (the simulator's original transfer path, recorded at the commit
named in the file) for six seeded weather scenarios: per-transfer
completion times and delivered megabits, event counts, mid-run rates,
and end-to-end :class:`~repro.runtime.service.ServiceSummary` outcomes.
The bucketed store (:mod:`repro.net.batch`) evaluates the same
per-element expressions in the same order in both bucket
representations, so transfers and events must match exactly — with
the default size threshold and with every bucket forced onto arrays;
service summaries keep the 1e-6 / 1e-5 bounds.
"""

import json
import random
from pathlib import Path

import pytest

from repro.net import batch
from repro.net.batch import SMALL_BUCKET
from repro.net.dynamics import StaticModel
from repro.net.simulator import NetworkSimulator
from repro.net.topology import Topology
from repro.runtime.scenarios import scenario
from repro.runtime.service import ServiceConfig, PipelineService, default_job_mix

TRIAD = ("us-east-1", "us-west-1", "ap-southeast-1")

GOLDEN = json.loads((Path(__file__).parent / "transfer_golden.json").read_text())

#: Every named weather scenario plus calm, with the seed each was
#: recorded under.
SCENARIOS = tuple(
    (name, entry["seed"]) for name, entry in GOLDEN["transfers"].items()
)

PARITY_S = 1e-6


def _sim(name: str, seed: int) -> NetworkSimulator:
    topology = Topology.build(TRIAD, "t2.medium")
    return NetworkSimulator(topology, fluctuation=scenario(name, seed=seed))


def _run_workload(name: str, seed: int):
    """Run a seeded transfer mix; return transfers in submission order.

    The mix piles up to six concurrent transfers onto shared pairs
    while also sprinkling LAN traffic and stragglers submitted mid-run.
    """
    net = _sim(name, seed)
    rng = random.Random(seed * 1009)
    transfers = []

    def start(src, dst, mbits):
        transfers.append(net.start_transfer(src, dst, mbits))

    for i in range(40):
        src, dst = rng.sample(TRIAD, 2)
        delay = rng.uniform(0.0, 300.0)
        mbits = rng.uniform(50.0, 4000.0)
        net.sim.schedule(delay, lambda s=src, d=dst, m=mbits: start(s, d, m))
    # LAN traffic rides its own bucket, walked after the pairs.
    for i in range(6):
        delay = rng.uniform(0.0, 200.0)
        dc = rng.choice(TRIAD)
        mbits = rng.uniform(100.0, 2000.0)
        net.sim.schedule(delay, lambda d=dc, m=mbits: start(d, d, m))
    net.sim.run()
    return net, transfers


class TestTransferParity:
    """Per-transfer outcomes equal the golden file, scenario by scenario."""

    @pytest.mark.parametrize(("name", "seed"), SCENARIOS)
    def test_completion_times_match(self, name, seed):
        expected = GOLDEN["transfers"][name]["transfers"]
        _, transfers = _run_workload(name, seed)
        got = [[t.src, t.dst, t.size_mbits, t.finish_time] for t in transfers]
        assert got == [row[:4] for row in expected]

    @pytest.mark.parametrize(("name", "seed"), SCENARIOS)
    def test_transferred_payloads_match(self, name, seed):
        expected = GOLDEN["transfers"][name]["transfers"]
        _, transfers = _run_workload(name, seed)
        assert [t.transferred_mbits for t in transfers] == [
            row[4] for row in expected
        ]

    def test_event_counts_match(self):
        """The same event sequence, not just the same end state."""
        for name, seed in SCENARIOS:
            expected = GOLDEN["transfers"][name]
            net, _ = _run_workload(name, seed)
            assert net.sim.events_processed == expected["events_processed"]
            assert net.sim.now == expected["now"]

    def test_mid_run_observations_match(self):
        """rate/matrix queries mid-run read the buckets' shares."""
        _check_mid_run()


def _check_mid_run():
    expected = GOLDEN["mid_run"]
    net = _sim(expected["scenario"], expected["seed"])
    for _ in range(5):
        net.start_transfer("us-east-1", "us-west-1", 5000.0)
    for _ in range(4):
        net.start_transfer("us-west-1", "ap-southeast-1", 3000.0)
    net.sim.run(until=expected["until_s"])
    assert net.current_rate("us-east-1", "us-west-1") == pytest.approx(
        expected["current_rate"], rel=1e-9
    )
    rates = [t.rate_mbps for t in net.active_transfers()]
    assert rates == pytest.approx(expected["rates"], rel=1e-9)


class TestArrayBuckets:
    """Every bucket array-backed (threshold 0) still equals the golden
    file: the array representation changes no number."""

    @pytest.fixture(autouse=True)
    def _all_arrays(self, monkeypatch):
        monkeypatch.setattr(batch, "SMALL_BUCKET", 0)

    def test_transfers_and_events_match(self):
        for name, seed in SCENARIOS:
            expected = GOLDEN["transfers"][name]
            net, transfers = _run_workload(name, seed)
            got = [
                [t.src, t.dst, t.size_mbits, t.finish_time, t.transferred_mbits]
                for t in transfers
            ]
            assert got == expected["transfers"], name
            assert net.sim.events_processed == expected["events_processed"]
            assert net.sim.now == expected["now"]

    def test_mid_run_observations_match(self):
        _check_mid_run()


class TestDeliveredBytes:
    """A finished transfer reports exactly its payload as delivered."""

    @staticmethod
    def _assert_exact(transfers):
        for t in transfers:
            assert t.finish_time is not None
            assert t.transferred_mbits == t.size_mbits
            assert t.done

    @pytest.mark.parametrize(("name", "seed"), SCENARIOS)
    def test_scenario_transfers_deliver_exactly(self, name, seed):
        _, transfers = _run_workload(name, seed)
        self._assert_exact(transfers)

    def test_crowded_pair_delivers_exactly(self, triad_workers):
        """500 transfers on one pair: array-backed until the population
        falls to ``SMALL_BUCKET``, through every eviction."""
        net = NetworkSimulator(triad_workers, fluctuation=StaticModel())
        rng = random.Random(5)
        transfers = [
            net.start_transfer(
                "us-east-1", "ap-southeast-1", rng.uniform(1.0, 300.0)
            )
            for _ in range(500)
        ]
        bucket = net._transfers.pairs[("us-east-1", "ap-southeast-1")]
        assert len(bucket.transfers) > SMALL_BUCKET
        assert bucket.size is not None
        net.sim.run()
        assert not net._transfers.pairs
        self._assert_exact(transfers)

    def test_cancelled_transfer_keeps_partial_progress(self, triad_workers):
        net = NetworkSimulator(triad_workers, fluctuation=StaticModel())
        transfers = [
            net.start_transfer("us-east-1", "us-west-1", 5000.0)
            for _ in range(SMALL_BUCKET + 2)
        ]
        net.sim.run(until=2.0)
        # A new admission advances the array-backed bucket to t = 2 s;
        # evicting the victim then writes its array progress back.
        transfers.append(net.start_transfer("us-east-1", "us-west-1", 10.0))
        victim = transfers[0]
        net.cancel_transfer(victim)
        assert victim.cancelled and victim.done
        assert 0.0 < victim.transferred_mbits < victim.size_mbits
        net.sim.run()
        self._assert_exact(transfers[1:])


def _serve(name: str, seed: int) -> PipelineService:
    config = ServiceConfig(
        regions=TRIAD,
        seed=29,
        online=True,
        max_concurrent=3,
        n_training_datasets=4,
        n_estimators=4,
    )
    service = PipelineService.build(config, weather=scenario(name, seed=seed))
    for delay, job in default_job_mix(TRIAD, count=4, seed=7, scale_mb=800.0):
        service.submit_at(delay * 0.3, job)
    service.run()
    service.stop()
    return service


class TestServiceParity:
    """End-to-end service outcomes equal the golden file."""

    @pytest.mark.parametrize(("name", "seed"), SCENARIOS)
    def test_summary_outcomes_identical(self, name, seed):
        expected = GOLDEN["services"][name]
        service = _serve(name, seed)
        summary = service.summary()
        assert summary.completed == expected["completed"] == 4
        assert summary.slo_attained == expected["slo_attained"]
        assert summary.slo_missed == expected["slo_missed"]
        assert summary.replans == expected["replans"]
        assert summary.makespan_s == pytest.approx(
            expected["makespan_s"], abs=PARITY_S
        )
        assert summary.total_jct_s == pytest.approx(
            expected["total_jct_s"], abs=1e-5
        )
        jobs = [(t.job.name, t.finished_s) for t in service.scheduler.completed]
        assert [name for name, _ in jobs] == [n for n, _ in expected["jobs"]]
        for (_, finished), (_, want) in zip(jobs, expected["jobs"]):
            assert finished == pytest.approx(want, abs=PARITY_S)


class TestDefaultsUnchanged:
    """Default config keeps the single shared-queue scheduler."""

    def test_default_config_is_scalar_single_queue(self):
        from repro.runtime.scheduler import JobScheduler

        config = ServiceConfig(
            regions=TRIAD, seed=29, n_training_datasets=4, n_estimators=4
        )
        assert config.scheduler_shards == 1
        service = PipelineService.build(config)
        assert type(service.scheduler) is JobScheduler
