"""The geo-distributed cluster a job runs on.

Bundles a topology with a live network simulator and a price book, and
provides the compute model: each DC has ``vcpus × num_vms`` task slots,
each processing 1 MB of stage input in ``cpu_s_per_mb / speed`` seconds.
The testbed defaults mirror §5.1: t2.medium workers (2 vCPU), one per
DC, unlimited CPU bursts billed at $0.05/vCPU-hour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cloud.pricing import PriceBook
from repro.net.dynamics import FluctuationModel, StaticModel
from repro.net.profiles import VPC_PEERING, NetworkProfile
from repro.net.simulator import NetworkSimulator
from repro.net.topology import Topology


@dataclass
class GeoCluster:
    """Topology + network + prices + compute slots."""

    topology: Topology
    network: NetworkSimulator
    prices: PriceBook = field(default_factory=PriceBook)

    @classmethod
    def build(
        cls,
        region_keys: list[str] | tuple[str, ...],
        vm_key: str = "t2.medium",
        vms_per_dc: int | dict[str, int] = 1,
        fluctuation: Optional[FluctuationModel | StaticModel] = None,
        time_offset: float = 0.0,
        prices: Optional[PriceBook] = None,
        profile: NetworkProfile = VPC_PEERING,
    ) -> "GeoCluster":
        """Build a cluster with a fresh simulator."""
        topology = Topology.build(region_keys, vm_key, vms_per_dc, profile)
        network = NetworkSimulator(
            topology,
            fluctuation=fluctuation,
            time_offset=time_offset,
        )
        return cls(topology, network, prices or PriceBook())

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        fluctuation: Optional[FluctuationModel | StaticModel] = None,
        time_offset: float = 0.0,
        prices: Optional[PriceBook] = None,
    ) -> "GeoCluster":
        """Build a cluster around an existing topology (keeps its
        profile and VM layout)."""
        network = NetworkSimulator(
            topology,
            fluctuation=fluctuation,
            time_offset=time_offset,
        )
        return cls(topology, network, prices or PriceBook())

    @property
    def keys(self) -> tuple[str, ...]:
        """DC keys."""
        return self.topology.keys

    def slots(self, dc: str) -> int:
        """Parallel task slots in a DC."""
        return self.topology.dc(dc).total_vcpus

    def speed(self, dc: str) -> float:
        """Relative per-slot compute speed."""
        return self.topology.dc(dc).vm.speed

    def compute_seconds(self, dc: str, mb: float, cpu_s_per_mb: float) -> float:
        """Wall-clock seconds for a DC to process ``mb`` of input."""
        if mb <= 0:
            return 0.0
        rate = self.slots(dc) * self.speed(dc)
        return mb * cpu_s_per_mb / rate

    def total_vms(self) -> int:
        """VM count across the cluster (for billing)."""
        return sum(dc.num_vms for dc in self.topology.dcs)
