"""Tests for Topology and DataCenter."""

import pytest

from repro.cloud.regions import PAPER_REGIONS
from repro.net.topology import Topology


class TestBuild:
    def test_build_with_uniform_vms(self, full_topology):
        assert full_topology.n == 8
        assert all(dc.num_vms == 1 for dc in full_topology.dcs)

    def test_build_with_per_dc_vms(self):
        topo = Topology.build(
            ("us-east-1", "eu-west-1"), "t2.medium", {"us-east-1": 3}
        )
        assert topo.dc("us-east-1").num_vms == 3
        assert topo.dc("eu-west-1").num_vms == 1

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Topology.build(("us-east-1", "us-east-1"))

    def test_unknown_key_raises(self, triad):
        with pytest.raises(KeyError):
            triad.index("nowhere-1")


class TestDerivedMatrices:
    def test_rtt_symmetric(self, triad):
        assert triad.rtt_ms("us-east-1", "ap-southeast-1") == pytest.approx(
            triad.rtt_ms("ap-southeast-1", "us-east-1")
        )

    def test_rtt_ordering_follows_distance(self, triad):
        assert triad.rtt_ms("us-east-1", "us-west-1") < triad.rtt_ms(
            "us-east-1", "ap-southeast-1"
        )

    def test_intra_dc_rtt_sub_millisecond(self, triad):
        assert triad.rtt_ms("us-east-1", "us-east-1") < 1.0

    def test_distance_matches_regions(self, triad):
        d = triad.distance_miles("us-east-1", "us-west-1")
        assert 2300 < d < 2500

    def test_single_connection_cap_fig1(self, triad):
        # t3.nano probes reproduce the Fig. 1 endpoints.
        strong = triad.single_connection_cap("us-east-1", "us-west-1")
        weak = triad.single_connection_cap("us-east-1", "ap-southeast-1")
        assert strong == pytest.approx(1700, rel=0.05)
        assert weak == pytest.approx(121, rel=0.05)


class TestCapacities:
    def test_association_sums_vm_caps(self):
        one = Topology.build(("us-east-1", "eu-west-1"), "t2.medium")
        three = Topology.build(
            ("us-east-1", "eu-west-1"), "t2.medium", {"us-east-1": 3}
        )
        assert three.dc("us-east-1").egress_cap_mbps == pytest.approx(
            3 * one.dc("us-east-1").egress_cap_mbps
        )

    def test_with_extra_vms(self, full_topology):
        grown = full_topology.with_extra_vms({"us-east-1": 1})
        assert grown.dc("us-east-1").num_vms == 2
        assert grown.dc("eu-west-1").num_vms == 1
        # Original untouched.
        assert full_topology.dc("us-east-1").num_vms == 1

    def test_total_vcpus(self, full_topology):
        assert full_topology.dc("us-east-1").total_vcpus == 2


class TestSubset:
    def test_subset_order_preserved(self, full_topology):
        sub = full_topology.subset(("sa-east-1", "us-east-1"))
        assert sub.keys == ("sa-east-1", "us-east-1")

    def test_subset_preserves_rtt(self, full_topology):
        sub = full_topology.subset(("us-east-1", "ap-southeast-1"))
        assert sub.rtt_ms("us-east-1", "ap-southeast-1") == pytest.approx(
            full_topology.rtt_ms("us-east-1", "ap-southeast-1")
        )

    def test_all_paper_regions_buildable(self):
        topo = Topology.build(PAPER_REGIONS)
        assert topo.keys == PAPER_REGIONS


class TestIndex:
    @pytest.mark.parametrize(
        "make",
        [
            lambda topo: topo,
            lambda topo: topo.subset(("sa-east-1", "us-east-1", "eu-west-1")),
            lambda topo: topo.with_extra_vms({"us-west-1": 2}),
        ],
        ids=["build", "subset", "with_extra_vms"],
    )
    def test_index_follows_dc_order(self, full_topology, make):
        topo = make(full_topology)
        for position, dc in enumerate(topo.dcs):
            assert topo.index(dc.key) == position
            assert topo.dc(dc.key) is dc

    def test_unknown_key_names_the_known_keys(self, triad):
        with pytest.raises(KeyError) as caught:
            triad.index("nowhere-1")
        message = str(caught.value)
        assert "nowhere-1" in message
        for key in triad.keys:
            assert key in message
