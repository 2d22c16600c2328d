"""Tests for the OST/MDS server cost models.

OST transfers are priced by the data path, so the OST tests drive
runs of one through ``LustreFilesystem.io`` on a filesystem without
client-side costs: an op's completion is then its OST completion.
"""

from __future__ import annotations

import pytest

from repro.lustre.filesystem import LustreConfig, LustreFilesystem
from repro.lustre.ost import MetadataServer, OstArray, ServerCosts
from repro.util.units import MIB


def costs(**overrides):
    values = dict(
        ost_bandwidth=100.0 * MIB,
        rpc_latency=1e-3,
        seek_penalty=5e-3,
        mds_op_latency=2e-3,
    )
    values.update(overrides)
    return ServerCosts(**values)


class Osts:
    """One file striped over ``count`` OSTs, written by rank 0.

    With one OST the stripe is 64 MiB, so every test extent is one
    chunk; with more, stripes are 1 MiB and offset ``k * MIB`` lands on
    OST ``k``.
    """

    def __init__(self, count: int, rpc_size: int = 4 * MIB, **overrides) -> None:
        overrides.setdefault("client_op_overhead", 0.0)
        self.fs = LustreFilesystem(
            LustreConfig(
                ost_count=count,
                default_stripe_size=64 * MIB if count == 1 else MIB,
                default_stripe_count=count,
                rpc_size=rpc_size,
                costs=costs(**overrides),
            )
        )
        self.inode, _ = self.fs.open("/lustre/ost-test", 0.0)

    def transfer(self, offset: int, length: int, arrival: float) -> float:
        return self.fs.io(self.inode, 0, "write", offset, length, arrival).completion


class TestOstArray:
    def test_requires_positive_count(self):
        with pytest.raises(ValueError):
            OstArray(0)

    def test_sequential_transfer_time(self):
        osts = Osts(1)
        # First access pays the seek penalty (no prior position).
        done = osts.transfer(offset=0, length=MIB, arrival=0.0)
        assert done == pytest.approx(1e-3 + 0.01 + 5e-3)

    def test_contiguous_access_skips_seek(self):
        osts = Osts(1)
        first = osts.transfer(0, MIB, 0.0)
        second = osts.transfer(MIB, MIB, first)
        assert second - first == pytest.approx(1e-3 + 0.01)

    def test_noncontiguous_access_pays_seek(self):
        osts = Osts(1)
        first = osts.transfer(0, MIB, 0.0)
        second = osts.transfer(10 * MIB, MIB, first)
        assert second - first == pytest.approx(1e-3 + 0.01 + 5e-3)

    def test_rpc_count_scales_latency(self):
        osts = Osts(1, rpc_size=MIB)
        done = osts.transfer(0, 8 * MIB, 0.0)
        # 8 RPCs of latency plus streaming plus one seek.
        assert done == pytest.approx(8e-3 + 0.08 + 5e-3)

    def test_fifo_queueing(self):
        osts = Osts(1)
        first = osts.transfer(0, MIB, 0.0)
        # Second request arrives while the first is in service.
        second = osts.transfer(MIB, MIB, 0.0)
        assert second > first

    def test_parallel_osts_do_not_queue_each_other(self):
        osts = Osts(2)
        first = osts.transfer(0, MIB, 0.0)
        second = osts.transfer(MIB, MIB, 0.0)
        assert first == pytest.approx(second)

    def test_zero_length_costs_one_rpc(self):
        # A zero-length op moves no data and sends no RPC, but it is not
        # free: it pays the client-side overhead.
        osts = Osts(1, client_op_overhead=ServerCosts().client_op_overhead)
        done = osts.transfer(0, 0, 0.0)
        assert done > 0

    def test_charge_occupies_server(self):
        osts = Osts(1)
        done = osts.fs.osts.servers[0].serve(0.0, 0.5)
        assert done == pytest.approx(0.5)
        after = osts.transfer(0, MIB, 0.0)
        assert after > 0.5

    def test_utilization_tracks_busy_time(self):
        osts = Osts(2)
        osts.transfer(0, MIB, 0.0)
        busy = osts.fs.osts.utilization()
        assert busy[0] > 0
        assert busy[1] == 0


class TestMetadataServer:
    def test_serializes_requests(self):
        mds = MetadataServer(costs())
        first = mds.metadata_op(0.0)
        second = mds.metadata_op(0.0)
        assert first == pytest.approx(2e-3)
        assert second == pytest.approx(4e-3)

    def test_weight_scales_service(self):
        mds = MetadataServer(costs())
        done = mds.metadata_op(0.0, weight=2.0)
        assert done == pytest.approx(4e-3)

    def test_counters(self):
        mds = MetadataServer(costs())
        mds.metadata_op(0.0)
        mds.metadata_op(1.0)
        assert mds.requests == 2
        assert mds.busy_time == pytest.approx(4e-3)
