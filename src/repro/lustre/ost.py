"""Server-side cost models: OSTs (data) and the MDS (metadata).

Each server is a single FIFO resource with a clock: a request arriving
at time ``t`` starts at ``max(t, available_at)``, occupies the server
for its service time, and completes then.  That one mechanism produces
the emergent behaviours the paper's injected issues rely on: shared
OSTs serialize competing ranks, a metadata storm queues on the MDS, and
per-rank completion-time variance grows with imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.units import MIB


@dataclass
class ServerCosts:
    """Tunable latencies/bandwidths for the simulated servers.

    Defaults are order-of-magnitude realistic for a mid-size Lustre
    deployment (HDD-backed OSTs, ~5 GB/s aggregate over 8 OSTs); exact
    values do not matter for the reproduction — only their ratios do
    (per-RPC latency vs. streaming bandwidth vs. seek penalty).
    """

    ost_bandwidth: float = 600.0 * MIB  # bytes per second, per OST
    rpc_latency: float = 200e-6  # per RPC round trip
    seek_penalty: float = 800e-6  # non-contiguous access on an OST
    lock_revocation: float = 1.5e-3  # LDLM callback round trip
    mds_op_latency: float = 350e-6  # per metadata operation
    client_op_overhead: float = 15e-6  # syscall + client-side bookkeeping
    mem_copy_penalty: float = 5e-6  # unaligned buffer copy, per op


@dataclass
class Server:
    """One FIFO server; ``last_end_offset`` is where each file's last
    access on it ended (the data path's seek test)."""

    available_at: float = 0.0
    busy_time: float = 0.0
    requests: int = 0
    last_end_offset: dict[int, int] = field(default_factory=dict)

    def serve(self, arrival: float, service: float) -> float:
        """Run one request; return its completion time."""
        start = max(arrival, self.available_at)
        self.available_at = start + service
        self.busy_time += service
        self.requests += 1
        return self.available_at


class OstArray:
    """The object storage targets of one filesystem."""

    def __init__(self, count: int) -> None:
        if count <= 0:
            raise ValueError(f"need at least one OST, got {count}")
        #: One FIFO per OST.  The data path (:mod:`repro.iosim.datapath`)
        #: prices each chunk and queues it with :meth:`Server.serve`.
        self.servers = tuple(Server() for _ in range(count))

    @property
    def count(self) -> int:
        return len(self.servers)

    def utilization(self) -> list[float]:
        """Busy time per OST so far (for benchmarks and tests)."""
        return [server.busy_time for server in self.servers]


class MetadataServer:
    """The single MDS handling opens, stats, creates and unlinks."""

    def __init__(self, costs: ServerCosts) -> None:
        self._costs = costs
        self._server = Server()

    def metadata_op(self, arrival: float, weight: float = 1.0) -> float:
        """Serve one metadata op; ``weight`` scales heavier ops (create)."""
        return self._server.serve(arrival, self._costs.mds_op_latency * weight)

    @property
    def requests(self) -> int:
        return self._server.requests

    @property
    def busy_time(self) -> float:
        return self._server.busy_time
