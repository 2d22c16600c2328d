"""I/O simulator: rank clocks, POSIX/STDIO/MPI-IO layers, Darshan runtime.

Reads and writes reach the filesystem through one fused data path
(:mod:`repro.iosim.datapath`) that executes *runs*: phases of POSIX
reads or writes, or of independent or collective MPI-IO calls, in
issue order, priced on Lustre, charged to the rank clocks and folded
into Darshan counters and DXT in one frame.  A workload submits a
whole phase as one run with :meth:`SimulatedJob.posix_run`,
:meth:`MpiIoLayer.independent_run` or :meth:`MpiIoLayer.collective_run`;
the per-call POSIX and MPI-IO methods and the STDIO buffer flushes are
runs too.
"""

from repro.iosim.job import SimulatedJob
from repro.iosim.mpiio import Contribution, MpiIoLayer
from repro.iosim.posix import PosixLayer
from repro.iosim.runtime import DarshanRuntime
from repro.iosim.stdio import StdioLayer

__all__ = [
    "Contribution",
    "DarshanRuntime",
    "MpiIoLayer",
    "PosixLayer",
    "SimulatedJob",
    "StdioLayer",
]
