"""Lustre substrate: striping layout, extent locks, server cost models.

This package owns the state — namespace, layouts, lock tables, OST and
MDS queues — and prices metadata operations.  Reads and writes are
priced by the simulator's fused data path
(:func:`repro.iosim.datapath.execute_run`), which splits each op into
stripe chunks, takes the extent locks and queues the chunks on the
OSTs; :meth:`LustreFilesystem.io` is a run of one over it.
"""

from repro.lustre.filesystem import Inode, IoResult, LustreConfig, LustreFilesystem
from repro.lustre.layout import StripeLayout
from repro.lustre.locks import ExtentLockManager, LockStats
from repro.lustre.ost import MetadataServer, OstArray, ServerCosts

__all__ = [
    "ExtentLockManager",
    "Inode",
    "IoResult",
    "LockStats",
    "LustreConfig",
    "LustreFilesystem",
    "MetadataServer",
    "OstArray",
    "ServerCosts",
    "StripeLayout",
]
