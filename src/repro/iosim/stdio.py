"""Per-rank STDIO layer: buffered ``fopen``/``fread``/``fwrite``.

The STDIO module matters to the diagnosis pipeline mainly as a signal
("the application is using buffered stdio instead of parallel I/O"), so
the model is simple: a per-stream write-back buffer that coalesces
small sequential accesses into buffer-size filesystem operations, which
is what libc actually buys you.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.iosim.job import SimulatedJob
from repro.lustre.filesystem import Inode
from repro.util.errors import FilesystemError
from repro.util.units import KIB


@dataclass
class _Stream:
    inode: Inode
    position: int = 0
    buffer_start: int = 0
    buffered: int = 0
    buffer_size: int = 4 * KIB
    dirty: bool = field(default=False)


class StdioLayer:
    """Buffered stdio streams for one rank."""

    def __init__(self, job: SimulatedJob, rank: int, buffer_size: int = 4 * KIB) -> None:
        self.job = job
        self.rank = rank
        self._buffer_size = buffer_size
        self._streams: dict[int, _Stream] = {}
        self._next_handle = 1

    def fopen(self, path: str, create: bool = True) -> int:
        """Open a buffered stream; returns the stream handle."""
        start = self.job.now(self.rank)
        inode, completion = self.job.fs.open(path, start, create=create)
        self.job.advance(self.rank, completion)
        self.job.runtime.open("STDIO", inode, self.rank, start, completion)
        handle = self._next_handle
        self._next_handle += 1
        self._streams[handle] = _Stream(inode=inode, buffer_size=self._buffer_size)
        return handle

    def fwrite(self, handle: int, length: int) -> int:
        """Buffered write at the stream cursor."""
        stream = self._lookup(handle)
        start = self.job.now(self.rank)
        appending = stream.position == stream.buffer_start + stream.buffered
        if stream.dirty and not appending:
            self._flush(stream)
        if not stream.dirty:
            stream.buffer_start = stream.position
            stream.buffered = 0
            stream.dirty = True
        stream.buffered += length
        self.job.runtime.stdio_io(
            stream.inode, self.rank, "write", stream.position, length,
            start, self.job.now(self.rank),
        )
        stream.position += length
        if stream.buffered >= stream.buffer_size:
            self._flush(stream)
        return length

    def fread(self, handle: int, length: int) -> int:
        """Read at the stream cursor (readahead of one buffer)."""
        stream = self._lookup(handle)
        self._flush(stream)
        start = self.job.now(self.rank)
        span = max(length, stream.buffer_size)
        span = min(span, max(stream.inode.size - stream.position, 0))
        if span:
            result = self.job.fs.io(
                stream.inode, self.rank, "read", stream.position, span, start
            )
            self.job.advance(self.rank, result.completion)
        self.job.runtime.stdio_io(
            stream.inode, self.rank, "read", stream.position, length,
            start, self.job.now(self.rank),
        )
        stream.position += length
        return length

    def fseek(self, handle: int, offset: int) -> None:
        """Reposition the stream (flushes the write buffer)."""
        stream = self._lookup(handle)
        self._flush(stream)
        start = self.job.now(self.rank)
        completion = start + self.job.fs.config.costs.client_op_overhead
        self.job.advance(self.rank, completion)
        self.job.runtime.meta(
            "STDIO", stream.inode, self.rank, "seeks", start, completion
        )
        stream.position = offset

    def fflush(self, handle: int) -> None:
        """Flush the stream's write buffer to the filesystem."""
        stream = self._lookup(handle)
        start = self.job.now(self.rank)
        self._flush(stream)
        self.job.runtime.meta(
            "STDIO", stream.inode, self.rank, "flushes", start, self.job.now(self.rank)
        )

    def fclose(self, handle: int) -> None:
        """Flush and close the stream."""
        stream = self._lookup(handle)
        self._flush(stream)
        start = self.job.now(self.rank)
        completion = self.job.fs.close(stream.inode, start)
        self.job.advance(self.rank, completion)
        self.job.runtime.close("STDIO", stream.inode, self.rank, start, completion)
        del self._streams[handle]

    def _flush(self, stream: _Stream) -> None:
        if not stream.dirty or stream.buffered == 0:
            stream.dirty = False
            return
        start = self.job.now(self.rank)
        result = self.job.fs.io(
            stream.inode, self.rank, "write", stream.buffer_start, stream.buffered, start
        )
        self.job.advance(self.rank, result.completion)
        stream.dirty = False
        stream.buffered = 0

    def _lookup(self, handle: int) -> _Stream:
        try:
            return self._streams[handle]
        except KeyError:
            raise FilesystemError(f"bad stream handle {handle}") from None
