"""The RecordReader: split → records, through the slow delivery path.

This class models the paper's central measurement: "the next method in
the application RecordReader class, what is used by the Hadoop runtime
to send data to the mappers, was spending several seconds to send the
data from the DataNode to the TaskTracker through the loopback
interface, at a much slower rate than the actual maximum rate that can
be delivered by such a virtual network interface, even in the case that
all the data was resident in the OS buffer cache" (§IV-A).

Each ``next()`` therefore charges, in series:

1. the DataNode block-serving path (disk + loopback/network transfer,
   both contended resources), and
2. the Hadoop software path — deserialization, buffer copies, key/value
   construction — at :attr:`CalibrationProfile.recordreader_stream_bw`
   plus a fixed per-record overhead.

Stage 2 is the dominant term (10 MB/s vs. 70/120 MB/s), which is
precisely the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro.hadoop.split import InputSplit

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.hdfs.client import HDFSClient
    from repro.perf.calibration import CalibrationProfile
    from repro.sim.trace import Tracer

__all__ = ["RecordReader", "RecordBatch"]


@dataclass
class RecordBatch:
    """One record delivered to a mapper."""

    index: int
    nbytes: int
    remote_bytes: int
    payload: Optional[bytes] = None
    offset: int = 0
    """Absolute byte offset of the record within the input file."""


class RecordReader:
    """Iterates the records of one split on behalf of a mapper.

    Parameters
    ----------
    client: HDFS client for block reads.
    split: the split to read.
    node: the TaskTracker's node (destination of every transfer).
    calib: calibration profile (record size, delivery rates).
    tracer: optional tracer.
    """

    def __init__(
        self,
        client: "HDFSClient",
        split: InputSplit,
        node: "Node",
        calib: "CalibrationProfile",
        tracer: Optional["Tracer"] = None,
    ):
        self.client = client
        self.split = split
        self.node = node
        self.calib = calib
        self.tracer = tracer
        self.env = node.env
        self.records_read = 0
        self.bytes_read = 0
        self.remote_bytes = 0
        # Pre-sampled tracing flag: delivery spans cost nothing unless
        # the tracer is present *and* enabled.
        self._tracing = tracer is not None and tracer.enabled

    def record_ranges(self) -> list[tuple[int, int]]:
        """(offset, length) of each record in the split."""
        ranges = []
        off = self.split.offset
        end = self.split.end
        while off < end:
            length = min(self.calib.record_bytes, end - off)
            ranges.append((off, length))
            off += length
        return ranges

    @property
    def num_records(self) -> int:
        return len(self.record_ranges())

    def read_record(self, offset: int, length: int, index: int) -> Generator:
        """Process: deliver one record; returns a :class:`RecordBatch`."""
        span = (
            self.tracer.span(
                "recordreader",
                "deliver",
                track=f"node{self.node.node_id}/recordreader",
                split=self.split.split_id,
                index=index,
            )
            if self._tracing
            else None
        )
        meta = self.client.namenode.file_meta(self.split.path)
        blocks = meta.blocks_for_range(offset, length)
        remote = 0
        parts: list[bytes] = []
        have_payload = True
        for block in blocks:
            b_start = meta.block_offset(block.index)
            lo = max(offset, b_start)
            hi = min(offset + length, b_start + block.size)
            want = hi - lo
            if want <= 0:
                continue
            replica = self.client.choose_replica(block, self.node)
            if replica != self.node.node_id:
                remote += want
            dn = self.client.namenode.datanode(replica)
            data = yield from dn.serve_block(block, self.node, length=want)
            if data is None:
                have_payload = False
            else:
                # Functional path: slice the exact sub-range of the block.
                start_in_block = lo - b_start
                full = dn.payload(block.block_id)
                parts.append(full[start_in_block : start_in_block + want])
        # Hadoop software path: the slow stage the paper measured.
        software_s = (
            self.calib.recordreader_per_record_s
            + length / self.calib.recordreader_stream_bw
        )
        yield self.env.timeout(software_s)
        self.records_read += 1
        self.bytes_read += length
        self.remote_bytes += remote
        if span is not None:
            span.end(nbytes=length, remote=remote)
        if self.tracer is not None:
            self.tracer.emit(
                "recordreader",
                "record",
                split=self.split.split_id,
                index=index,
                nbytes=length,
                remote=remote,
            )
        payload = b"".join(parts) if have_payload and parts else None
        return RecordBatch(
            index=index, nbytes=length, remote_bytes=remote, payload=payload, offset=offset
        )
