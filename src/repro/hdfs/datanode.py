"""DataNode: block storage and the block-serving path.

"Each slave process (DataNode) implements the operations on those blocks
stored in its local disk, following the NameNode indications" (§III-A).
A read crosses the DataNode's disk, then either the node's loopback
interface (reader on the same blade — the common, locality-scheduled
case the paper measured) or the cluster network (remote reader).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.sim.resources import Resource
from repro.hdfs.blocks import Block

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.network import Network
    from repro.cluster.node import Node

__all__ = ["DataNode"]


class DataNode:
    """Block server bound to one cluster node.

    Parameters
    ----------
    node: the hosting blade (provides disk + loopback).
    network: cluster interconnect for remote readers.
    max_streams: concurrent block-serving streams (DataNode xceiver
        limit; Hadoop 0.19 defaulted to a small number).
    """

    def __init__(self, node: "Node", network: "Network", max_streams: int = 8):
        self.node = node
        self.env = node.env
        self.network = network
        self._streams = Resource(self.env, capacity=max_streams)
        self._blocks: dict[int, Block] = {}
        self._payloads: dict[int, bytes] = {}
        self.bytes_served = 0.0
        self.reads_local = 0
        self.reads_remote = 0

    @property
    def node_id(self) -> int:
        return self.node.node_id

    # -- storage -----------------------------------------------------------------
    def store_block(self, block: Block, payload: Optional[bytes] = None) -> None:
        """Accept a replica (metadata; payload optional, for functional tests)."""
        self._blocks[block.block_id] = block
        if payload is not None:
            if len(payload) != block.size:
                raise ValueError(
                    f"payload size {len(payload)} != block size {block.size}"
                )
            self._payloads[block.block_id] = payload

    def drop_block(self, block_id: int) -> None:
        self._blocks.pop(block_id, None)
        self._payloads.pop(block_id, None)

    def has_block(self, block_id: int) -> bool:
        return block_id in self._blocks

    def payload(self, block_id: int) -> Optional[bytes]:
        return self._payloads.get(block_id)

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    # -- serving -----------------------------------------------------------------
    def serve_block(self, block: Block, dst: "Node", length: Optional[int] = None) -> Generator:
        """Process: stream ``block`` (or its first ``length`` bytes) to ``dst``.

        Returns the payload bytes when the block carries one, else None.

        The hot serving chain — xceiver slot, disk read, loopback/NIC
        transfer — is the per-record path the paper measured, so the
        common case (a free stream slot) claims the slot synchronously;
        the disk and network stages then run as single timeout events when
        their channels are idle. The stages stay individually contended:
        collapsing disk+network into one composite event would hide the
        mid-transfer arrival of other readers (see docs/PERFORMANCE.md).
        """
        if block.block_id not in self._blocks:
            raise KeyError(f"datanode {self.node_id} does not hold block {block.block_id}")
        nbytes = block.size if length is None else min(length, block.size)
        streams = self._streams
        claim = streams.try_claim()
        req = None
        try:
            if claim is None:
                req = streams.request()
                yield req
            yield from self.node.disk.read(nbytes)
            yield from self.network.transfer(self.node, dst, nbytes)
        finally:
            if claim is not None:
                streams.release_claim(claim)
            elif req is not None:
                streams.release(req)
        self.bytes_served += nbytes
        if dst.node_id == self.node_id:
            self.reads_local += 1
        else:
            self.reads_remote += 1
        data = self._payloads.get(block.block_id)
        if data is not None and length is not None:
            data = data[:length]
        return data
