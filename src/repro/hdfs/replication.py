"""Replication manager: restoring under-replicated blocks.

"File blocks are distributed across the local disks of the nodes and
can be replicated, in order to implement fault tolerance" (§III-A).
Real HDFS re-replicates when a DataNode dies; the paper's experiments
ran replication 1 (nothing to restore), but the fault-tolerance tests
and the dynamic-cluster extension need the full mechanism: a periodic
scan that copies under-replicated blocks from a surviving replica to a
fresh target.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.hdfs.blocks import Block
from repro.hdfs.namenode import NameNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Process

__all__ = ["ReplicationManager"]


class ReplicationManager:
    """Periodic under-replication repair bound to one NameNode."""

    def __init__(self, namenode: NameNode, scan_interval_s: float = 10.0):
        if scan_interval_s <= 0:
            raise ValueError("scan_interval_s must be positive")
        self.namenode = namenode
        self.env = namenode.env
        self.scan_interval_s = scan_interval_s
        self.blocks_repaired = 0
        self.blocks_lost = 0
        self._proc: Optional["Process"] = None

    def start(self) -> "Process":
        """Begin the periodic scan loop."""
        if self._proc is None or not self._proc.is_alive:
            self._proc = self.env.process(self._scan_loop(), name="replication-manager")
        return self._proc

    def under_replicated(self) -> list[Block]:
        """Blocks with fewer live replicas than their file requests."""
        out = []
        for path in self.namenode.list_files():
            meta = self.namenode.file_meta(path)
            for block in meta.blocks:
                if 0 < len(block.locations) < meta.replication:
                    out.append(block)
        return out

    def lost_blocks(self) -> list[Block]:
        """Blocks with no live replica at all (unrecoverable)."""
        out = []
        for path in self.namenode.list_files():
            for block in self.namenode.file_meta(path).blocks:
                if not block.locations:
                    out.append(block)
        return out

    def _choose_target(self, block: Block) -> Optional[int]:
        """A live DataNode not already holding the block, fewest blocks
        first (the balancer-ish placement real HDFS approximates)."""
        candidates = [
            nid for nid in self.namenode.datanode_ids if nid not in block.locations
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda nid: (self.namenode.datanode(nid).block_count, nid))

    def repair_block(self, block: Block) -> Generator:
        """Process: copy one block from a surviving replica to a target."""
        if not block.locations:
            self.blocks_lost += 1
            return False
        target_id = self._choose_target(block)
        if target_id is None:
            return False
        src = self.namenode.datanode(block.locations[0])
        dst = self.namenode.datanode(target_id)
        payload = src.payload(block.block_id)
        # Stream: source disk read -> network -> target disk write.
        yield from src.node.disk.read(block.size)
        yield from src.network.transfer(src.node, dst.node, block.size)
        yield from dst.node.disk.write(block.size)
        dst.store_block(block, payload)
        self.namenode.block_map.add(block, target_id)
        self.blocks_repaired += 1
        return True

    def repair_all(self) -> Generator:
        """Process: repair every currently under-replicated block."""
        for block in self.under_replicated():
            yield from self.repair_block(block)

    def _scan_loop(self) -> Generator:
        while True:
            yield self.env.timeout(self.scan_interval_s)
            yield from self.repair_all()
