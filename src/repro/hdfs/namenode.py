"""The NameNode: namespace, placement, and replication management.

"The master process (NameNode) manages the global name space and controls
the operations on files ... HDFS can decide to change the blocks location
in order to favour local accesses" (§III-A). The paper ran "1 JobTracker
and 2 Namenodes ... on top of a Power6 JS22 blade" (§IV-A); metadata
operations are therefore charged a small RPC latency against the master.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Sequence

from repro.hdfs.blocks import Block, BlockMap, FileMeta

if TYPE_CHECKING:  # pragma: no cover
    from repro.hdfs.datanode import DataNode
    from repro.sim.engine import Environment
    from repro.sim.rng import RandomStreams

__all__ = ["NameNode", "HDFSError"]

RPC_LATENCY_S = 0.001
"""Metadata RPC round-trip to the NameNode (GigE + handler)."""


class HDFSError(RuntimeError):
    """Namespace or placement failure."""


class NameNode:
    """Metadata master.

    Parameters
    ----------
    env: simulation environment.
    block_size: default file block size (paper: 64 MB).
    replication: default replica count (paper: 1).
    rng: random streams for placement tie-breaking.
    """

    def __init__(
        self,
        env: "Environment",
        block_size: int,
        replication: int = 1,
        rng: Optional["RandomStreams"] = None,
    ):
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.env = env
        self.block_size = block_size
        self.replication = replication
        self.rng = rng
        self._namespace: dict[str, FileMeta] = {}
        self._datanodes: dict[int, "DataNode"] = {}
        self.block_map = BlockMap()
        self._next_block_id = 0

    # -- cluster membership ----------------------------------------------------
    def register_datanode(self, datanode: "DataNode") -> None:
        if datanode.node_id in self._datanodes:
            raise HDFSError(f"datanode {datanode.node_id} already registered")
        self._datanodes[datanode.node_id] = datanode

    def datanode(self, node_id: int) -> "DataNode":
        try:
            return self._datanodes[node_id]
        except KeyError:
            raise HDFSError(f"no datanode on node {node_id}") from None

    @property
    def datanode_ids(self) -> list[int]:
        return sorted(self._datanodes)

    def handle_datanode_failure(self, node_id: int) -> list[Block]:
        """Drop a dead DataNode's replicas; returns now-degraded blocks.

        With replication 1 (the paper's setting) the affected blocks are
        *lost*; the JobTracker layer decides whether tasks needing them
        must fail or can be re-ingested.
        """
        self._datanodes.pop(node_id, None)
        return self.block_map.remove_node(node_id)

    # -- namespace ----------------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._namespace

    def file_meta(self, path: str) -> FileMeta:
        try:
            return self._namespace[path]
        except KeyError:
            raise HDFSError(f"no such file: {path}") from None

    def delete(self, path: str) -> None:
        meta = self._namespace.pop(path, None)
        if meta is None:
            raise HDFSError(f"no such file: {path}")
        for block in meta.blocks:
            for node_id in list(block.locations):
                dn = self._datanodes.get(node_id)
                if dn is not None:
                    dn.drop_block(block.block_id)

    def list_files(self) -> list[str]:
        return sorted(self._namespace)

    # -- placement ----------------------------------------------------------------
    def _choose_targets(
        self, ids: list[int], preferred: Optional[int], count: int, start: int
    ) -> list[int]:
        """Pick ``count`` distinct DataNodes for one block's replicas.

        First replica goes to the preferred (writer-local) node when it
        hosts a DataNode — the HDFS write-path rule; the rest walk the
        sorted ``ids`` from ``start`` (the block index plus its seeded
        rotation), so ingested files spread evenly, which is what a real
        multi-writer ingest converges to.
        """
        targets: list[int] = []
        if preferred is not None and preferred in self._datanodes:
            targets.append(preferred)
        i = start % len(ids)
        while len(targets) < count:
            cand = ids[i % len(ids)]
            if cand not in targets:
                targets.append(cand)
            i += 1
        return targets

    def allocate_file(
        self,
        path: str,
        size: int,
        preferred_node: Optional[int] = None,
        replication: Optional[int] = None,
        block_size: Optional[int] = None,
        placement: str = "roundrobin",
    ) -> FileMeta:
        """Create namespace entry + block allocations for a new file.

        Pure metadata (no simulated time); the client charges transfer
        costs. Raises if the path exists.

        ``placement`` selects the first-replica policy:

        - ``"roundrobin"`` — block *i* rotates across DataNodes (what a
          single external writer produces).
        - ``"contiguous"`` — contiguous runs of blocks land on the same
          DataNode, as if each node generated and locally wrote its own
          shard of the dataset. This is how the paper's 120 GB working
          set sat in HDFS: the measured DataNode→TaskTracker traffic
          went "using the loopback interface" (§IV-A), i.e. reads were
          node-local.

        Every block's placement rotation comes from one vector draw on
        the ``hdfs-placement`` stream: for bounded integers numpy's
        vector draw yields exactly the values of that many scalar draws,
        so batching changes no placement.
        """
        if self.exists(path):
            raise HDFSError(f"file exists: {path}")
        if size < 0:
            raise ValueError("size must be non-negative")
        if placement not in ("roundrobin", "contiguous"):
            raise ValueError(f"unknown placement policy {placement!r}")
        bs = block_size or self.block_size
        repl = replication or self.replication
        meta = FileMeta(path=path, size=size, block_size=bs, replication=repl)
        nblocks = -(-size // bs) if size else 0
        ids = self.datanode_ids
        rotations: list[int] = [0] * nblocks
        if nblocks:
            if not ids:
                raise HDFSError("no datanodes registered")
            if repl > len(ids):
                raise HDFSError(f"replication {repl} exceeds datanode count {len(ids)}")
            if self.rng is not None:
                rotations = self.rng.stream("hdfs-placement").integers(
                    0, len(ids), size=nblocks).tolist()
        remaining = size
        index = 0
        while remaining > 0:
            bsize = min(bs, remaining)
            block = Block(self._next_block_id, path, index, bsize)
            self._next_block_id += 1
            if placement == "contiguous":
                preferred = ids[index * len(ids) // nblocks]
            else:
                preferred = preferred_node
            targets = self._choose_targets(ids, preferred, repl, index + rotations[index])
            for node_id in targets:
                self.block_map.add(block, node_id)
                self._datanodes[node_id].store_block(block)
            meta.blocks.append(block)
            remaining -= bsize
            index += 1
        self._namespace[path] = meta
        return meta

    def locate(self, path: str, offset: int = 0, length: Optional[int] = None) -> list[Block]:
        """Blocks (with locations) overlapping a byte range."""
        meta = self.file_meta(path)
        if length is None:
            length = meta.size - offset
        return meta.blocks_for_range(offset, length)

    def rpc(self) -> Generator:
        """Process: charge one metadata RPC round trip."""
        yield self.env.timeout(RPC_LATENCY_S)
