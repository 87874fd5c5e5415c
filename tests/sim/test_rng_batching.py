"""Batched random draws are the scalar draws they replace.

Two model hot spots take their random numbers in batches: HDFS
placement takes every block's rotation from one vector ``integers``
call, and each TaskTracker serves heartbeat jitter from a buffer of
``random(64)`` unit draws. Both are byte-identical to the per-use scalar
calls only because of how the installed numpy generates these
variates; these guards pin that, over several seeds, so a numpy upgrade
that breaks it fails here instead of silently moving every golden.
"""

import numpy as np
import pytest

from repro.core.simexec import SimulatedCluster
from repro.hadoop.tasktracker import JITTER_BATCH
from repro.perf import PAPER_CALIBRATION
from repro.perf.calibration import MB
from repro.cluster import Network, Node, QS22_SPEC
from repro.hdfs import DataNode, NameNode
from repro.sim import Environment
from repro.sim.rng import RandomStreams

SEEDS = (0, 1, 7, 1234, 2**31 - 1)
INTERVAL = PAPER_CALIBRATION.heartbeat_interval_s


def _buffered_uniform(gen, n_draws, bounds):
    """``lo + (hi - lo) * u`` over unit draws fetched 64 at a time."""
    out, units = [], []
    for k in range(n_draws):
        if not units:
            units = gen.random(JITTER_BATCH).tolist()
        lo, hi = bounds[k % len(bounds)]
        out.append(lo + (hi - lo) * units.pop(0))
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bounds", [
    [(0, INTERVAL)],
    [(0.95, 1.05)],
    # The heartbeat loop's real mix: a start phase, then rests, with an
    # occasional re-jitter after a park.
    [(0, INTERVAL), (0.95, 1.05), (0.95, 1.05), (0, INTERVAL), (0.95, 1.05)],
])
def test_buffered_uniform_equals_scalar_uniform(seed, bounds):
    n = 3 * JITTER_BATCH + 5  # crosses several refills
    scalar_gen = np.random.default_rng(seed)
    scalar = [float(scalar_gen.uniform(*bounds[k % len(bounds)])) for k in range(n)]
    buffered = _buffered_uniform(np.random.default_rng(seed), n, bounds)
    assert buffered == scalar  # exact float equality, not approx


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64, 129, 4096])
@pytest.mark.parametrize("k", [1, 2, 7, 33])
def test_vector_integers_equal_scalar_integers(seed, n, k):
    scalar_gen = np.random.default_rng(seed)
    scalar = [int(scalar_gen.integers(0, n)) for _ in range(k)]
    vector = np.random.default_rng(seed).integers(0, n, size=k).tolist()
    assert vector == scalar
    # ...and the generators end in the same state, so later draws on
    # the stream agree too.
    assert scalar_gen.bit_generator.state == (
        _advanced(seed, n, k).bit_generator.state)


def _advanced(seed, n, k):
    gen = np.random.default_rng(seed)
    gen.integers(0, n, size=k)
    return gen


@pytest.mark.parametrize("seed", [1, 1234])
def test_tracker_jitter_matches_scalar_stream(seed):
    sim = SimulatedCluster(3, seed=seed)
    tracker = sim.trackers[1]
    reference = RandomStreams(seed).stream(f"tt-jitter-{tracker.tracker_id}")
    for k in range(2 * JITTER_BATCH + 3):
        lo, hi = (0, INTERVAL) if k % 9 == 0 else (0.95, 1.05)
        assert tracker._jitter(lo, hi) == float(reference.uniform(lo, hi))


def _scalar_placement(stream, ids, nblocks, repl, placement, preferred):
    """Placement as computed with one scalar draw per block."""
    out = []
    for index in range(nblocks):
        first = ids[index * len(ids) // nblocks] if placement == "contiguous" else preferred
        targets = [first] if first is not None else []
        i = (index + int(stream.integers(0, len(ids)))) % len(ids)
        while len(targets) < repl:
            if ids[i % len(ids)] not in targets:
                targets.append(ids[i % len(ids)])
            i += 1
        out.append(targets)
    return out


@pytest.mark.parametrize("seed", [1, 99])
@pytest.mark.parametrize("placement,preferred,repl", [
    ("roundrobin", None, 1),
    ("roundrobin", 3, 2),
    ("contiguous", None, 1),
    ("contiguous", None, 3),
])
def test_batched_placement_matches_scalar_draws(seed, placement, preferred, repl):
    env = Environment()
    net = Network(env, PAPER_CALIBRATION)
    nn = NameNode(env, block_size=64 * MB, rng=RandomStreams(seed))
    for i in range(5):
        node = Node(env, i + 1, QS22_SPEC, PAPER_CALIBRATION)
        net.attach(node)
        nn.register_datanode(DataNode(node, net))
    # One scalar stream across all files: each file's batch must leave
    # the stream where per-block draws would have.
    stream = RandomStreams(seed).stream("hdfs-placement")
    for n, size in enumerate((23 * 64 * MB - 5, 64 * MB, 17 * 64 * MB)):
        meta = nn.allocate_file(f"/f{n}", size, preferred_node=preferred,
                                replication=repl, placement=placement)
        assert len(meta.blocks) == -(-size // (64 * MB))
        assert [b.locations for b in meta.blocks] == _scalar_placement(
            stream, nn.datanode_ids, len(meta.blocks), repl, placement, preferred)
