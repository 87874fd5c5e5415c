"""PPE, SPE, and the Cell socket that binds them.

The compute elements are deliberately thin: an SPE is a serialized
execution slot plus a local store; a PPE is a serialized slot with a
memcpy channel. All offload *policy* (chunking, double buffering,
MapReduce-on-Cell semantics) lives in :mod:`repro.cell.runtime`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.sim.engine import Environment
from repro.sim.pipes import Pipe
from repro.sim.resources import Resource

from repro.cell.dma import DMAEngine
from repro.cell.localstore import LocalStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf.calibration import CalibrationProfile

__all__ = ["SPE", "PPE", "CellProcessor"]


class SPE:
    """One Synergistic Processing Element.

    Owns its 256 KB local store; shares the socket's DMA engine. Compute
    is expressed as timed occupancy of the execution slot.
    """

    def __init__(self, env: Environment, spe_id: int, dma: DMAEngine, calib: "CalibrationProfile"):
        self.env = env
        self.spe_id = spe_id
        self.dma = dma
        self.calib = calib
        self.local_store = LocalStore(size_bytes=calib.local_store_bytes)
        self._slot = Resource(env, capacity=1)
        self.busy_s = 0.0

    def compute(self, seconds: float) -> Generator:
        """Process: occupy the SPE for ``seconds`` of kernel time."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        slot = self._slot
        claim = slot.try_claim()  # idle slot: skip the grant event
        req = None
        try:
            if claim is None:
                req = slot.request()
                yield req
            yield self.env.timeout(seconds)
        finally:
            if claim is not None:
                slot.release_claim(claim)
            elif req is not None:
                slot.release(req)
        self.busy_s += seconds

    @property
    def busy(self) -> bool:
        return self._slot.count > 0


class PPE:
    """The Power Processing Element: a general-purpose core.

    Runs the "Java" kernels and the framework-side copies of the
    MapReduce-for-Cell runtime.
    """

    def __init__(self, env: Environment, calib: "CalibrationProfile"):
        self.env = env
        self.calib = calib
        self._slot = Resource(env, capacity=1)
        # Software memcpy through the PPE cache hierarchy.
        self.memcpy = Pipe(env, calib.ppe_memcpy_bw, name="ppe/memcpy")
        self.busy_s = 0.0

    def compute(self, seconds: float) -> Generator:
        """Process: occupy the PPE for ``seconds``."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        slot = self._slot
        claim = slot.try_claim()
        req = None
        try:
            if claim is None:
                req = slot.request()
                yield req
            yield self.env.timeout(seconds)
        finally:
            if claim is not None:
                slot.release_claim(claim)
            elif req is not None:
                slot.release(req)
        self.busy_s += seconds

    def copy(self, nbytes: float) -> Generator:
        """Process: PPE-side buffer copy of ``nbytes``."""
        slot = self._slot
        claim = slot.try_claim()
        req = None
        try:
            if claim is None:
                req = slot.request()
                yield req
            yield from self.memcpy.transfer(nbytes)
        finally:
            if claim is not None:
                slot.release_claim(claim)
            elif req is not None:
                slot.release(req)
        self.busy_s += nbytes / self.calib.ppe_memcpy_bw


class CellProcessor:
    """One Cell BE socket: 1 PPE + 8 SPEs + shared DMA engine."""

    def __init__(self, env: Environment, socket_id: int, calib: "CalibrationProfile"):
        self.env = env
        self.socket_id = socket_id
        self.calib = calib
        self.dma = DMAEngine(env, calib)
        self.ppe = PPE(env, calib)
        self.spes = [SPE(env, i, self.dma, calib) for i in range(calib.spes_per_cell)]

    @property
    def spe_count(self) -> int:
        return len(self.spes)

    def total_spe_busy_s(self) -> float:
        """Aggregate SPE kernel-active seconds (energy accounting)."""
        return sum(s.busy_s for s in self.spes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CellProcessor #{self.socket_id} spes={self.spe_count}>"
