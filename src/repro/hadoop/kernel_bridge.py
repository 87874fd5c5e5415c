"""The "JNI" boundary: map() invokes a backend-specific kernel.

"The implementation of the map() function invokes the routine to execute
the distribution of both work and data inside one node, and waits until
the parallel computation inside the node is finished" (§III-A). This
module is that routine: given a backend it routes each record (or sample
batch) to the PPE, a Power6 core, or one of the node's Cell sockets
through the appropriate offload runtime, and accounts kernel-busy time
for the energy model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

import repro.modelmode as modelmode
from repro.perf.calibration import Backend, CalibrationProfile
from repro.cell.runtime import CellMapReduceRuntime, DirectSPERuntime, OffloadRuntime

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["MapKernel"]


class MapKernel:
    """Per-task-attempt kernel executor.

    A fresh instance is created for every task attempt, so one-time
    startup costs (SPE context creation, JIT warm-up) are charged per
    attempt — exactly as the paper's per-task JNI invocation does.

    Parameters
    ----------
    node: the blade executing the task.
    slot: mapper slot index; slot *i* drives Cell socket *i* (the paper
        runs "1 Mapper ... in each of the two Cell processors").
    backend: kernel implementation to use.
    workload: ``"aes"``/``"pi"``/``"sort"``/``"empty"``.
    calib: calibration profile.
    """

    def __init__(
        self,
        node: "Node",
        slot: int,
        backend: Backend,
        workload: str,
        calib: CalibrationProfile,
        event_thin: Optional[bool] = None,
    ):
        self.node = node
        self.slot = slot
        self.backend = backend
        self.workload = workload
        self.calib = calib
        self.env = node.env
        self._started = False
        self._runtime: Optional[OffloadRuntime] = None
        # Model-protocol mode. A cluster-run kernel receives the
        # JobTracker's construction-time flag through the TaskContext,
        # so one simulation can never mix protocols even if the
        # repro.modelmode default flips mid-run; standalone construction
        # (raw single-node benches, unit tests) samples the default.
        self._thin = (not modelmode.REFERENCE_MODE) if event_thin is None else event_thin
        self.kernel_busy_s = 0.0

        if backend in (Backend.CELL_SPE_DIRECT, Backend.CELL_SPE_MAPREDUCE):
            if not node.cells:
                raise RuntimeError(
                    f"backend {backend.value} requires a Cell socket on {node.hostname}"
                )
            cell = node.cells[slot % len(node.cells)]
            cls = DirectSPERuntime if backend is Backend.CELL_SPE_DIRECT else CellMapReduceRuntime
            self._runtime = cls(
                cell,
                calib,
                startup_s=calib.kernel_startup_s(backend, workload),
                analytic_samples=self._thin,
            )
        elif backend is Backend.GPU_TESLA:
            if not node.gpus:
                raise RuntimeError(
                    f"backend {backend.value} requires a GPU on {node.hostname}"
                )
            from repro.gpu.runtime import GPUOffloadRuntime

            self._runtime = GPUOffloadRuntime(node.gpus[slot % len(node.gpus)])

    # -- internals ---------------------------------------------------------------
    def _java_startup_delay(self) -> float:
        """One-time JVM/JIT warm-up, folded into the first compute event."""
        if self._started:
            return 0.0
        self._started = True
        return self.calib.kernel_startup_s(self.backend, self.workload)

    def _record_busy(self, seconds: float) -> None:
        self.kernel_busy_s += seconds
        self.node.record_kernel_busy(seconds)

    def _wallclock_busy(self, result) -> float:
        """Convert an OffloadResult's busy metric to wall-clock device-
        active time: SPE busy is summed over 8 SPEs (divide), GPU busy
        is already single-device time."""
        if self.backend is Backend.GPU_TESLA:
            return result.spe_busy_s
        return result.spe_busy_s / self.calib.spes_per_cell

    # -- data-driven kernels --------------------------------------------------------
    def process_record(self, nbytes: int) -> Generator:
        """Process: run the streaming kernel over one record."""
        if self.backend is Backend.EMPTY or self.workload == "empty":
            return
        slow = self.node.speed_factor
        if self._runtime is not None:
            spe_bw = self.calib.aes_spe_bw / slow
            result = yield from self._runtime.offload_bytes(nbytes, spe_bw)
            self._record_busy(self._wallclock_busy(result))
            return
        # Java path: the mapper's own core streams through the kernel.
        # Startup (first record only) + stream time collapse into one
        # composite event.
        bw = self.calib.aes_backend_bw(self.backend)
        seconds = nbytes / bw * slow
        yield self.env.composite_timeout(self._java_startup_delay(), seconds)
        self._record_busy(seconds)

    # -- compute-driven kernels --------------------------------------------------------
    def run_samples(self, samples: float, lead_s: float = 0.0) -> Generator:
        """Process: run the Monte-Carlo kernel for ``samples`` samples.

        ``lead_s`` is a pure leading delay the caller wants folded into
        the kernel's first scheduled event (the task-launch cost — see
        ``hadoop.tasks.run_map_task``); nothing observable happens
        between it and the kernel wave, so merging it costs one event
        less per attempt while keeping the same total delay.
        """
        if self.backend is Backend.EMPTY:
            if lead_s > 0:
                yield self.env.timeout(lead_s)
            return
        slow = self.node.speed_factor
        if self._runtime is not None:
            rate = self.calib.pi_backend_rate(self.backend) / slow
            result = yield from self._runtime.offload_samples(samples, rate, lead_s=lead_s)
            self._record_busy(self._wallclock_busy(result))
            return
        rate = self.calib.pi_backend_rate(self.backend) / slow
        seconds = samples / rate
        if self._thin:
            yield self.env.composite_timeout(lead_s, self._java_startup_delay(), seconds)
        else:
            # Reference model: the launch delay stays its own event, so
            # the pre-overhaul timeline is reproduced byte for byte.
            if lead_s > 0:
                yield self.env.timeout(lead_s)
            yield self.env.composite_timeout(self._java_startup_delay(), seconds)
        self._record_busy(seconds)
