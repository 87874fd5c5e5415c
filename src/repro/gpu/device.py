"""Tesla-era GPU device model.

Rates are typical published figures for the NVIDIA Tesla C1060 (the GPU
the paper names alongside the Cell BE in §I): ~4 GB/s effective PCIe
x16 Gen2 per direction, AES-CTR around 1.4 GB/s device-side, tens of
microseconds per kernel launch, and a few hundred milliseconds to bring
up the context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.sim.pipes import Pipe
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["GPUSpec", "GPUDevice", "TESLA_C1060"]

GB = 1024**3


@dataclass(frozen=True)
class GPUSpec:
    """One GPU model's calibrated rates."""

    name: str
    pcie_bw: float
    """Host<->device staging bandwidth per direction (bytes/s)."""
    aes_bw: float
    """Device-side AES throughput (bytes/s)."""
    pi_rate: float
    """Monte-Carlo samples/s."""
    kernel_launch_s: float
    """Per-kernel-launch overhead."""
    context_init_s: float
    """One-time context/JIT initialization."""
    device_memory: int = 4 * GB


TESLA_C1060 = GPUSpec(
    name="Tesla-C1060",
    pcie_bw=4.0 * GB,
    aes_bw=1.4 * GB,
    pi_rate=8.0e8,
    kernel_launch_s=2.0e-5,
    context_init_s=0.25,
)


class GPUDevice:
    """A GPU attached to a host node.

    Structure mirrors :class:`repro.cell.processor.CellProcessor`: an
    execution slot (the device is a single command queue at this
    granularity) plus independent host→device and device→host staging
    channels.
    """

    def __init__(self, env: "Environment", device_id: int, spec: GPUSpec = TESLA_C1060):
        self.env = env
        self.device_id = device_id
        self.spec = spec
        self._exec = Resource(env, capacity=1)
        self.h2d = Pipe(env, spec.pcie_bw, name=f"gpu{device_id}/h2d")
        self.d2h = Pipe(env, spec.pcie_bw, name=f"gpu{device_id}/d2h")
        self.busy_s = 0.0

    def launch(self, compute_s: float) -> Generator:
        """Process: run one kernel of ``compute_s`` device time."""
        if compute_s < 0:
            raise ValueError("compute_s must be non-negative")
        with self._exec.request() as req:
            yield req
            yield self.env.timeout(self.spec.kernel_launch_s + compute_s)
        self.busy_s += compute_s

    def stage_in(self, nbytes: float) -> Generator:
        """Process: copy ``nbytes`` host → device."""
        yield from self.h2d.transfer(nbytes)

    def stage_out(self, nbytes: float) -> Generator:
        """Process: copy ``nbytes`` device → host."""
        yield from self.d2h.transfer(nbytes)
