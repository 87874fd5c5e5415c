"""Process-wide telemetry: the ``repro.obs`` observability layer.

Mirrors the reference-model discipline (`repro.modelmode`): one
module-level switch, sampled by
instrumented objects **at construction time**, with a
``set_obs(enabled) -> previous`` toggle for scoped flips. Hot paths
pre-sample the switch into a handle-or-``None`` attribute so the
disabled path costs one ``is None`` check — usually zero, because the
instrumented object is never even attached.

The contract that makes telemetry safe to leave wired in everywhere:
**observation never perturbs canonical bytes.** Samplers only read
simulation state and yield plain ``env.timeout`` delays; counters
are flushed from already-maintained model tallies after ``env.run``
returns. Golden series and sweep sha256 parity hold byte-identical
with everything enabled — ``tests/obs/test_transparency.py`` pins it
under both model modes.

Environment:

- ``REPRO_OBS=1`` enables metric collection process-wide.

Trace collection is orthogonal: install a
:class:`repro.obs.traceexport.TraceCollector` via
``set_trace_collector`` and every subsequently built cluster records
into an enabled, ring-capped tracer owned by the collector (the
``repro trace`` command does exactly this).
"""

from __future__ import annotations

import os
from typing import Any, Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timeseries,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timeseries",
    "enabled",
    "registry",
    "reset_registry",
    "set_obs",
    "set_trace_collector",
    "trace_collector",
]

#: Process-wide metrics switch; sampled at object construction, like
#: ``modelmode.REFERENCE_MODE``.
ENABLED = os.environ.get("REPRO_OBS", "0") not in ("", "0")

_REGISTRY = MetricsRegistry()

#: Optional TraceCollector consulted by ``Cluster.__init__``.
_COLLECTOR: Optional[Any] = None


def enabled() -> bool:
    """Is metric collection on for objects constructed now?"""
    return ENABLED


def set_obs(on: bool) -> bool:
    """Flip metric collection; returns the previous setting.

    Pair with a ``finally`` restore, exactly like
    ``modelmode.set_model_reference``.
    """
    global ENABLED
    previous = ENABLED
    ENABLED = bool(on)
    return previous


def registry() -> MetricsRegistry:
    """The process-wide registry (always importable; cheap when idle)."""
    return _REGISTRY


def reset_registry() -> None:
    """Clear the process registry (between sweep points in workers)."""
    _REGISTRY.reset()


def set_trace_collector(collector: Optional[Any]) -> Optional[Any]:
    """Install (or clear, with ``None``) the cluster trace collector.

    Returns the previous collector for ``finally`` restoration.
    """
    global _COLLECTOR
    previous = _COLLECTOR
    _COLLECTOR = collector
    return previous


def trace_collector() -> Optional[Any]:
    return _COLLECTOR
