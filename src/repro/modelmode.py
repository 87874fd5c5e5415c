"""Model-layer protocol mode (the hadoop/cell *model*, not the engine).

This module selects between two versions of the simulated *cluster
protocol*. The default is event-thin and therefore not trace-identical
to the pre-overhaul protocol it replaced:

- **event-thin heartbeats** — a TaskTracker with no free slots, no
  completions, and no local state change parks instead of emitting
  work-less fixed-interval heartbeats; it wakes on a per-tracker dirty
  signal (slot release, queued kill, new cluster demand) or on the
  liveness keepalive deadline.
- **analytic task segments** — per-SPE seed/compute/result DMA chains of
  a Monte-Carlo offload collapse into one composite event when nothing
  can observe the interleaving.
- **deadline-driven failure monitoring** — the JobTracker's liveness
  monitor sleeps to the next expiry deadline instead of ticking every
  heartbeat interval.

Reference mode (``REPRO_MODEL_REFERENCE=1`` or
:func:`set_model_reference`) retains the fixed-interval protocol and the
event-accurate offload exactly as frozen before this overhaul, so the
pre-overhaul makespans stay byte-reproducible (pinned by
``tests/model/test_event_thin.py``). The default, event-thin protocol
drifts makespans slightly (fewer queued work-less exchanges at the
serialized JobTracker, out-of-band wakeup heartbeats) and the golden
series are frozen under it; see ``docs/PERFORMANCE.md`` ("Model-layer
performance") for the elision contract and the measured drift.

The mode is a *default for new clusters*: the JobTracker samples it
at construction time, so a running simulation never changes protocol
mid-flight.
"""

from __future__ import annotations

import os

__all__ = ["REFERENCE_MODE", "set_model_reference", "model_reference"]

#: Default model-protocol mode for new clusters. True selects the
#: pre-overhaul fixed-interval protocol; settable via the
#: REPRO_MODEL_REFERENCE env var or :func:`set_model_reference`.
REFERENCE_MODE = os.environ.get("REPRO_MODEL_REFERENCE", "0") not in ("", "0")

#: Parked trackers still report in every ``heartbeat_timeout_s *
#: KEEPALIVE_FACTOR`` seconds. The keepalive serves two contracts: the
#: JobTracker's silence-based failure detector keeps working unchanged
#: (a live tracker is never silent for anywhere near the timeout), and
#: it is the starvation safety net — even if a demand poke were ever
#: missed, a parked tracker re-offers its free slots within one
#: keepalive period.
KEEPALIVE_FACTOR = 0.5


def set_model_reference(enabled: bool) -> bool:
    """Set the default model mode for *new* clusters.

    Returns the previous default, so callers can restore it.
    """
    global REFERENCE_MODE
    previous = REFERENCE_MODE
    REFERENCE_MODE = bool(enabled)
    return previous


def model_reference() -> bool:
    """The current default model mode."""
    return REFERENCE_MODE
