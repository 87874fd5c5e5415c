"""The `repro serve` wire protocol: line-delimited JSON.

One connection carries one request and its response stream. The client
sends a single JSON object on one line; the server answers with a
sequence of JSON event lines and closes the connection after the
terminal event. Line framing keeps the protocol trivially debuggable
(``nc``/``socat`` work) and trivially safe to parse incrementally.

Requests (``verb`` selects the operation)::

    {"verb": "submit", "scenario": "fig8", "overrides": {"nodes": [2,4]},
     "seed": 1234, "reference_model": false, "detach": false}
    {"verb": "status"}                  # all jobs
    {"verb": "status", "job": "job-000001"}
    {"verb": "cancel", "job": "job-000001"}
    {"verb": "shutdown"}                # graceful: drain running jobs
    {"verb": "shutdown", "mode": "now"} # cancel running jobs first
    {"verb": "ping"}
    {"verb": "metrics"}                 # Prometheus text exposition

Response events (``event`` selects the type)::

    {"event": "accepted", "job": ..., "request_key": ..., "coalesced": bool,
     "state": ..., "done": int, "total": int}
    {"event": "point", "job": ..., "index": int, "params": {...},
     "values": {...}, "done": int, "total": int}
    {"event": "result", "job": ..., "sha256": ..., "payload": <str>,
     "executed_points": int, "cached_points": int, ...}
    {"event": "cancelled", "job": ...}
    {"event": "status", "jobs": [...], "stats": {...}}
    {"event": "cancel", "job": ..., "ok": bool, "state": ...}
    {"event": "shutdown", "ok": true}
    {"event": "pong", "version": 1}
    {"event": "metrics", "content_type": ..., "text": <Prometheus text>}
    {"event": "error", "message": ...}

The ``payload`` of a ``result`` event is the full pretty-printed
canonical JSON of the sweep — the **exact bytes** ``repro sweep`` would
write to ``results/<scenario>.json`` — so byte-identity claims can be
checked end to end with ``cmp``. Every client attached to one job
(coalesced or not) receives the same payload string.

Overrides travel as the same ``key -> [values]`` / ``key -> value``
shapes ``--grid`` parses into; the server binds them with
:meth:`Scenario.with_overrides`, which casts and validates. The model
reference mode may be pinned per request (``null`` means "the daemon's
own mode"); grid points re-apply it inside the worker processes, so one
daemon serves both model modes at once. Unknown request fields are
ignored.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

# The line-JSON framing itself lives in repro.wire (shared with the
# fleet protocol); re-exported here so existing imports keep working.
from repro.wire import ProtocolError, decode, encode, read_events

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "VERBS",
    "decode",
    "encode",
    "parse_request",
    "read_events",
    "submit_request",
]

PROTOCOL_VERSION = 1

VERBS = ("submit", "status", "cancel", "shutdown", "ping", "metrics")

#: Shutdown modes: graceful waits for running jobs, now cancels them.
SHUTDOWN_MODES = ("graceful", "now")


def submit_request(
    scenario: str,
    overrides: Optional[Mapping[str, Any]] = None,
    *,
    seed: Optional[int] = None,
    reference_model: Optional[bool] = None,
    detach: bool = False,
) -> dict[str, Any]:
    """Build a well-formed submit request."""
    msg: dict[str, Any] = {"verb": "submit", "scenario": scenario}
    if overrides:
        msg["overrides"] = {
            k: list(v) if isinstance(v, (list, tuple)) else v
            for k, v in overrides.items()
        }
    if seed is not None:
        msg["seed"] = int(seed)
    if reference_model is not None:
        msg["reference_model"] = bool(reference_model)
    if detach:
        msg["detach"] = True
    return msg


def _require_str(msg: Mapping[str, Any], field: str) -> str:
    value = msg.get(field)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"{msg.get('verb')}: {field!r} must be a non-empty string")
    return value


def _optional_bool(msg: Mapping[str, Any], field: str) -> Optional[bool]:
    value = msg.get(field)
    if value is None:
        return None
    if not isinstance(value, bool):
        raise ProtocolError(f"{field!r} must be a boolean or null")
    return value


def parse_request(msg: Mapping[str, Any]) -> dict[str, Any]:
    """Validate one request frame's structure and return a normalized
    copy. Semantic errors (unknown scenario, bad grid values) are the
    server's job — this only guards the shape."""
    verb = msg.get("verb")
    if verb not in VERBS:
        raise ProtocolError(
            f"unknown verb {verb!r}; expected one of: {', '.join(VERBS)}"
        )
    out: dict[str, Any] = {"verb": verb}
    if verb == "submit":
        out["scenario"] = _require_str(msg, "scenario")
        overrides = msg.get("overrides")
        if overrides is not None and not isinstance(overrides, dict):
            raise ProtocolError("submit: 'overrides' must be an object")
        out["overrides"] = dict(overrides or {})
        seed = msg.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise ProtocolError("submit: 'seed' must be an integer or null")
        out["seed"] = seed
        out["reference_model"] = _optional_bool(msg, "reference_model")
        detach = msg.get("detach", False)
        if not isinstance(detach, bool):
            raise ProtocolError("submit: 'detach' must be a boolean")
        out["detach"] = detach
    elif verb == "cancel":
        out["job"] = _require_str(msg, "job")
    elif verb == "status":
        job = msg.get("job")
        if job is not None and (not isinstance(job, str) or not job):
            raise ProtocolError("status: 'job' must be a non-empty string or absent")
        out["job"] = job
    elif verb == "shutdown":
        mode = msg.get("mode", "graceful")
        if mode not in SHUTDOWN_MODES:
            raise ProtocolError(
                f"shutdown: mode must be one of {SHUTDOWN_MODES}, got {mode!r}"
            )
        out["mode"] = mode
    return out
