"""Fleet wire protocol: worker↔coordinator messages on line-JSON.

One persistent connection per worker, strict request/reply: the worker
sends one frame, the coordinator answers with exactly one frame. That
discipline keeps both sides trivially restartable — there is never an
unsolicited server push to lose, so a worker that reconnects after
either end died just registers again and carries on.

Worker → coordinator frames (``type`` selects)::

    {"type": "register", "worker": "w0", "capacity": 1,
     "request_key": "..." | null}     # null: worker can't compute one
    {"type": "heartbeat", "worker": "w0", "free": 1}
    {"type": "result", "worker": "w0", "index": 3,
     "values": {...}, "elapsed_s": 0.01, "attempt": 1}
    {"type": "point_failed", "worker": "w0", "index": 3,
     "error": "...", "attempt": 1}

Coordinator → worker replies::

    {"type": "registered", "worker": "w0", "scenario": {...spec...},
     "request_key": "...", "model_reference": bool, "total": N}
    {"type": "lease", "points": [{"index": 3, "cfg": {...}}, ...]}
    {"type": "ok"}                     # heartbeat noted, nothing to run
    {"type": "ok", "accepted": bool}   # result acknowledged
    {"type": "done"}                   # sweep complete: disconnect
    {"type": "reregister"}             # coordinator restarted: re-register
    {"type": "abort", "message": ...}  # sweep failed: stop working
    {"type": "error", "message": ...}  # malformed frame / bad register

The lease carries each point's **fully-bound cfg** so a worker never
re-derives grid order, and the ``registered`` reply carries the full
scenario spec (grid, defaults, seed) plus the coordinator's request
key — the worker rebuilds the scenario locally, recomputes the key,
and refuses to participate on a mismatch. That is the same
consistency check the shard merger runs: it catches a worker running
different code (different git HEAD, different calibration) before it
can contribute a single wrong-but-plausible value.

Values travel as JSON floats; ``repr`` round-tripping preserves them
bit for bit, so fleet results are byte-identical to serial sweeps.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.wire import ProtocolError, decode, encode, read_events, recv_msg, send_msg

__all__ = [
    "FLEET_PROTOCOL_VERSION",
    "FleetError",
    "ProtocolError",
    "WORKER_TYPES",
    "decode",
    "encode",
    "parse_worker_msg",
    "read_events",
    "recv_msg",
    "send_msg",
]

FLEET_PROTOCOL_VERSION = 1

#: Frame types a worker may send; anything else is a protocol error.
WORKER_TYPES = ("register", "heartbeat", "result", "point_failed")


class FleetError(RuntimeError):
    """A fleet-level failure: dead fleet, poisoned point, key mismatch.

    Deliberately loud — the fabric's failure philosophy is that every
    unrecoverable condition surfaces as a clear error instead of a
    hang, because a distributed sweep that silently stalls is the
    worst possible diagnostic experience.
    """


def _require(msg: Mapping[str, Any], field: str, kind, desc: str):
    value = msg.get(field)
    if not isinstance(value, kind) or (kind is str and not value):
        raise ProtocolError(
            f"{msg.get('type')}: {field!r} must be {desc}"
        )
    return value


def parse_worker_msg(msg: Mapping[str, Any]) -> dict[str, Any]:
    """Validate one worker frame's shape; semantics are the tracker's
    job. Returns a normalized copy."""
    mtype = msg.get("type")
    if mtype not in WORKER_TYPES:
        raise ProtocolError(
            f"unknown fleet frame type {mtype!r}; expected one of: "
            f"{', '.join(WORKER_TYPES)}"
        )
    out: dict[str, Any] = {"type": mtype}
    out["worker"] = _require(msg, "worker", str, "a non-empty string")
    if mtype == "register":
        capacity = msg.get("capacity", 1)
        if not isinstance(capacity, int) or capacity < 1:
            raise ProtocolError("register: 'capacity' must be an int >= 1")
        out["capacity"] = capacity
        key = msg.get("request_key")
        if key is not None and not isinstance(key, str):
            raise ProtocolError("register: 'request_key' must be a string or null")
        out["request_key"] = key
    elif mtype == "heartbeat":
        free = msg.get("free", 0)
        if not isinstance(free, int) or free < 0:
            raise ProtocolError("heartbeat: 'free' must be an int >= 0")
        out["free"] = free
    elif mtype == "result":
        out["index"] = _require(msg, "index", int, "an integer")
        values = msg.get("values")
        if not isinstance(values, dict):
            raise ProtocolError("result: 'values' must be an object")
        out["values"] = values
        elapsed = msg.get("elapsed_s", 0.0)
        if not isinstance(elapsed, (int, float)):
            raise ProtocolError("result: 'elapsed_s' must be a number")
        out["elapsed_s"] = float(elapsed)
        attempt = msg.get("attempt", 1)
        if not isinstance(attempt, int) or attempt < 1:
            raise ProtocolError("result: 'attempt' must be an int >= 1")
        out["attempt"] = attempt
    elif mtype == "point_failed":
        out["index"] = _require(msg, "index", int, "an integer")
        out["error"] = _require(msg, "error", str, "a non-empty string")
        attempt = msg.get("attempt", 1)
        if not isinstance(attempt, int) or attempt < 1:
            raise ProtocolError("point_failed: 'attempt' must be an int >= 1")
        out["attempt"] = attempt
    return out


def scenario_spec(sc) -> dict[str, Any]:
    """The portable description of a bound scenario a worker needs to
    rebuild it: registry name + grid + defaults + seed. Everything else
    (point function, curves, labels) comes from the worker's own
    registry — which is exactly the point: if the worker's code would
    define the sweep differently, the request-key check catches it."""
    return {
        "name": sc.name,
        "grid": {k: list(v) for k, v in sc.grid.items()},
        "defaults": dict(sc.defaults),
        "seed": sc.seed,
    }


def registered_reply(
    worker: str,
    sc,
    request_key: str,
    model_reference: bool,
    total: int,
) -> dict[str, Any]:
    return {
        "type": "registered",
        "version": FLEET_PROTOCOL_VERSION,
        "worker": worker,
        "scenario": scenario_spec(sc),
        "request_key": request_key,
        "model_reference": bool(model_reference),
        "total": total,
    }


def lease_reply(points: list[tuple[int, Mapping[str, Any]]]) -> dict[str, Any]:
    return {
        "type": "lease",
        "points": [{"index": i, "cfg": dict(cfg)} for i, cfg in points],
    }


def register_msg(
    worker: str, capacity: int, request_key: Optional[str]
) -> dict[str, Any]:
    return {
        "type": "register",
        "version": FLEET_PROTOCOL_VERSION,
        "worker": worker,
        "capacity": capacity,
        "request_key": request_key,
    }


def heartbeat_msg(worker: str, free: int) -> dict[str, Any]:
    return {"type": "heartbeat", "worker": worker, "free": free}


def result_msg(
    worker: str, index: int, values: Mapping[str, float],
    elapsed_s: float, attempt: int,
) -> dict[str, Any]:
    return {
        "type": "result",
        "worker": worker,
        "index": index,
        "values": dict(values),
        "elapsed_s": elapsed_s,
        "attempt": attempt,
    }


def failure_msg(worker: str, index: int, error: str, attempt: int) -> dict[str, Any]:
    return {
        "type": "point_failed",
        "worker": worker,
        "index": index,
        "error": error,
        "attempt": attempt,
    }
