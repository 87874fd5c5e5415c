"""Client side of the serving protocol: connect, send, stream events.

Thin by design — the daemon owns all semantics; the client only frames
one request per connection and iterates response lines. Everything the
CLI's ``repro submit`` does (and everything the test battery does) goes
through these few functions, so the wire behavior exercised in tests is
exactly the behavior users get.
"""

from __future__ import annotations

import random
import socket
import time
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Optional, Union

from repro.serve import protocol

__all__ = [
    "Address",
    "connect",
    "request_one",
    "request_stream",
    "retry_delays",
    "wait_for_server",
]


class Address:
    """Where a daemon listens: ``host:port`` TCP or a unix socket path."""

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        socket_path: Optional[Union[str, Path]] = None,
    ):
        if (socket_path is None) == (port is None):
            raise ValueError("exactly one of port or socket_path is required")
        self.host = host or "127.0.0.1"
        self.port = port
        self.socket_path = Path(socket_path) if socket_path is not None else None

    @classmethod
    def parse(cls, connect: Optional[str], socket_path: Optional[str]) -> "Address":
        """From CLI flags: ``--connect [HOST:]PORT`` or ``--socket PATH``."""
        if (connect is None) == (socket_path is None):
            raise ValueError("exactly one of --connect and --socket is required")
        if socket_path is not None:
            return cls(socket_path=socket_path)
        host, _, port = connect.rpartition(":")
        try:
            return cls(host=host or None, port=int(port))
        except ValueError:
            raise ValueError(
                f"--connect expects [HOST:]PORT, got {connect!r}"
            ) from None

    def __str__(self) -> str:
        if self.socket_path is not None:
            return str(self.socket_path)
        return f"{self.host}:{self.port}"


def connect(address: Address, timeout: Optional[float] = None) -> socket.socket:
    """An open stream socket to the daemon; a failed connect closes the
    socket it made before raising (``create_connection`` does the same
    for TCP), so retry loops leak no descriptors."""
    if address.socket_path is not None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(timeout)
            sock.connect(str(address.socket_path))
        except BaseException:
            sock.close()
            raise
    else:
        sock = socket.create_connection(
            (address.host, address.port), timeout=timeout
        )
    sock.settimeout(None)  # stream reads block until the server answers
    return sock


def request_stream(
    address: Address,
    msg: Mapping[str, Any],
    timeout: Optional[float] = None,
) -> Iterator[dict[str, Any]]:
    """Send one request; yield response events until the server closes."""
    sock = connect(address, timeout=timeout)
    try:
        stream = sock.makefile("rwb")
        stream.write(protocol.encode(msg))
        stream.flush()
        yield from protocol.read_events(stream)
    finally:
        try:
            sock.close()
        except OSError:
            pass


def request_one(
    address: Address,
    msg: Mapping[str, Any],
    timeout: Optional[float] = None,
) -> dict[str, Any]:
    """Send one request; return the single (or first) response event.

    For ``ping``/``status``/``cancel``/``shutdown``, which answer with
    exactly one event. Raises ``ProtocolError`` on an empty response.
    """
    for event in request_stream(address, msg, timeout=timeout):
        return event
    raise protocol.ProtocolError("server closed the connection without replying")


def retry_delays(
    retries: int,
    backoff: float,
    rng: Optional[Callable[[], float]] = None,
) -> Iterator[float]:
    """Sleep schedule for reconnect attempts: ``retries`` delays of
    ``backoff * 2**attempt``, each scaled by a uniform jitter factor in
    ``[0.5, 1.5)`` so a fleet of clients retrying against one daemon
    does not thunder in lockstep. ``rng`` (a 0→[0,1) callable) is
    injectable for deterministic tests."""
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if backoff < 0:
        raise ValueError(f"backoff must be >= 0, got {backoff}")
    draw = rng if rng is not None else random.random
    for attempt in range(retries):
        yield backoff * (2 ** attempt) * (0.5 + draw())


def wait_for_server(
    address: Address, timeout: float = 10.0, interval: float = 0.05
) -> bool:
    """Poll ``ping`` until the daemon answers or ``timeout`` elapses —
    how tests and scripts sequence themselves after ``repro serve &``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            event = request_one(address, {"verb": "ping"}, timeout=interval + 1.0)
            if event.get("event") == "pong":
                return True
        except (OSError, protocol.ProtocolError):
            pass
        time.sleep(interval)
    return False
