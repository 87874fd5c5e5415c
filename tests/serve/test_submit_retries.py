"""`repro submit --retries/--backoff`: surviving an unreachable daemon.

Submits are idempotent (identical requests coalesce, finished requests
hit the whole-sweep cache), so a client is always safe to retry — these
tests pin the retry schedule (jittered exponential backoff), the exit
code split (4 = unreachable, distinct from 1 failed / 2 usage / 3
cancelled), and the recovery path where a daemon appears between
attempts.
"""

import io
import os
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.serve import Address, ReproServer, retry_delays, wait_for_server
from repro.serve.client import connect


def test_retry_delays_are_exponential_with_jitter():
    # rng pinned at 0.5 makes the jitter factor exactly 1.0.
    assert list(retry_delays(3, 1.0, rng=lambda: 0.5)) == [1.0, 2.0, 4.0]
    assert list(retry_delays(0, 1.0)) == []
    for delay, base in zip(retry_delays(4, 0.5), [0.5, 1.0, 2.0, 4.0]):
        assert 0.5 * base <= delay < 1.5 * base


def test_retry_delays_reject_negative_arguments():
    with pytest.raises(ValueError):
        list(retry_delays(-1, 1.0))
    with pytest.raises(ValueError):
        list(retry_delays(1, -0.5))


def test_exhausted_retries_exit_4(tmp_path):
    buf = io.StringIO()
    code = cli_main(
        ["submit", "_serve_synth", "--socket", str(tmp_path / "none.sock"),
         "--retries", "2", "--backoff", "0.01"], out=buf)
    text = buf.getvalue()
    assert code == 4
    assert "retry 1/2" in text and "retry 2/2" in text
    assert "after 2 retries" in text


def test_failed_connects_leave_no_open_descriptors(tmp_path):
    # Keep every error alive, as a retry loop that reports them would:
    # a socket that a failed connect left open stays open with it.
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        pytest.skip("no per-process descriptor listing on this platform")
    address = Address(socket_path=tmp_path / "none.sock")
    before = len(os.listdir(fd_dir))
    errors = []
    for _ in range(20):
        try:
            connect(address, timeout=1.0)
        except OSError as exc:
            errors.append(exc)
    assert len(errors) == 20
    assert len(os.listdir(fd_dir)) == before


def test_negative_retry_flags_are_usage_errors(tmp_path):
    buf = io.StringIO()
    code = cli_main(
        ["submit", "_serve_synth", "--socket", str(tmp_path / "none.sock"),
         "--retries", "-1"], out=buf)
    assert code == 2


def test_retries_bridge_a_late_daemon(tmp_path):
    """The daemon boots *after* the first submit attempt fails; the
    retry loop must pick it up and serve the sweep normally."""
    sock = tmp_path / "late.sock"
    servers = []

    def boot():
        time.sleep(0.4)
        srv = ReproServer(socket_path=sock, workers=2)
        srv.start()
        servers.append(srv)

    t = threading.Thread(target=boot, daemon=True)
    t.start()
    try:
        buf = io.StringIO()
        code = cli_main(
            ["submit", "_serve_synth", "--socket", str(sock),
             "--retries", "10", "--backoff", "0.1"], out=buf)
        text = buf.getvalue()
        assert code == 0, text
        assert "retry 1/10" in text  # at least one attempt failed
        assert "sha256" in text      # and the served result arrived
    finally:
        t.join(timeout=10)
        for srv in servers:
            srv.close()


def test_unreachable_control_verbs_exit_4(tmp_path):
    buf = io.StringIO()
    code = cli_main(
        ["submit", "--status", "--socket", str(tmp_path / "none.sock")],
        out=buf)
    assert code == 4 and "cannot reach daemon" in buf.getvalue()
