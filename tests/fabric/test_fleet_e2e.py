"""End-to-end fleet tests over real sockets and threads.

The centerpiece is the acceptance matrix: a fleet sweep with two
injected worker deaths **and** a coordinator crash/restart must merge
byte-identical (sha256) to a serial ``run_sweep`` of the same request,
under both model modes — plus the
fail-fast paths (fully dead fleet, poison quarantine) that must error
clearly instead of hanging.
"""

import threading

import pytest

import repro.modelmode as modelmode
from repro.experiments import run_sweep
from repro.fabric import (
    CoordinatorChaos,
    FleetCoordinator,
    FleetError,
    FleetWorker,
    TrackerConfig,
    WorkerChaos,
    run_chaos_fleet,
)
from repro.serve.client import Address

OV = {"nodes": [2, 3, 4, 5, 6], "samples": 1e8}


def serial_sha(scenario, overrides, model_reference):
    prev_model = modelmode.set_model_reference(model_reference)
    try:
        return run_sweep(scenario, overrides).sha256()
    finally:
        modelmode.set_model_reference(prev_model)


def test_fleet_matches_serial_happy_path(tmp_path):
    serial = serial_sha("_fleet_synth", None, modelmode.REFERENCE_MODE)
    result, stats, reports = run_chaos_fleet(
        "_fleet_synth", journal_path=tmp_path / "j.jsonl", workers=3,
        timeout_s=60.0, linger_s=0.3)
    assert result.sha256() == serial
    acct = {**stats}
    assert acct["accepted"] == acct["total"] == 8
    assert acct["duplicates"] == 0
    assert not (tmp_path / "j.jsonl").exists()  # removed on success


def test_duplicated_and_delayed_deliveries_dedup(tmp_path):
    serial = serial_sha("_fleet_synth", None, modelmode.REFERENCE_MODE)
    result, stats, reports = run_chaos_fleet(
        "_fleet_synth", journal_path=tmp_path / "j.jsonl", workers=2,
        worker_chaos=[WorkerChaos(duplicate_results=True,
                                  delay_results_s=0.01)],
        timeout_s=60.0, linger_s=0.3)
    assert result.sha256() == serial
    dup_worker = next(r for r in reports if r.get("duplicates_sent"))
    assert stats["duplicates"] >= dup_worker["duplicates_sent"]
    assert stats["accepted"] == stats["total"]


@pytest.mark.parametrize("model_reference", [False, True], ids=["opt", "refmodel"])
def test_acceptance_two_kills_one_coordinator_restart(tmp_path, model_reference):
    """The acceptance bar, per model mode: >=2 worker deaths plus a
    coordinator crash/restart, byte-identical to serial."""
    serial = serial_sha("fig8", OV, model_reference)
    # Both initial workers carry a kill order, so both deaths are
    # guaranteed to fire (each must deliver the fleet's early results);
    # the harness respawns clean replacements that finish the sweep.
    result, stats, reports = run_chaos_fleet(
        "fig8", OV, model_reference=model_reference,
        journal_path=tmp_path / "j.jsonl", workers=2,
        worker_chaos=[WorkerChaos(kill_after_results=1),
                      WorkerChaos(kill_after_results=1)],
        coordinator_chaos=CoordinatorChaos(crash_after_results=3),
        timeout_s=90.0, linger_s=0.3)
    assert result.sha256() == serial
    assert stats["restarts"] == 1
    assert sum(1 for r in reports if r.get("killed")) >= 2
    # Exactly-once across the crash: journaled points count as
    # prefilled in the second incarnation, fresh ones as accepted.
    assert stats["accepted"] + stats["prefilled"] == stats["total"]
    assert stats["completed"] == stats["total"]


def test_heartbeat_silence_triggers_redispatch_but_not_byte_drift(tmp_path):
    serial = serial_sha("_fleet_slow", None, modelmode.REFERENCE_MODE)
    # Worker 0 goes silent for well past the worker timeout after its
    # first delivery; the detector revokes its leases, yet its late
    # work (delivered after re-registering) is still merged or deduped.
    result, stats, _ = run_chaos_fleet(
        "_fleet_slow", journal_path=tmp_path / "j.jsonl", workers=2,
        worker_chaos=[WorkerChaos(silences=((1, 2.5),))],
        config=TrackerConfig(worker_timeout_s=0.5, lease_timeout_s=15.0,
                             retry_backoff_s=0.1),
        timeout_s=60.0, linger_s=0.3)
    assert result.sha256() == serial
    assert stats["dead_workers"] >= 1
    assert stats["accepted"] + stats["duplicates"] >= stats["total"]


def test_fully_dead_fleet_fails_fast_not_hangs(tmp_path):
    # Every worker dies almost immediately and nothing respawns: the
    # coordinator must abort with a clear error, well before the test
    # timeout, instead of waiting for workers that will never return.
    with pytest.raises(FleetError) as err:
        run_chaos_fleet(
            "_fleet_synth", journal_path=tmp_path / "j.jsonl", workers=2,
            worker_chaos=[WorkerChaos(kill_after_results=1),
                          WorkerChaos(kill_after_results=1)],
            respawn_killed=False,
            no_worker_timeout_s=0.5, timeout_s=30.0)
    assert "fully dead" in str(err.value)
    assert "journal preserved" in str(err.value)
    assert (tmp_path / "j.jsonl").exists()  # resume material survives


def test_no_worker_ever_registers_fails_fast():
    coord = FleetCoordinator(
        "_fleet_synth", port=0, no_worker_timeout_s=0.3).start()
    try:
        assert coord.wait(timeout=15.0)
        assert coord.result is None
        assert "no worker ever registered" in coord.error
    finally:
        coord.close()


def test_poison_point_quarantines_and_aborts(tmp_path, fast_config):
    with pytest.raises(FleetError) as err:
        run_chaos_fleet(
            "_fleet_poison", journal_path=tmp_path / "j.jsonl", workers=2,
            config=fast_config, timeout_s=30.0)
    assert "quarantined" in str(err.value)
    assert "poison point k=2" in str(err.value)


def test_worker_refuses_on_request_key_mismatch(monkeypatch):
    coord = FleetCoordinator("_fleet_synth", port=0,
                             no_worker_timeout_s=10.0).start()
    try:
        monkeypatch.setattr("repro.fabric.worker.request_key",
                            lambda *a, **k: "f" * 64)
        worker = FleetWorker(
            Address.parse(f"127.0.0.1:{coord.port}", None), name="drifted")
        with pytest.raises(FleetError) as err:
            worker.run()
        assert "request key mismatch" in str(err.value)
    finally:
        coord.close()


def test_coordinator_register_rejects_foreign_key(tmp_path):
    # The coordinator-side check: a worker re-registering with a stale
    # key (its own code changed between sweeps) is refused outright.
    coord = FleetCoordinator("_fleet_synth", port=0,
                             no_worker_timeout_s=10.0).start()
    try:
        import socket as socket_mod

        from repro.wire import recv_msg, send_msg
        sock = socket_mod.create_connection(("127.0.0.1", coord.port))
        stream = sock.makefile("rwb")
        send_msg(stream, {"type": "register", "worker": "stale",
                          "capacity": 1, "request_key": "0" * 64})
        reply = recv_msg(stream)
        assert reply["type"] == "error"
        assert "request key mismatch" in reply["message"]
        sock.close()
    finally:
        coord.close()


def test_oversized_frame_gets_one_error_then_the_sweep_completes(tmp_path):
    import socket as socket_mod

    from repro.wire import recv_msg

    serial = serial_sha("_fleet_synth", None, modelmode.REFERENCE_MODE)
    coord = FleetCoordinator("_fleet_synth", socket_path=tmp_path / "fleet.sock",
                             no_worker_timeout_s=30.0, linger_s=0.2).start()
    t = None
    try:
        # 9 MiB and no newline: one error frame, then the connection
        # closes; the coordinator never buffers past the frame cap.
        sock = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        sock.connect(str(coord.socket_path))
        sock.settimeout(20.0)  # an unbounded reader would never answer
        try:
            # The coordinator drains the rest of the flood after its reply,
            # so the whole send goes through and the read ends in a clean
            # EOF: a reset (unread bytes at close) fails the test.
            sock.sendall(b"x" * (9 * 1024 * 1024))
            stream = sock.makefile("rb")
            reply = recv_msg(stream)
            rest = stream.read()
        finally:
            sock.close()
        assert reply["type"] == "error"
        assert "oversized frame" in reply["message"]
        assert rest == b""  # nothing after the one error: it hung up
        # A real worker afterwards completes the sweep byte-identically.
        worker = FleetWorker(Address(socket_path=coord.socket_path),
                             name="w0", heartbeat_s=0.05)
        t = threading.Thread(target=worker.run, daemon=True)
        t.start()
        assert coord.wait(timeout=30.0)
        assert coord.result is not None
        assert coord.result.sha256() == serial
    finally:
        coord.close()
        if t is not None:
            t.join(timeout=5.0)


def test_chaos_fleet_restores_the_mode_it_was_entered_with(monkeypatch):
    import repro.fabric.chaos as chaos_mod

    class EagerWorker(FleetWorker):
        """Stands for a worker thread that already ran a point, and so
        set the process-global model mode, before the runner checks."""

        def __init__(self, *args, **kwargs):
            modelmode.set_model_reference(True)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(chaos_mod, "FleetWorker", EagerWorker)
    prev = modelmode.set_model_reference(False)
    try:
        result, _, _ = run_chaos_fleet(
            "_fleet_synth", model_reference=True, workers=1,
            timeout_s=60.0, linger_s=0.3)
        assert result.sha256() == serial_sha("_fleet_synth", None, True)
        assert modelmode.REFERENCE_MODE is False  # not the fleet's mode
    finally:
        modelmode.set_model_reference(prev)


def test_point_cache_prefill_keeps_bytes_identical(tmp_path):
    serial = serial_sha("_fleet_synth", None, modelmode.REFERENCE_MODE)
    cache_dir = tmp_path / "cache"
    # First fleet run populates the point cache...
    first, _, _ = run_chaos_fleet(
        "_fleet_synth", cache_dir=cache_dir, workers=2,
        timeout_s=60.0, linger_s=0.3)
    assert first.sha256() == serial
    # ...the second is answered from the whole-sweep cache without any
    # worker executing a point.
    second, stats, reports = run_chaos_fleet(
        "_fleet_synth", cache_dir=cache_dir, workers=1,
        timeout_s=60.0, linger_s=0.3)
    assert second.sha256() == serial
    assert sum(r.get("results_sent", 0) for r in reports) == 0


def test_fleet_metrics_render(tmp_path):
    coord = FleetCoordinator("_fleet_synth", port=0,
                             no_worker_timeout_s=30.0, linger_s=0.2).start()
    worker = FleetWorker(Address.parse(f"127.0.0.1:{coord.port}", None),
                         name="w0", heartbeat_s=0.05)
    t = threading.Thread(target=worker.run, daemon=True)
    t.start()
    try:
        assert coord.wait(timeout=30.0)
        text = coord.render_metrics()
        assert "repro_fleet_completed 8" in text
        assert "repro_fleet_quarantined 0" in text
        assert 'repro_fleet_frames_total{type="heartbeat"}' in text
    finally:
        coord.close()
        t.join(timeout=5.0)
