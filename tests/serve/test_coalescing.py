"""Request coalescing: the daemon's core correctness feature.

K identical concurrent submits must execute the grid exactly once and
hand every client byte-identical payloads, themselves byte-identical
to what the offline `repro sweep` path produces — across both
model-protocol modes.
"""

import json
import threading

import repro.modelmode as modelmode
from repro.experiments import run_sweep
from repro.serve import protocol, request_one, request_stream


def concurrent_submits(address, requests):
    """Fire all requests at once; returns each connection's event list."""
    results = [None] * len(requests)
    barrier = threading.Barrier(len(requests))

    def worker(i, req):
        barrier.wait()
        results[i] = list(request_stream(address, req))

    threads = [threading.Thread(target=worker, args=(i, r))
               for i, r in enumerate(requests)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert all(r is not None for r in results), "a submit never finished"
    return results


def test_eight_identical_submits_execute_once(server, address):
    offline = run_sweep("_serve_slow", seed=1234, workers=1)
    req = protocol.submit_request("_serve_slow", seed=1234)
    results = concurrent_submits(address, [dict(req) for _ in range(8)])

    job_ids = {evs[0]["job"] for evs in results}
    coalesced = sum(evs[0]["coalesced"] for evs in results)
    assert len(job_ids) == 1, f"expected one job, got {job_ids}"
    assert coalesced == 7  # first created, seven attached

    payloads = {evs[-1]["payload"] for evs in results}
    shas = {evs[-1]["sha256"] for evs in results}
    assert len(payloads) == 1 and len(shas) == 1
    assert payloads.pop() == offline.pretty_json()
    assert shas.pop() == offline.sha256()

    # The executed-points accounting proves the grid ran exactly once:
    # every client's result reports the same single execution, and the
    # daemon's global counter saw exactly one grid's worth of points.
    for evs in results:
        assert evs[-1]["executed_points"] == 8
        assert evs[-1]["cached_points"] == 0
    stats = request_one(address, {"verb": "status"})["stats"]
    assert stats["points_executed"] == 8
    assert stats["coalesced_submits"] == 7
    assert stats["jobs"] == 1


def test_interleaved_distinct_requests_do_not_cross_coalesce(server, address):
    """Identical pairs coalesce with each other, never across seeds."""
    reqs = [protocol.submit_request("_serve_slow", seed=s)
            for s in (1, 1, 2, 2)]
    results = concurrent_submits(address, reqs)
    by_seed = {}
    for req, evs in zip(reqs, results):
        by_seed.setdefault(req["seed"], []).append(evs)
    jobs = {}
    for seed, pair in by_seed.items():
        ids = {evs[0]["job"] for evs in pair}
        assert len(ids) == 1  # the pair shares a job...
        jobs[seed] = ids.pop()
        payloads = {evs[-1]["payload"] for evs in pair}
        assert len(payloads) == 1
        offline = run_sweep("_serve_slow", seed=seed, workers=1)
        assert payloads.pop() == offline.pretty_json()
    assert jobs[1] != jobs[2]  # ...and the seeds never share one
    stats = request_one(address, {"verb": "status"})["stats"]
    assert stats["points_executed"] == 16  # two grids, once each
    assert stats["coalesced_submits"] == 2


def test_mode_combinations_coalesce_and_match_offline(server, address):
    """Both model modes, each submitted twice concurrently: one
    execution per mode, byte-identical to an offline sweep run under
    that process-global mode. One daemon serves both modes without
    touching its own globals."""
    overrides = {"nodes": [2, 4], "samples": 1e9}
    sha_by_mode = {}
    for ref_model in (False, True):
        prev_model = modelmode.set_model_reference(ref_model)
        try:
            offline = run_sweep("fig8", overrides, seed=1234, workers=1)
        finally:
            modelmode.set_model_reference(prev_model)
        req = protocol.submit_request(
            "fig8", overrides, seed=1234, reference_model=ref_model,
        )
        results = concurrent_submits(address, [dict(req), dict(req)])
        assert sum(evs[0]["coalesced"] for evs in results) == 1
        for evs in results:
            term = evs[-1]
            assert term["event"] == "result", term
            assert term["payload"] == offline.pretty_json(), (
                f"served bytes diverge offline at model_ref={ref_model}"
            )
            assert term["sha256"] == offline.sha256()
        sha_by_mode[ref_model] = offline.sha256()
    # The model-protocol modes are distinct computations.
    assert sha_by_mode[False] != sha_by_mode[True]


def test_submit_with_retired_engine_field_is_served_identically(server, address):
    """Older clients may still send ``reference_engine``: like any
    unknown key it is ignored, so such a frame coalesces with one
    without the field and both receive the same bytes."""
    req = protocol.submit_request("_serve_slow", seed=1234)
    legacy = {**req, "reference_engine": True}
    results = concurrent_submits(address, [dict(req), legacy])
    assert len({evs[0]["job"] for evs in results}) == 1
    assert sum(evs[0]["coalesced"] for evs in results) == 1
    terms = [evs[-1] for evs in results]
    assert all(t["event"] == "result" for t in terms), terms
    assert terms[0]["sha256"] == terms[1]["sha256"]
    assert terms[0]["payload"] == terms[1]["payload"]
    assert terms[0]["sha256"] == run_sweep("_serve_slow", seed=1234).sha256()


def test_payload_is_the_canonical_result_document(server, address):
    """The served payload parses back into the same canonical dict the
    offline result produces — the wire adds nothing and loses nothing."""
    offline = run_sweep("_serve_synth", seed=42, workers=1)
    evs = list(request_stream(
        address, protocol.submit_request("_serve_synth", seed=42)))
    doc = json.loads(evs[-1]["payload"])
    assert doc == offline.canonical_dict()
