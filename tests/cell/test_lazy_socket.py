"""A Cell socket builds its DMA engine, PPE and SPEs only when used.

Java and Empty jobs never offload, and analytic offloads read only the
calibration, so their clusters must not pay for 27k SPE/LocalStore/
Resource objects; every job must see exactly what an eager build would
have given it.
"""

import pytest

import repro.modelmode as modelmode
from repro.cell import CellProcessor
from repro.core.simexec import run_encryption_job, run_pi_job
from repro.perf import PAPER_CALIBRATION
from repro.perf.calibration import MB, Backend
from repro.sim import Environment

_INTERNALS = {"dma", "ppe", "spes"}


def _built(cell):
    return _INTERNALS & set(vars(cell))


def _sockets(sim):
    return [cell for node in sim.cluster.workers for cell in node.cells]


def test_new_socket_builds_nothing_and_knows_its_spe_count():
    cell = CellProcessor(Environment(), 0, PAPER_CALIBRATION)
    assert cell.spe_count == PAPER_CALIBRATION.spes_per_cell
    assert cell.total_spe_busy_s() == 0.0
    assert not _built(cell)


def test_first_access_builds_a_wired_socket():
    cell = CellProcessor(Environment(), 0, PAPER_CALIBRATION)
    spes = cell.spes
    assert len(spes) == cell.spe_count
    assert [s.spe_id for s in spes] == list(range(cell.spe_count))
    assert all(s.dma is cell.dma for s in spes)
    assert cell.spes is spes and cell.ppe is cell.ppe
    assert _built(cell) == _INTERNALS


@pytest.mark.parametrize("backend", [Backend.JAVA_PPE, Backend.EMPTY])
def test_non_offloading_job_leaves_every_socket_unbuilt(backend):
    result, sim = run_encryption_job(2, 256 * MB, backend, return_cluster=True)
    assert result.succeeded
    sockets = _sockets(sim)
    assert sockets  # QS22 blades: the sockets exist...
    assert not any(_built(cell) for cell in sockets)  # ...but stay empty


def test_analytic_cell_job_builds_no_spes_and_keeps_busy_time():
    # Values of the eager-construction model: laziness moves no time.
    result, sim = run_encryption_job(
        2, 256 * MB, Backend.CELL_SPE_DIRECT, return_cluster=True)
    assert result.makespan_s == 18.165805600352595
    sockets = _sockets(sim)
    assert not any("spes" in _built(cell) for cell in sockets)
    assert [cell.total_spe_busy_s() for cell in sockets] == [0.7314285714285714] * 4


@pytest.mark.parametrize("reference", [False, True])
def test_pi_job_busy_time_is_pinned_in_both_model_modes(reference):
    previous = modelmode.set_model_reference(reference)
    try:
        result, sim = run_pi_job(2, 1e9, Backend.CELL_SPE_DIRECT, return_cluster=True)
    finally:
        modelmode.set_model_reference(previous)
    expected = 11.26385008442181 if reference else 11.263850084421806
    assert result.makespan_s == expected
    sockets = _sockets(sim)
    # Only the event-accurate reference protocol runs per-SPE processes.
    assert all(("spes" in _built(cell)) == reference for cell in sockets)
    assert [cell.total_spe_busy_s() for cell in sockets] == [10.0] * 4


def test_busy_accrued_before_build_matches_eager_build():
    """Analytic busy spread before the SPEs exist seeds them with what
    an eager build would hold, float for float, and later event-path
    compute adds on top in the same order."""
    shares = [0.1, 1 / 3, 2.5e-7, 7.0, 0.3]
    eager = CellProcessor(Environment(), 0, PAPER_CALIBRATION)
    lazy = CellProcessor(Environment(), 0, PAPER_CALIBRATION)
    eager.spes  # noqa: B018 - build first
    for seconds in shares:
        eager.spread_busy(seconds)
        lazy.spread_busy(seconds)
    assert not _built(lazy)
    assert lazy.total_spe_busy_s() == eager.total_spe_busy_s()
    assert [s.busy_s for s in lazy.spes] == [s.busy_s for s in eager.spes]
    for cell in (eager, lazy):
        cell.spread_busy(0.7)
        cell.env.process(cell.spes[3].compute(0.25))
        cell.env.run()
    assert [s.busy_s for s in lazy.spes] == [s.busy_s for s in eager.spes]
    assert lazy.total_spe_busy_s() == eager.total_spe_busy_s()


def test_probe_store_of_unbuilt_socket_is_a_fresh_spe_sized_store():
    cell = CellProcessor(Environment(), 0, PAPER_CALIBRATION)
    store = cell.probe_store()
    assert not _built(cell)
    built = cell.spes[0].local_store
    assert (store.size_bytes, store.used_bytes) == (built.size_bytes, built.used_bytes)
    assert cell.probe_store() is built
