"""Point-level incremental caching, the timing store + cost-aware
dispatch ordering, and cache pruning."""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments.cache as cache_mod
import repro.modelmode as modelmode
from repro.cli import main as cli_main
from repro.experiments import get_scenario, run_sweep
from repro.experiments.cache import (
    PointCache,
    TimingStore,
    cache_path,
    cached_sweep,
    point_key,
    prune_cache,
    request_key,
)
from repro.experiments.driver import _order_tasks


# -- point keys --------------------------------------------------------------

def test_point_key_is_stable_and_cfg_sensitive():
    sc = get_scenario("_test_synth")
    cfg = sc.points()[0]
    assert point_key(sc, cfg) == point_key(sc, cfg)
    other = dict(cfg, k=999)
    assert point_key(sc, other) != point_key(sc, cfg)
    seeded = dict(cfg, seed=9)
    assert point_key(sc, seeded) != point_key(sc, cfg)


def test_point_key_tracks_modes_and_code_version(monkeypatch):
    sc = get_scenario("_test_synth")
    cfg = sc.points()[0]
    base = point_key(sc, cfg)
    assert point_key(sc, cfg, model_reference=True) != base
    monkeypatch.setattr(cache_mod, "_code_version", lambda: "deadbeef")
    assert point_key(sc, cfg) != base  # a code change invalidates points


_POINT_CACHE_RUN = '''
import json, sys
from pathlib import Path
from repro.experiments import run_sweep
from repro.experiments.cache import PointCache
r = run_sweep("fig6", {"samples": [1e3]}, point_cache=PointCache(Path(sys.argv[1])))
print(json.dumps([r.executed_points, r.cached_points, r.sha256()]))
'''


def test_source_edit_turns_point_cache_hit_into_miss(tmp_path):
    """The code fingerprint covers the package sources themselves, so an
    uncommitted edit (here: outside any git checkout) can never be
    served the pre-edit cached values."""
    src = tmp_path / "src"
    shutil.copytree(Path(cache_mod.__file__).resolve().parents[1], src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cache_dir = tmp_path / "cache"

    def sweep():
        out = subprocess.run(
            [sys.executable, "-c", _POINT_CACHE_RUN, str(cache_dir)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        )
        return json.loads(out.stdout)

    executed, cached, before = sweep()
    assert (executed, cached) == (1, 0)
    assert sweep() == [0, 1, before]  # unchanged code: a point hit
    scenarios = src / "repro" / "experiments" / "scenarios.py"
    text = scenarios.read_text()
    edited = text.replace("out[series.label] = series.ys[0]",
                          "out[series.label] = series.ys[0] * 2")
    assert edited != text
    scenarios.write_text(edited)
    executed, cached, after = sweep()
    assert (executed, cached) == (1, 0)  # the edit turned the hit into a miss
    assert after != before


def test_point_key_ignores_grid_membership():
    """Adding/removing *other* grid values must not invalidate a point —
    that independence is the whole incremental-caching lever."""
    sc = get_scenario("_test_synth")
    wider = sc.with_overrides({"k": [0, 1, 2, 3, 99]})
    cfg = sc.points()[0]
    assert cfg in wider.points()
    assert point_key(sc, cfg) == point_key(wider, cfg)


# -- incremental re-sweeps ---------------------------------------------------

def test_grid_edit_reruns_only_changed_points(tmp_path):
    first, hit = cached_sweep("_test_synth", workers=1, cache_dir=tmp_path)
    assert not hit
    assert first.executed_points == 9 and first.cached_points == 0
    edited = get_scenario("_test_synth").with_overrides(
        {"k": [0, 1, 2, 3, 4, 5, 6, 7, 99]}
    )
    second, hit = cached_sweep(edited, workers=1, cache_dir=tmp_path)
    assert not hit  # the whole-sweep request changed...
    assert second.executed_points == 1  # ...but only one point ran
    assert second.cached_points == 8
    # Byte identity with a cache-free run: assembly from stored values
    # is invisible to persistence and goldens.
    fresh = run_sweep(edited, workers=1)
    assert second.canonical_json() == fresh.canonical_json()
    assert second.sha256() == fresh.sha256()


def test_default_tweak_reruns_everything(tmp_path):
    cached_sweep("_test_synth", workers=1, cache_dir=tmp_path)
    edited = get_scenario("_test_synth").with_overrides({"scale": 4.0})
    second, _ = cached_sweep(edited, workers=1, cache_dir=tmp_path)
    assert second.executed_points == 9  # a default changes every cfg


def test_point_assembly_after_whole_sweep_entry_lost(tmp_path):
    """Deleting the whole-sweep entry still re-sweeps with zero executed
    points: every value assembles from the point cache."""
    sc = get_scenario("_test_synth")
    first, _ = cached_sweep(sc, workers=1, cache_dir=tmp_path)
    cache_path(tmp_path, sc, request_key(sc)).unlink()
    second, hit = cached_sweep(sc, workers=1, cache_dir=tmp_path)
    assert not hit
    assert second.executed_points == 0 and second.cached_points == 9
    assert second.canonical_json() == first.canonical_json()
    assert all(p.get("cached") for p in second.points)
    assert "cached" not in second.canonical_json()


def test_corrupt_point_entry_is_a_miss(tmp_path):
    sc = get_scenario("_test_synth")
    cache = PointCache(tmp_path)
    key, miss = cache.lookup(sc, sc.points()[0])
    assert miss is None
    path = cache.store(sc.name, key, {"y": 1.5})
    assert cache.get(sc.name, key) == {"y": 1.5}
    path.write_text("{ not json")
    assert cache.get(sc.name, key) is None
    # A key mismatch (prefix collision) is also a miss, never a wrong hit.
    cache.store(sc.name, key, {"y": 1.5})
    entry = json.loads(path.read_text())
    entry["key"] = "f" * 64
    path.write_text(json.dumps(entry))
    assert cache.get(sc.name, key) is None


def test_parallel_incremental_resweep_matches_serial(tmp_path):
    cached_sweep("_test_synth", workers=1, cache_dir=tmp_path)
    edited = get_scenario("_test_synth").with_overrides(
        {"k": [0, 2, 4, 6, 8, 50, 60]}
    )
    par, _ = cached_sweep(edited, workers=4, cache_dir=tmp_path)
    assert par.executed_points == 2 and par.cached_points == 5
    assert par.canonical_json() == run_sweep(edited, workers=1).canonical_json()


# -- timing store + dispatch order -------------------------------------------

def test_timing_store_roundtrip(tmp_path):
    sc = get_scenario("_test_synth")
    cfg = sc.points()[0]
    store = TimingStore(tmp_path)
    key = store.key(sc, cfg)
    assert store.estimate(key) is None
    store.record(key, 1.25)
    store.flush()
    reloaded = TimingStore(tmp_path)
    assert reloaded.estimate(key) == 1.25
    # The model mode changes the key: the reference model costs more.
    assert store.key(sc, cfg, model_reference=True) != key


def test_timing_store_caps_entries(tmp_path):
    store = TimingStore(tmp_path, max_entries=3)
    for i in range(6):
        store.record(f"{i:016x}" + "0" * 48, float(i))
    store.flush()
    data = json.loads((tmp_path / "timings.json").read_text())["elapsed_s"]
    assert len(data) == 3
    assert set(data.values()) == {3.0, 4.0, 5.0}  # newest survive


def test_timing_store_recency_survives_reload(tmp_path):
    """Eviction order must be least-recently-updated *across sessions*:
    the on-disk file preserves insertion order, so refreshing an old
    entry protects it from the cap after a reload."""
    store = TimingStore(tmp_path, max_entries=2)
    keys = [f"{i:016x}" + "0" * 48 for i in range(3)]
    store.record(keys[0], 1.0)
    store.record(keys[1], 2.0)
    store.flush()
    second = TimingStore(tmp_path, max_entries=2)
    second.record(keys[0], 9.0)  # refresh the oldest...
    second.record(keys[2], 3.0)  # ...then push past the cap
    second.flush()
    third = TimingStore(tmp_path, max_entries=2)
    assert third.estimate(keys[1]) is None  # the stale entry fell out
    assert third.estimate(keys[0]) == 9.0
    assert third.estimate(keys[2]) == 3.0


def test_order_tasks_longest_first_unknown_leading():
    tasks = [("s", i, {}, False, False) for i in range(5)]
    costs = {0: 0.1, 2: 5.0, 4: 1.0}  # 1 and 3 unknown
    ordered = _order_tasks(tasks, lambda t: costs.get(t[1]))
    assert [t[1] for t in ordered] == [1, 3, 2, 4, 0]


def test_recorded_timings_change_dispatch_not_bytes(tmp_path):
    serial = run_sweep("_test_synth", workers=1)
    first, _ = cached_sweep("_test_synth", workers=2, cache_dir=tmp_path)
    assert (tmp_path / "timings.json").exists()
    # Second parallel run dispatches longest-recorded-first; bytes and
    # point order in the result are untouched.
    (cache_path(tmp_path, get_scenario("_test_synth"),
                request_key(get_scenario("_test_synth")))).unlink()
    for p in (tmp_path / "points").glob("*.json"):
        p.unlink()
    second, _ = cached_sweep("_test_synth", workers=2, cache_dir=tmp_path)
    assert second.executed_points == 9
    assert second.canonical_json() == serial.canonical_json()


# -- pruning -----------------------------------------------------------------

def _touch(path, age_s, now):
    os.utime(path, (now - age_s, now - age_s))


def test_prune_by_age(tmp_path):
    import time

    now = time.time()
    sc = get_scenario("_test_synth")
    result, _ = cached_sweep(sc, workers=1, cache_dir=tmp_path)
    entries = sorted(tmp_path.glob("*.json")) + sorted((tmp_path / "points").glob("*.json"))
    old = [p for p in entries if p.name != "timings.json"][:4]
    for p in old:
        _touch(p, 10 * 86_400, now)
    stats = prune_cache(tmp_path, max_age_days=5, now=now)
    assert stats.removed == 4
    assert stats.freed_bytes > 0
    for p in old:
        assert not p.exists()
    assert (tmp_path / "timings.json").exists()  # advisory file exempt


def test_prune_by_bytes_keeps_newest(tmp_path):
    import time

    now = time.time()
    for i in range(5):
        path = tmp_path / f"synth-{i:016x}.json"
        path.write_text(json.dumps({"format": 1, "key": "x", "values": {}}))
        _touch(path, (5 - i) * 3600, now)  # i=4 newest
    keep = (tmp_path / "synth-0000000000000004.json").stat().st_size
    stats = prune_cache(tmp_path, max_bytes=keep, now=now)
    assert stats.removed == 4 and stats.kept == 1
    assert (tmp_path / "synth-0000000000000004.json").exists()


def test_prune_without_criteria_reports_only(tmp_path):
    cached_sweep("_test_synth", workers=1, cache_dir=tmp_path)
    stats = prune_cache(tmp_path)
    assert stats.removed == 0
    assert stats.kept == stats.scanned > 0


def test_cli_cache_prune(tmp_path):
    out_dir = tmp_path / "results"
    buf = io.StringIO()
    code = cli_main(["sweep", "fig2", "--grid", "size_mb=1",
                     "--out", str(out_dir), "--cache"], out=buf)
    assert code == 0
    buf = io.StringIO()
    code = cli_main(["sweep", "--cache-prune", "--max-age-days", "0",
                     "--out", str(out_dir)], out=buf)
    assert code == 0
    assert "cache prune" in buf.getvalue()
    assert "removed" in buf.getvalue()
    assert not list((out_dir / ".cache").glob("*-*.json"))


# -- mode interaction --------------------------------------------------------

def test_point_cache_respects_model_mode(tmp_path):
    """Reference-model sweeps never reuse event-thin points (and vice
    versa): the per-point key includes the model flag."""
    first, _ = cached_sweep("_test_synth", workers=1, cache_dir=tmp_path)
    prev = modelmode.set_model_reference(True)
    try:
        mod, hit = cached_sweep("_test_synth", workers=1, cache_dir=tmp_path)
    finally:
        modelmode.set_model_reference(prev)
    assert not hit and mod.executed_points == 9


# -- concurrent access (a daemon racing a prune or another sweep) ------------

def test_point_get_tolerates_entry_vanishing_into_unreadability(tmp_path):
    """exists() said yes but the read fails (pruned and replaced between
    check and read): a miss, never an exception or a wrong hit."""
    sc = get_scenario("_test_synth")
    cache = PointCache(tmp_path)
    key, _ = cache.lookup(sc, sc.points()[0])
    path = cache.store(sc.name, key, {"y": 2.0})
    path.unlink()
    path.mkdir()  # exists() is True, read_text() raises OSError
    assert cache.get(sc.name, key) is None


def test_load_cached_tolerates_unreadable_entry(tmp_path):
    from repro.experiments.cache import load_cached, store_cached

    sc = get_scenario("_test_synth")
    result, _ = cached_sweep(sc, workers=1, cache_dir=tmp_path)
    key = request_key(sc)
    path = cache_path(tmp_path, sc, key)
    assert load_cached(tmp_path, sc, key) is not None
    path.unlink()
    path.mkdir()
    assert load_cached(tmp_path, sc, key) is None


def test_prune_tolerates_entries_vanishing_mid_scan(tmp_path, monkeypatch):
    """An entry deleted between the directory listing and its stat (a
    racing daemon or second pruner) is skipped, not fatal."""
    from pathlib import Path

    cached_sweep("_test_synth", workers=1, cache_dir=tmp_path)
    victims = {p.name for p in list(tmp_path.glob("*-*.json"))[:1]} | \
        {p.name for p in list((tmp_path / "points").glob("*.json"))[:2]}
    assert len(victims) == 3
    real_stat = Path.stat

    def racing_stat(self, **kw):
        if self.name in victims:
            raise FileNotFoundError(str(self))
        return real_stat(self, **kw)

    monkeypatch.setattr(Path, "stat", racing_stat)
    stats = prune_cache(tmp_path, max_age_days=0.0, now=__import__("time").time() + 10)
    # The three racing entries were skipped; everything else pruned.
    assert stats.removed == stats.scanned
    assert stats.scanned > 0


def test_prune_tolerates_unlink_races(tmp_path, monkeypatch):
    """Losing the unlink race (the other pruner got there first) counts
    the entry as already gone instead of crashing."""
    from pathlib import Path

    cached_sweep("_test_synth", workers=1, cache_dir=tmp_path)
    real_unlink = Path.unlink
    stolen = []

    def racing_unlink(self, **kw):
        if self.suffix == ".json" and not stolen:
            stolen.append(self.name)
            real_unlink(self)  # the racing pruner wins...
            raise FileNotFoundError(str(self))  # ...and we lose
        return real_unlink(self, **kw)

    monkeypatch.setattr(Path, "unlink", racing_unlink)
    stats = prune_cache(tmp_path, max_age_days=0.0,
                        now=__import__("time").time() + 10)
    assert stolen  # the race actually happened
    assert stats.removed == stats.scanned - 1


def test_store_get_prune_thread_stress(tmp_path):
    """A writer/reader thread races a pruning thread over one cache
    directory; nothing may raise and reads are always a hit with the
    stored values or a clean miss."""
    import threading

    sc = get_scenario("_test_synth")
    cache = PointCache(tmp_path)
    cfgs = sc.points()
    errors = []
    stop = threading.Event()

    def churn():
        try:
            for round_ in range(30):
                for cfg in cfgs:
                    key, hit = cache.lookup(sc, cfg)
                    if hit is not None and hit != {"y": 1.0}:
                        errors.append(f"torn read: {hit}")
                    cache.store(sc.name, key, {"y": 1.0})
        except Exception as exc:  # noqa: BLE001
            errors.append(f"churn: {type(exc).__name__}: {exc}")
        finally:
            stop.set()

    def pruner():
        import time as time_mod

        try:
            while not stop.is_set():
                prune_cache(tmp_path, max_age_days=0.0,
                            now=time_mod.time() + 10)
        except Exception as exc:  # noqa: BLE001
            errors.append(f"prune: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=churn), threading.Thread(target=pruner)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors
