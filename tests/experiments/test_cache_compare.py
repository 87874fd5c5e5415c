"""Scenario result caching and sweep drift reports."""

import json

import pytest

import repro.modelmode as modelmode
from repro.experiments import get_scenario, run_sweep, save_sweep
from repro.experiments.cache import (
    cache_path,
    cached_sweep,
    load_cached,
    request_key,
    store_cached,
)
from repro.experiments.compare import compare_result_to_dir
from repro.cli import main


# -- cache keys --------------------------------------------------------------

def test_request_key_is_stable_and_sensitive():
    sc = get_scenario("_test_synth")
    assert request_key(sc) == request_key(sc)
    assert request_key(sc.with_overrides({"k": [1, 2]})) != request_key(sc)
    assert request_key(sc.with_overrides(None, seed=9)) != request_key(sc)
    assert request_key(sc, model_reference=True) != request_key(sc, model_reference=False)


def test_cached_sweep_miss_then_hit(tmp_path):
    fresh, hit = cached_sweep("_test_synth", workers=1, cache_dir=tmp_path)
    assert not hit
    again, hit = cached_sweep("_test_synth", workers=1, cache_dir=tmp_path)
    assert hit
    # The reconstructed result carries the same canonical bytes — the
    # whole point: persistence and goldens can't tell it ran from cache.
    assert again.canonical_json() == fresh.canonical_json()
    assert again.pretty_json() == fresh.pretty_json()
    assert again.sha256() == fresh.sha256()
    assert again.workers == 0  # nothing actually ran


def test_cache_misses_on_seed_change(tmp_path):
    _, hit1 = cached_sweep("_test_synth", workers=1, cache_dir=tmp_path)
    _, hit2 = cached_sweep("_test_synth", workers=1, cache_dir=tmp_path, seed=9)
    assert not hit1 and not hit2
    _, hit3 = cached_sweep("_test_synth", workers=1, cache_dir=tmp_path, seed=9)
    assert hit3


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    sc = get_scenario("_test_synth")
    result = run_sweep(sc, workers=1)
    key = request_key(sc)
    path = store_cached(result, tmp_path, key)
    path.write_text("{ not json")
    assert load_cached(tmp_path, sc, key) is None
    # A rerun through the wrapper heals the entry.
    healed, hit = cached_sweep(sc, workers=1, cache_dir=tmp_path)
    assert not hit
    assert load_cached(tmp_path, sc, key) is not None
    assert cache_path(tmp_path, sc, key) == path


def test_cache_key_tracks_model_mode(tmp_path):
    _, hit = cached_sweep("_test_synth", workers=1, cache_dir=tmp_path)
    prev = modelmode.set_model_reference(True)
    try:
        _, hit_ref = cached_sweep("_test_synth", workers=1, cache_dir=tmp_path)
    finally:
        modelmode.set_model_reference(prev)
    assert not hit and not hit_ref  # distinct entries per model mode


# -- drift reports -----------------------------------------------------------

def test_compare_clean_when_results_identical(tmp_path):
    result = run_sweep("_test_synth", workers=1)
    save_sweep(result, tmp_path)
    report = compare_result_to_dir(result, tmp_path)
    assert not report.has_drift
    assert "no drift" in report.format()


def test_compare_detects_value_drift(tmp_path):
    result = run_sweep("_test_synth", workers=1)
    save_sweep(result, tmp_path)
    stored = json.loads((tmp_path / "_test_synth.json").read_text())
    stored["series"][0]["ys"][2] += 0.5
    (tmp_path / "_test_synth.json").write_text(json.dumps(stored))
    report = compare_result_to_dir(result, tmp_path)
    assert report.has_drift
    text = report.format()
    assert "DRIFT" in text and "1/9 points differ" in text
    assert "x=2" in text


def test_compare_detects_structural_drift(tmp_path):
    result = run_sweep("_test_synth", workers=1)
    save_sweep(result, tmp_path)
    stored = json.loads((tmp_path / "_test_synth.json").read_text())
    stored["series"][0]["label"] = "renamed"
    (tmp_path / "_test_synth.json").write_text(json.dumps(stored))
    report = compare_result_to_dir(result, tmp_path)
    assert report.has_drift
    assert "absent from old" in report.format()
    assert "absent from new" in report.format()


def test_compare_nan_points_count_but_finite_worst_wins(tmp_path):
    """NaN drift anchors the report (no crash) yet never hides a real
    deviation appearing later."""
    result = run_sweep("_test_synth", workers=1)
    save_sweep(result, tmp_path)
    stored = json.loads((tmp_path / "_test_synth.json").read_text())
    stored["series"][0]["ys"][0] = float("nan")  # NaN drifts first...
    stored["series"][0]["ys"][3] += 50.0         # ...finite drift later
    (tmp_path / "_test_synth.json").write_text(json.dumps(stored))
    report = compare_result_to_dir(result, tmp_path)
    assert report.has_drift
    text = report.format()
    assert "2/9 points differ" in text
    assert "x=3" in text and "|Δ|=50" in text  # the finite worst, not the NaN


def test_request_key_includes_code_version(monkeypatch):
    import repro.experiments.cache as cache_mod

    sc = get_scenario("_test_synth")
    base = request_key(sc)
    monkeypatch.setattr(cache_mod, "_code_version", lambda: "deadbeef")
    assert request_key(sc) != base  # a code change invalidates the cache


def test_compare_missing_old_result_is_drift(tmp_path):
    result = run_sweep("_test_synth", workers=1)
    report = compare_result_to_dir(result, tmp_path)
    assert report.has_drift
    assert "no stored result" in report.format()


# -- CLI integration ---------------------------------------------------------

def run_cli(tmp_path, *argv):
    import io

    out = io.StringIO()
    code = main([*argv], out=out)
    return code, out.getvalue()


def test_cli_sweep_cache_and_compare_roundtrip(tmp_path):
    out_dir = tmp_path / "results"
    args = ["sweep", "fig2", "--grid", "size_mb=1", "--out", str(out_dir)]
    code, text = run_cli(tmp_path, *args, "--cache")
    assert code == 0 and "cache hit" not in text
    code, text = run_cli(tmp_path, *args, "--cache")
    assert code == 0 and "cache hit" in text
    # Clean compare: the stored results match a fresh run.
    code, text = run_cli(tmp_path, *args, "--no-save", "--compare", str(out_dir))
    assert code == 0 and "no drift" in text
    # Poison the stored series: compare exits 3.
    stored = json.loads((out_dir / "fig2.json").read_text())
    stored["series"][0]["ys"][0] *= 2
    (out_dir / "fig2.json").write_text(json.dumps(stored))
    code, text = run_cli(tmp_path, *args, "--no-save", "--compare", str(out_dir))
    assert code == 3 and "DRIFT DETECTED" in text
