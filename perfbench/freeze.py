"""Regenerate ``frozen.json``: canonical sweep sha256s per seed.

    python3 perfbench/freeze.py [SEED ...]     # default: 1234 and 0-31

Every sweep any workload submits is run offline with ``run_sweep`` in
the default engine and model modes, two processes at a time. Rerun
only after an intentional change to simulated results, and review the
diff: a benchmark run fails when a frozen sha no longer matches.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEEDS = [1234, *range(32)]


def _requests() -> list[tuple[str, dict]]:
    import workloads

    out = [(fig, {}) for fig in workloads.PAPER_FIGS]
    for scenario, key, cold, edit in workloads.SERVED_BASES:
        out += [(scenario, {key: list(cold)}), (scenario, {key: list(edit)})]
    return out


def _sha(task: tuple[int, str, dict]) -> tuple[int, str, str]:
    import workloads
    from repro.experiments import run_sweep

    seed, scenario, overrides = task
    result = run_sweep(scenario, overrides or None, seed=seed)
    return seed, workloads.sweep_label(scenario, overrides), result.sha256()


def main(argv: list[str]) -> int:
    os.environ["REPRO_SIM_REFERENCE"] = "0"
    os.environ["REPRO_MODEL_REFERENCE"] = "0"
    os.environ["PYTHONPATH"] = str(HERE.parent / "src")
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    seeds = [int(a) for a in argv] or DEFAULT_SEEDS
    tasks = [(seed, sc, ov) for seed in seeds for sc, ov in _requests()]
    frozen: dict[str, dict[str, str]] = {}
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        for seed, label, sha in pool.imap_unordered(_sha, tasks):
            frozen.setdefault(str(seed), {})[label] = sha
    path = HERE / "frozen.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    old.update(frozen)
    path.write_text(json.dumps(old, indent=1, sort_keys=True) + "\n")
    print(f"froze {len(tasks)} sweeps for seeds {seeds} in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
