"""Set-up probe: a fresh interpreter made ready to run one workload.

    python3 perfbench/probe.py <workload> <seed>

Prints ``ready`` once the workload could start — imports and the
scenario registry done, plus the sweep pool forked and the daemon
answering (``served_sweeps``) or the coordinator bound with both fleet
workers registered (``fleet_sweep``) — then tears everything down and
exits. ``run.py`` times it from spawn to ``ready``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(HERE.parent / "src"))

    import workloads
    from repro.experiments import get_scenario

    workloads.exit_on_sigterm()

    ctx = workloads.Context(HERE.parent, seed)
    teardown = []
    try:
        if workload == "paper_figs":
            for fig in workloads.PAPER_FIGS:
                get_scenario(fig).with_overrides(None, seed=seed).points()
        elif workload == "served_sweeps":
            from repro.serve import Address, ReproServer
            from repro.serve.client import wait_for_server

            served = workloads.ServedSweeps(ctx)
            served.prepare()
            teardown.append(served.close)
            work = ctx.scratch("serve")
            server = ReproServer(socket_path=work / "s.sock", cache_dir=work / "cache",
                                 pool=served.pool).start()
            teardown.append(server.close)
            if not wait_for_server(Address(socket_path=work / "s.sock"), timeout=30):
                return 1
        elif workload == "fleet_sweep":
            from repro.fabric import FleetCoordinator

            work = ctx.scratch("fleet")
            coord = FleetCoordinator(workloads.FLEET_SCENARIO, seed=seed,
                                     socket_path=work / "c.sock",
                                     journal_path=work / "journal.jsonl")
            coord.start()
            teardown.append(coord.close)
            for i in range(workloads.FLEET_WORKERS):
                ctx.spawn([sys.executable, "-m", "repro", "fleet", "worker",
                           "--socket", str(work / "c.sock"), "--name", f"w{i}",
                           "--log-level", "warning"], work / f"w{i}.log")
            deadline = time.monotonic() + 60
            while coord.stats()["workers_live"] < workloads.FLEET_WORKERS:
                if time.monotonic() > deadline:
                    return 1
                time.sleep(0.002)
        else:
            return 2
        print("ready", flush=True)
        return 0
    finally:
        for step in reversed(teardown):
            step()
        ctx.close()  # stops fleet workers, removes the scratch directory


if __name__ == "__main__":
    sys.exit(main())
