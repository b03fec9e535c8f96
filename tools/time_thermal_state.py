"""Time thermal_total_state of two source trees at paper-scale baths.

usage: python tools/time_thermal_state.py OLD_ROOT NEW_ROOT

Each root is a checkout of this repository.  At 300, 600, 2 000 and 3 000
gauss modes on omega <= 12 (the ohmic model at gamma0 = 3e-4, cutoff 1,
T = 0.01 and alpha = 0.5, prepared at omega_s0 = 0.6), each root runs
gqbm.thermal_total_state once per fresh interpreter that imports gqbm from
ROOT/src, in ten alternating pairs (old first in the even pairs, new first
in the odd ones).  A run reports the call's wall and CPU time, the rise of
the process's ru_maxrss across the call, the symplectic residual and the
lowest normal frequency.  The report gives, per size and root, the median
and quartiles of each time, the median rise in MB and as bytes per
(N + 1)^2, the largest residual, and the old/new ratio of the median wall
times.  The exit status is 1 when a run fails, and 0 otherwise.  The script
is not part of the test suite; on two cores it takes about three minutes
when the old root is the SVD route.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

MODES = (300, 600, 2000, 3000)
PAIRS = 10

# The child: argv is MODES; it prints one JSON record of the call
CHILD = r"""
import json, resource, sys, time
import gqbm
n_modes = int(sys.argv[1])
model = gqbm.SpectralModel(family="ohmic", gamma0=3e-4, cutoff=1.0,
                           alpha=0.5, temperature=0.01)
bath = gqbm.discretize_bath(model, n_modes, 12.0, scheme="gauss")
dyn = gqbm.build_dynamics(bath, 0.3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
wall, cpu = time.perf_counter(), time.process_time()
state = gqbm.thermal_total_state(dyn, 0.01, 0.6)
wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(json.dumps({"wall": wall, "cpu": cpu, "rise_kib": rise,
                  "residual": state.metadata["symplectic_residual"],
                  "lowest": state.metadata["min_normal_frequency"]}))
"""


def run(root: Path, n_modes: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GQBM_")}
    env["PYTHONPATH"] = str(root / "src")
    done = subprocess.run([sys.executable, "-c", CHILD, str(n_modes)],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{root} at {n_modes} modes exited "
                           f"{done.returncode}\n{done.stderr.strip()}")
    return json.loads(done.stdout)


def spread(values: list[float]) -> str:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return f"{med:.4f} [{q1:.4f}, {q3:.4f}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    roots = {"old": Path(argv[0]).resolve(), "new": Path(argv[1]).resolve()}
    print(f"old = {roots['old']}\nnew = {roots['new']}")
    print("modes side  wall_s median [q1, q3]     cpu_s median [q1, q3]"
          "      rise MB  B/(N+1)^2  max residual")
    for n_modes in MODES:
        runs = {"old": [], "new": []}
        try:
            for pair in range(PAIRS):
                sides = ("old", "new") if pair % 2 == 0 else ("new", "old")
                for side in sides:
                    runs[side].append(run(roots[side], n_modes))
        except RuntimeError as err:
            print(err)
            return 1
        for side in ("old", "new"):
            recs = runs[side]
            rise = float(np.median([r["rise_kib"] for r in recs])) * 1024.0
            print(f"{n_modes:5d} {side:4s}  "
                  f"{spread([r['wall'] for r in recs]):26s} "
                  f"{spread([r['cpu'] for r in recs]):26s} "
                  f"{rise / 2**20:7.1f}  {rise / (n_modes + 1) ** 2:9.1f}  "
                  f"{max(r['residual'] for r in recs):.2e}")
        old = np.median([r["wall"] for r in runs["old"]])
        new = np.median([r["wall"] for r in runs["new"]])
        wins = sum(n["wall"] < o["wall"]
                   for o, n in zip(runs["old"], runs["new"]))
        print(f"{n_modes:5d} old/new median wall {old / new:.2f}x, "
              f"new faster in {wins} of {PAIRS} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
