"""Check that two source trees write the same bytes at the benchmark points.

usage: python tools/same_bytes.py OLD_ROOT NEW_ROOT

Each root is a checkout of this repository.  Every run below is made once
per root, each in a fresh interpreter that imports gqbm from ROOT/src, with
the GQBM_* environment cleared so that both read the same inputs.  Every
CSV body is compared byte for byte; for one that differs, each column's
max|new - old| / max|old| is printed.  The manifests are compared with
[run] wall_time_s and [config] out_dir masked.  The exit status is 1 on any
difference, or when a run fails on either side, and 0 otherwise.

The grids and sizes are the perfbench bench points (perfbench/workloads.py,
SIZES["bench"]), except coeffs-crosscheck, the one run that reaches
coeff_integral_crosscheck, whose two-time Volterra table is O(n^2) and so
runs at 200 steps.  The script is not part of the test suite; it takes about
eight seconds on two cores.
"""

from __future__ import annotations

import configparser
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PAPER = ["--gamma0", "0.0003", "--temperature", "0.01", "--cutoff", "1.0"]
FIG2_GRID = ["--t-end", "10.0", "--steps", "600"]
ORACLE = ["--alpha", "0.5", "--oracle-scheme", "gauss"] + PAPER

# run name -> gqbm command line, without --out
RUNS = {
    "kernels": ["kernels"] + PAPER + FIG2_GRID,
    "greens-crosscheck": ["greens", "--crosscheck"] + PAPER + FIG2_GRID,
    "coeffs-alpha1": ["coeffs", "--alpha", "1"] + PAPER + FIG2_GRID,
    "coeffs-crosscheck": ["coeffs", "--alpha", "0.5", "--crosscheck"] + PAPER
    + ["--t-end", "10", "--steps", "200"],
    "evolve-squeezed": ["evolve", "--init-mean-re", "2.0", "--init-delta-n",
                        "0.1", "--init-delta-s-re", "0.3"] + PAPER + FIG2_GRID,
    "jolt-sweep": ["jolt-sweep"] + PAPER + FIG2_GRID,
    "fig2-workers1": ["reproduce-fig2", "--workers", "1"] + FIG2_GRID,
    "fig2-pool": ["reproduce-fig2"] + FIG2_GRID,
    "oracle-compare": ["oracle-compare", "--oracle-modes", "400",
                       "--oracle-omega-max", "20", "--t-end", "3.0",
                       "--steps", "300"] + ORACLE,
    "oracle-quench": ["oracle-compare", "--omega-s", "0.3", "--quench-from",
                      "0.6", "--oracle-modes", "300", "--oracle-omega-max",
                      "12", "--t-end", "2.0", "--steps", "200"] + ORACLE,
}
MASKED = {("run", "wall_time_s"), ("config", "out_dir")}


def run(root: Path, argv: list[str], out: Path) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GQBM_")}
    env["PYTHONPATH"] = str(root / "src")
    return subprocess.run(
        [sys.executable, "-m", "gqbm.cli", *argv, "--out", str(out)],
        cwd=out.parent, env=env, capture_output=True, text=True)


def manifest(path: Path) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path)
    return {(section, key): value for section in parser.sections()
            for key, value in parser.items(section)
            if (section, key) not in MASKED}


def column_deviations(old: Path, new: Path) -> list[str]:
    """max|new - old| / max|old| of each column of two CSVs."""
    heads, tables = [], []
    for path in (old, new):
        with open(path) as fh:
            heads.append(fh.readline().strip().split(","))
        tables.append(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))
    if heads[0] != heads[1] or tables[0].shape != tables[1].shape:
        return [f"header or shape differs: {heads[0]} {tables[0].shape} "
                f"against {heads[1]} {tables[1].shape}"]
    lines = []
    for name, a, b in zip(heads[0], tables[0].T, tables[1].T):
        scale = float(np.max(np.abs(a)))
        dev = float(np.max(np.abs(b - a)))
        lines.append(f"{name}: {dev / scale if scale else dev:.3e}")
    return lines


def compare(name: str, old: Path, new: Path) -> list[str]:
    """The differences between the two output directories of one run."""
    files = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    new_files = {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    problems = []
    if files != new_files:
        problems.append(f"only in one tree: "
                        f"{sorted(map(str, files ^ new_files))}")
    csvs = 0
    for rel in sorted(files & new_files):
        if rel.suffix == ".csv":
            csvs += 1
            if (old / rel).read_bytes() != (new / rel).read_bytes():
                problems.append(f"{rel} differs, column max|d| / max|col|: "
                                + "; ".join(column_deviations(old / rel,
                                                              new / rel)))
        elif rel.name == "manifest.txt":
            before, after = manifest(old / rel), manifest(new / rel)
            for key in sorted(before.keys() | after.keys()):
                if before.get(key) != after.get(key):
                    problems.append(f"{rel} [{key[0]}] {key[1]}: "
                                    f"{before.get(key)} -> {after.get(key)}")
    verdict = "DIFFERS" if problems else "same bytes"
    print(f"{name}: {csvs} CSV file(s), {verdict}")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in argv]
    failed = False
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        for name, cmd in RUNS.items():
            outs = []
            for side, root in zip(("old", "new"), roots):
                out = Path(tmp) / side / name
                out.parent.mkdir(parents=True, exist_ok=True)
                done = run(root, cmd, out)
                if done.returncode != 0:
                    print(f"{name}: {side} exited {done.returncode}\n"
                          f"{done.stderr.strip()}")
                    failed = True
                outs.append(out)
            if all(out.is_dir() for out in outs):
                for line in compare(name, *outs):
                    print(f"  {line}")
                    failed = True
    print("FAIL: the trees differ" if failed else
          "OK: every CSV body and manifest is the same")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
