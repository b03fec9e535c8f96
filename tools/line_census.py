"""Count the lines of gqbm that Tier-1 and the benchmark traffic execute.

usage: python tools/line_census.py [ROOT]

ROOT is a checkout of this repository (default: the one holding this
script).  It is copied, without .git, into a temporary directory, and every
run below is made there, each in a fresh interpreter under a sys.settrace
line tracer that records the lines executed in the copy's src/gqbm; so the
census writes nothing into ROOT.  The runs:

  tier-1   pytest on tests/, in one process.  Tests that start their own
           interpreter (or a forked sweep worker) are not traced;
  traffic  every run of tools/same_bytes.py, with the sweeps at --workers 1
           since forked workers are not traced either, plus
           perfbench/workloads.run_tabulated at its bench size.

The executable lines of a module are those its code objects map bytecode to
(co_lines).  The report gives, per module, the executable lines and how many
of them each side reaches; then every line Tier-1 leaves unreached, and the
lines Tier-1 alone reaches, grouped by the function that holds them.  A run
that fails stops the census.  The script is not part of the test suite; it
takes about a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True  # no __pycache__ beside this script
from same_bytes import RUNS  # noqa: E402

SWEEPS = ("jolt-sweep", "reproduce-fig2")

# The child: argv is PACKAGE HITS KIND ARGS...; it traces every line run in
# PACKAGE's files while it runs KIND, then writes them to HITS as JSON
CHILD = r"""
import json, sys, threading
package, hits_path, kind, *args = sys.argv[1:]
hits = set()

def local(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return local

def trace(frame, event, arg):
    return local if frame.f_code.co_filename.startswith(package) else None

threading.settrace(trace)
sys.settrace(trace)
try:
    if kind == "cli":
        import gqbm.cli
        status = gqbm.cli.main(args)
    elif kind == "pytest":
        import pytest
        status = pytest.main(args)
    else:
        import gqbm, workloads
        workloads.run_tabulated(gqbm, workloads.SIZES["bench"]["tabulated"],
                                0, None)
        status = 0
finally:
    sys.settrace(None)
    threading.settrace(None)
    with open(hits_path, "w") as fh:
        json.dump(sorted(hits), fh)
sys.exit(status)
"""


def executable_lines(path: Path) -> dict[int, str]:
    """Each executable line of a module, mapped to the qualified name of the
    innermost code object that runs it."""
    owner, depth = {}, {}
    stack = [(compile(path.read_text(), str(path), "exec"), 0)]
    while stack:
        code, level = stack.pop()
        for _, _, line in code.co_lines():
            # line 0 is a module's RESUME, which no line event reports
            if line and depth.get(line, -1) < level:
                owner[line], depth[line] = code.co_qualname, level
        stack.extend((const, level + 1) for const in code.co_consts
                     if hasattr(const, "co_lines"))
    return owner


def traced(tree: Path, kind: str, args: list[str], hits: Path) -> set:
    """The (file, line) pairs of src/gqbm that one traced run executes; a
    run that fails stops the census."""
    package = str(tree / "src" / "gqbm") + "/"
    env = {k: v for k, v in os.environ.items() if not k.startswith("GQBM_")}
    env["PYTHONPATH"] = f"{tree / 'src'}:{tree / 'perfbench'}"
    done = subprocess.run([sys.executable, "-c", CHILD, package, str(hits),
                           kind, *args], cwd=hits.parent, env=env,
                          capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{kind} {args} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return {tuple(pair) for pair in json.loads(hits.read_text())}


def traffic_runs(out: Path) -> list[list[str]]:
    """The same_bytes command lines, each sweep at one worker, each once."""
    runs = []
    for name, argv in RUNS.items():
        argv = list(argv)
        if argv[0] in SWEEPS and "--workers" not in argv:
            argv += ["--workers", "1"]
        if argv not in runs:
            runs.append(argv)
    return [argv + ["--out", str(out / str(j))] for j, argv in enumerate(runs)]


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "3-5, 9"."""
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(argv[0] if argv else Path(__file__).parents[1]).resolve()
    with tempfile.TemporaryDirectory(prefix="line-census-") as tmp:
        tmp = Path(tmp)
        tree = tmp / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        tier1 = traced(tree, "pytest", [
            "-q", "-p", "no:cacheprovider", str(tree / "tests")],
            tmp / "tier1.json")
        traffic = traced(tree, "tabulated", [], tmp / "tabulated.json")
        for j, args in enumerate(traffic_runs(tmp / "out")):
            traffic |= traced(tree, "cli", args, tmp / f"cli{j}.json")
        package = tree / "src" / "gqbm"
        rows, missed, alone = [], [], defaultdict(list)
        for path in sorted(package.glob("*.py")):
            owner = executable_lines(path)
            key = str(path)
            in_tier1 = {line for line in owner if (key, line) in tier1}
            in_traffic = {line for line in owner if (key, line) in traffic}
            rows.append((path.name, len(owner), len(in_tier1),
                         len(in_traffic)))
            missed += [f"{path.name}:{line} ({owner[line]})"
                       for line in sorted(set(owner) - in_tier1)]
            for line in sorted(in_tier1 - in_traffic):
                alone[f"{path.stem}.{owner[line]}"].append(line)
    print(f"{'module':<16}{'executable':>11}{'tier-1':>8}{'traffic':>9}")
    for row in rows + [("total", *map(sum, list(zip(*rows))[1:]))]:
        print(f"{row[0]:<16}{row[1]:>11}{row[2]:>8}{row[3]:>9}")
    print(f"\nTier-1 leaves {len(missed)} line(s) unreached:")
    for line in missed:
        print(f"  {line}")
    count = sum(map(len, alone.values()))
    print(f"\n{count} line(s) reached by Tier-1 and not by the traffic, by "
          f"function (lines):")
    for name, lines in sorted(alone.items()):
        print(f"  {name} ({len(lines)}): {ranges(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
