"""gqbm benchmark runner.

    python3 perfbench/run.py --workload fig2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Runs jobs of one workload, each in a fresh child process, one at a time,
until --seconds have passed (at least four untraced jobs, or two untraced
and two traced, alternating, with --trace 1), checks every job's output and
prints one JSON object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones: medians over the jobs, with times scaled to the reference
speed by the speed each job sampled while it ran (job.SpeedProbe).  A job
fails on a non-zero exit, an exception, err_ratio >= 1, or CSV bodies whose
digest differs from the first run of that workload on the same sources
recorded under --out-dir.  Each run also writes a record (machine,
versions, BLAS threads, load averages, every job) to <out-dir>/records/.
The runner itself uses only the standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"

WORKLOAD_NAMES = ("fig2", "oracle", "quench", "tabulated")
SEEDED = ("tabulated",)       # the ohmic workloads are fixed physics points
MIN_JOBS = 4
JOB_TIMEOUT_S = 120.0
LAST_START_S = 90.0           # start no job after this, whatever --seconds


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GQBM_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(spec: dict) -> tuple[dict | None, str | None]:
    """Run job.py in a fresh interpreter; (result, None) or (None, reason)."""
    result_path = Path(spec["result"])
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), json.dumps(spec)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {JOB_TIMEOUT_S:.0f} s"
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
        return None, f"exit code {proc.returncode}: {tail}"
    return json.loads(result_path.read_text()), None


ERR_RATIO_CAP = 1e9           # keeps a non-finite deviation valid JSON


def err_ratio(acc: dict) -> float:
    """Worst deviation / tolerance over the checks that carry a tolerance."""
    ratios = [dev / tol for dev, tol in acc.values() if tol is not None]
    worst = max(ratios, default=0.0)
    return worst if worst < ERR_RATIO_CAP else ERR_RATIO_CAP


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():    # not a clone: do not ask a parent repo
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class DigestBook:
    """CSV digests of the first run of each workload under the out dir.

    Keys name the workload, its size, its seed (where it uses one) and the
    sha256 of src/, so a change to the sources starts a fresh entry.
    """

    def __init__(self, path: Path):
        self.path = path
        self.book = json.loads(path.read_text()) if path.is_file() else {}

    def matches(self, key: str, digest: str) -> bool:
        if key not in self.book:
            self.book[key] = digest
            self.path.write_text(json.dumps(self.book, indent=1))
        return self.book[key] == digest


def run_workload(args, workload: str, out_dir: Path) -> tuple[dict, dict]:
    """All jobs of one run; returns (JSON result, run record)."""
    jobs_dir = out_dir / "jobs"
    base = {"workload": workload, "seed": args.seed, "scale": args.scale,
            "result": str(jobs_dir / "result.json")}
    jobs_dir.mkdir(parents=True, exist_ok=True)
    digests = DigestBook(out_dir / "digests.json")
    seed_key = str(args.seed) if workload in SEEDED else "-"
    src_key = source_digest()

    jobs = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        n_traced = sum(j["traced"] for j in jobs)
        n_plain = len(jobs) - n_traced
        enough = (min(n_plain, n_traced) >= 2 if args.trace
                  else n_plain >= MIN_JOBS)
        if (enough and elapsed >= args.seconds) or elapsed >= LAST_START_S:
            break
        traced = bool(args.trace) and n_traced < n_plain
        out = jobs_dir / f"job{len(jobs)}"
        shutil.rmtree(out, ignore_errors=True)
        load_before = os.getloadavg()[0]
        res, why = run_child({**base, "out": str(out), "trace": traced})
        job = {"traced": traced, "load_before": load_before,
               "load_after": os.getloadavg()[0], "failure": why}
        if res is not None:
            job.update(res)
            job["err_ratio"] = err_ratio(res["acc"])
            if not job["err_ratio"] < 1.0:
                job["failure"] = f"err_ratio {job['err_ratio']:.3g} >= 1"
            elif not digests.matches("/".join(
                    [workload, json.dumps(res["size"]), seed_key, src_key]),
                    res["digest"]):
                job["failure"] = "CSV digest differs from the first run"
        jobs.append(job)
        shutil.rmtree(out, ignore_errors=True)
        print(f"job {len(jobs)}{' traced' if traced else ''}: "
              + (f"wall {job['wall_s']:.3f} s, cpu {job['cpu_s']:.3f} s, "
                 f"speed {job['speed']:.3f}, err_ratio {job['err_ratio']:.3g}"
                 if res else "no result")
              + (f" FAILED ({job['failure']})" if job["failure"] else ""),
              flush=True)

    timed = [j for j in jobs if "wall_s" in j]
    plain = [j for j in timed if not j["traced"]]
    traced = [j for j in timed if j["traced"]]
    if not plain or (args.trace and not traced):
        raise SystemExit("error: no job produced a measurement")
    failed = sum(1 for j in jobs if j["failure"])
    if args.trace:
        metrics = layer_metrics(traced, at_ref_speed(plain, "wall_s"))
    else:
        metrics = {
            "setup_s": at_ref_speed(plain, "import_s"),
            "wall_s": at_ref_speed(plain, "wall_s"),
            "cpu_s": at_ref_speed(plain, "cpu_s"),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in plain),
            "err_ratio": max(j["err_ratio"] for j in plain),
        }
    unit = units()
    result = {"correct": failed == 0, "attempted": len(jobs),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": unit[k]}
                          for k, v in metrics.items()}}
    record = {"workload": workload, "seed": args.seed, "scale": args.scale,
              "trace": args.trace, "seconds": args.seconds,
              "machine": next((j["machine"] for j in timed), None),
              "commit": git_commit(), "source_sha256": src_key,
              "fail_frac": failed / len(jobs), "jobs": jobs,
              "result": result}
    return result, record


def at_ref_speed(jobs: list[dict], key: str) -> float:
    """Median over jobs of a timing at the reference speed (see job.py)."""
    speed = "import_speed" if key == "import_s" else "speed"
    return statistics.median(j[key] * j[speed] for j in jobs)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def layer_metrics(traced: list[dict], wall_plain: float) -> dict:
    """Medians over traced jobs; times at the reference speed."""
    out = {}
    for m in benchmark_spec()["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_frac":
            val = at_ref_speed(traced, "wall_s") / wall_plain - 1.0
        elif name.startswith("acc."):
            val = max((j["acc"].get(name, [0.0])[0] for j in traced))
        elif m["unit"] == "s":
            val = statistics.median(j["layers"].get(name, 0.0) * j["speed"]
                                    for j in traced)
        else:
            val = statistics.median(j["layers"].get(name, 0.0)
                                    for j in traced)
        out[name] = val
    return out


def units() -> dict:
    spec = benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(workload: str, result: dict, record: dict):
    machine = record["machine"]
    print(f"== {workload}: {machine['nproc']} cpus, {machine['blas']} "
          f"({machine['blas_threads']} threads), python {machine['python']}, "
          f"numpy {machine['numpy']}, scipy {machine['scipy']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    plain = [j for j in record["jobs"] if "wall_s" in j and not j["traced"]]
    for key in ("import_speed", "speed", "import_s", "wall_s", "cpu_s"):
        xs = sorted(j[key] for j in plain)
        print(f"  jobs {key}{'' if 'speed' in key else ' as measured'}: "
              f"min {xs[0]:.4g}, median {statistics.median(xs):.4g}, "
              f"max {xs[-1]:.4g} over {len(xs)} jobs")
    print(f"  fail_frac = {record['fail_frac']:.6g} "
          f"({result['failed']}/{result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "tiny"), default="bench",
                        help="tiny runs the same pipelines at toy size")
    parser.add_argument("--out-dir", default=str(ROOT / ".perfbench"),
                        help="job outputs, digests and run records")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gqbm" / "__init__.py").is_file():
        print(f"error: no gqbm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        result, record = run_workload(args, workload, out_dir / workload)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        rec_dir = out_dir / "records"
        rec_dir.mkdir(parents=True, exist_ok=True)
        (rec_dir / f"{workload}-seed{args.seed}-trace{args.trace}-{stamp}"
         f".json").write_text(json.dumps(record, indent=1))
        report(workload, result, record)
        results[workload] = result

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
