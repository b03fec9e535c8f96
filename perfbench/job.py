"""One benchmark job: a fresh interpreter that runs one workload once.

    python3 perfbench/job.py '<spec json>'

The spec names the workload, seed, size scale, output directory and whether
to trace.  The job times ``import gqbm, gqbm.cli`` (set-up), then the
workload (wall and user+sys CPU of every thread, peak RSS), and only then
runs the accuracy checks and hashes the CSV bodies it wrote.  While it
times, a speed probe samples how fast the host is running (see SpeedProbe);
run.py uses that to express the timings at the reference speed.  The result
goes as JSON to the spec's result path.
"""

import json
import os
import signal
import sys
import time

# A fixed pure-Python loop takes this long on the reference box at full
# speed (2-vCPU Xeon guest; the 10th percentile of 1900 samples).
PROBE_REF_S = 2.5e-4


def _probe_loop() -> float:
    start = time.perf_counter()
    x = 0.5
    for i in range(2000):
        x = (x * 1.0000001 + i) % 7.0
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the host's speed in the job's own thread.

    A shared host changes a guest's speed by up to 1.8x from one second to
    the next.  Every INTERVAL_S a SIGALRM handler times _probe_loop, so
    speed = PROBE_REF_S / mean sample follows those changes through the
    job.  ``busy`` is the time spent in the handler, which the job subtracts
    from its timings.
    """

    INTERVAL_S = 0.025

    def __init__(self):
        self.samples, self.busy = [], 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(_probe_loop())
        self.busy += time.perf_counter() - start

    def start(self):
        self.samples, self.busy = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """(speed relative to the reference box, seconds spent probing)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if not self.samples:          # window shorter than one interval
            self.samples.append(_probe_loop())
        return PROBE_REF_S * len(self.samples) / sum(self.samples), self.busy


_probe = SpeedProbe()
_probe.start()
_t0 = time.perf_counter()
import gqbm  # noqa: E402
import gqbm.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t0
IMPORT_SPEED, _busy = _probe.stop()
IMPORT_S -= _busy

import gc  # noqa: E402
import hashlib  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def csv_digest(out: Path) -> str:
    """sha256 over every CSV body under out, in path order."""
    h = hashlib.sha256()
    for path in sorted(out.rglob("*.csv")):
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_info() -> dict:
    """nproc, versions, and the BLAS library with its threads in effect."""
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _openblas_threads()}


def _openblas_threads() -> int | None:
    """Ask the loaded OpenBLAS for its thread count (None if not found)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(spec: dict) -> dict:
    result = {"import_s": IMPORT_S, "import_speed": IMPORT_SPEED,
              "machine": machine_info()}
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    run, check = WORKLOADS[spec["workload"]]
    size = SIZES[spec["scale"]][spec["workload"]]

    tracer = Tracer() if spec.get("trace") else None
    if tracer is not None:
        tracer.install()
        root = tracer.begin("job")
    gc.collect()
    _probe.start()
    cpu0, wall0 = time.process_time(), time.perf_counter()  # CPU: all threads
    state = run(gqbm, size, spec["seed"], out)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    speed, busy = _probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.end(root)
        tracer.uninstall()

    acc = check(gqbm, size, spec["seed"], out, state, spec["scale"])
    result.update(
        size=size, wall_s=wall - busy, cpu_s=cpu - busy, speed=speed,
        peak_rss_mb=peak_rss_mb,
        acc={k: [float(v), tol] for k, (v, tol) in acc.items()},
        digest=csv_digest(out),
        layers=tracer.summary() if tracer is not None else None)
    return result


if __name__ == "__main__":
    job_spec = json.loads(sys.argv[1])
    res = main(job_spec)
    Path(job_spec["result"]).write_text(json.dumps(res))
