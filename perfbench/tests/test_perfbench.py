"""Tests of the benchmark itself (not collected by the package's own suite).

    python3 -m pytest perfbench/tests -q

Span arithmetic, a tiny-size smoke run of every workload through the same
runner, and the correctness gates: a corrupted fig2 reference and a changed
CSV digest must both drive every job to a counted failure, while a digest
recorded for other sources must not.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--seed", "1",
         "--seconds", "0", *args],
        cwd=root, capture_output=True, text=True, timeout=600)


def tiny(workload, out_dir, *args, root=ROOT):
    proc = run_bench("--workload", workload, "--scale", "tiny",
                     "--out-dir", str(out_dir), *args, root=root)
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def checkout(tmp_path, src):
    """A copy of the benchmark; src is "link", "copy" or None (no program)."""
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if src == "link":
        (root / "src").symlink_to(ROOT / "src")
    elif src == "copy":
        shutil.copytree(ROOT / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [("a", 0.0, 10.0, None),
             ("b", 1.0, 4.0, 0),
             ("c", 5.0, 9.0, 0),
             ("d", 6.0, 7.0, 2),
             ("e", 6.5, 8.0, 2)]      # overlaps d: c's children cover 2.0
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.5])


def test_tracer_charges_a_nested_call_to_the_callee():
    tracer = Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.2), "greens.inner")

    def outer_body():
        time.sleep(0.05)
        inner()

    outer = tracer.wrap(outer_body, "coeffs.outer")
    outer()
    layers = tracer.summary()
    assert layers["greens.inner.self_s"] >= 0.2
    assert 0.05 <= layers["coeffs.outer.self_s"] < 0.2
    assert layers["coeffs.outer.calls"] == layers["greens.inner.calls"] == 1
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert layers["coeffs.self_s"] + layers["greens.self_s"] == \
        pytest.approx(total)


def test_table_build_is_charged_to_the_table_span():
    class Kernel:
        def g(self, offsets):
            time.sleep(0.1)
            return offsets

    tracer = Tracer()
    kernel = Kernel()
    tracer.wrap_kernel(kernel)
    g_table = tracer.wrap(lambda: kernel.g([0.0, 1.0, 2.0]),
                          "spectral.g_table")
    g_table()
    kernel.g([0.5])                      # a direct evaluation
    layers = tracer.summary()
    assert layers["spectral.g_table.self_s"] >= 0.1
    assert 0.1 <= layers["spectral.kernel_eval.self_s"] < 0.2
    assert layers["spectral.kernel_eval.calls"] == 1
    assert layers["spectral.kernel_eval.points"] == 4


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run(workload, tmp_path):
    proc, result = tiny(workload, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "fail_frac = 0 " in proc.stdout
    assert list((tmp_path / "records").glob(f"{workload}-*.json"))


def test_tiny_traced_run_reports_every_layer_metric(tmp_path):
    _, result = tiny("tabulated", tmp_path, "--trace", "1")
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert layers["moments.to_quadratures.calls"] == 41   # n_steps + 1
    assert layers["spectral.kernel_eval.points"] > 0
    assert layers["acc.recon_dev"] > 0


def test_corrupted_reference_fails_every_job(tmp_path):
    root = checkout(tmp_path, "link")
    ref_path = root / "perfbench" / "fig2_reference.json"
    ref = json.loads(ref_path.read_text())
    gamma = ref["tiny"]["columns"]["alpha_0p50"]["gamma"]
    gamma[len(gamma) // 2] *= 1.001
    ref_path.write_text(json.dumps(ref))
    proc, result = tiny("fig2", tmp_path / "out", root=root)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["err_ratio"]["value"] >= 1.0
    assert f"fail_frac = 1 ({result['failed']}/" in proc.stdout


def corrupt_digests(out_dir):
    book_path = out_dir / "quench" / "digests.json"
    book = json.loads(book_path.read_text())
    book_path.write_text(json.dumps({k: "0" * 64 for k in book}))


def test_changed_csv_digest_fails_every_job(tmp_path):
    _, first = tiny("quench", tmp_path)
    assert first["correct"]
    corrupt_digests(tmp_path)
    _, second = tiny("quench", tmp_path)
    assert second["failed"] == second["attempted"] >= 1


def test_digest_of_other_sources_is_not_compared(tmp_path):
    root = checkout(tmp_path, "copy")
    out = tmp_path / "out"
    _, first = tiny("quench", out, root=root)
    assert first["correct"]
    corrupt_digests(out)                 # as if the first sources wrote other bytes
    init = root / "src" / "gqbm" / "__init__.py"
    init.write_text(init.read_text() + "\n# changed sources\n")
    _, second = tiny("quench", out, root=root)
    assert second["correct"] and second["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    root = checkout(tmp_path, None)
    proc = run_bench("--workload", "fig2", root=root)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
