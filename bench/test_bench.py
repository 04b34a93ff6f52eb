"""The benchmark's own test: a smoke run of every workload.

    python3 -m pytest bench/test_bench.py

``run.py --smoke`` runs each workload at a tiny size, untraced and
traced, and fails if a correctness check fails, if the metrics emitted
differ from BENCHMARK.json in name or unit, if the per-layer self times
add up to more than the traced end-to-end time, or if tracing leaves a
patched binding behind.  A checkout without ``src/`` must be refused.
"""
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_smoke_run_of_every_workload():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("correct=True") == 6, proc.stdout


def test_refuses_a_checkout_without_sources():
    # Inside the checkout's ignored output directory: the benchmark and
    # its tests write nowhere else.
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "study", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
