"""A fast guard for what the benchmark under ``bench/`` reaches in the package.

``bench/workloads.py`` imports names from ``matchlearn`` and
``bench/tracer.py`` replaces module bindings by name and reads each
observed batch's per-period records, so deleting or renaming any of
them breaks the benchmark.  ``bench/test_bench.py`` finds that in a
smoke run of every workload; this test finds it in well under a second.
"""
import importlib.util
from pathlib import Path

import numpy as np

from matchlearn import OneToOne, generate_low_rank, samplers

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_imports_and_traced_bindings_resolve():
    load_bench_module("workloads")
    tracer = load_bench_module("tracer").Tracer()
    observe = samplers.observe
    truth = generate_low_rank(4, 6, 1, 1.0, np.random.default_rng(0))
    with tracer.patched():
        batch = samplers.observe(truth, OneToOne(), 3, 0.5, np.random.default_rng(1))
    assert samplers.observe is observe
    assert [span[0] for span in tracer.spans] == ["samplers.observe.one_to_one"]
    assert tracer.counts["samplers.revealed_entries"] == batch.y.size == 12
