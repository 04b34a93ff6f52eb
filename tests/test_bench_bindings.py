"""A fast guard for what the benchmark under ``bench/`` reaches in the package.

``bench/workloads.py`` imports names from ``matchlearn`` and
``bench/tracer.py`` replaces module bindings by name and reads each
observed batch's per-period records, so deleting or renaming any of
them breaks the benchmark, and so does a change to a signature its
workloads call.  ``bench/test_bench.py`` finds that in a smoke run of
every workload through the benchmark's driver; these tests find it in
well under a second, in process.
"""
import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from matchlearn import (EstimatorConfig, OneToOne, RunConfig, generate_low_rank, harness,
                        inference, samplers)

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


def test_prepare_inference_runs_every_stage_through_its_traced_name():
    tracer = load_bench_module("tracer").Tracer()
    truth = generate_low_rank(6, 12, 1, 1.0, np.random.default_rng(0))
    batch = samplers.observe(truth, OneToOne(), 40, 0.5, np.random.default_rng(1))
    with tracer.patched():
        inference.prepare_inference(batch, EstimatorConfig(r=1, eta=0.7, m=2, nu=batch.nu))
    # svd_r: 2 fits x (1 + 1 + 3(m - 1)) + 2 projections + the final one, at m = 2.
    stages = {"estimator.fit": 2, "inference.debias": 2, "inference.project_rank_r": 2,
              "inference.estimate_sigma": 1, "matmodel.svd_r": 13}
    spans = Counter(span[0] for span in tracer.spans)
    assert {name: spans[name] for name in stages} == stages


@pytest.mark.parametrize("name", ["study", "large_batch", "policy_study"])
def test_smoke_workload_runs_and_passes_its_checks(tmp_path, name):
    workloads = load_bench_module("workloads")
    workload = workloads.build(name, "smoke", 1, tmp_path)
    checks = workloads.Check()
    workload.prepare()
    workload.warm_up(checks)
    workload.check_setup(checks)
    workload.check_op(workload.op(), checks)
    assert checks and [c for c in checks if not c[1]] == []


@pytest.mark.parametrize("study, spans", [
    ("inference", {"inference.infer_linear_form": 3, "policy.optimal_one_to_one": 0,
                   "policy.evaluate_policy": 0}),
    ("policy", {"inference.infer_linear_form": 3, "policy.optimal_one_to_one": 3 + 1,
                "policy.evaluate_policy": 3}),
])
def test_a_study_reaches_each_layer_through_its_traced_name(tmp_path, study, spans):
    # A study that stops calling a harness binding the tracer patches loses that layer's spans.
    tracer = load_bench_module("tracer").Tracer()
    config = RunConfig(d1=5, d2=8, r=1, scheme=OneToOne(), T=40, seed=3, m=2, sigma=0.2,
                       scale=1.0, replications=3, study=study, outputs=str(tmp_path))
    with tracer.patched():
        harness.run_simulation(config)  # through the module, as the benchmark calls it
    expected = {"harness.run_simulation": 1, "inference.prepare_inference": 3, **spans}
    counted = Counter(span[0] for span in tracer.spans)
    assert {name: counted[name] for name in expected} == expected


def test_a_random_q_spec_is_drawn_once_per_validation(tmp_path):
    # run_simulation validates a config and studies the form validation drew; the CLI's
    # simulate validates once more as it parses the config.
    tracer = load_bench_module("tracer").Tracer()
    config = RunConfig(d1=5, d2=8, r=1, scheme=OneToOne(), T=40, seed=3, m=2, sigma=0.2,
                       scale=1.0, replications=1, q_spec="random_oto",
                       outputs=str(tmp_path / "study"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(harness.config_to_dict(config)))
    with tracer.patched():
        harness.run_simulation(config)
        study = tracer.counts["samplers.sample_matching_calls"]
        assert harness.main(["simulate", str(path), "--out", str(tmp_path / "cli")]) == 0
    assert (study, tracer.counts["samplers.sample_matching_calls"] - study) == (1, 2)
