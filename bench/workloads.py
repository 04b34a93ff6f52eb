"""The benchmark's workloads: input generation, warm-up, one timed
operation and the correctness checks on its outputs.

Each workload is a single-process closed loop: the next operation starts
when the previous one has returned.  Every operation of a run repeats
the same seeded work, so its outputs must be byte-identical each time
and per-operation counts are exact.  Why each workload exists is in
README.md beside this file.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from matchlearn import (
    EstimatorConfig,
    MatchlearnError,
    OneToMany,
    OneToOne,
    RunConfig,
    TwoSided,
    entrywise_probability,
    generate_low_rank,
    harness,
    matmodel,
    infer_linear_form,
    load_config,
    matching_to_linear_form,
    optimal_one_to_one,
    prepare_inference,
    samplers,
    sample_matching,
)
from scipy.optimize import linear_sum_assignment

# Scheme label -> (scheme, batch pairs per half m), as in the acceptance tests.
SCHEMES = {
    "one_to_one": (OneToOne(), 5),
    "one_to_many": (OneToMany(3, 0.8), 5),
    "two_sided": (TwoSided(0.8, 0.8, 0.3, 0.3, 0.2), 6),
}

# Problem sizes.  "smoke" keeps every layer busy for a fraction of a
# second so the benchmark's own test runs in seconds.
SIZES = {
    "full": {
        "study": dict(d1=50, d2=150, r=2, T=600, replications=10),
        # The work of policy search depends on the reward matrix (assignment
        # solves per call vary by 8% across matrices), so every replication
        # draws its own matrix and one operation covers four of them.
        "policy_study": dict(d1=50, d2=150, r=2, T=600, m=5, replications=4),
        # max_rel_err bounds ||m_hat - M||_F / ||M||_F; about 0.04 is typical.
        "large_batch": dict(d1=500, d2=1500, r=2, T=4000, m=20, max_rel_err=0.1),
    },
    "smoke": {
        "study": dict(d1=10, d2=30, r=2, T=120, replications=2),
        "policy_study": dict(d1=8, d2=24, r=2, T=120, m=3, replications=1),
        "large_batch": dict(d1=20, d2=60, r=2, T=200, m=5, max_rel_err=0.5),
    },
}
# Same slack as the library's lexicographic tie-breaking in policy search:
# sums of d1 rewards may differ in the last ulps with summation order.
TIE_RTOL = 1e-9
# Benchmark-owned streams for the large batch's inputs.
SALT_TRUTH, SALT_OBSERVE, SALT_Q = 11, 12, 13


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class Check(list):
    """Accumulates (name, ok, detail) results of correctness checks."""

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.append((name, bool(ok), detail))
        return bool(ok)


class Study:
    """``run_simulation`` studies; one operation runs each config once."""

    def __init__(self, configs: dict[str, RunConfig], workdir: Path):
        self.workdir = workdir
        self.configs = self._placed(configs, workdir)
        # The warm-up runs each study with one replication: enough to
        # finish lazy initialisation without timing a whole operation.
        self.warm_configs = self._placed(
            {label: replace(cfg, replications=1) for label, cfg in configs.items()},
            workdir / "warm-up")
        self.reference: dict[str, str] | None = None
        self.call_times: dict[str, list[float]] = {label: [] for label in configs}

    @staticmethod
    def _placed(configs, outdir: Path) -> dict[str, RunConfig]:
        return {label: replace(cfg, outputs=str(outdir / label))
                for label, cfg in configs.items()}

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def warm_up(self, checks: Check) -> tuple[int, int]:
        return self._check(self.warm_configs, self._run(self.warm_configs), checks)

    def digests(self, configs=None) -> dict[str, str]:
        """Digests of the study outputs; the warm-up's by default."""
        return {
            f"{label}/{fname}": sha256(Path(cfg.outputs) / fname)
            for label, cfg in (configs or self.warm_configs).items()
            for fname in ("summary.json", "standardized_stats.csv")
        }

    def op(self) -> dict:
        out = self._run(self.configs)
        for label, (_, seconds) in out.items():
            self.call_times[label].append(seconds)
        return out

    @staticmethod
    def _run(configs) -> dict:
        out = {}
        for label, cfg in configs.items():
            t0 = time.perf_counter()
            try:
                result = harness.run_simulation(cfg)
            except MatchlearnError as exc:
                result = exc
            out[label] = (result, time.perf_counter() - t0)
        return out

    def check_op(self, out: dict, checks: Check) -> tuple[int, int]:
        """Check one operation; returns (replications attempted, failed)."""
        done = self._check(self.configs, out, checks)
        if any(isinstance(result, Exception) for result, _ in out.values()):
            return done  # already counted; its outputs may be missing
        digests = self.digests(self.configs)
        if self.reference is None:
            self.reference = digests
        checks.add("outputs identical across operations", digests == self.reference)
        return done

    @staticmethod
    def _check(configs, out: dict, checks: Check) -> tuple[int, int]:
        attempted = failed = 0
        for label, cfg in configs.items():
            attempted += cfg.replications
            result = out[label][0]
            if not checks.add(f"{label}: study completed",
                              not isinstance(result, Exception), repr(result)):
                failed += cfg.replications
                continue
            failed += result.n_failed
            outdir = Path(cfg.outputs)
            summary = json.loads((outdir / "summary.json").read_text())
            checks.add(f"{label}: n_success + n_failed == replications",
                       summary["n_success"] + summary["n_failed"] == cfg.replications)
            with open(outdir / "standardized_stats.csv") as fh:
                z = [float(row["z"]) for row in csv.DictReader(fh)]
            with open(outdir / "coverage.csv") as fh:
                ci = [(float(row["ci_low"]), float(row["ci_high"]))
                      for row in csv.DictReader(fh)]
            checks.add(f"{label}: z finite", len(z) == summary["n_success"] and _finite(*z))
            checks.add(f"{label}: ci finite and ordered",
                       len(ci) == summary["n_success"]
                       and all(_finite(lo, hi) and lo <= hi for lo, hi in ci))
        return attempted, failed

    def check_setup(self, checks: Check) -> dict:
        """Untimed checks right after set-up; returns facts for the record."""
        return {}

    def record(self) -> dict:
        """Facts for the run record: output digests and per-study call times."""
        return {"digests": self.reference,
                "call_s": {label: {"median": statistics.median(times), "samples": times}
                           for label, times in self.call_times.items() if times}}


class PolicyStudy(Study):
    """A policy study, plus an oracle check of the policy search."""

    def check_setup(self, checks: Check) -> dict:
        (cfg,) = self.configs.values()
        # The reward matrix of replication 0: with regenerate_m the harness
        # draws replication rep's matrix from default_rng([seed, 1, rep]).
        m = generate_low_rank(cfg.d1, cfg.d2, cfg.r, cfg.scale,
                              np.random.default_rng([cfg.seed, 1, 0])).values
        matching = optimal_one_to_one(m)
        rows, cols = linear_sum_assignment(m, maximize=True)
        best = float(m[rows, cols].sum())
        total = float(m[matching.rows, matching.cols].sum())
        tol = TIE_RTOL * (1.0 + abs(best) + float(np.abs(m).max()))
        checks.add("policy: matching is an injection",
                   np.array_equal(matching.rows, np.arange(cfg.d1))
                   and np.unique(matching.cols).size == cfg.d1
                   and 0 <= matching.cols.min() and matching.cols.max() < cfg.d2)
        checks.add("policy: total equals the assignment optimum",
                   abs(total - best) <= tol, f"{total!r} vs {best!r}")
        return {"oracle_total": total}


class LargeBatch:
    """The CLI ``infer`` path, in process, on one large batch file."""

    def __init__(self, size: dict, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.batch_path = workdir / "batch.jsonl"
        self.config_path = workdir / "config.json"
        self.argv = ["infer", str(self.batch_path), str(self.config_path),
                     "--q", "random_oto"]
        self.reference: str | None = None
        self._inputs = None

    def prepare(self) -> None:
        s = self.size
        self.workdir.mkdir(parents=True, exist_ok=True)
        # Module attributes, not imported names, so a traced set-up sees the calls.
        truth = matmodel.generate_low_rank(
            s["d1"], s["d2"], s["r"], 20.0, np.random.default_rng([self.seed, SALT_TRUTH]))
        batch = samplers.observe(truth, OneToOne(), s["T"], 1.0,
                                 np.random.default_rng([self.seed, SALT_OBSERVE]),
                                 seed=self.seed)
        samplers.save_batch(batch, self.batch_path)
        self._inputs = (truth, batch)
        self.config_path.write_text(json.dumps({
            "d1": s["d1"], "d2": s["d2"], "r": s["r"], "T": s["T"], "m": s["m"],
            "scheme": {"kind": "one_to_one"}, "seed": self.seed,
        }))

    def warm_up(self, checks: Check) -> tuple[int, int]:
        # One call costs seconds and no lazy initialisation is left after
        # prepare(), so the large batch has no warm-up operation.
        return 0, 0

    def digests(self) -> dict[str, str]:
        return {"batch.jsonl": sha256(self.batch_path)}

    def op(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = harness.main(self.argv)
        return rc, buf.getvalue()

    def check_op(self, out, checks: Check) -> tuple[int, int]:
        rc, text = out
        if not checks.add("cli: exit code 0", rc == 0, f"rc={rc}"):
            return 1, 1
        try:
            doc = json.loads(text)
            point, lo, hi, se = doc["point"], doc["ci_low"], doc["ci_high"], doc["se"]
        except (json.JSONDecodeError, KeyError) as exc:
            checks.add("cli: output parses", False, repr(exc))
            return 1, 0
        checks.add("cli: CI finite and contains the point",
                   _finite(point, lo, hi, se) and lo <= point <= hi)
        if self.reference is None:
            self.reference = text
        checks.add("cli: output identical across calls", text == self.reference)
        return 1, 0

    def check_setup(self, checks: Check) -> dict:
        """Estimate from the batch still in memory and compare with the truth.

        The file the CLI reads is checked by the digest across set-ups
        and by every CLI output being identical.
        """
        truth, batch = self._inputs
        self._inputs = None
        cfg = load_config(self.config_path)
        t0 = time.perf_counter()
        nu = entrywise_probability(cfg.scheme, cfg.d1, cfg.d2).nu
        artifacts = prepare_inference(
            batch, EstimatorConfig(r=cfg.r, eta=cfg.eta, m=cfg.m, nu=nu))
        q = matching_to_linear_form(sample_matching(
            OneToOne(), cfg.d1, cfg.d2, np.random.default_rng([self.seed, SALT_Q])))
        infer_linear_form(artifacts, q)
        estimate_s = time.perf_counter() - t0
        err = float(np.linalg.norm(artifacts.m_hat - truth.values)
                    / np.linalg.norm(truth.values))
        limit = self.size["max_rel_err"]
        checks.add("m_hat relative error within tolerance", err <= limit,
                   f"{err:.4g} vs {limit}")
        return {"m_hat_rel_err": err, "estimate_s": estimate_s}

    def record(self) -> dict:
        return {"cli_json_sha256":
                hashlib.sha256((self.reference or "").encode()).hexdigest()}


def build(name: str, size_name: str, seed: int, workdir: Path):
    size = SIZES[size_name][name]
    if name == "large_batch":
        return LargeBatch(size, seed, workdir)
    base = dict(d1=size["d1"], d2=size["d2"], r=size["r"], T=size["T"], seed=seed,
                replications=size["replications"], workers=1)
    if name == "study":
        configs = {label: RunConfig(scheme=scheme, m=m, q_spec="random_oto", **base)
                   for label, (scheme, m) in SCHEMES.items()}
        return Study(configs, workdir)
    if name == "policy_study":
        return PolicyStudy({"one_to_one": RunConfig(
            scheme=OneToOne(), m=size["m"], study="policy", regenerate_m=True, **base)},
            workdir)
    raise ValueError(f"unknown workload {name!r}")


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
