"""Replication studies, statistical summaries, and the command line.

A study is described by a JSON config (:class:`RunConfig`).  One reward
matrix is generated from the seed, then each replication draws a fresh
batch from its own salted stream, fits, and runs inference; aggregates
(KS distance to the standard normal, CI coverage, matching recovery)
are written as CSV/JSON so runs with the same seed are byte-identical.

Streams are salted so that the matrix, the inference target and the
per-replication batches never overlap: ``default_rng([seed, salt])``
for the shared draws and ``default_rng(seed ^ rep)`` for replication
``rep``.  The entrywise probability is exact and draws nothing.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .errors import (
    ArgumentError,
    ConfigError,
    DataFormatError,
    NumericalError,
    ReplicationFailureError,
)
from .estimator import EstimatorConfig, FitTrace, fit
from .inference import infer_linear_form, prepare_inference
from .matmodel import LinearForm, RewardMatrix, generate_low_rank, save_matrix_csv
from .policy import (
    evaluate_policy,
    matching_to_json,
    matching_to_linear_form,
    optimal_one_to_one,
)
from .samplers import (
    Matching,
    MatchingScheme,
    OneToMany,
    OneToOne,
    TwoSided,
    entrywise_probability,
    load_batch,
    observe,
    sample_matching,
    scheme_from_json,
    scheme_to_json,
)

__all__ = [
    "RunConfig",
    "ReplicationSummary",
    "parse_config",
    "load_config",
    "config_to_dict",
    "resolve_q",
    "run_simulation",
    "ks_statistic",
    "main",
]

logger = logging.getLogger("matchlearn.harness")

STUDIES = ("inference", "convergence", "policy")
MAX_FAILURE_FRACTION = 0.1
HISTOGRAM_BINS = 50
HISTOGRAM_RANGE = (-4.0, 4.0)

# Salts for the draws shared by all replications.
_SALT_MATRIX = 1
_SALT_Q = 2


@dataclass(frozen=True)
class RunConfig:
    """Full description of one replication study."""

    d1: int
    d2: int
    r: int
    scheme: MatchingScheme
    T: int
    seed: int
    m: int = 20
    eta: float = 0.75
    sigma: float = 1.0
    scale: float = 20.0
    alpha: float = 0.05
    replications: int = 300
    q_spec: str = "entry(0,0)"
    study: str = "inference"
    outputs: str | None = None
    workers: int = 1
    regenerate_m: bool = False


@dataclass(frozen=True)
class ReplicationSummary:
    """Aggregates of one study; vectors cover the successful replications."""

    standardized_stats: np.ndarray
    ks_distance: float
    coverage: float
    mean: float
    sd: float
    traces: tuple[FitTrace, ...]
    recovery_count: int | None
    n_success: int
    n_failed: int
    failures: tuple[str, ...]


# ---------------------------------------------------------------------------
# Config parsing and validation
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = ("d1", "d2", "r", "scheme", "T", "seed")
_OPTIONAL_KEYS = (
    "m",
    "eta",
    "sigma",
    "scale",
    "alpha",
    "replications",
    "q_spec",
    "study",
    "outputs",
    "workers",
    "regenerate_m",
)

_ENTRY_RE = re.compile(r"^entry\((\d+)\s*,\s*(\d+)\)$")
_OTM_RE = re.compile(r"^random_otm\((\d+)\s*,\s*([0-9.eE+-]+)\)$")


def _parse_q_spec(spec: str) -> tuple:
    """Classify a q_spec string; returns a tag tuple, never draws."""
    if not isinstance(spec, str) or not spec:
        raise ArgumentError(f"q_spec must be a nonempty string, got {spec!r}")
    m = _ENTRY_RE.match(spec)
    if m:
        return ("entry", int(m.group(1)), int(m.group(2)))
    if spec == "random_oto":
        return ("random_oto",)
    if spec == "oto_difference":
        return ("oto_difference",)
    m = _OTM_RE.match(spec)
    if m:
        return ("random_otm", int(m.group(1)), float(m.group(2)))
    return ("file", spec)


def _validate(cfg: RunConfig) -> list[str]:
    p: list[str] = []
    for name in ("d1", "d2", "r", "T", "seed", "m", "replications", "workers"):
        if not isinstance(getattr(cfg, name), int):
            p.append(f"{name} must be an integer")
    if not p:
        if cfg.d1 < 1 or cfg.d2 < cfg.d1:
            p.append(f"need 1 <= d1 <= d2, got d1={cfg.d1}, d2={cfg.d2}")
        if not (1 <= cfg.r <= cfg.d1):
            p.append(f"need 1 <= r <= d1, got r={cfg.r}")
        if cfg.T < 2 * cfg.m:
            p.append(f"need T >= 2m, got T={cfg.T}, m={cfg.m}")
        if cfg.m < 1:
            p.append(f"need m >= 1, got {cfg.m}")
        if cfg.seed < 0:
            p.append(f"seed must be nonnegative, got {cfg.seed}")
        if cfg.replications < 0:
            p.append(f"replications must be nonnegative, got {cfg.replications}")
        if cfg.workers < 1:
            p.append(f"workers must be >= 1, got {cfg.workers}")
    if not isinstance(cfg.scheme, MatchingScheme):
        p.append(f"scheme must be a matching scheme, got {type(cfg.scheme).__name__}")
    elif isinstance(cfg.scheme, OneToMany) and isinstance(cfg.d1, int):
        if cfg.d2 < cfg.scheme.K * cfg.d1:
            p.append(
                f"one-to-many needs d2 >= K*d1, got d2={cfg.d2}, "
                f"K*d1={cfg.scheme.K * cfg.d1}"
            )
    if not (0.0 < cfg.eta < 1.0):
        p.append(f"need 0 < eta < 1, got {cfg.eta}")
    if cfg.sigma < 0.0:
        p.append(f"sigma must be nonnegative, got {cfg.sigma}")
    if cfg.scale <= 0.0:
        p.append(f"scale must be positive, got {cfg.scale}")
    if not (0.0 < cfg.alpha < 1.0):
        p.append(f"need 0 < alpha < 1, got {cfg.alpha}")
    if cfg.study not in STUDIES:
        p.append(f"study must be one of {STUDIES}, got {cfg.study!r}")
    try:
        tag = _parse_q_spec(cfg.q_spec)
    except ArgumentError as exc:
        p.append(str(exc))
    else:
        if tag[0] == "entry" and isinstance(cfg.d1, int):
            if tag[1] >= cfg.d1 or tag[2] >= cfg.d2:
                p.append(f"q_spec {cfg.q_spec} indexes outside {cfg.d1}x{cfg.d2}")
        if tag[0] == "random_otm":
            if tag[1] < 1 or not (0.0 < tag[2] <= 1.0):
                p.append(f"q_spec {cfg.q_spec} needs K >= 1 and 0 < p0 <= 1")
        if tag[0] == "file" and not Path(tag[1]).is_file():
            p.append(f"q_spec file not found: {tag[1]}")
    return p


def parse_config(obj: dict) -> RunConfig:
    """Build a validated RunConfig from a parsed JSON object.

    Every violation is reported at once in the raised ConfigError.
    """
    if not isinstance(obj, dict):
        raise ConfigError([f"config must be a JSON object, got {type(obj).__name__}"])
    problems = [f"unknown config key: {k}" for k in obj
                if k not in _REQUIRED_KEYS + _OPTIONAL_KEYS]
    problems += [f"missing required config key: {k}" for k in _REQUIRED_KEYS
                 if k not in obj]
    if problems:
        raise ConfigError(problems)
    try:
        scheme = scheme_from_json(obj["scheme"])
    except (DataFormatError, ArgumentError) as exc:
        raise ConfigError([f"bad scheme: {exc}"]) from None
    kwargs = {}
    for name, cast in (
        ("d1", int), ("d2", int), ("r", int), ("T", int), ("seed", int),
        ("m", int), ("replications", int), ("workers", int),
        ("eta", float), ("sigma", float), ("scale", float), ("alpha", float),
        ("q_spec", str), ("study", str), ("regenerate_m", bool),
    ):
        if name in obj:
            value = obj[name]
            if cast is int and (isinstance(value, bool) or not isinstance(value, int)):
                problems.append(f"{name} must be an integer, got {value!r}")
                continue
            if cast is bool and not isinstance(value, bool):
                problems.append(f"{name} must be a boolean, got {value!r}")
                continue
            if cast is float and not isinstance(value, (int, float)):
                problems.append(f"{name} must be a number, got {value!r}")
                continue
            if cast is str and not isinstance(value, str):
                problems.append(f"{name} must be a string, got {value!r}")
                continue
            kwargs[name] = cast(value)
    if "outputs" in obj and obj["outputs"] is not None:
        if not isinstance(obj["outputs"], str):
            problems.append(f"outputs must be a string path, got {obj['outputs']!r}")
        else:
            kwargs["outputs"] = obj["outputs"]
    if problems:
        raise ConfigError(problems)
    cfg = RunConfig(scheme=scheme, **kwargs)
    problems = _validate(cfg)
    if problems:
        raise ConfigError(problems)
    return cfg


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config {path} is not valid JSON: {exc}"]) from None
    return parse_config(obj)


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical JSON form; parse_config(config_to_dict(c)) == c."""
    out = {
        "d1": cfg.d1, "d2": cfg.d2, "r": cfg.r,
        "scheme": scheme_to_json(cfg.scheme),
        "T": cfg.T, "seed": cfg.seed, "m": cfg.m, "eta": cfg.eta,
        "sigma": cfg.sigma, "scale": cfg.scale, "alpha": cfg.alpha,
        "replications": cfg.replications, "q_spec": cfg.q_spec,
        "study": cfg.study, "workers": cfg.workers,
        "regenerate_m": cfg.regenerate_m,
    }
    if cfg.outputs is not None:
        out["outputs"] = cfg.outputs
    return out


def resolve_q(spec: str, d1: int, d2: int, rng: np.random.Generator) -> LinearForm:
    """Materialize a q_spec; random specs consume from ``rng``."""
    tag = _parse_q_spec(spec)
    if tag[0] == "entry":
        return LinearForm.from_triplets(d1, d2, [(tag[1], tag[2], 1.0)])
    if tag[0] == "random_oto":
        mat = sample_matching(OneToOne(), d1, d2, rng)
        return matching_to_linear_form(mat)
    if tag[0] == "oto_difference":
        q1 = matching_to_linear_form(sample_matching(OneToOne(), d1, d2, rng))
        q2 = matching_to_linear_form(sample_matching(OneToOne(), d1, d2, rng))
        return q1.subtract(q2)
    if tag[0] == "random_otm":
        mat = sample_matching(OneToMany(tag[1], tag[2]), d1, d2, rng)
        return matching_to_linear_form(mat)
    try:
        text = Path(tag[1]).read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read q file {tag[1]}: {exc}"]) from None
    return LinearForm.from_json(text, d1, d2)


# ---------------------------------------------------------------------------
# Replication engine
# ---------------------------------------------------------------------------

def _nu_for(cfg: RunConfig) -> float:
    return entrywise_probability(cfg.scheme, cfg.d1, cfg.d2).nu


def _estimator_config(cfg: RunConfig, nu: float, record_trace: bool) -> EstimatorConfig:
    return EstimatorConfig(r=cfg.r, eta=cfg.eta, m=cfg.m, nu=nu,
                           record_trace=record_trace)


def _run_replication(payload) -> dict:
    """One replication; returns a plain dict so it can cross processes."""
    rep, cfg, nu, truth, q, target = payload
    if truth is None:
        truth = generate_low_rank(
            cfg.d1, cfg.d2, cfg.r, cfg.scale,
            np.random.default_rng([cfg.seed, _SALT_MATRIX, rep]),
        )
    rng = np.random.default_rng(cfg.seed ^ rep)
    try:
        batch = observe(truth, cfg.scheme, cfg.T, cfg.sigma, rng)
        ecfg = _estimator_config(cfg, nu, record_trace=cfg.study == "convergence")
        if cfg.study == "convergence":
            _, trace = fit(batch, ecfg, truth=truth)
            return {"rep": rep, "ok": True, "trace": trace}
        artifacts = prepare_inference(batch, ecfg)
        if cfg.study == "inference":
            res = infer_linear_form(artifacts, q, alpha=cfg.alpha)
            estimand = q.inner(truth.values)
            recovered = None
        else:  # policy
            mat_hat = optimal_one_to_one(artifacts.m_hat)
            res = evaluate_policy(artifacts, mat_hat, alpha=cfg.alpha).inference
            mat_true, estimand = target or _policy_target(truth)
            # The statistic standardizes against the value of the matching
            # actually selected; coverage targets the true optimal reward.
            z_target = matching_to_linear_form(mat_hat).inner(truth.values)
            recovered = mat_hat.pairs == mat_true.pairs
        z = (res.point - (z_target if cfg.study == "policy" else estimand)) / res.se
        return {
            "rep": rep,
            "ok": True,
            "z": float(z),
            "point": res.point,
            "se": res.se,
            "ci_low": res.ci_low,
            "ci_high": res.ci_high,
            "estimand": float(estimand),
            "covered": bool(res.ci_low <= estimand <= res.ci_high),
            "recovered": recovered,
        }
    except NumericalError as exc:
        return {"rep": rep, "ok": False, "error": f"{type(exc).__name__}: {exc}"}


def _policy_target(truth: RewardMatrix) -> tuple[Matching, float]:
    """The truth's optimal matching and its total reward."""
    mat = optimal_one_to_one(truth.values)
    return mat, matching_to_linear_form(mat).inner(truth.values)


def _effective_workers(cfg: RunConfig) -> int:
    env = os.environ.get("MATCHLEARN_WORKERS")
    if env is None:
        return cfg.workers
    try:
        workers = int(env)
    except ValueError:
        raise ConfigError([f"MATCHLEARN_WORKERS must be an integer, got {env!r}"])
    if workers < 1:
        raise ConfigError([f"MATCHLEARN_WORKERS must be >= 1, got {workers}"])
    return workers


def run_simulation(config: RunConfig) -> ReplicationSummary:
    """Run a replication study and write its report files.

    Requires ``config.outputs``.  Failed replications are excluded from
    the aggregates and reported; more than ``MAX_FAILURE_FRACTION`` of
    them failing aborts the run.
    """
    problems = _validate(config)
    if config.outputs is None:
        problems.append("outputs directory is required to run a study")
    if problems:
        raise ConfigError(problems)
    outdir = Path(config.outputs)
    outdir.mkdir(parents=True, exist_ok=True)

    truth = None
    if not config.regenerate_m:
        truth = generate_low_rank(
            config.d1, config.d2, config.r, config.scale,
            np.random.default_rng([config.seed, _SALT_MATRIX]),
        )
    q = resolve_q(config.q_spec, config.d1, config.d2,
                  np.random.default_rng([config.seed, _SALT_Q]))
    nu = _nu_for(config)

    # A shared truth has one optimal matching: solve it once per study.
    target = None
    if truth is not None and config.study == "policy":
        target = _policy_target(truth)

    payloads = [(rep, config, nu, truth, q, target)
                for rep in range(config.replications)]
    workers = _effective_workers(config)
    if workers == 1 or not payloads:
        results = [_run_replication(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_replication, payloads))
    results.sort(key=lambda r: r["rep"])

    ok = [r for r in results if r["ok"]]
    failed = [r for r in results if not r["ok"]]
    for r in failed:
        logger.warning("replication %d failed: %s", r["rep"], r["error"])
    if failed and len(failed) > MAX_FAILURE_FRACTION * config.replications:
        raise ReplicationFailureError(
            f"{len(failed)} of {config.replications} replications failed "
            f"(tolerance {MAX_FAILURE_FRACTION:.0%}); first: {failed[0]['error']}"
        )

    if config.study == "convergence":
        stats = np.empty(0)
        traces = tuple(r["trace"] for r in ok)
        coverage = float("nan")
        recovery: int | None = None
    else:
        stats = np.array([r["z"] for r in ok])
        traces = ()
        coverage = float(np.mean([r["covered"] for r in ok])) if ok else float("nan")
        recovery = None
        if config.study == "policy":
            recovery = int(sum(bool(r["recovered"]) for r in ok))
    ks = ks_statistic(stats) if stats.size else float("nan")
    mean = float(stats.mean()) if stats.size else float("nan")
    sd = float(stats.std(ddof=1)) if stats.size > 1 else float("nan")

    summary = ReplicationSummary(
        standardized_stats=stats,
        ks_distance=ks,
        coverage=coverage,
        mean=mean,
        sd=sd,
        traces=traces,
        recovery_count=recovery,
        n_success=len(ok),
        n_failed=len(failed),
        failures=tuple(r["error"] for r in failed),
    )
    _write_outputs(outdir, config, nu, truth, q, ok, summary)
    return summary


def _jsonable(x: float | None):
    if x is None:
        return None
    x = float(x)
    return None if not np.isfinite(x) else x


def _write_outputs(outdir, config, nu, truth, q, ok, summary) -> None:
    with open(outdir / "standardized_stats.csv", "w") as fh:
        fh.write("rep,z\n")
        if config.study != "convergence":
            for r in ok:
                fh.write(f"{r['rep']},{r['z']!r}\n")
    with open(outdir / "coverage.csv", "w") as fh:
        fh.write("rep,ci_low,ci_high,estimand,covered\n")
        if config.study != "convergence":
            for r in ok:
                fh.write(
                    f"{r['rep']},{r['ci_low']!r},{r['ci_high']!r},"
                    f"{r['estimand']!r},{int(r['covered'])}\n"
                )
    counts, edges = np.histogram(
        summary.standardized_stats, bins=HISTOGRAM_BINS, range=HISTOGRAM_RANGE
    )
    with open(outdir / "histogram.csv", "w") as fh:
        fh.write("bin_left,bin_right,count\n")
        for k in range(HISTOGRAM_BINS):
            fh.write(f"{float(edges[k])!r},{float(edges[k + 1])!r},{counts[k]}\n")
    if config.study == "convergence":
        for r in ok:
            r["trace"].write_csv(outdir / f"trace_rep{r['rep']}.csv")
    # The echoed config omits the output path so two runs of the same
    # study into different directories produce identical bytes.
    doc = {
        "config": config_to_dict(replace(config, outputs=None)),
        "nu": nu,
        "n_success": summary.n_success,
        "n_failed": summary.n_failed,
        "failures": list(summary.failures),
        "ks_distance": _jsonable(summary.ks_distance),
        "coverage": _jsonable(summary.coverage),
        "mean": _jsonable(summary.mean),
        "sd": _jsonable(summary.sd),
        "recovery_count": summary.recovery_count,
        "q_size": q.size,
        "truth_value": _jsonable(q.inner(truth.values)) if truth is not None else None,
    }
    with open(outdir / "summary.json", "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Statistical summaries
# ---------------------------------------------------------------------------

def ks_statistic(samples) -> float:
    """Exact Kolmogorov distance between the ecdf and the standard normal."""
    x = np.asarray(samples, dtype=float).reshape(-1)
    if x.size < 1:
        raise ArgumentError("need at least one sample")
    if not np.all(np.isfinite(x)):
        raise ArgumentError("samples must be finite")
    xs = np.sort(x)
    cdf = ndtr(xs)
    n = xs.size
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse that reports errors through the package taxonomy."""

    def error(self, message):
        raise ConfigError([message])


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="matchlearn",
                     description="Low-rank reward learning from matchings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a replication study")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="fit one batch, emit estimate and trace")
    p.add_argument("batch")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("infer", help="fit one batch and test a linear form")
    p.add_argument("batch")
    p.add_argument("config")
    p.add_argument("--q", required=True, help="q_spec string or linear-form file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("policy", help="estimate the optimal matching on one batch")
    p.add_argument("batch")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_policy)

    p = sub.add_parser("nu", help="print the entrywise observation probability")
    p.add_argument("--scheme", required=True,
                   choices=["oto", "one_to_one", "otm", "one_to_many",
                            "ts", "two_sided"])
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--p0", type=float, default=None)
    p.add_argument("--p1", type=float, default=None)
    p.add_argument("--p2", type=float, default=None)
    p.add_argument("--c-r", dest="c_r", type=float, default=None)
    p.add_argument("--c-s", dest="c_s", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.set_defaults(func=_cmd_nu)
    return parser


def _load_batch_and_config(args):
    batch = load_batch(args.batch)
    cfg = load_config(args.config)
    problems = []
    if (batch.d1, batch.d2) != (cfg.d1, cfg.d2):
        problems.append(
            f"batch dims ({batch.d1}, {batch.d2}) != config dims "
            f"({cfg.d1}, {cfg.d2})"
        )
    if scheme_to_json(batch.scheme) != scheme_to_json(cfg.scheme):
        problems.append("batch scheme differs from config scheme")
    if problems:
        raise ConfigError(problems)
    return batch, cfg


def _resolve_out(args, cfg: RunConfig) -> Path:
    out = args.out if args.out is not None else cfg.outputs
    if out is None:
        raise ConfigError(["no output directory: pass --out or set 'outputs'"])
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.out is not None:
        cfg = replace(cfg, outputs=args.out)
    summary = run_simulation(cfg)
    print(json.dumps({
        "out": cfg.outputs,
        "n_success": summary.n_success,
        "n_failed": summary.n_failed,
        "ks_distance": _jsonable(summary.ks_distance),
        "coverage": _jsonable(summary.coverage),
        "mean": _jsonable(summary.mean),
        "sd": _jsonable(summary.sd),
        "recovery_count": summary.recovery_count,
    }, sort_keys=True))
    return 0


def _cmd_estimate(args) -> int:
    batch, cfg = _load_batch_and_config(args)
    outdir = _resolve_out(args, cfg)
    nu = _nu_for(cfg)
    m_init, trace = fit(batch, _estimator_config(cfg, nu, record_trace=True))
    save_matrix_csv(m_init, outdir / "m_init.csv")
    trace.write_csv(outdir / "trace.csv")
    print(json.dumps({
        "out": str(outdir),
        "files": ["m_init.csv", "trace.csv"],
        "nu": nu,
        "batches": len(trace.batches),
    }, sort_keys=True))
    return 0


def _cmd_infer(args) -> int:
    batch, cfg = _load_batch_and_config(args)
    nu = _nu_for(cfg)
    q = resolve_q(args.q, cfg.d1, cfg.d2, np.random.default_rng([cfg.seed, _SALT_Q]))
    artifacts = prepare_inference(batch, _estimator_config(cfg, nu, False))
    res = infer_linear_form(artifacts, q, alpha=cfg.alpha)
    doc = dict(res.to_dict(), q_size=q.size, nu=nu)
    print(json.dumps(doc, sort_keys=True))
    if args.out is not None or cfg.outputs is not None:
        outdir = _resolve_out(args, cfg)
        (outdir / "inference.json").write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n"
        )
    return 0


def _cmd_policy(args) -> int:
    batch, cfg = _load_batch_and_config(args)
    nu = _nu_for(cfg)
    artifacts = prepare_inference(batch, _estimator_config(cfg, nu, False))
    matching = optimal_one_to_one(artifacts.m_hat)
    ev = evaluate_policy(artifacts, matching, alpha=cfg.alpha)
    doc = {
        "matching": json.loads(matching_to_json(matching)),
        "total_reward_estimate": ev.total_reward_estimate,
        "inference": ev.inference.to_dict(),
    }
    print(json.dumps(doc, sort_keys=True))
    if args.out is not None or cfg.outputs is not None:
        outdir = _resolve_out(args, cfg)
        (outdir / "matching.json").write_text(matching_to_json(matching) + "\n")
        (outdir / "evaluation.json").write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n"
        )
    return 0


def _cmd_nu(args) -> int:
    kind = {"oto": "one_to_one", "otm": "one_to_many", "ts": "two_sided"}.get(
        args.scheme, args.scheme
    )
    if kind == "one_to_one":
        scheme: MatchingScheme = OneToOne()
    elif kind == "one_to_many":
        if args.K is None or args.p0 is None:
            raise ConfigError(["one_to_many needs --K and --p0"])
        scheme = OneToMany(args.K, args.p0)
    else:
        missing = [f"--{n.replace('_', '-')}" for n in
                   ("p1", "p2", "c_r", "c_s", "gamma")
                   if getattr(args, n) is None]
        if missing:
            raise ConfigError([f"two_sided needs {' '.join(missing)}"])
        scheme = TwoSided(args.p1, args.p2, args.c_r, args.c_s, args.gamma)
    print(json.dumps({"nu": entrywise_probability(scheme, args.d1, args.d2).nu}))
    return 0


def _print_error(exc: Exception) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ConfigError):
        doc["problems"] = exc.problems
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        _print_error(exc)
        return 2
    except DataFormatError as exc:
        _print_error(exc)
        return 4
    except NumericalError as exc:
        _print_error(exc)
        return 3
    except ArgumentError as exc:
        _print_error(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
