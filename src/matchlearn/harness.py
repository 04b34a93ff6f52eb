"""Replication studies, statistical summaries, and the command line.

A study is described by a JSON config (:class:`RunConfig`).  One reward
matrix is generated from the seed, then each replication draws a fresh
batch from its own salted stream, fits, and runs inference; aggregates
(KS distance to the standard normal, CI coverage, matching recovery)
are written as CSV/JSON so runs with the same seed are byte-identical.

Streams are salted so that the matrix, the inference target and the
per-replication batches are seeded apart: ``default_rng([seed, salt])``
for the shared draws and ``default_rng([seed, 3, rep])`` for replication
``rep``'s batch.  The entrywise probability is exact and draws nothing.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace
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
from .matmodel import (
    LinearForm,
    RewardMatrix,
    _check_scale,
    _instance_of,
    _int,
    _real,
    _write_csv,
    generate_low_rank,
    save_matrix_csv,
)
from .policy import (
    evaluate_policy,
    matching_to_json,
    matching_to_linear_form,
    optimal_one_to_one,
)
from .samplers import (
    _BY_KIND,
    Matching,
    MatchingScheme,
    OneToMany,
    OneToOne,
    _check_sigma,
    _scheme,
    entrywise_probability,
    load_batch,
    observe,
    sample_matching,
    scheme_from_json,
    scheme_to_json,
)

logger = logging.getLogger("matchlearn.harness")

STUDIES = ("inference", "convergence", "policy")
MAX_FAILURE_FRACTION = 0.1

# Salts: the shared (or per-replication) matrix, the shared q, each replication's batch.
_SALT_MATRIX, _SALT_Q, _SALT_REPLICATION = 1, 2, 3


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

_ENTRY_RE = re.compile(r"^entry\((\d+)\s*,\s*(\d+)\)$")
_OTM_RE = re.compile(r"^random_otm\((\d+)\s*,\s*([0-9.eE+-]+)\)$")


# Readers of RunConfig's fields by annotation, in the order their problems are reported.
_READERS = {"int": _int, "float": _real, "str": _instance_of(str, "a string"),
            "bool": _instance_of(bool, "a boolean"),
            "MatchingScheme": _scheme,
            "str | None": _instance_of((str, os.PathLike, type(None)), "a path")}


def _validate(cfg: RunConfig) -> tuple[RunConfig, LinearForm]:
    """``cfg``, each field read by its annotation's reader (types first, numbers as Python
    ones), and the form its ``q_spec`` gives from the study's stream; else ConfigError."""
    p, values = [], {}
    for type_name, read in _READERS.items():
        for f in fields(cfg):
            if f.type == type_name:
                try:
                    values[f.name] = read(getattr(cfg, f.name), f.name)
                except ArgumentError as exc:
                    p.append(str(exc))
    if p:
        raise ConfigError(p)
    cfg = replace(cfg, **values)
    addressable = min(cfg.d1, cfg.d2) >= 1 and cfg.d1 * cfg.d2 <= np.iinfo(np.intp).max // 8
    if cfg.d1 < 1 or cfg.d2 < cfg.d1:
        p.append(f"need 1 <= d1 <= d2, got d1={cfg.d1}, d2={cfg.d2}")
    elif not addressable:
        p.append(f"a {cfg.d1}x{cfg.d2} float64 matrix is too large to address")
    if not (1 <= cfg.r <= cfg.d1):
        p.append(f"need 1 <= r <= d1, got r={cfg.r}")
    k = 2 if cfg.study == "convergence" else 4  # two halves, each fit with m pairs
    if cfg.T < k * cfg.m:
        p.append(f"need T >= {k}m for study {cfg.study!r}, got T={cfg.T}, m={cfg.m}")
    if cfg.m < 1:
        p.append(f"need m >= 1, got {cfg.m}")
    if not 0 <= cfg.seed < 2**32:  # larger seeds' streams collide with smaller ones'
        p.append(f"seed must lie in [0, 2**32), got {cfg.seed}")
    if cfg.replications < 0:
        p.append(f"replications must be nonnegative, got {cfg.replications}")
    if cfg.workers < 1:
        p.append(f"workers must be >= 1, got {cfg.workers}")
    if cfg.outputs == "":  # Path("") would name the current directory
        p.append("output directory path is empty")
    if addressable and cfg.d1 <= cfg.d2:
        try:
            cfg.scheme.feasible(cfg.d1, cfg.d2)
        except ArgumentError as exc:
            p.append(str(exc))
    if not (0.0 < cfg.eta < 1.0):
        p.append(f"need 0 < eta < 1, got {cfg.eta}")
    for check, value in ((_check_sigma, cfg.sigma), (_check_scale, cfg.scale)):
        try:
            check(value)
        except ArgumentError as exc:
            p.append(str(exc))
    if not (0.0 < cfg.alpha < 1.0):
        p.append(f"need 0 < alpha < 1, got {cfg.alpha}")
    if cfg.study not in STUDIES:
        p.append(f"study must be one of {STUDIES}, got {cfg.study!r}")
    if addressable:  # a malformed q file propagates; a negative seed is a problem above
        try:
            q = resolve_q(cfg.q_spec, cfg.d1, cfg.d2,
                          np.random.default_rng([max(cfg.seed, 0), _SALT_Q]))
        except (ArgumentError, ConfigError) as exc:
            p.append(f"q_spec {cfg.q_spec}: {exc}")
    if p:
        raise ConfigError(p)
    return cfg, q


def parse_config(obj: dict) -> RunConfig:
    """Build a validated RunConfig from a parsed JSON object.

    The keys are RunConfig's fields; those without a default are
    required.  Every violation is reported at once in the raised
    ConfigError; a ``q_spec`` file that is read but malformed raises
    DataFormatError.
    """
    if not isinstance(obj, dict):
        raise ConfigError([f"config must be a JSON object, got {type(obj).__name__}"])
    schema = fields(RunConfig)
    problems = [f"unknown config key: {k}" for k in obj
                if k not in {f.name for f in schema}]
    problems += [f"missing required config key: {f.name}" for f in schema
                 if f.default is MISSING and f.name not in obj]
    if problems:
        raise ConfigError(problems)
    try:
        scheme = scheme_from_json(obj["scheme"])
    except DataFormatError as exc:
        raise ConfigError([f"bad scheme: {exc}"]) from None
    return _validate(RunConfig(**obj | {"scheme": scheme}))[0]


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config {path} is not valid JSON: {exc}"]) from None
    return parse_config(obj)


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical JSON form; parse_config(config_to_dict(c)) == c."""
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)} | {
        "scheme": scheme_to_json(cfg.scheme)}


def resolve_q(spec: str, d1: int, d2: int, rng: np.random.Generator) -> LinearForm:
    """Materialize a q_spec; random specs consume from ``rng``.  The one reader of the
    spec syntax: a spec that does not fit ``d1 x d2`` raises ArgumentError, a q file that
    cannot be read ConfigError, and a malformed one DataFormatError."""
    if not isinstance(spec, str) or not spec:
        raise ArgumentError(f"a spec must be a nonempty string, got {spec!r}")
    entry, otm = _ENTRY_RE.match(spec), _OTM_RE.match(spec)
    if entry:
        return LinearForm(d1, d2, [int(entry[1])], [int(entry[2])], [1.0])
    if otm or spec in ("random_oto", "oto_difference"):
        try:
            scheme = OneToMany(int(otm[1]), float(otm[2])) if otm else OneToOne()
        except ValueError as exc:
            raise ArgumentError(str(exc)) from None

        def draw() -> LinearForm:
            return matching_to_linear_form(sample_matching(scheme, d1, d2, rng))
        return draw().subtract(draw()) if spec == "oto_difference" else draw()
    try:
        return LinearForm.from_json(Path(spec).read_text(encoding="utf-8"), d1, d2)
    except (OSError, UnicodeEncodeError) as exc:
        raise ConfigError([f"q file not found or unreadable: {exc}"]) from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"q file {spec} is not UTF-8 text: {exc}") from None
    except DataFormatError as exc:
        raise DataFormatError(f"q file {spec}: {exc}") from None


# ---------------------------------------------------------------------------
# Replication engine
# ---------------------------------------------------------------------------

def _estimator_config(cfg: RunConfig) -> EstimatorConfig:
    nu = entrywise_probability(cfg.scheme, cfg.d1, cfg.d2).nu
    return EstimatorConfig(r=cfg.r, eta=cfg.eta, m=cfg.m, nu=nu)


def _truth(cfg: RunConfig, *rep: int) -> RewardMatrix:
    """The study's truth: one shared matrix, or replication ``rep``'s own when given."""
    return generate_low_rank(cfg.d1, cfg.d2, cfg.r, cfg.scale,
                             np.random.default_rng([cfg.seed, _SALT_MATRIX, *rep]))


def _run_replication(cfg, ecfg, truth, q, target, rep: int) -> dict:
    """Replication ``rep``'s record, a plain dict so it can cross processes: its fit
    ``trace`` (convergence), its ``z`` and interval (inference, policy), or its ``error``."""
    if truth is None:
        truth = _truth(cfg, rep)
    rng = np.random.default_rng([cfg.seed, _SALT_REPLICATION, rep])
    try:
        batch = observe(truth, cfg.scheme, cfg.T, cfg.sigma, rng)
        if cfg.study == "convergence":
            return {"rep": rep, "trace": fit(batch, ecfg, truth=truth)[1]}
        artifacts = prepare_inference(batch, ecfg)
        if cfg.study == "inference":
            res = infer_linear_form(artifacts, q, alpha=cfg.alpha)
            estimand = z_target = q.inner(truth.values)
            recovered = None
        else:  # policy
            mat_hat = optimal_one_to_one(artifacts.m_hat)
            res = evaluate_policy(artifacts, mat_hat, alpha=cfg.alpha)
            mat_true, estimand = target or _policy_target(truth)
            # The statistic standardizes against the value of the matching
            # actually selected; coverage targets the true optimal reward.
            z_target = matching_to_linear_form(mat_hat).inner(truth.values)
            recovered = mat_hat.pairs == mat_true.pairs
        return {
            "rep": rep,
            "z": float((res.point - z_target) / res.se),
            "ci_low": res.ci_low,
            "ci_high": res.ci_high,
            "estimand": float(estimand),
            "covered": bool(res.ci_low <= estimand <= res.ci_high),
            "recovered": recovered,
        }
    except NumericalError as exc:
        return {"rep": rep, "error": f"{type(exc).__name__}: {exc}"}


def _policy_target(truth: RewardMatrix) -> tuple[Matching, float]:
    """The truth's optimal matching and its total reward."""
    mat = optimal_one_to_one(truth.values)
    return mat, matching_to_linear_form(mat).inner(truth.values)


def run_simulation(config: RunConfig) -> ReplicationSummary:
    """Run a replication study and write its report files.

    Requires ``config.outputs``.  Failed replications are excluded from
    the aggregates and reported; more than ``MAX_FAILURE_FRACTION`` of
    them failing aborts the run.
    """
    config, q = _validate(config)
    if config.outputs is None:
        raise ConfigError(["outputs directory is required to run a study"])

    truth = None if config.regenerate_m else _truth(config)
    ecfg = _estimator_config(config)

    # A shared truth has one optimal matching: solve it once per study.
    target = None
    if truth is not None and config.study == "policy":
        target = _policy_target(truth)

    run = functools.partial(_run_replication, config, ecfg, truth, q, target)
    if config.workers == 1:
        records = list(map(run, range(config.replications)))
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            records = list(pool.map(run, range(config.replications)))

    failed = [r for r in records if "error" in r]
    for r in failed:
        logger.warning("replication %d failed: %s", r["rep"], r["error"])
    if failed and len(failed) > MAX_FAILURE_FRACTION * config.replications:
        raise ReplicationFailureError(
            f"{len(failed)} of {config.replications} replications failed "
            f"(tolerance {MAX_FAILURE_FRACTION:.0%}); first: {failed[0]['error']}"
        )

    scored = [r for r in records if "z" in r]
    stats = np.array([r["z"] for r in scored])
    coverage = float(np.mean([r["covered"] for r in scored])) if scored else float("nan")
    recovery = int(sum(bool(r["recovered"]) for r in scored)) if config.study == "policy" else None
    ks = ks_statistic(stats) if stats.size else float("nan")
    mean = float(stats.mean()) if stats.size else float("nan")
    sd = float(stats.std(ddof=1)) if stats.size > 1 else float("nan")

    summary = ReplicationSummary(
        standardized_stats=stats,
        ks_distance=ks,
        coverage=coverage,
        mean=mean,
        sd=sd,
        traces=tuple(r["trace"] for r in records if "trace" in r),
        recovery_count=recovery,
        n_success=len(records) - len(failed),
        n_failed=len(failed),
        failures=tuple(r["error"] for r in failed),
    )
    with _writing(config.outputs) as outdir:
        _write_outputs(outdir, config, truth, q, records, summary)
    return summary


@contextlib.contextmanager
def _writing(out):
    """The output directory ``out`` names, made if absent (and only here), for the block to
    write in; entered once the work has returned, so a run that fails leaves nothing on disk.
    An OSError while making or writing it is a ConfigError, and so is a name the file
    system's encoding cannot spell; an empty ``out`` was refused before the work began."""
    try:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        yield outdir
    except (OSError, UnicodeEncodeError) as exc:
        raise ConfigError([f"cannot write output directory {out}: {exc}"]) from None


def _jsonable(x: float):
    x = float(x)
    return x if np.isfinite(x) else None


def _aggregates(summary: ReplicationSummary) -> dict:
    """The aggregates that ``summary.json`` and ``simulate``'s stdout both report."""
    return {"n_success": summary.n_success, "n_failed": summary.n_failed,
            "recovery_count": summary.recovery_count} | {
        k: _jsonable(getattr(summary, k)) for k in ("ks_distance", "coverage", "mean", "sd")}


def _write_outputs(outdir, config, truth, q, records, summary) -> None:
    scored = [r for r in records if "z" in r]
    _write_csv(outdir / "standardized_stats.csv", "rep,z", ((r["rep"], r["z"]) for r in scored))
    _write_csv(outdir / "coverage.csv", "rep,ci_low,ci_high,estimand,covered",
               ((r["rep"], r["ci_low"], r["ci_high"], r["estimand"], int(r["covered"]))
                for r in scored))
    for r in records:
        if "trace" in r:
            r["trace"].write_csv(outdir / f"trace_rep{r['rep']}.csv")
    # The echoed config omits where and how wide the study ran, so runs of
    # one study into any directory with any worker count give identical bytes.
    doc = {
        "config": {k: v for k, v in config_to_dict(config).items()
                   if k not in ("outputs", "workers")},
        "nu": config.scheme.nu(config.d1, config.d2),
        **_aggregates(summary),
        "failures": list(summary.failures),
        "q_size": q.size,
        "truth_value": _jsonable(q.inner(truth.values)) if truth is not None else None,
    }
    (outdir / "summary.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


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


# Short names the `nu` command accepts for the scheme kinds.
_NU_ALIASES = {"oto": "one_to_one", "otm": "one_to_many", "ts": "two_sided"}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="matchlearn",
                     description="Low-rank reward learning from matchings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a replication study")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.set_defaults(func=_cmd_simulate)

    for name, func, text in [
        ("estimate", _cmd_estimate, "fit one batch, emit estimate and trace"),
        ("infer", _cmd_infer, "fit one batch and test a linear form"),
        ("policy", _cmd_policy, "estimate the optimal matching on one batch"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("batch")
        p.add_argument("config")
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
    sub.choices["infer"].add_argument("--q", required=True,
                                      help="q_spec string or linear-form file")

    p = sub.add_parser("nu", help="print the entrywise observation probability")
    p.add_argument("--scheme", required=True,
                   choices=[name for alias, kind in _NU_ALIASES.items() for name in (alias, kind)])
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    for cls in _BY_KIND.values():
        for f in fields(cls):
            p.add_argument(_flag(f.name), dest=f.name, default=None,
                           type=int if f.type == "int" else float)
    p.set_defaults(func=_cmd_nu)
    return parser


def _checked_batch(args, cfg: RunConfig, k: int):
    """The batch and output directory (``--out``, else ``outputs``) of ``estimate`` (k=2) or
    ``infer``/``policy`` (k=4), checked against ``cfg`` and to hold ``k * m`` periods.  Commands
    read their config, and ``infer`` its form, first: a bad one, an empty ``--out``, or no
    output directory for ``estimate``, fails before the batch is parsed."""
    if args.out == "":
        raise ConfigError(["output directory path is empty"])
    batch = load_batch(args.batch)
    problems = []
    if len(batch) < k * cfg.m:
        problems.append(f"{args.command} needs a batch of T >= {k}m periods, "
                        f"got T={len(batch)}, m={cfg.m}")
    if (batch.d1, batch.d2) != (cfg.d1, cfg.d2):
        problems.append(f"batch dims ({batch.d1}, {batch.d2}) != config dims ({cfg.d1}, {cfg.d2})")
    if batch.scheme != cfg.scheme:
        problems.append("batch scheme differs from config scheme")
    if problems:
        raise ConfigError(problems)
    return batch, args.out if args.out is not None else cfg.outputs


def _cmd_simulate(args) -> dict:
    cfg = load_config(args.config)
    if args.out is not None:
        cfg = replace(cfg, outputs=args.out)
    summary = run_simulation(cfg)
    return {"out": cfg.outputs, **_aggregates(summary)}


def _cmd_estimate(args) -> dict:
    cfg = load_config(args.config)
    if args.out is None and cfg.outputs is None:
        raise ConfigError(["no output directory: pass --out or set 'outputs'"])
    batch, out = _checked_batch(args, cfg, 2)
    m_init, trace = fit(batch, _estimator_config(cfg))
    with _writing(out) as outdir:
        save_matrix_csv(m_init, outdir / "m_init.csv")
        trace.write_csv(outdir / "trace.csv")
    return {
        "out": str(outdir),
        "files": ["m_init.csv", "trace.csv"],
        "nu": batch.nu,
        "batches": len(trace),
    }


def _cmd_infer(args) -> dict:
    cfg = load_config(args.config)
    q = resolve_q(args.q, cfg.d1, cfg.d2, np.random.default_rng([cfg.seed, _SALT_Q]))
    batch, out = _checked_batch(args, cfg, 4)
    artifacts = prepare_inference(batch, _estimator_config(cfg))
    res = infer_linear_form(artifacts, q, alpha=cfg.alpha)
    doc = dict(res.to_dict(), q_size=q.size, nu=artifacts.nu)
    if out is not None:
        with _writing(out) as outdir:
            (outdir / "inference.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return doc


def _cmd_policy(args) -> dict:
    cfg = load_config(args.config)
    batch, out = _checked_batch(args, cfg, 4)
    artifacts = prepare_inference(batch, _estimator_config(cfg))
    matching = optimal_one_to_one(artifacts.m_hat)
    res = evaluate_policy(artifacts, matching, alpha=cfg.alpha)
    text = matching_to_json(matching)
    doc = {
        "matching": json.loads(text),
        "total_reward_estimate": res.point,
        "inference": res.to_dict(),
    }
    if out is not None:
        with _writing(out) as outdir:
            (outdir / "matching.json").write_text(text + "\n")
            (outdir / "evaluation.json").write_text(
                json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return doc


def _cmd_nu(args) -> dict:
    cls = _BY_KIND[_NU_ALIASES.get(args.scheme, args.scheme)]
    names = [f.name for f in fields(cls)]
    problems = [f"unknown {cls.kind} flag: {_flag(f.name)}" for c in _BY_KIND.values()
                for f in fields(c) if f.name not in names and getattr(args, f.name) is not None]
    missing = [_flag(n) for n in names if getattr(args, n) is None]
    if missing:
        problems.append(f"{cls.kind} needs {' '.join(missing)}")
    if problems:
        raise ConfigError(problems)
    scheme = cls(**{n: getattr(args, n) for n in names})
    return {"nu": entrywise_probability(scheme, args.d1, args.d2).nu}


# Each error type the CLI reports, with its exit code; the first that matches applies.
_EXIT_CODES = {ConfigError: 2, DataFormatError: 4, NumericalError: 3, ArgumentError: 2}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        doc = args.func(args)
    except tuple(_EXIT_CODES) as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ConfigError):
            doc["problems"] = exc.problems
        print(json.dumps(doc, sort_keys=True), file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
