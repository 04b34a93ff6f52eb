"""Cross-sample debiasing and inference on linear forms of the reward matrix.

The pipeline: split the batch into two halves, fit each half with the
batch-split gradient descent, debias each half's estimate using the
other half's residuals, project back to rank r, and average.  The
averaged estimator admits normal inference on any linear form <M, Q>
with a plug-in variance built from held-out residuals.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import (
    ArgumentError,
    DegenerateTestError,
    EmptyMatchingWarning,
    RemainderDroppedWarning,
    UndefinedVarianceError,
)
from .estimator import EstimatorConfig, fit
from .matmodel import LinearForm, _require_finite, projection_magnitude, svd_r
from .samplers import ObservationBatch


@dataclass(frozen=True)
class SplitPlan:
    """Index ranges of the two inference halves (second half fits first)."""

    half1: tuple[int, int]
    half2: tuple[int, int]

    @property
    def t0(self) -> int:
        return self.half2[1] - self.half2[0]

    @property
    def t_used(self) -> int:
        return 2 * self.t0


def split(T: int) -> SplitPlan:
    """Deterministic half split; an odd trailing observation is dropped."""
    if T < 2:
        raise ArgumentError(f"need at least two observations to split, got {T}")
    t0 = T // 2
    if T % 2:
        warnings.warn(
            "dropping 1 trailing observation to form equal halves",
            RemainderDroppedWarning,
            stacklevel=2,
        )
    return SplitPlan(half1=(t0, 2 * t0), half2=(0, t0))


@dataclass(frozen=True)
class DebiasedEstimate:
    """A half's estimate after the cross-sample residual correction."""

    m_unbs: np.ndarray
    source_init: int
    m_init: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.m_unbs)):
            raise ArgumentError("debiased estimate must have finite entries")


def debias(
    m_init: np.ndarray,
    other_half: ObservationBatch,
    nu: float,
    source_init: int = 0,
) -> DebiasedEstimate:
    """Uniform-propensity cross-sample debiasing.

    Adds ``(T0 nu)^-1 sum_t (Y_t - X_t o M_init)`` over the held-out
    half; the result is entrywise unbiased for M whatever M_init was,
    because the held-out residuals are independent of it.
    """
    if not (0.0 < nu <= 1.0):
        raise ArgumentError(f"nu must lie in (0, 1], got {nu}")
    m_init = np.asarray(m_init, dtype=float)
    if len(other_half) == 0:
        raise ArgumentError("need a nonempty correction half")
    if (other_half.d1, other_half.d2) != m_init.shape:
        raise ArgumentError("correction records must match the estimate's dims")
    d1, d2 = m_init.shape
    rows, cols = other_half.rows, other_half.cols
    with np.errstate(over="ignore", invalid="ignore"):
        weights = (other_half.y - m_init[rows, cols]) * (1.0 / nu)
        flat = np.bincount(rows * d2 + cols, weights=weights, minlength=d1 * d2)
        m_unbs = m_init + flat.reshape(d1, d2) / len(other_half)
    return DebiasedEstimate(
        m_unbs=_require_finite(m_unbs, "debiased estimate"),
        source_init=source_init,
        m_init=m_init,
    )


def project_rank_r(
    m_unbs: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best rank-r approximation plus its singular factors."""
    u, s, v = svd_r(np.asarray(m_unbs, dtype=float), r)
    return (u * s) @ v.T, u, v


def estimate_sigma(
    m1_init: np.ndarray,
    m2_init: np.ndarray,
    half1: ObservationBatch,
    half2: ObservationBatch,
    t_used: int,
) -> float:
    """Held-out residual variance: each half scored against the other's fit.

    Per-period residual sums are normalized by that period's revealed
    count, then averaged over all ``t_used`` periods.  Empty matchings
    carry no residual information and are skipped with a warning.
    """
    if t_used < 1:
        raise ArgumentError("t_used must be >= 1")
    total = 0.0
    used = 0
    skipped = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for half, m_init in ((half2, m1_init), (half1, m2_init)):
            resid = half.y - m_init[half.rows, half.cols]
            bounds = half.offsets.tolist()
            for a, b in zip(bounds[:-1], bounds[1:]):
                if a == b:
                    skipped += 1
                    continue
                # One dot product per period, as the variance is defined:
                # summing all periods in one pass would round differently.
                part = resid[a:b]
                total += float(part @ part) / (b - a)
                used += 1
    if skipped:
        warnings.warn(
            f"skipped {skipped} empty matching(s) in the variance estimate",
            EmptyMatchingWarning,
            stacklevel=2,
        )
    if used == 0:
        raise UndefinedVarianceError("no revealed entries; noise variance is undefined")
    return _require_finite(total, "residual variance") / t_used


def standard_error(sigma_hat_sq: float, proj_mag_hat: float, t: int, nu: float) -> float:
    """Plug-in asymptotic standard error: sigma_hat * ||P(Q)|| * sqrt(1/(T nu))."""
    if sigma_hat_sq < 0.0 or proj_mag_hat < 0.0:
        raise ArgumentError("variance inputs must be nonnegative")
    if t * nu <= 0.0:
        raise ArgumentError("need T * nu > 0")
    return float(np.sqrt(sigma_hat_sq) * proj_mag_hat * np.sqrt(1.0 / (t * nu)))


def confidence_interval(point: float, se: float, alpha: float) -> tuple[float, float]:
    """Symmetric normal interval ``point +- z_{alpha/2} * se``."""
    if not (0.0 < alpha < 1.0):
        raise ArgumentError(f"alpha must lie in (0, 1), got {alpha}")
    if se < 0.0:
        raise ArgumentError("se must be nonnegative")
    z = float(ndtri(1.0 - alpha / 2.0))
    return point - z * se, point + z * se


def _p_value(z: float, direction: str) -> float:
    if direction == "greater":
        return float(1.0 - ndtr(z))
    if direction == "less":
        return float(ndtr(z))
    if direction == "two-sided":
        return float(2.0 * (1.0 - ndtr(abs(z))))
    raise ArgumentError(
        f"direction must be 'greater', 'less', or 'two-sided', got {direction!r}"
    )


@dataclass(frozen=True)
class InferenceResult:
    """Point estimate, interval, and test for one linear form."""

    q: LinearForm
    point: float
    sigma_hat_sq: float
    proj_mag_hat: float
    se: float
    ci_low: float
    ci_high: float
    z: float
    p_value: float
    alpha: float

    def __post_init__(self):
        if self.se < 0.0:
            raise ArgumentError("se must be nonnegative")
        if not (self.ci_low <= self.point <= self.ci_high):
            raise ArgumentError("interval must contain the point estimate")

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "sigma_hat_sq": self.sigma_hat_sq,
            "proj_mag_hat": self.proj_mag_hat,
            "se": self.se,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "z": self.z,
            "p_value": self.p_value,
            "alpha": self.alpha,
        }


@dataclass(frozen=True)
class EstimationArtifacts:
    """Everything inference on linear forms needs from one batch."""

    m_hat: np.ndarray
    u_hat: np.ndarray
    v_hat: np.ndarray
    halves: tuple[DebiasedEstimate, DebiasedEstimate]
    sigma_hat_sq: float
    t_used: int
    nu: float
    r: int


def prepare_inference(batch: ObservationBatch, config: EstimatorConfig) -> EstimationArtifacts:
    """The split/fit/debias/project/average pipeline plus the noise variance.

    Fits the gradient-descent estimator separately on each half
    (``config.m`` batch pairs per half), cross-debiases each initial
    estimate with the other half's residuals, projects both back to
    rank r, and averages them into ``m_hat``; ``u_hat``, ``v_hat`` are
    its top-r factors.  Each half scored against the other's fit gives
    the noise variance.
    """
    plan = split(len(batch))
    half1 = batch[plan.half1[0] : plan.half1[1]]
    half2 = batch[plan.half2[0] : plan.half2[1]]
    fit_config = replace(config, record_trace=False)

    m1_init, _ = fit(half1, fit_config)
    m2_init, _ = fit(half2, fit_config)

    deb1 = debias(m1_init, half2, config.nu, source_init=1)
    deb2 = debias(m2_init, half1, config.nu, source_init=2)
    m1, _, _ = project_rank_r(deb1.m_unbs, config.r)
    m2, _, _ = project_rank_r(deb2.m_unbs, config.r)
    m_hat = 0.5 * (m1 + m2)
    u_hat, _, v_hat = svd_r(m_hat, config.r)
    sigma_hat_sq = estimate_sigma(deb1.m_init, deb2.m_init, half1, half2, plan.t_used)
    return EstimationArtifacts(
        m_hat=m_hat,
        u_hat=u_hat,
        v_hat=v_hat,
        halves=(deb1, deb2),
        sigma_hat_sq=sigma_hat_sq,
        t_used=plan.t_used,
        nu=config.nu,
        r=config.r,
    )


def infer_linear_form(
    artifacts: EstimationArtifacts,
    q: LinearForm,
    alpha: float = 0.05,
    null_value: float = 0.0,
    direction: str = "two-sided",
) -> InferenceResult:
    """CI and z test for one linear form of the reward matrix."""
    if q.dims != artifacts.m_hat.shape:
        raise ArgumentError("linear form dims must match the estimate")
    point = q.inner(artifacts.m_hat)
    proj = projection_magnitude(artifacts.u_hat, artifacts.v_hat, q)
    se = standard_error(artifacts.sigma_hat_sq, proj, artifacts.t_used, artifacts.nu)
    if se <= 0.0:
        raise DegenerateTestError(
            "zero standard error (zero form or zero residual variance)"
        )
    lo, hi = confidence_interval(point, se, alpha)
    z = (point - null_value) / se
    return InferenceResult(
        q=q,
        point=float(point),
        sigma_hat_sq=float(artifacts.sigma_hat_sq),
        proj_mag_hat=float(proj),
        se=se,
        ci_low=float(lo),
        ci_high=float(hi),
        z=float(z),
        p_value=_p_value(float(z), direction),
        alpha=alpha,
    )
