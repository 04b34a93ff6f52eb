"""Cross-sample debiasing and inference on linear forms of the reward matrix.

The pipeline: split the batch into two halves of ``T // 2`` periods, fit
each half with the batch-split gradient descent, debias each half's
estimate using the other half's residuals, project back to rank r, and
average.  The averaged estimator admits normal inference on any linear
form <M, Q> with a plug-in variance built from held-out residuals.  Each
held-out residual ``Y - M_init`` is gathered once, by ``held_out_residual``,
and read by both the debiasing and the variance.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import (
    ArgumentError,
    DegenerateTestError,
    EmptyMatchingWarning,
    UndefinedVarianceError,
)
from .estimator import EstimatorConfig, fit, partition_batches
from .matmodel import LinearForm, _real, _require_finite, projection_magnitude, svd_r
from .samplers import ObservationBatch


def held_out_residual(m_init: np.ndarray, half: ObservationBatch) -> np.ndarray:
    """``Y - M_init`` at each of ``half``'s revealed entries, in entry order: what both
    ``debias`` and ``period_mean_squares`` read of a held-out half."""
    m_init = np.asarray(m_init, dtype=float)
    if (half.d1, half.d2) != m_init.shape:
        raise ArgumentError("held-out records must match the estimate's dims")
    with np.errstate(over="ignore", invalid="ignore"):
        return half.y - m_init[half.rows, half.cols]


def _check_residual(half: ObservationBatch, residual: np.ndarray) -> None:
    if np.shape(residual) != half.y.shape:
        raise ArgumentError(f"need one residual per held-out entry ({half.y.size}), "
                            f"got shape {np.shape(residual)}")


def debias(m_init: np.ndarray, other_half: ObservationBatch, residual: np.ndarray) -> np.ndarray:
    """Uniform-propensity cross-sample debiasing.

    Adds ``(T0 nu)^-1 sum_t (Y_t - X_t o M_init)`` over the held-out
    half, ``T0`` its periods and ``nu`` its scheme's; the result is entrywise
    unbiased for M whatever M_init was, as the held-out residuals are independent of it.
    ``residual`` is ``held_out_residual(m_init, other_half)``, and it is scaled in place:
    the only transients are the scatter's index and sum.
    """
    m_init = np.asarray(m_init, dtype=float)
    if len(other_half) == 0:
        raise ArgumentError("need a nonempty correction half")
    if (other_half.d1, other_half.d2) != m_init.shape:
        raise ArgumentError("correction records must match the estimate's dims")
    _check_residual(other_half, residual)
    with np.errstate(over="ignore", invalid="ignore"):
        residual *= 1.0 / other_half.nu
        m_unbs = other_half.scatter(residual)
        m_unbs /= len(other_half)
        m_unbs += m_init
    return _require_finite(m_unbs, "debiased estimate")


def project_rank_r(m_unbs: np.ndarray, r: int) -> np.ndarray:
    """Best rank-r approximation."""
    u, s, v = svd_r(np.asarray(m_unbs, dtype=float), r)
    return (u * s) @ v.T


def period_mean_squares(half: ObservationBatch, residual: np.ndarray) -> np.ndarray:
    """Each nonempty period's mean squared residual, its squares added left to right.

    Whole periods of about 2**17 entries are squared and summed at a time, so beside
    the residual the transients stay near 2 MiB whatever the half's size.
    """
    _check_residual(half, residual)
    counts = np.diff(half.offsets)
    step = max(1, 2**17 // max(1, int(counts.max(initial=0))))  # periods per slice
    sums = np.empty(counts.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, counts.size, step):
            part = counts[lo : lo + step]
            sq = np.square(residual[half.offsets[lo] : half.offsets[lo + part.size]])
            # bincount adds each period's entries in order, unlike add.reduceat.
            sums[lo : lo + part.size] = np.bincount(
                np.repeat(np.arange(part.size), part), weights=sq, minlength=part.size)
        seen = counts > 0
        return sums[seen] / counts[seen]


def estimate_sigma(period_means: list[np.ndarray], t_used: int) -> float:
    """Held-out residual variance from both halves' ``period_mean_squares``.

    ``math.fsum`` adds the per-period means exactly, and the total is divided by
    ``t_used``, the periods of both halves.  Empty matchings carry no residual
    information and are skipped with a warning.
    """
    means = np.concatenate(period_means)
    skipped = t_used - means.size
    if skipped < 0:
        raise ArgumentError(f"{means.size} period means from only {t_used} periods")
    if skipped:
        warnings.warn(f"skipped {skipped} empty matching(s) in the variance estimate",
                      EmptyMatchingWarning, stacklevel=2)
    if means.size == 0:
        raise UndefinedVarianceError("no revealed entries; noise variance is undefined")
    try:
        total = math.fsum(means)
    except OverflowError:  # finite means whose exact sum exceeds the float range
        total = math.inf
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
    if not 0.0 < _real(alpha, "alpha") < 1.0:
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
        """Every field but the linear form ``q``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "q"}


@dataclass(frozen=True)
class EstimationArtifacts:
    """Everything inference on linear forms needs from one batch."""

    m_hat: np.ndarray
    u_hat: np.ndarray
    v_hat: np.ndarray
    sigma_hat_sq: float
    t_used: int
    nu: float


def _half_projection(fitted: ObservationBatch, held_out: ObservationBatch,
                     config: EstimatorConfig, means: list) -> np.ndarray:
    """Fit ``fitted``, debias by ``held_out``, append its period means, project to rank r."""
    m_init = fit(fitted, config)[0]
    residual = held_out_residual(m_init, held_out)
    means.append(period_mean_squares(held_out, residual))
    m_unbs = debias(m_init, held_out, residual)
    del m_init, residual  # before the SVD, which holds its own copy of m_unbs
    return project_rank_r(m_unbs, config.r)


def prepare_inference(batch: ObservationBatch, config: EstimatorConfig) -> EstimationArtifacts:
    """The split/fit/debias/project/average pipeline plus the noise variance.

    The halves are the two equal parts ``partition_batches(T, 1)`` cuts: half 1 is
    the second and half 2 the first.  So an odd last period is dropped with its
    RemainderDroppedWarning, and a batch of fewer than two periods is an ArgumentError.
    One pass per half, half 1 first: fit the gradient-descent estimator on it
    (``config.m`` batch pairs), gather the other half's residuals against that fit
    once, take their per-period mean squares, debias the fit with them, drop the fit
    and the residuals, and project back to rank r.  ``m_hat`` is half 1's projection
    plus half 2's, halved; ``u_hat``, ``v_hat`` are its top-r factors.  The noise
    variance adds both halves' period means.  Beyond the batch, at most two dense
    d1 x d2 matrices are held besides the running stage's arrays.
    """
    half2, half1 = (batch[a:b] for a, b in partition_batches(len(batch), 1))
    t_used = 2 * len(half1)

    means = []
    m_hat = _half_projection(half1, half2, config, means)
    m_hat += _half_projection(half2, half1, config, means)
    m_hat *= 0.5
    sigma_hat_sq = estimate_sigma(means, t_used)
    u_hat, _, v_hat = svd_r(m_hat, config.r)
    return EstimationArtifacts(m_hat=m_hat, u_hat=u_hat, v_hat=v_hat,
                               sigma_hat_sq=sigma_hat_sq, t_used=t_used, nu=batch.nu)


def infer_linear_form(
    artifacts: EstimationArtifacts,
    q: LinearForm,
    alpha: float = 0.05,
    null_value: float = 0.0,
    direction: str = "two-sided",
) -> InferenceResult:
    """CI and z test for one linear form of the reward matrix."""
    alpha, null_value = _real(alpha, "alpha"), _real(null_value, "null_value")
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
