"""Rotation-calibrated gradient descent on Grassmannians with sample splitting.

The fitting loop partitions the T observation periods into 2m contiguous
batches.  Batch 1 feeds a spectral initializer, batch 2 the first core
refit; each subsequent batch pair (2p+1, 2p+2) drives one calibrated
gradient step on the factor subspaces followed by a fresh least-squares
refit of the r-by-r core.  Every batch is consumed exactly once, which
is what makes the batches' noise independent of the running iterate and
underpins the downstream debiasing theory.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ArgumentError,
    DegenerateInitError,
    RankDeficientDesignError,
    RemainderDroppedWarning,
    SingularCoreError,
)
from .matmodel import RewardMatrix, _require_finite, svd_r
from .samplers import ObservationBatch, entrywise_probability

NU_CONSISTENCY_RTOL = 1e-9
ORTHONORMALITY_LOOP_TOL = 1e-8
# The core, or the design of its refit, counts as singular when its
# smallest singular value (eigenvalue) is below this share of the largest.
MIN_G_SINGULAR = 1e-10


@dataclass(frozen=True)
class EstimatorConfig:
    """Inputs of the fitting loop.

    ``nu`` is the entrywise observation probability of the batch's
    scheme (see :func:`matchlearn.samplers.entrywise_probability`); it
    scales both the spectral initializer and the gradient.
    """

    r: int
    eta: float
    m: int
    nu: float
    record_trace: bool = True

    def __post_init__(self):
        if self.r < 1:
            raise ArgumentError(f"r must be >= 1, got {self.r}")
        if not (0.0 < self.eta < 1.0):
            raise ArgumentError(f"eta must lie in (0, 1), got {self.eta}")
        if self.m < 1:
            raise ArgumentError(f"m must be >= 1, got {self.m}")
        if not (0.0 < self.nu <= 1.0):
            raise ArgumentError(f"nu must lie in (0, 1], got {self.nu}")


@dataclass(frozen=True)
class FactorState:
    """One Algorithm iterate: orthonormal factors, the r-by-r core and its SVD."""

    U: np.ndarray
    G: np.ndarray
    V: np.ndarray
    g_svd: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        r = self.G.shape[0]
        if self.G.shape != (r, r):
            raise ArgumentError("G must be square")
        if self.U.shape[1] != r or self.V.shape[1] != r:
            raise ArgumentError("factor widths must match G")
        for name, q in (("U", self.U), ("V", self.V)):
            dev = np.max(np.abs(q.T @ q - np.eye(r)))
            if dev > ORTHONORMALITY_LOOP_TOL:
                raise ArgumentError(f"{name} not orthonormal (max deviation {dev:.2e})")
        object.__setattr__(self, "g_svd", svd_r(self.G, r))

    @property
    def estimate(self) -> np.ndarray:
        """The dense iterate ``U G V^T``."""
        return (self.U @ self.G) @ self.V.T


@dataclass(frozen=True)
class FitTrace:
    """Per-batch diagnostics of one fit; length equals the batch-pair count."""

    batches: np.ndarray
    rel_max_err_sq: np.ndarray
    g_sigma_min: np.ndarray
    g_sigma_max: np.ndarray
    grad_norm: np.ndarray

    def __len__(self) -> int:
        return self.batches.size

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            fh.write("batch,rel_max_err_sq,g_sigma_min,g_sigma_max,grad_norm\n")
            for k in range(len(self)):
                fh.write(
                    f"{int(self.batches[k])},{float(self.rel_max_err_sq[k])!r},"
                    f"{float(self.g_sigma_min[k])!r},{float(self.g_sigma_max[k])!r},"
                    f"{float(self.grad_norm[k])!r}\n"
                )


def partition_batches(T: int, m: int) -> list[tuple[int, int]]:
    """Split T periods into 2m contiguous equal ranges of size T // (2m).

    Trailing periods beyond ``2m * N0`` are dropped with a warning; the
    theory assumes exact divisibility and nothing downstream may peek at
    the remainder.
    """
    if m < 1:
        raise ArgumentError(f"m must be >= 1, got {m}")
    if T < 2 * m:
        raise ArgumentError(f"need T >= 2m to form batches, got T={T}, m={m}")
    n0 = T // (2 * m)
    dropped = T - 2 * m * n0
    if dropped:
        warnings.warn(
            f"dropping {dropped} trailing observation(s) beyond the last full batch",
            RemainderDroppedWarning,
            stacklevel=2,
        )
    return [(p * n0, (p + 1) * n0) for p in range(2 * m)]


def aggregate_response(batch: ObservationBatch, nu: float) -> np.ndarray:
    """The spectral-initialization target ``(nu N0)^-1 sum_t Y_t o X_t``."""
    if len(batch) == 0:
        raise ArgumentError("need at least one observation")
    if not (0.0 < nu <= 1.0):
        raise ArgumentError(f"nu must lie in (0, 1], got {nu}")
    d1, d2 = batch.d1, batch.d2
    flat = np.bincount(batch.rows * d2 + batch.cols, weights=batch.y, minlength=d1 * d2)
    return flat.reshape(d1, d2) / (nu * len(batch))


def spectral_init(
    batch: ObservationBatch, nu: float, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-r factor subspaces of the scaled response aggregate."""
    with np.errstate(over="ignore", invalid="ignore"):
        agg = _require_finite(aggregate_response(batch, nu), "response aggregate")
    if not agg.any():
        raise DegenerateInitError(
            "response aggregate is identically zero; cannot initialize factors"
        )
    u, _, v = svd_r(agg, r)
    return u, v


def solve_G(
    u: np.ndarray,
    v: np.ndarray,
    batch: ObservationBatch,
    r: int,
) -> np.ndarray:
    """Least-squares core: argmin_G sum over revealed (t,i,j) of (u_i^T G v_j - y)^2.

    Solved through its r^2 x r^2 normal equations, which stay tiny for
    the ranks this package targets.  The design must be well conditioned:
    smallest eigenvalue >= ``MIN_G_SINGULAR`` times the largest.
    """
    if u.shape[1] != r or v.shape[1] != r:
        raise ArgumentError("factor widths must equal r")
    rows, cols, y = batch.rows, batch.cols, batch.y
    if rows.size == 0:
        raise ArgumentError("need at least one revealed entry to fit G")
    feats = (u[rows][:, :, None] * v[cols][:, None, :]).reshape(rows.size, r * r)
    a = feats.T @ feats
    eigs = np.linalg.eigvalsh(a)
    if eigs[-1] <= 0.0 or eigs[0] < MIN_G_SINGULAR * eigs[-1]:
        cond = float("inf") if eigs[0] <= 0.0 else float(eigs[-1] / eigs[0])
        raise RankDeficientDesignError(
            f"core design is rank deficient (condition {cond:.3e}); "
            "the batch does not pin down all r^2 core entries",
            condition=cond,
        )
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.linalg.solve(a, feats.T @ y)
    return _require_finite(g, "core refit").reshape(r, r)


def _check_invertible(state: FactorState) -> None:
    s_g = state.g_svd[1]
    if s_g[0] <= 0.0 or s_g[-1] < MIN_G_SINGULAR * s_g[0]:
        raise SingularCoreError(
            f"core spectrum ({s_g[-1]:.3e} .. {s_g[0]:.3e}) is numerically "
            "singular; SNR too low or rank over-specified"
        )


def batch_loss(m_dense: np.ndarray, batch: ObservationBatch) -> float:
    """Squared-error loss of a dense candidate over a batch's revealed entries."""
    resid = m_dense[batch.rows, batch.cols] - batch.y
    return float(resid @ resid)


def batch_loss_gradient(m_dense: np.ndarray, batch: ObservationBatch) -> np.ndarray:
    """Gradient of :func:`batch_loss` with respect to the dense matrix.

    Equals ``2 sum_t (X_t o M - Y_t)``; entries unseen in the batch are
    zero.
    """
    d1, d2 = m_dense.shape
    rows, cols = batch.rows, batch.cols
    resid = m_dense[rows, cols] - batch.y
    flat = np.bincount(rows * d2 + cols, weights=2.0 * resid, minlength=d1 * d2)
    return flat.reshape(d1, d2)


def gradient_step(
    state: FactorState,
    step_batch: ObservationBatch,
    refit_batch: ObservationBatch,
    eta: float,
    nu: float,
    n0: int,
) -> tuple[FactorState, float]:
    """One calibrated gradient step plus the follow-up core refit.

    The factor updates are

        U+ = (U - eta/(2 N0 nu) * grad @ V @ G^-1) @ L_G
        V+ = (V - eta/(2 N0 nu) * grad^T @ U @ G^-T) @ R_G

    with ``(L_G, ., R_G)`` the SVD of the current core; both factors are
    then re-orthonormalized by an SVD retraction and the core is refit
    by least squares on ``refit_batch`` (the next batch, never the one
    that produced the gradient).

    Returns the new state and the Frobenius norm of the gradient.
    """
    if n0 < 1:
        raise ArgumentError("n0 must be >= 1")
    _check_invertible(state)
    l_g, _, r_g = state.g_svd
    coef = eta / (2.0 * n0 * nu)
    with np.errstate(over="ignore", invalid="ignore"):
        grad = batch_loss_gradient(state.estimate, step_batch)
        grad_norm = float(np.linalg.norm(grad))
        # grad @ V @ G^-1 and grad^T @ U @ G^-T via solves against the core.
        gv = grad @ state.V
        gu = grad.T @ state.U
        u_half = (state.U - coef * np.linalg.solve(state.G.T, gv.T).T) @ l_g
        v_half = (state.V - coef * np.linalg.solve(state.G, gu.T).T) @ r_g

    r = state.G.shape[0]
    u_new = svd_r(_require_finite(u_half, "gradient step"), r)[0]
    v_new = svd_r(_require_finite(v_half, "gradient step"), r)[0]
    g_new = solve_G(u_new, v_new, refit_batch, r)
    return FactorState(u_new, g_new, v_new), grad_norm


def fit(batch: ObservationBatch, config: EstimatorConfig, truth: RewardMatrix | None = None):
    """Run the full fitting loop on an observation batch.

    Parameters
    ----------
    batch : ObservationBatch
    config : EstimatorConfig
        ``config.nu`` must match the entrywise probability of the
        batch's scheme (:func:`matchlearn.samplers.entrywise_probability`)
        to a relative ``NU_CONSISTENCY_RTOL``.
    truth : RewardMatrix, optional
        When supplied, the trace records the relative squared max-norm
        error ``||M^(p) - M||_max^2 / lambda_min^2`` after every batch
        pair; otherwise that column is NaN.

    Returns
    -------
    m_init : ndarray, shape (d1, d2)
        The estimator ``U^(m) G^(m) V^(m)T``.
    trace : FitTrace or None
        None when ``config.record_trace`` is false.
    """
    nu = entrywise_probability(batch.scheme, batch.d1, batch.d2).nu
    if abs(config.nu - nu) > NU_CONSISTENCY_RTOL * nu:
        raise ArgumentError(
            f"config.nu={config.nu!r} inconsistent with the batch scheme's "
            f"entrywise probability {nu!r}"
        )
    ranges = partition_batches(len(batch), config.m)
    n0 = ranges[0][1] - ranges[0][0]
    slices = [batch[a:b] for a, b in ranges]

    lam_min_sq = float(truth.singular_values[-1] ** 2) if truth is not None else np.nan
    trace_err, trace_gmin, trace_gmax, trace_gnorm = [], [], [], []

    def log_state(state: FactorState, grad_norm: float) -> None:
        if not config.record_trace:
            return
        if truth is not None:
            err = float(np.max(np.abs(state.estimate - truth.values)) ** 2 / lam_min_sq)
        else:
            err = np.nan
        s_g = state.g_svd[1]
        trace_err.append(err)
        trace_gmin.append(float(s_g[-1]))
        trace_gmax.append(float(s_g[0]))
        trace_gnorm.append(grad_norm)

    try:
        u, v = spectral_init(slices[0], config.nu, config.r)
        g = solve_G(u, v, slices[1], config.r)
        state = FactorState(u, g, v)
    except ArgumentError:
        raise
    except Exception as exc:
        exc.args = (f"batch pair 1: {exc}",) + exc.args[1:]
        raise
    log_state(state, np.nan)

    for p in range(1, config.m):
        try:
            state, grad_norm = gradient_step(
                state,
                slices[2 * p],
                slices[2 * p + 1],
                config.eta,
                config.nu,
                n0,
            )
        except Exception as exc:
            exc.args = (f"batch pair {p + 1}: {exc}",) + exc.args[1:]
            raise
        log_state(state, grad_norm)

    m_init = state.estimate
    trace = None
    if config.record_trace:
        trace = FitTrace(
            batches=np.arange(1, config.m + 1),
            rel_max_err_sq=np.array(trace_err),
            g_sigma_min=np.array(trace_gmin),
            g_sigma_max=np.array(trace_gmax),
            grad_norm=np.array(trace_gnorm),
        )
    return m_init, trace
