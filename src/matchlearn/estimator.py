"""Rotation-calibrated gradient descent on Grassmannians with sample splitting.

The fitting loop partitions the T observation periods into 2m contiguous
batches and makes one pass per batch pair.  On pair 1, batch 1 feeds a
spectral initializer and batch 2 the first core refit; on each later
pair (2p+1, 2p+2), the first batch drives one calibrated gradient step
on the factor subspaces and the second a fresh least-squares refit of
the r-by-r core.  Every batch is consumed exactly once, which is what
makes the batches' noise independent of the running iterate and
underpins the downstream debiasing theory.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import (
    ArgumentError,
    DegenerateInitError,
    RankDeficientDesignError,
    RemainderDroppedWarning,
    SingularCoreError,
)
from .matmodel import (RewardMatrix, _check_orthonormal, _int, _read_numbers, _require_finite,
                       _write_csv, svd_r)
from .samplers import ObservationBatch, entrywise_probability

NU_CONSISTENCY_RTOL = 1e-9
ORTHONORMALITY_LOOP_TOL = 1e-8
# The core, or the design of its refit, counts as singular when its
# smallest singular value (eigenvalue) is below this share of the largest.
MIN_G_SINGULAR = 1e-10


@dataclass(frozen=True)
class EstimatorConfig:
    """Inputs of the fitting loop.

    ``nu`` restates the entrywise probability of the batch's scheme, which
    every stage reads from its own batch; :func:`fit` only checks that the
    two agree.  The field is kept for the callers that set it.
    """

    r: int
    eta: float
    m: int
    nu: float

    def __post_init__(self):
        _read_numbers(self)
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
        _check_orthonormal("U", self.U, ORTHONORMALITY_LOOP_TOL)
        _check_orthonormal("V", self.V, ORTHONORMALITY_LOOP_TOL)
        object.__setattr__(self, "g_svd", svd_r(self.G, r))

    @property
    def estimate(self) -> np.ndarray:
        """The dense iterate ``U G V^T``."""
        return (self.U @ self.G) @ self.V.T


@dataclass(frozen=True)
class FitTrace:
    """Per-batch diagnostics of one fit; length equals the batch-pair count."""

    rel_max_err_sq: np.ndarray
    g_sigma_min: np.ndarray
    g_sigma_max: np.ndarray
    grad_norm: np.ndarray

    def __len__(self) -> int:
        return self.rel_max_err_sq.size

    def write_csv(self, path: str | Path) -> None:
        names = [f.name for f in fields(self)]  # a column each, after the batch's number
        _write_csv(path, ",".join(["batch", *names]),
                   zip(range(1, len(self) + 1), *(getattr(self, n).tolist() for n in names)))


def partition_batches(T: int, m: int) -> list[tuple[int, int]]:
    """Split T periods into 2m contiguous equal ranges of size T // (2m).

    Every equal-period split cuts here: ``fit``'s 2m batches and
    ``prepare_inference``'s two halves (m = 1).  Trailing periods beyond
    ``2m * N0`` are dropped with a warning; the theory assumes exact
    divisibility and nothing downstream may peek at the remainder.
    """
    if _int(m, "m") < 1:
        raise ArgumentError(f"m must be >= 1, got {m}")
    if _int(T, "T") < 2 * m:
        raise ArgumentError(f"need at least {2 * m} periods to cut {2 * m} equal parts, got {T}")
    n0 = T // (2 * m)
    dropped = T - 2 * m * n0
    if dropped:
        warnings.warn(
            f"dropping {dropped} trailing observation(s) to cut {2 * m} equal parts of periods",
            RemainderDroppedWarning,
            stacklevel=2,
        )
    return [(p * n0, (p + 1) * n0) for p in range(2 * m)]


def aggregate_response(batch: ObservationBatch) -> np.ndarray:
    """The spectral-initialization target ``(nu N0)^-1 sum_t Y_t o X_t``, ``nu`` the scheme's."""
    if len(batch) == 0:
        raise ArgumentError("need at least one observation")
    return batch.scatter(batch.y) / (batch.nu * len(batch))


def spectral_init(batch: ObservationBatch, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-r factor subspaces of the scaled response aggregate."""
    with np.errstate(over="ignore", invalid="ignore"):
        agg = _require_finite(aggregate_response(batch), "response aggregate")
    if not agg.any():
        raise DegenerateInitError(
            "response aggregate is identically zero; cannot initialize factors"
        )
    u, _, v = svd_r(agg, r)
    return u, v


def solve_G(u: np.ndarray, v: np.ndarray, batch: ObservationBatch) -> np.ndarray:
    """Least-squares core: argmin_G sum over revealed (t,i,j) of (u_i^T G v_j - y)^2.

    Solved through its r^2 x r^2 normal equations, which stay tiny for
    the ranks this package targets.  The design must be well conditioned:
    smallest eigenvalue >= ``MIN_G_SINGULAR`` times the largest, else
    RankDeficientDesignError.  A batch with no revealed entry has an
    all-zero design, so it is rank deficient with condition ``inf``.
    """
    r = u.shape[1]
    if v.shape[1] != r:
        raise ArgumentError(f"factor widths differ: {r} and {v.shape[1]}")
    rows, cols, y = batch.rows, batch.cols, batch.y
    # Row k of the design is vec(u_i v_j^T): each entry one product, no broadcast temporaries.
    feats = np.einsum("ki,kj->kij", u.take(rows, axis=0), v.take(cols, axis=0)).reshape(
        rows.size, r * r)
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
    return batch.scatter(2.0 * (m_dense[batch.rows, batch.cols] - batch.y))


def gradient_step(
    state: FactorState,
    step_batch: ObservationBatch,
    refit_batch: ObservationBatch,
    eta: float,
) -> tuple[FactorState, float]:
    """One calibrated gradient step plus the follow-up core refit.

    The factor updates are

        U+ = (U - eta/(2 N0 nu) * grad @ V @ G^-1) @ L_G
        V+ = (V - eta/(2 N0 nu) * grad^T @ U @ G^-T) @ R_G

    with ``N0`` the periods and ``nu`` the scheme's entrywise probability
    of ``step_batch``, and ``(L_G, ., R_G)`` the SVD of the current core;
    both factors are then re-orthonormalized by an SVD retraction and the
    core is refit by least squares on ``refit_batch`` (the next batch,
    never the one that produced the gradient).

    Returns the new state and the Frobenius norm of the gradient.
    """
    if len(step_batch) == 0:
        raise ArgumentError("need a nonempty step batch")
    _check_invertible(state)
    l_g, _, r_g = state.g_svd
    coef = eta / (2.0 * len(step_batch) * step_batch.nu)
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
    g_new = solve_G(u_new, v_new, refit_batch)
    return FactorState(u_new, g_new, v_new), grad_norm


def fit(batch: ObservationBatch, config: EstimatorConfig, truth: RewardMatrix | None = None):
    """Run the full fitting loop on an observation batch.

    Parameters
    ----------
    batch : ObservationBatch
    config : EstimatorConfig
        ``config.nu`` is only checked: it must match the entrywise
        probability of the batch's scheme, which the stages use, to a
        relative ``NU_CONSISTENCY_RTOL``.
    truth : RewardMatrix, optional
        When supplied, the trace records the relative squared max-norm
        error ``||M^(p) - M||_max^2 / lambda_min^2`` after every batch
        pair; otherwise that column is NaN.

    Returns
    -------
    m_init : ndarray, shape (d1, d2)
        The estimator ``U^(m) G^(m) V^(m)T``.
    trace : FitTrace
        One row per batch pair.

    Pair 1 is the loop's first pass: the spectral start and a core refit.
    Each later pass is :func:`gradient_step`.  An error raised on pair p
    has its message prefixed ``batch pair p: ``, whatever its type.
    """
    nu = entrywise_probability(batch.scheme, batch.d1, batch.d2).nu
    if abs(config.nu - nu) > NU_CONSISTENCY_RTOL * nu:
        raise ArgumentError(
            f"config.nu={config.nu!r} inconsistent with the batch scheme's "
            f"entrywise probability {nu!r}"
        )
    slices = [batch[a:b] for a, b in partition_batches(len(batch), config.m)]

    lam_min_sq = float(truth.singular_values[-1] ** 2) if truth is not None else np.nan
    rows = []  # (rel_max_err_sq, g_sigma_min, g_sigma_max, grad_norm) per batch pair
    grad_norm = np.nan
    for p, (first, second) in enumerate(zip(slices[::2], slices[1::2])):
        try:
            if p == 0:
                u, v = spectral_init(first, config.r)
                state = FactorState(u, solve_G(u, v, second), v)
            else:
                state, grad_norm = gradient_step(state, first, second, config.eta)
        except Exception as exc:
            exc.args = (f"batch pair {p + 1}: {exc}",) + exc.args[1:]
            raise
        err = np.nan
        if truth is not None:
            err = float(np.max(np.abs(state.estimate - truth.values)) ** 2 / lam_min_sq)
        s_g = state.g_svd[1]
        rows.append((err, float(s_g[-1]), float(s_g[0]), grad_norm))

    return state.estimate, FitTrace(*np.array(rows).T)
