"""Low-rank reward matrices, their spectral geometry, and linear forms.

The package convention throughout is ``d2 >= d1``: rows are the scarce
side of the market and columns the abundant side.  A reward matrix is
kept together with a rank-``r`` SVD ``U diag(s) V^T`` whose factor signs
are pinned by a deterministic convention, so that repeated runs produce
bit-identical factors.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ArgumentError,
    DataFormatError,
    DegenerateSpectrumWarning,
    InternalConsistencyError,
    NonFiniteResultError,
)

ORTHONORMALITY_TOL = 1e-10
RECONSTRUCTION_RTOL = 1e-8
SPECTRUM_TIE_RTOL = 1e-12
PROJECTION_RADICAND_FLOOR = -1e-12


def _as_float_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ArgumentError(f"{name} must be a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ArgumentError(f"{name} contains non-finite entries")
    return a


def _require_finite(a, what: str):
    """``a`` itself, or NonFiniteResultError: a result computed from finite inputs overflowed."""
    if not np.all(np.isfinite(a)):
        raise NonFiniteResultError(f"{what} overflowed to non-finite values")
    return a


def _locked(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def svd_r(a, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-``r`` truncated SVD with a deterministic sign convention.

    Parameters
    ----------
    a : array_like, shape (n, m)
        Matrix to factor.  Must be finite.
    r : int
        Number of leading singular triplets to keep, ``1 <= r <= min(n, m)``.

    Returns
    -------
    U : ndarray, shape (n, r)
    s : ndarray, shape (r,)
        Leading singular values, nonincreasing.
    V : ndarray, shape (m, r)
        ``a ~= U @ np.diag(s) @ V.T``.

    Notes
    -----
    For each column of ``U`` the entry of largest absolute value is made
    positive (the matching column of ``V`` is flipped along), which pins
    the sign ambiguity of singular vectors.  If the r-th and (r+1)-th
    singular values coincide within ``1e-12`` relative, the retained
    subspace is arbitrary and a :class:`DegenerateSpectrumWarning` is
    emitted.
    """
    a = _as_float_matrix(a, "a")
    n, m = a.shape
    if not (1 <= r <= min(n, m)):
        raise ArgumentError(f"r={r} outside [1, min{a.shape}]")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if r < s.size:
        lead = s[0] if s[0] > 0.0 else 1.0
        if (s[r - 1] - s[r]) <= SPECTRUM_TIE_RTOL * lead:
            warnings.warn(
                f"singular values {r} and {r + 1} coincide within "
                f"{SPECTRUM_TIE_RTOL:g} relative; the rank-{r} subspace is "
                "not well determined",
                DegenerateSpectrumWarning,
                stacklevel=2,
            )
    u, s, v = u[:, :r], s[:r].copy(), vt[:r].T
    # Sign convention: largest-|.| entry of each left vector is positive.
    idx = np.argmax(np.abs(u), axis=0)
    flip = u[idx, np.arange(r)] < 0.0
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0
    return u, s, v


@dataclass(frozen=True)
class RewardMatrix:
    """A dense reward matrix together with its rank-``r`` factorization."""

    values: np.ndarray
    rank: int
    left_factors: np.ndarray
    singular_values: np.ndarray
    right_factors: np.ndarray

    def __post_init__(self):
        values = _as_float_matrix(self.values, "values")
        d1, d2 = values.shape
        if d2 < d1:
            raise ArgumentError(f"convention requires d2 >= d1, got {values.shape}")
        r = self.rank
        u = _as_float_matrix(self.left_factors, "left_factors")
        v = _as_float_matrix(self.right_factors, "right_factors")
        s = np.asarray(self.singular_values, dtype=float)
        if u.shape != (d1, r) or v.shape != (d2, r) or s.shape != (r,):
            raise ArgumentError("factor shapes inconsistent with values and rank")
        for name, q in (("left_factors", u), ("right_factors", v)):
            dev = np.max(np.abs(q.T @ q - np.eye(r)))
            if dev > ORTHONORMALITY_TOL:
                raise ArgumentError(f"{name} not orthonormal (max deviation {dev:.2e})")
        if np.any(s <= 0.0) or np.any(np.diff(s) > 0.0):
            raise ArgumentError("singular values must be positive and nonincreasing")
        recon = np.max(np.abs(values - (u * s) @ v.T))
        if recon > RECONSTRUCTION_RTOL * s[0]:
            raise ArgumentError(
                f"values do not match factors (max deviation {recon:.2e})"
            )
        object.__setattr__(self, "values", _locked(values))
        object.__setattr__(self, "left_factors", _locked(u))
        object.__setattr__(self, "singular_values", _locked(s))
        object.__setattr__(self, "right_factors", _locked(v))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @classmethod
    def from_factors(cls, u, s, v) -> "RewardMatrix":
        u = np.asarray(u, dtype=float)
        s = np.asarray(s, dtype=float)
        return cls((u * s) @ np.asarray(v, dtype=float).T, s.size, u, s, v)


def generate_low_rank(
    d1: int, d2: int, r: int, scale: float, rng: np.random.Generator
) -> RewardMatrix:
    """Draw a random rank-``r`` reward matrix.

    A dense ``d1 x d2`` matrix with i.i.d. Uniform[-scale, scale] entries
    is drawn from ``rng`` and truncated to its top ``r`` singular triplets.
    """
    if d2 < d1:
        raise ArgumentError(f"convention requires d2 >= d1, got ({d1}, {d2})")
    if not (1 <= r <= d1):
        raise ArgumentError(f"r={r} outside [1, {d1}]")
    if not (scale > 0.0):
        raise ArgumentError("scale must be positive")
    a = rng.uniform(-scale, scale, size=(d1, d2))
    u, s, v = svd_r(a, r)
    return RewardMatrix.from_factors(u, s, v)


@dataclass(frozen=True)
class LinearForm:
    """A sparse linear functional ``M -> sum_k w_k * M[i_k, j_k]``.

    Entries are stored as parallel coordinate arrays with unique (i, j)
    keys; an empty form (no entries) is legal and evaluates to zero.
    """

    d1: int
    d2: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64).reshape(-1)
        cols = np.asarray(self.cols, dtype=np.int64).reshape(-1)
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if not (rows.size == cols.size == weights.size):
            raise ArgumentError("rows, cols, weights must have equal length")
        if self.d1 < 1 or self.d2 < 1:
            raise ArgumentError("dimensions must be positive")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.d1:
                raise ArgumentError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.d2:
                raise ArgumentError("column index out of range")
            if not np.all(np.isfinite(weights)):
                raise ArgumentError("weights must be finite")
            keys = rows * self.d2 + cols
            if np.unique(keys).size != keys.size:
                raise ArgumentError("duplicate (i, j) keys in linear form")
            order = np.argsort(keys)
            rows, cols, weights = rows[order], cols[order], weights[order]
        object.__setattr__(self, "rows", _locked_int(rows))
        object.__setattr__(self, "cols", _locked_int(cols))
        object.__setattr__(self, "weights", _locked(weights))

    @property
    def dims(self) -> tuple[int, int]:
        return (self.d1, self.d2)

    @property
    def size(self) -> int:
        return self.rows.size

    def inner(self, m) -> float:
        """Evaluate ``<M, Q> = sum_k w_k M[i_k, j_k]``."""
        m = _as_float_matrix(m, "m")
        if m.shape != self.dims:
            raise ArgumentError(f"matrix shape {m.shape} != form dims {self.dims}")
        if self.size == 0:
            return 0.0
        return float(np.dot(self.weights, m[self.rows, self.cols]))

    def subtract(self, other: "LinearForm") -> "LinearForm":
        """Entrywise difference ``self - other`` with exact-zero cancellation."""
        if self.dims != other.dims:
            raise ArgumentError("linear forms have different dims")
        acc: dict[tuple[int, int], float] = {}
        for i, j, w in zip(self.rows, self.cols, self.weights):
            acc[(int(i), int(j))] = float(w)
        for i, j, w in zip(other.rows, other.cols, other.weights):
            key = (int(i), int(j))
            acc[key] = acc.get(key, 0.0) - float(w)
        kept = [(i, j, w) for (i, j), w in acc.items() if w != 0.0]
        return LinearForm.from_triplets(self.d1, self.d2, kept)

    @classmethod
    def from_triplets(
        cls, d1: int, d2: int, triplets: list[tuple[int, int, float]]
    ) -> "LinearForm":
        rows = [t[0] for t in triplets]
        cols = [t[1] for t in triplets]
        weights = [t[2] for t in triplets]
        return cls(d1, d2, np.array(rows, dtype=np.int64),
                   np.array(cols, dtype=np.int64), np.array(weights, dtype=float))

    def to_json(self) -> str:
        entries = [
            {"i": int(i), "j": int(j), "w": float(w)}
            for i, j, w in zip(self.rows, self.cols, self.weights)
        ]
        return json.dumps(entries)

    @classmethod
    def from_json(cls, text: str, d1: int, d2: int) -> "LinearForm":
        try:
            entries = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise DataFormatError(f"linear form is not valid JSON: {exc}") from exc
        if not isinstance(entries, list):
            raise DataFormatError("linear form JSON must be an array of objects")
        triplets = []
        for k, e in enumerate(entries):
            if not isinstance(e, dict) or not {"i", "j", "w"} <= set(e):
                raise DataFormatError(f"linear form entry {k} missing i/j/w")
            try:
                i, j = _int_pairs([[e["i"], e["j"]]])[0].tolist()
            except ValueError:
                raise DataFormatError(
                    f"linear form entry {k}: i and j must be JSON integers") from None
            w = np.asarray(e["w"])
            if w.shape or w.dtype.kind not in "iuf" or not np.isfinite(w):
                raise DataFormatError(f"linear form entry {k}: w must be a finite JSON number")
            triplets.append((i, j, float(w)))
        try:
            return cls.from_triplets(d1, d2, triplets)
        except ArgumentError as exc:
            raise DataFormatError(str(exc)) from exc


def _int_pairs(pairs, maybe_bool: bool = True) -> np.ndarray:
    """JSON ``pairs`` as an (n, 2) int64 array, else ValueError.

    Every pair must be a list of exactly two JSON integers.  numpy reads
    booleans mixed with numbers as 0/1, so they are looked for one by
    one unless ``maybe_bool`` is false (the text spells no boolean).
    """
    arr = np.asarray(pairs)
    if arr.shape == (0,):
        arr = arr.reshape(0, 2).astype(np.int64)
    if arr.dtype.kind != "i" or arr.ndim != 2 or arr.shape[1] != 2 \
            or maybe_bool and any(type(v) is bool for p in pairs for v in p):
        raise ValueError("pairs must be a list of [row, col] integer pairs")
    return arr


def _locked_int(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.int64, copy=True)
    out.flags.writeable = False
    return out


def projection_magnitude(u, v, q: LinearForm) -> float:
    """Frobenius norm of the tangent-space projection of a linear form.

    For the tangent space at a rank-r matrix with orthonormal factors
    ``u, v``, the projection of ``Q`` satisfies

        ||P(Q)||_F^2 = ||u^T Q||_F^2 + ||Q v||_F^2 - ||u^T Q v||_F^2,

    which is evaluated here in O(nnz(Q) * r^2) without forming any dense
    ``d1 x d2`` intermediate.
    """
    u = _as_float_matrix(u, "u")
    v = _as_float_matrix(v, "v")
    if (u.shape[0], v.shape[0]) != q.dims:
        raise ArgumentError(
            f"factor dims ({u.shape[0]}, {v.shape[0]}) != form dims {q.dims}"
        )
    if u.shape[1] != v.shape[1]:
        raise ArgumentError("u and v must have the same number of columns")
    if q.size == 0:
        return 0.0
    r = u.shape[1]
    wu = q.weights[:, None] * u[q.rows]          # rows of u, weighted: (nnz, r)
    wv = q.weights[:, None] * v[q.cols]          # rows of v, weighted: (nnz, r)

    # ||u^T Q||_F^2: accumulate u^T Q column by column over the distinct
    # columns that Q touches; untouched columns contribute nothing.
    ucols, uinv = np.unique(q.cols, return_inverse=True)
    acc_u = np.zeros((ucols.size, r))
    np.add.at(acc_u, uinv, wu)
    term_u = float(np.sum(acc_u * acc_u))

    urows, rinv = np.unique(q.rows, return_inverse=True)
    acc_v = np.zeros((urows.size, r))
    np.add.at(acc_v, rinv, wv)
    term_v = float(np.sum(acc_v * acc_v))

    core = wu.T @ v[q.cols]                      # u^T Q v: (r, r)
    term_uv = float(np.sum(core * core))

    radicand = term_u + term_v - term_uv
    if radicand < PROJECTION_RADICAND_FLOOR:
        raise InternalConsistencyError(
            f"projection radicand {radicand:.3e} below floor; inputs are "
            "inconsistent with orthonormal factors"
        )
    return float(np.sqrt(max(radicand, 0.0)))


def save_matrix_csv(values, path: str | Path) -> None:
    values = _as_float_matrix(values, "values")
    np.savetxt(path, values, delimiter=",", fmt="%.17g")
