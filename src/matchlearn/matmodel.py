"""Low-rank reward matrices, their spectral geometry, and linear forms.

The package convention throughout is ``d2 >= d1``: rows are the scarce
side of the market and columns the abundant side.  A reward matrix is
kept together with a rank-``r`` SVD ``U diag(s) V^T`` whose factor signs
are pinned by a deterministic convention, so that repeated runs produce
bit-identical factors.
"""
from __future__ import annotations

import json
import sys
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import (
    ArgumentError,
    DataFormatError,
    DegenerateSpectrumWarning,
    InternalConsistencyError,
    NonFiniteResultError,
)

ORTHONORMALITY_TOL = 1e-10
SPECTRUM_TIE_RTOL = 1e-12
PROJECTION_RADICAND_FLOOR = -1e-12


def _as_float_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ArgumentError(f"{name} must be a 2-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ArgumentError(f"{name} contains non-finite entries")
    return a


def _require_finite(a, what: str):
    """``a`` itself, or NonFiniteResultError: a result computed from finite inputs overflowed."""
    if not np.isfinite(a).all():
        raise NonFiniteResultError(f"{what} overflowed to non-finite values")
    return a


def _locked(a, dtype) -> np.ndarray:
    """A read-only copy of ``a`` as ``dtype``."""
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _flat(a, dtype, name: str) -> np.ndarray:
    """``a`` as a flat read-only ``dtype`` view, copied only to convert: indices (np.int64)
    take integers, values (float) numbers, and a list is looked through for booleans."""
    what, kinds = ("int64 integers", "iu") if dtype is np.int64 else ("numbers", "iuf")
    arr = np.asarray(a)
    if arr.size and (arr.dtype.kind not in kinds or not isinstance(a, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for v in np.array(a, dtype=object).ravel())):
        raise ArgumentError(f"{name} must hold only {what}, never booleans or strings")
    out = arr.astype(dtype, copy=False).reshape(-1).view()
    out.flags.writeable = False
    return out


def _int(value, name: str) -> int:
    """``value`` as a Python int if it is an integer (numpy's too), else ArgumentError;
    a boolean is not one.  One of the package's two rules for scalar inputs."""
    value = value.item() if isinstance(value, np.generic) else value
    if isinstance(value, bool) or not isinstance(value, int):
        raise ArgumentError(f"{name} must be an integer, got {value!r}")
    return value


def _real(value, name: str) -> float:
    """``value`` as a Python float if it is a finite number (numpy's too), else ArgumentError;
    a boolean is not one.  The other rule for scalar inputs."""
    value = value.item() if isinstance(value, np.generic) else value
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating)) \
            or not abs(value) <= sys.float_info.max:
        raise ArgumentError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _instance_of(types, what: str):
    """A reader taking a value of ``types`` as is, else ArgumentError."""
    def read(value, name: str):
        if not isinstance(value, types):
            raise ArgumentError(f"{name} must be {what}, got {value!r}")
        return value
    return read


def _read_numbers(obj) -> None:
    """Store each ``int`` and ``float`` field of the dataclass ``obj`` as a Python number,
    read by :func:`_int` or :func:`_real` as its annotation says."""
    for f in fields(obj):
        if f.type in ("int", "float"):
            vars(obj)[f.name] = (_int if f.type == "int" else _real)(getattr(obj, f.name), f.name)


def _positive_dims(d1: int, d2: int) -> None:
    if _int(d1, "d1") < 1 or _int(d2, "d2") < 1:
        raise ArgumentError(f"dimensions must be positive, got ({d1}, {d2})")


def _check_orthonormal(name: str, q: np.ndarray, tol: float) -> None:
    """ArgumentError unless the columns of ``q`` are orthonormal to ``tol`` (max deviation)."""
    dev = np.max(np.abs(q.T @ q - np.eye(q.shape[1])))
    if dev > tol:
        raise ArgumentError(f"{name} not orthonormal (max deviation {dev:.2e})")


def svd_r(a, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-``r`` truncated SVD with a deterministic sign convention.

    Returns ``U`` (n x r), the ``r`` leading singular values ``s``, nonincreasing, and
    ``V`` (m x r), with ``a ~= U @ np.diag(s) @ V.T``, for a finite n x m ``a`` and
    ``1 <= r <= min(n, m)``.

    With ``r == min(n, m)`` this is one dense LAPACK SVD.  Otherwise it is
    Rayleigh-Ritz on the short side (Halko, Martinsson & Tropp 2011, with
    the exact Gram matrix as the sketch): ``b`` is ``a``, short side first,
    scaled by a power of two to ``max|b| < 1`` so that ``b b^T`` neither
    overflows nor underflows; ``Q`` holds the top ``r + 1`` eigenvectors of
    ``b b^T`` from a partial eigensolve; the SVD of the ``(r+1) x long``
    matrix ``Q^T b`` gives the singular values (not square roots of
    eigenvalues, which lose the small ones' precision) and the long-side
    vectors, and ``Q`` maps its left vectors to the short-side ones.  Cost:
    one O(short^2 * long) matrix product plus the partial eigensolve,
    against a full SVD's bidiagonalisation of all of ``a``; at 500 x 1500
    and r = 2, about 33 ms against 190 ms on one core of a 2-vCPU VM.

    For each column of ``U`` the entry of largest absolute value is made
    positive (the matching column of ``V`` is flipped along), which pins
    the sign ambiguity of singular vectors.  If the r-th and (r+1)-th
    singular values coincide within ``1e-12`` relative, the retained
    subspace is arbitrary and a :class:`DegenerateSpectrumWarning` is
    emitted.
    """
    a = _as_float_matrix(a, "a")
    n, m = a.shape
    k = min(n, m)
    if not (1 <= _int(r, "r") <= k):
        raise ArgumentError(f"r={r} outside [1, min{a.shape}]")
    if r == k:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        v = vt.T
    else:
        exp = np.frexp(np.max(np.abs(a)))[1]
        b = np.ldexp(a.T if n > m else a, -exp)
        q = scipy.linalg.eigh(b @ b.T, subset_by_index=[k - r - 1, k - 1],
                              overwrite_a=True, check_finite=False)[1]
        ub, s, vt = np.linalg.svd(q.T @ b, full_matrices=False)
        lead = s[0] if s[0] > 0.0 else 1.0
        if (s[r - 1] - s[r]) <= SPECTRUM_TIE_RTOL * lead:
            warnings.warn(
                f"singular values {r} and {r + 1} coincide within "
                f"{SPECTRUM_TIE_RTOL:g} relative; the rank-{r} subspace is "
                "not well determined",
                DegenerateSpectrumWarning,
                stacklevel=2,
            )
        u, v = q @ ub[:, :r], vt[:r].T
        if n > m:
            u, v = v, u
        with np.errstate(over="ignore"):  # overflow reaches callers' finite checks
            s = np.ldexp(s[:r], exp)
    # Sign convention: largest-|.| entry of each left vector is positive.  One multiply by
    # +-1.0, which is exact: each column is flipped or kept bit for bit.
    sign = np.where(u[np.abs(u).argmax(axis=0), np.arange(r)] < 0.0, -1.0, 1.0)
    u *= sign
    v *= sign
    return u, s, v


@dataclass(frozen=True)
class RewardMatrix:
    """A dense reward matrix ``U diag(s) V^T`` held with its rank-``r`` factors."""

    left_factors: np.ndarray
    singular_values: np.ndarray
    right_factors: np.ndarray
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = _as_float_matrix(self.left_factors, "left_factors")
        v = _as_float_matrix(self.right_factors, "right_factors")
        s = np.asarray(self.singular_values, dtype=float)
        r = s.size
        if s.shape != (r,) or r < 1 or u.shape[1] != r or v.shape[1] != r:
            raise ArgumentError("factor shapes inconsistent with the singular values")
        if v.shape[0] < u.shape[0]:
            raise ArgumentError(f"convention requires d2 >= d1, got {(u.shape[0], v.shape[0])}")
        _check_orthonormal("left_factors", u, ORTHONORMALITY_TOL)
        _check_orthonormal("right_factors", v, ORTHONORMALITY_TOL)
        if not np.all((0.0 < s) & (s < np.inf)) or np.any(np.diff(s) > 0.0):
            raise ArgumentError("singular values must be finite, positive and nonincreasing")
        for name, a in (("values", (u * s) @ v.T), ("left_factors", u),
                        ("singular_values", s), ("right_factors", v)):
            object.__setattr__(self, name, _locked(a, float))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def generate_low_rank(
    d1: int, d2: int, r: int, scale: float, rng: np.random.Generator
) -> RewardMatrix:
    """Draw a random rank-``r`` reward matrix.

    A dense ``d1 x d2`` matrix with i.i.d. Uniform[-scale, scale] entries
    is drawn from ``rng`` and truncated to its top ``r`` singular triplets.
    """
    if _int(d2, "d2") < _int(d1, "d1"):
        raise ArgumentError(f"convention requires d2 >= d1, got ({d1}, {d2})")
    if not (1 <= _int(r, "r") <= d1):
        raise ArgumentError(f"r={r} outside [1, {d1}]")
    _check_scale(scale)
    a = rng.uniform(-scale, scale, size=(d1, d2))
    return RewardMatrix(*svd_r(a, r))


def _check_scale(scale) -> None:
    if not 0.0 < _real(scale, "scale") <= sys.float_info.max / 2:  # so the range 2*scale is finite
        raise ArgumentError(f"scale must be positive with 2*scale finite, got {scale}")


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
        _read_numbers(self)
        rows, cols = _flat(self.rows, np.int64, "rows"), _flat(self.cols, np.int64, "cols")
        weights = _flat(self.weights, float, "weights")
        if not (rows.size == cols.size == weights.size):
            raise ArgumentError("rows, cols, weights must have equal length")
        _positive_dims(self.d1, self.d2)
        if np.any((rows < 0) | (rows >= self.d1)):
            raise ArgumentError("row index out of range")
        if np.any((cols < 0) | (cols >= self.d2)):
            raise ArgumentError("column index out of range")
        if not np.all(np.isfinite(weights)):
            raise ArgumentError("weights must be finite")
        keys = rows * self.d2 + cols
        if np.unique(keys).size != keys.size:
            raise ArgumentError("duplicate (i, j) keys in linear form")
        order = np.argsort(keys)
        for name, a in (("rows", rows), ("cols", cols), ("weights", weights)):
            object.__setattr__(self, name, _locked(a[order], a.dtype))

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
        return float(np.dot(self.weights, m[self.rows, self.cols]))

    def subtract(self, other: "LinearForm") -> "LinearForm":
        """Entrywise difference ``self - other`` with exact-zero cancellation."""
        if self.dims != other.dims:
            raise ArgumentError("linear forms have different dims")
        # Keys are unique within each form, so each merged weight is w, -w' or w - w'.
        keys, inv = np.unique(np.concatenate([q.rows * self.d2 + q.cols for q in (self, other)]),
                              return_inverse=True)
        w = np.bincount(inv, weights=np.concatenate([self.weights, -other.weights]))
        kept = w != 0.0
        return LinearForm(self.d1, self.d2, keys[kept] // self.d2, keys[kept] % self.d2, w[kept])

    @classmethod
    def from_json(cls, text: str, d1: int, d2: int) -> "LinearForm":
        try:
            entries = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise DataFormatError(f"linear form is not valid JSON: {exc}") from exc
        if not isinstance(entries, list):
            raise DataFormatError("linear form JSON must be an array of objects")
        for k, e in enumerate(entries):
            if not isinstance(e, dict) or set(e) != {"i", "j", "w"}:
                raise DataFormatError(f"linear form entry {k} must have exactly the keys i, j, w")
            try:
                i, j, _ = _int(e["i"], "i"), _int(e["j"], "j"), _real(e["w"], "w")
                if not (-2**63 <= min(i, j) and max(i, j) < 2**63):
                    raise ArgumentError(f"i and j must fit in int64, got ({i}, {j})")
            except ArgumentError as exc:
                raise DataFormatError(f"linear form entry {k}: {exc}") from None
        try:
            return cls(d1, d2, *([e[key] for e in entries] for key in ("i", "j", "w")))
        except ArgumentError as exc:
            raise DataFormatError(str(exc)) from exc


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
    r = u.shape[1]
    wu = q.weights[:, None] * u[q.rows]          # rows of u, weighted: (nnz, r)
    wv = q.weights[:, None] * v[q.cols]          # rows of v, weighted: (nnz, r)

    # ||u^T Q||_F^2, then ||Q v||_F^2: accumulate u^T Q over the distinct columns
    # that Q touches, then Q v over its distinct rows; untouched ones contribute nothing.
    terms = []
    for index, weighted in ((q.cols, wu), (q.rows, wv)):
        keys, inverse = np.unique(index, return_inverse=True)
        acc = np.zeros((keys.size, r))
        np.add.at(acc, inverse, weighted)
        terms.append(float(np.sum(acc * acc)))
    term_u, term_v = terms

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


def _write_csv(path: str | Path, header: str, rows) -> None:
    """Write ``header``, then each of ``rows`` as the ``repr`` of its Python numbers, which
    reads back as the same float: the package's CSV outputs besides matrices."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
