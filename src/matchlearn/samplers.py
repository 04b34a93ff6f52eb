"""Matching mechanisms, observation probabilities, and noisy reward draws.

Three mechanisms generate the per-period matchings:

* one-to-one: a uniform random injection of the ``d1`` rows into the
  ``d2`` columns (every row matched, no column reused);
* one-to-many: row ``i`` receives ``s_i ~ Bin(K, p0)`` columns, all
  distinct across the whole matching;
* two-sided: random arrivals on both sides drawn from a truncated
  bivariate binomial, then a uniform matching of the smaller arrived
  side into the larger.

All samplers are pure given an ``rng`` handle; parallel replications
must use independent streams (seed xor replication index).
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import (
    ArgumentError,
    DataFormatError,
    InfeasibleTruncationError,
    OutsideTheoryWarning,
)
from .matmodel import RewardMatrix

REJECTION_CAP = 10**6


@dataclass(frozen=True)
class OneToOne:
    """Uniform one-to-one matching of all rows into the columns."""

    def feasible(self, d1: int, d2: int) -> None:
        if d2 < d1:
            raise ArgumentError(f"one-to-one needs d2 >= d1, got ({d1}, {d2})")


@dataclass(frozen=True)
class OneToMany:
    """Each row draws Bin(K, p0) columns; columns are never reused."""

    K: int
    p0: float

    def __post_init__(self):
        if not (isinstance(self.K, int) and self.K >= 1):
            raise ArgumentError(f"K must be a positive integer, got {self.K!r}")
        if not (0.0 < self.p0 <= 1.0):
            raise ArgumentError(f"p0 must lie in (0, 1], got {self.p0}")

    def feasible(self, d1: int, d2: int) -> None:
        if d2 < self.K * d1:
            raise ArgumentError(
                f"one-to-many needs d2 >= K*d1, got d2={d2} < {self.K}*{d1}"
            )


@dataclass(frozen=True)
class TwoSided:
    """Two-sided random arrivals with truncated bivariate binomial counts.

    The truncation keeps both arrival counts away from zero
    (``B_r >= c_r*d1``, ``B_s >= c_s*d2``) and the two sides separated
    (``B_r >= (1+gamma)B_s`` or vice versa).  Setting ``c_r = c_s = 0``
    and ``gamma = 0`` recovers the untruncated mechanism, which is legal
    here but not covered by the error theory, hence the warning.
    """

    p1: float
    p2: float
    c_r: float
    c_s: float
    gamma: float

    def __post_init__(self):
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not (0.0 < p < 1.0):
                raise ArgumentError(f"{name} must lie in (0, 1), got {p}")
        for name, c in (("c_r", self.c_r), ("c_s", self.c_s)):
            if not (0.0 <= c < 1.0):
                raise ArgumentError(f"{name} must lie in [0, 1), got {c}")
        if self.gamma < 0.0:
            raise ArgumentError(f"gamma must be nonnegative, got {self.gamma}")
        if not (self.c_r > 0.0 and self.c_s > 0.0 and self.gamma > 0.0):
            warnings.warn(
                "two-sided scheme without truncation (c_r, c_s, gamma all "
                "positive) is outside the supported theory",
                OutsideTheoryWarning,
                stacklevel=2,
            )

    def feasible(self, d1: int, d2: int) -> None:
        if d1 < 1 or d2 < 1:
            raise ArgumentError("dimensions must be positive")


MatchingScheme = Union[OneToOne, OneToMany, TwoSided]


def scheme_to_json(scheme: MatchingScheme) -> dict:
    if isinstance(scheme, OneToOne):
        return {"kind": "one_to_one"}
    if isinstance(scheme, OneToMany):
        return {"kind": "one_to_many", "K": scheme.K, "p0": scheme.p0}
    if isinstance(scheme, TwoSided):
        return {
            "kind": "two_sided",
            "p1": scheme.p1,
            "p2": scheme.p2,
            "c_r": scheme.c_r,
            "c_s": scheme.c_s,
            "gamma": scheme.gamma,
        }
    raise ArgumentError(f"unknown scheme {scheme!r}")


def scheme_from_json(obj) -> MatchingScheme:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DataFormatError(f"scheme must be an object with a 'kind', got {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "one_to_one":
            return OneToOne()
        if kind == "one_to_many":
            return OneToMany(K=int(obj["K"]), p0=float(obj["p0"]))
        if kind == "two_sided":
            return TwoSided(
                p1=float(obj["p1"]),
                p2=float(obj["p2"]),
                c_r=float(obj["c_r"]),
                c_s=float(obj["c_s"]),
                gamma=float(obj["gamma"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad parameters for scheme '{kind}': {exc}") from exc
    except ArgumentError as exc:
        raise DataFormatError(str(exc)) from exc
    raise DataFormatError(f"unknown scheme kind {kind!r}")


@dataclass(frozen=True)
class Matching:
    """A set of (row, column) pairs with every column used at most once."""

    d1: int
    d2: int
    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64).reshape(-1)
        cols = np.asarray(self.cols, dtype=np.int64).reshape(-1)
        if rows.size != cols.size:
            raise ArgumentError("rows and cols must have equal length")
        if rows.size:
            if rows.min() < 0 or rows.max() >= self.d1:
                raise ArgumentError("row index out of range")
            if cols.min() < 0 or cols.max() >= self.d2:
                raise ArgumentError("column index out of range")
            if np.unique(cols).size != cols.size:
                raise ArgumentError("a column appears more than once")
        for name, arr in (("rows", rows), ("cols", cols)):
            locked = np.array(arr, copy=True)
            locked.flags.writeable = False
            object.__setattr__(self, name, locked)

    @property
    def size(self) -> int:
        return self.rows.size

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(self.rows.tolist(), self.cols.tolist()))

    def check_scheme(self, scheme: MatchingScheme) -> None:
        """Raise if this matching violates the scheme-specific shape."""
        counts = np.bincount(self.rows, minlength=self.d1)
        if isinstance(scheme, OneToOne):
            if not np.all(counts == 1):
                raise ArgumentError("one-to-one matching must use every row once")
        elif isinstance(scheme, OneToMany):
            if counts.max(initial=0) > scheme.K:
                raise ArgumentError(f"row multiplicity exceeds K={scheme.K}")
        elif isinstance(scheme, TwoSided):
            if counts.max(initial=0) > 1:
                raise ArgumentError("two-sided matching must use each row at most once")
        else:
            raise ArgumentError(f"unknown scheme {scheme!r}")


@dataclass(frozen=True)
class Observation:
    """One time step: a matching and its rewards, aligned pairwise."""

    matching: Matching
    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if y.size != self.matching.size:
            raise ArgumentError("rewards must align with the matching's pairs")
        if not np.all(np.isfinite(y)):
            raise ArgumentError("rewards must be finite")
        locked = np.array(y, copy=True)
        locked.flags.writeable = False
        object.__setattr__(self, "y", locked)

    @property
    def rewards(self) -> dict[tuple[int, int], float]:
        return {
            (int(i), int(j)): float(v)
            for i, j, v in zip(self.matching.rows, self.matching.cols, self.y)
        }


@dataclass(frozen=True)
class ObservationBatch:
    """A sequence of matching/reward records sharing scheme and dims."""

    scheme: MatchingScheme
    d1: int
    d2: int
    sigma: float
    records: tuple[Observation, ...]
    seed: int | None = None

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ArgumentError("sigma must be nonnegative")
        records = tuple(self.records)
        for rec in records:
            if (rec.matching.d1, rec.matching.d2) != (self.d1, self.d2):
                raise ArgumentError("all records must share the batch dims")
        object.__setattr__(self, "records", records)

    def __len__(self) -> int:
        return len(self.records)


def sample_truncated_binomial(
    d1: int,
    p1: float,
    d2: int,
    p2: float,
    c_r: float,
    c_s: float,
    gamma: float,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Draw one (B_r, B_s) pair from the truncated bivariate binomial.

    Rejection sampling from independent Bin(d1, p1) x Bin(d2, p2): a
    draw is kept iff ``B_r >= c_r*d1``, ``B_s >= c_s*d2``, and the two
    counts are (1+gamma)-separated on one side or the other.  After
    ``REJECTION_CAP`` consecutive rejections the region is declared
    empty (up to numerically negligible mass).
    """
    out = _sample_truncated_binomial_many(
        1, d1, p1, d2, p2, c_r, c_s, gamma, rng
    )
    return int(out[0, 0]), int(out[0, 1])


def _sample_truncated_binomial_many(
    n: int,
    d1: int,
    p1: float,
    d2: int,
    p2: float,
    c_r: float,
    c_s: float,
    gamma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    if d1 < 1 or d2 < 1:
        raise ArgumentError("dimensions must be positive")
    for name, p in (("p1", p1), ("p2", p2)):
        if not (0.0 < p < 1.0):
            raise ArgumentError(f"{name} must lie in (0, 1), got {p}")
    for name, c in (("c_r", c_r), ("c_s", c_s)):
        if not (0.0 <= c < 1.0):
            raise ArgumentError(f"{name} must lie in [0, 1), got {c}")
    if gamma < 0.0:
        raise ArgumentError(f"gamma must be nonnegative, got {gamma}")

    accepted = np.empty((n, 2), dtype=np.int64)
    got = 0
    consecutive_rejections = 0
    chunk = 1
    while got < n:
        k1 = rng.binomial(d1, p1, size=chunk)
        k2 = rng.binomial(d2, p2, size=chunk)
        keep = (
            (k1 >= c_r * d1)
            & (k2 >= c_s * d2)
            & ((k1 >= (1.0 + gamma) * k2) | (k2 >= (1.0 + gamma) * k1))
        )
        hits = np.flatnonzero(keep)
        if hits.size == 0:
            consecutive_rejections += chunk
            if consecutive_rejections >= REJECTION_CAP:
                raise InfeasibleTruncationError(
                    f"no acceptable (B_r, B_s) after {consecutive_rejections} "
                    "consecutive rejections; truncation region appears empty"
                )
        else:
            take = hits[: n - got]
            accepted[got : got + take.size, 0] = k1[take]
            accepted[got : got + take.size, 1] = k2[take]
            got += take.size
            # Rejections after the last acceptance carry into the next chunk.
            consecutive_rejections = int(chunk - 1 - hits[-1])
        chunk = min(chunk * 8, 8192)
    return accepted


def sample_matching(
    scheme: MatchingScheme, d1: int, d2: int, rng: np.random.Generator
) -> Matching:
    """Draw one matching from the given scheme.

    The draw is uniform over the scheme's matching set conditional on
    the drawn arrival counts (degrees for one-to-many, (B_r, B_s) for
    two-sided).
    """
    scheme.feasible(d1, d2)
    if isinstance(scheme, OneToOne):
        cols = rng.permutation(d2)[:d1]
        return Matching(d1, d2, np.arange(d1, dtype=np.int64), cols)
    if isinstance(scheme, OneToMany):
        degrees = rng.binomial(scheme.K, scheme.p0, size=d1)
        total = int(degrees.sum())
        # One uniform draw of `total` distinct columns in random order,
        # sliced to rows: a uniform partition given the degrees.
        cols = rng.permutation(d2)[:total]
        rows = np.repeat(np.arange(d1, dtype=np.int64), degrees)
        return Matching(d1, d2, rows, cols)
    if isinstance(scheme, TwoSided):
        b_r, b_s = sample_truncated_binomial(
            d1, scheme.p1, d2, scheme.p2, scheme.c_r, scheme.c_s, scheme.gamma, rng
        )
        n = min(b_r, b_s)
        rows = rng.permutation(d1)[:b_r][:n]
        cols = rng.permutation(d2)[:b_s][:n]
        order = np.argsort(rows)
        return Matching(d1, d2, rows[order], cols[order])
    raise ArgumentError(f"unknown scheme {scheme!r}")


@dataclass(frozen=True)
class NuEstimate:
    """Entrywise observation probability, with MC error when estimated."""

    nu: float
    mc_se: float = 0.0


def entrywise_probability(
    scheme: MatchingScheme,
    d1: int,
    d2: int,
    mc_samples: int = 100_000,
    rng: np.random.Generator | None = None,
) -> NuEstimate:
    """Probability that any fixed entry (i, j) is observed in one period.

    Closed form for one-to-one (``1/d2``) and one-to-many (``K*p0/d2``);
    for two-sided it is ``E[min(B_r, B_s)]/(d1*d2)``, estimated by Monte
    Carlo over ``mc_samples`` truncated-binomial draws, with the MC
    standard error reported alongside.
    """
    scheme.feasible(d1, d2)
    if isinstance(scheme, OneToOne):
        return NuEstimate(nu=1.0 / d2)
    if isinstance(scheme, OneToMany):
        return NuEstimate(nu=scheme.K * scheme.p0 / d2)
    if isinstance(scheme, TwoSided):
        if mc_samples < 1:
            raise ArgumentError("mc_samples must be >= 1 for two-sided schemes")
        if rng is None:
            raise ArgumentError("two-sided schemes need an rng for MC estimation")
        draws = _sample_truncated_binomial_many(
            mc_samples, d1, scheme.p1, d2, scheme.p2,
            scheme.c_r, scheme.c_s, scheme.gamma, rng,
        )
        mins = np.minimum(draws[:, 0], draws[:, 1]).astype(float)
        nu = float(mins.mean() / (d1 * d2))
        if mc_samples >= 2:
            se = float(mins.std(ddof=1) / np.sqrt(mc_samples) / (d1 * d2))
        else:
            se = float("nan")
        return NuEstimate(nu=nu, mc_se=se)
    raise ArgumentError(f"unknown scheme {scheme!r}")


def observe(
    m: RewardMatrix,
    scheme: MatchingScheme,
    T: int,
    sigma: float,
    rng: np.random.Generator,
    seed: int | None = None,
) -> ObservationBatch:
    """Draw T periods of matchings with Gaussian-noised rewards.

    Each revealed entry (i, j) yields ``M[i, j] + N(0, sigma^2)``,
    independently across entries and periods.  ``seed`` is carried as
    provenance metadata only; the randomness comes from ``rng``.
    """
    if T < 1:
        raise ArgumentError(f"T must be >= 1, got {T}")
    if sigma < 0.0:
        raise ArgumentError("sigma must be nonnegative")
    d1, d2 = m.shape
    values = m.values
    records = []
    for _ in range(T):
        matching = sample_matching(scheme, d1, d2, rng)
        noise = rng.standard_normal(matching.size)
        y = values[matching.rows, matching.cols] + sigma * noise
        records.append(Observation(matching, y))
    return ObservationBatch(
        scheme=scheme, d1=d1, d2=d2, sigma=sigma, records=tuple(records), seed=seed
    )


# ---------------------------------------------------------------------------
# JSON-lines serialization
# ---------------------------------------------------------------------------

def save_batch(batch: ObservationBatch, path: str | Path) -> None:
    """Write a batch as JSON lines: one header line, then one record per t."""
    header = {
        "scheme": scheme_to_json(batch.scheme),
        "d1": batch.d1,
        "d2": batch.d2,
        "sigma": batch.sigma,
        "seed": batch.seed,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for t, rec in enumerate(batch.records, start=1):
            line = {
                "t": t,
                "pairs": [[int(i), int(j)]
                          for i, j in zip(rec.matching.rows, rec.matching.cols)],
                "y": [float(v) for v in rec.y],
            }
            fh.write(json.dumps(line, sort_keys=True) + "\n")


def load_batch(path: str | Path) -> ObservationBatch:
    """Inverse of :func:`save_batch` with full structural validation."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataFormatError(f"cannot read batch file {path}: {exc}") from exc
    if not lines:
        raise DataFormatError(f"batch file {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"bad batch header: {exc}") from exc
    if not isinstance(header, dict) or not {"scheme", "d1", "d2", "sigma"} <= set(header):
        raise DataFormatError("batch header must carry scheme, d1, d2, sigma")
    scheme = scheme_from_json(header["scheme"])
    try:
        d1, d2 = int(header["d1"]), int(header["d2"])
        sigma = float(header["sigma"])
        seed = header.get("seed")
        seed = None if seed is None else int(seed)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"bad batch header fields: {exc}") from exc
    records = []
    for k, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"bad batch record on line {k + 1}: {exc}") from exc
        if not isinstance(obj, dict) or "pairs" not in obj or "y" not in obj:
            raise DataFormatError(f"record on line {k + 1} missing pairs/y")
        pairs, y = obj["pairs"], obj["y"]
        if not isinstance(pairs, list) or not isinstance(y, list) or len(pairs) != len(y):
            raise DataFormatError(f"record on line {k + 1}: pairs/y misaligned")
        try:
            rows = np.array([int(p[0]) for p in pairs], dtype=np.int64)
            cols = np.array([int(p[1]) for p in pairs], dtype=np.int64)
            matching = Matching(d1, d2, rows, cols)
            matching.check_scheme(scheme)
            records.append(Observation(matching, np.array(y, dtype=float)))
        except (ArgumentError, TypeError, IndexError, ValueError) as exc:
            raise DataFormatError(f"record on line {k + 1}: {exc}") from exc
    try:
        return ObservationBatch(
            scheme=scheme, d1=d1, d2=d2, sigma=sigma,
            records=tuple(records), seed=seed,
        )
    except ArgumentError as exc:
        raise DataFormatError(str(exc)) from exc
