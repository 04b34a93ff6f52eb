"""Matching mechanisms, observation probabilities, and noisy reward draws.

Three mechanisms generate the per-period matchings:

* one-to-one: a uniform random injection of the ``d1`` rows into the
  ``d2`` columns (every row matched, no column reused);
* one-to-many: row ``i`` receives ``s_i ~ Bin(K, p0)`` columns, all
  distinct across the whole matching;
* two-sided: random arrivals on both sides drawn from a truncated
  bivariate binomial, then a uniform matching of the smaller arrived
  side into the larger.  :meth:`TwoSided.arrival_pmf` tabulates that
  law exactly; both the arrival draws and the entrywise probability
  come from the table.

All samplers are pure given an ``rng`` handle; parallel replications
must use independent streams (seed xor replication index).
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Union

import numpy as np
from scipy.special import gammaln, logsumexp, xlog1py, xlogy

from .errors import (
    ArgumentError,
    DataFormatError,
    InfeasibleTruncationError,
    OutsideTheoryWarning,
)
from .matmodel import RewardMatrix, _int_pairs


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
        self.arrival_pmf(d1, d2)

    def arrival_pmf(self, d1: int, d2: int) -> np.ndarray:
        """Joint pmf of the arrival counts: entry ``[b_r, b_s]`` is P(B_r = b_r, B_s = b_s).

        Independent Bin(d1, p1) x Bin(d2, p2) restricted to the
        truncation region of the (d1+1) x (d2+1) grid and normalised in
        log space, so a region of tiny total mass does not underflow.
        Raises InfeasibleTruncationError, before any draw, when the
        region holds no cell.
        """
        if d1 < 1 or d2 < 1:
            raise ArgumentError("dimensions must be positive")
        b_r, b_s = np.arange(d1 + 1)[:, None], np.arange(d2 + 1)
        kept = (b_r >= self.c_r * d1) & (b_s >= self.c_s * d2) & (
            (b_r >= (1.0 + self.gamma) * b_s) | (b_s >= (1.0 + self.gamma) * b_r))
        if not kept.any():
            raise InfeasibleTruncationError(
                f"no arrival counts (B_r, B_s) with d1={d1}, d2={d2} satisfy the "
                f"truncation c_r={self.c_r}, c_s={self.c_s}, gamma={self.gamma}"
            )
        log_pmf = np.where(kept, _binom_logpmf(d1, self.p1)[:, None]
                           + _binom_logpmf(d2, self.p2), -np.inf)
        return np.exp(log_pmf - logsumexp(log_pmf))


def _binom_logpmf(n: int, p: float) -> np.ndarray:
    """log P(Bin(n, p) = k) for k = 0..n, by scipy.stats.binom's formula.

    Written out over scipy.special, which the package already loads;
    importing scipy.stats would add much to its start-up time and memory.
    """
    k = np.arange(n + 1)
    return (gammaln(n + 1) - (gammaln(k + 1) + gammaln(n - k + 1))
            + xlogy(k, p) + xlog1py(n - k, -p))


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


def _check_periods(d1, d2, rows, cols, offsets, scheme=None, y=None) -> None:
    """The one validator of matchings and batches; period t owns ``offsets[t]:offsets[t+1]``.

    Raises ArgumentError with the first offending ``period`` if an index is out of
    range, a reward is not finite, a column repeats within a period, or a
    period's row multiplicities violate ``scheme``.
    """
    n = offsets.size - 1
    period = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))

    def fail(message: str, t) -> None:
        raise ArgumentError(message + (f" in period {t}" if n > 1 else ""), period=int(t))

    entry_checks = [("row index out of range", (rows < 0) | (rows >= d1)),
                    ("column index out of range", (cols < 0) | (cols >= d2))]
    if y is not None:
        entry_checks.append(("rewards must be finite", ~np.isfinite(y)))
    for message, bad in entry_checks:
        if bad.any():
            fail(message, period[bad.argmax()])
    keys = np.sort(period * d2 + cols)
    repeated = keys[1:][keys[1:] == keys[:-1]]
    if repeated.size:
        fail("a column appears more than once", repeated[0] // d2)
    if scheme is None:
        return
    counts = np.bincount(period * d1 + rows, minlength=n * d1).reshape(n, d1)
    if isinstance(scheme, OneToOne):
        bad, message = counts != 1, "one-to-one matching must use every row once"
    elif isinstance(scheme, OneToMany):
        bad, message = counts > scheme.K, f"row multiplicity exceeds K={scheme.K}"
    elif isinstance(scheme, TwoSided):
        bad, message = counts > 1, "two-sided matching must use each row at most once"
    else:
        raise ArgumentError(f"unknown scheme {scheme!r}")
    if bad.any():
        fail(message, bad.any(axis=1).argmax())


def _trusted(cls, **fields):
    """A frozen dataclass over parts of already validated data, not checked again."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class Matching:
    """A set of (row, column) pairs with every column used at most once."""

    d1: int
    d2: int
    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        rows, cols = (np.array(a, dtype=np.int64).reshape(-1) for a in (self.rows, self.cols))
        if rows.size != cols.size:
            raise ArgumentError("rows and cols must have equal length")
        _check_periods(self.d1, self.d2, rows, cols, np.array([0, rows.size]))
        for name, arr in (("rows", rows), ("cols", cols)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return self.rows.size

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(self.rows.tolist(), self.cols.tolist()))


class Observation(NamedTuple):
    """One period of a batch: a matching and its rewards, aligned pairwise."""

    matching: Matching
    y: np.ndarray


_COLUMNS = (("rows", np.int64), ("cols", np.int64), ("y", float))


@dataclass(frozen=True)
class ObservationBatch:
    """T periods of matchings and rewards sharing scheme and dims, as flat arrays.

    Period t owns entries ``offsets[t]:offsets[t+1]`` of ``rows``,
    ``cols`` and ``y``.  Construction validates the whole batch once;
    :meth:`from_periods` builds one from per-period arrays.
    ``batch[a:b]`` is the batch of periods ``a..b-1``: a view sharing
    these read-only arrays, neither copied nor validated again.
    """

    scheme: MatchingScheme
    d1: int
    d2: int
    sigma: float
    rows: np.ndarray
    cols: np.ndarray
    y: np.ndarray
    offsets: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ArgumentError("sigma must be nonnegative")
        for name, dtype in _COLUMNS + (("offsets", np.int64),):
            locked = np.asarray(getattr(self, name), dtype=dtype).reshape(-1).view()
            locked.flags.writeable = False
            object.__setattr__(self, name, locked)
        offsets = self.offsets
        if offsets[:1].tolist() != [0] or np.any(np.diff(offsets) < 0) \
                or not offsets[-1] == self.rows.size == self.cols.size == self.y.size:
            raise ArgumentError("offsets must rise from 0 to the length of rows, cols and y")
        _check_periods(self.d1, self.d2, self.rows, self.cols, offsets, self.scheme, self.y)

    @classmethod
    def from_periods(cls, scheme, d1, d2, sigma, periods, seed=None) -> "ObservationBatch":
        """One validated batch from per-period ``(rows, cols, y)`` triples."""
        periods = list(periods)
        if any(not len(r) == len(c) == len(v) for r, c, v in periods):
            raise ArgumentError("rewards must align with the matching's pairs")
        rows, cols, y = (np.concatenate([p[k] for p in periods] + [np.empty(0, t)])
                         for k, (_, t) in enumerate(_COLUMNS))
        offsets = np.cumsum([0] + [len(p[0]) for p in periods])
        return cls(scheme, d1, d2, sigma, rows, cols, y, offsets, seed)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, periods: slice) -> "ObservationBatch":
        start, stop, step = periods.indices(len(self))
        if step != 1:
            raise ArgumentError("batch slices must be contiguous")
        lo, hi = self.offsets[start], self.offsets[max(start, stop)]
        offsets = self.offsets[start : max(start, stop) + 1] - lo
        offsets.flags.writeable = False
        return _trusted(
            ObservationBatch, scheme=self.scheme, d1=self.d1, d2=self.d2,
            sigma=self.sigma, rows=self.rows[lo:hi], cols=self.cols[lo:hi],
            y=self.y[lo:hi], offsets=offsets, seed=self.seed,
        )

    @property
    def records(self) -> tuple[Observation, ...]:
        """Per-period observations, built on demand as views of the arrays."""
        bounds = self.offsets.tolist()
        return tuple(
            Observation(_trusted(Matching, d1=self.d1, d2=self.d2,
                                 rows=self.rows[a:b], cols=self.cols[a:b]), self.y[a:b])
            for a, b in zip(bounds[:-1], bounds[1:])
        )


def _arrival_cdf(scheme: MatchingScheme, d1: int, d2: int) -> np.ndarray | None:
    """Check that ``scheme`` can draw d1 x d2 matchings; return the
    arrival CDF :func:`_draw_pairs` inverts for two-sided (the cumulated
    :meth:`TwoSided.arrival_pmf` in row-major order), else None."""
    if not isinstance(scheme, TwoSided):
        scheme.feasible(d1, d2)
        return None
    cdf = np.cumsum(scheme.arrival_pmf(d1, d2))
    return cdf / cdf[-1]


def _draw_arrivals(arrival_cdf: np.ndarray, d2: int, rng: np.random.Generator) -> tuple[int, int]:
    """One (B_r, B_s) draw: a uniform inverted through the arrival CDF.

    The CDF's index ``b_r * (d2 + 1) + b_s`` is split back into the two
    counts; a cell of zero mass is never drawn.
    """
    return divmod(int(np.searchsorted(arrival_cdf, rng.random(), side="right")), d2 + 1)


def _draw_pairs(
    scheme: MatchingScheme, d1: int, d2: int, rng: np.random.Generator,
    arrival_cdf: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One period's (rows, cols) draw; ``arrival_cdf`` from :func:`_arrival_cdf`."""
    if isinstance(scheme, OneToOne):
        return np.arange(d1, dtype=np.int64), rng.permutation(d2)[:d1]
    if isinstance(scheme, OneToMany):
        degrees = rng.binomial(scheme.K, scheme.p0, size=d1)
        total = int(degrees.sum())
        # One uniform draw of `total` distinct columns in random order,
        # sliced to rows: a uniform partition given the degrees.
        cols = rng.permutation(d2)[:total]
        return np.repeat(np.arange(d1, dtype=np.int64), degrees), cols
    if isinstance(scheme, TwoSided):
        n = min(_draw_arrivals(arrival_cdf, d2, rng))
        rows = rng.permutation(d1)[:n]
        cols = rng.permutation(d2)[:n]
        order = np.argsort(rows)
        return rows[order], cols[order]
    raise ArgumentError(f"unknown scheme {scheme!r}")


def sample_matching(
    scheme: MatchingScheme, d1: int, d2: int, rng: np.random.Generator
) -> Matching:
    """Draw one matching from the given scheme.

    The draw is uniform over the scheme's matching set conditional on
    the drawn arrival counts (degrees for one-to-many, (B_r, B_s) for
    two-sided).
    """
    arrival_cdf = _arrival_cdf(scheme, d1, d2)
    return Matching(d1, d2, *_draw_pairs(scheme, d1, d2, rng, arrival_cdf))


@dataclass(frozen=True)
class NuEstimate:
    """Entrywise observation probability of a scheme."""

    nu: float


def entrywise_probability(scheme: MatchingScheme, d1: int, d2: int) -> NuEstimate:
    """Probability that any fixed entry (i, j) is observed in one period.

    ``1/d2`` for one-to-one, ``K*p0/d2`` for one-to-many and, for
    two-sided, ``E[min(B_r, B_s)]/(d1*d2)`` summed exactly over
    :meth:`TwoSided.arrival_pmf`.
    """
    if isinstance(scheme, TwoSided):
        matched = np.minimum(np.arange(d1 + 1)[:, None], np.arange(d2 + 1))
        return NuEstimate(nu=float(np.sum(scheme.arrival_pmf(d1, d2) * matched)) / (d1 * d2))
    scheme.feasible(d1, d2)
    if isinstance(scheme, OneToOne):
        return NuEstimate(nu=1.0 / d2)
    if isinstance(scheme, OneToMany):
        return NuEstimate(nu=scheme.K * scheme.p0 / d2)
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
    arrival_cdf = _arrival_cdf(scheme, d1, d2)
    values = m.values
    periods = []
    for _ in range(T):
        rows, cols = _draw_pairs(scheme, d1, d2, rng, arrival_cdf)
        noise = rng.standard_normal(rows.size)
        periods.append((rows, cols, values[rows, cols] + sigma * noise))
    return ObservationBatch.from_periods(scheme, d1, d2, sigma, periods, seed=seed)


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
    bounds = batch.offsets.tolist()
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for t, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]), start=1):
            line = {
                "t": t,
                "pairs": np.column_stack((batch.rows[a:b], batch.cols[a:b])).tolist(),
                "y": batch.y[a:b].tolist(),
            }
            fh.write(json.dumps(line, sort_keys=True) + "\n")


def _parse_record(line: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A record's rows, cols and y from integer ``pairs`` and numeric ``y``, else ValueError."""
    obj = json.loads(line)
    if not isinstance(obj, dict) or "pairs" not in obj or "y" not in obj:
        raise ValueError("missing pairs/y")
    maybe_bool = "true" in line or "false" in line
    pairs, y = _int_pairs(obj["pairs"], maybe_bool), np.asarray(obj["y"])
    if y.dtype.kind not in "iuf" or y.shape != (len(pairs),) \
            or maybe_bool and any(type(v) is bool for v in obj["y"]):
        raise ValueError("y must be a list of one number per pair")
    return pairs[:, 0], pairs[:, 1], y


def load_batch(path: str | Path) -> ObservationBatch:
    """Inverse of :func:`save_batch`; DataFormatError names the first malformed line."""
    periods, line_of = [], []
    try:
        with open(path) as fh:
            first = fh.readline()
            if not first:
                raise DataFormatError(f"batch file {path} is empty")
            try:
                header = json.loads(first)
            except (ValueError, RecursionError) as exc:
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
            for k, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    periods.append(_parse_record(line))
                except (ValueError, RecursionError) as exc:
                    raise DataFormatError(f"bad batch record on line {k}: {exc}") from exc
                line_of.append(k)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read batch file {path}: {exc}") from exc
    try:
        return ObservationBatch.from_periods(scheme, d1, d2, sigma, periods, seed=seed)
    except ArgumentError as exc:
        where = "" if exc.period is None else f"record on line {line_of[exc.period]}: "
        raise DataFormatError(f"{where}{exc}") from exc
