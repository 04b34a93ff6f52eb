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

Each mechanism is one class that owns all of its rules: ``kind`` (its
JSON tag), ``feasible(d1, d2)``, ``nu(d1, d2)``, ``sampler(d1, d2)``
(``draw(rng, T)``, all T periods at once from permuted ``T x d`` index
tiles) and ``row_rule`` (the per-period row check of the batch
validator).  Its dataclass fields are its JSON keys and its ``nu`` flags.

All samplers are pure given an ``rng`` handle; each replication of a
study draws from its own ``[seed, salt, rep]`` stream.
"""
from __future__ import annotations

import functools
import io
import itertools
import json
import math
import multiprocessing
import os
import signal
import threading
import warnings
from array import array
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, ClassVar, Union

import numpy as np
from scipy.special import gammaln, logsumexp, xlog1py, xlogy

from .errors import (
    ArgumentError,
    DataFormatError,
    InfeasibleTruncationError,
    OutsideTheoryWarning,
)
from .matmodel import (RewardMatrix, _flat, _instance_of, _int, _locked, _positive_dims,
                       _read_numbers, _real)


# draw(rng, T) -> (rows, cols, counts): flat pairs in period order, and each period's count.
Draw = Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray, np.ndarray]]
_CHUNK = 2**17  # index tile elements _prefixes permutes at a time: 1 MiB of int64


def _prefixes(rng: np.random.Generator, d: int, counts: np.ndarray) -> np.ndarray:
    """The first ``counts[t]`` entries of row t of a permuted ``(T, d)`` tile, flat in row order;
    drawn ``max(1, _CHUNK // d)`` rows at a time into one output, which leaves the output and
    the generator's state the whole tile's, as ``rng.permuted`` shuffles row after row."""
    columns, step = np.arange(d), max(1, _CHUNK // d)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    out = np.empty(bounds[-1], dtype=columns.dtype)
    for a in range(0, counts.size, step):
        chunk = counts[a : a + step]
        tile = rng.permuted(np.broadcast_to(columns, (chunk.size, d)), axis=1)
        out[bounds[a] : bounds[a + chunk.size]] = tile[columns < chunk[:, None]]
    return out


@dataclass(frozen=True)
class OneToOne:
    """Uniform one-to-one matching of all rows into the columns."""

    kind: ClassVar[str] = "one_to_one"
    # (most uses of a row per period, whether every row is used, message)
    row_rule: ClassVar[tuple] = (1, True, "one-to-one matching must use every row once")

    def feasible(self, d1: int, d2: int) -> None:
        _positive_dims(d1, d2)
        if d2 < d1:
            raise ArgumentError(f"one-to-one needs d2 >= d1, got ({d1}, {d2})")

    def nu(self, d1: int, d2: int) -> float:
        self.feasible(d1, d2)
        return 1.0 / d2

    def sampler(self, d1: int, d2: int) -> Draw:
        self.feasible(d1, d2)
        return lambda rng, T: (np.tile(np.arange(d1), T), _prefixes(rng, d2, np.full(T, d1)),
                               np.full(T, d1))


@dataclass(frozen=True)
class OneToMany:
    """Each row draws Bin(K, p0) columns; columns are never reused."""

    kind: ClassVar[str] = "one_to_many"
    K: int
    p0: float

    def __post_init__(self):
        _read_numbers(self)
        if self.K < 1:
            raise ArgumentError(f"K must be a positive integer, got {self.K!r}")
        if not (0.0 < self.p0 <= 1.0):
            raise ArgumentError(f"p0 must lie in (0, 1], got {self.p0}")

    @property
    def row_rule(self) -> tuple[int, bool, str]:
        return self.K, False, f"row multiplicity exceeds K={self.K}"

    def feasible(self, d1: int, d2: int) -> None:
        _positive_dims(d1, d2)
        if d2 < self.K * d1:
            raise ArgumentError(
                f"one-to-many needs d2 >= K*d1, got d2={d2} < {self.K}*{d1}"
            )

    def nu(self, d1: int, d2: int) -> float:
        self.feasible(d1, d2)
        return self.K * self.p0 / d2

    def sampler(self, d1: int, d2: int) -> Draw:
        self.feasible(d1, d2)

        def draw(rng, T):
            degrees = rng.binomial(self.K, self.p0, size=(T, d1))
            # Per period, one uniform draw of sum(degrees) distinct columns in
            # random order, sliced to rows: a uniform partition given the degrees.
            counts = degrees.sum(axis=1)
            rows = np.repeat(np.tile(np.arange(d1), T), degrees.ravel())
            return rows, _prefixes(rng, d2, counts), counts
        return draw


@dataclass(frozen=True)
class TwoSided:
    """Two-sided random arrivals with truncated bivariate binomial counts.

    The truncation keeps both arrival counts away from zero
    (``B_r >= c_r*d1``, ``B_s >= c_s*d2``) and the two sides separated
    (``B_r >= (1+gamma)B_s`` or vice versa).  Setting ``c_r = c_s = 0``
    and ``gamma = 0`` recovers the untruncated mechanism, which is legal
    here but not covered by the error theory, hence the warning.
    """

    kind: ClassVar[str] = "two_sided"
    row_rule: ClassVar[tuple] = (1, False, "two-sided matching must use each row at most once")
    p1: float
    p2: float
    c_r: float
    c_s: float
    gamma: float

    def __post_init__(self):
        _read_numbers(self)
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not (0.0 < p < 1.0):
                raise ArgumentError(f"{name} must lie in (0, 1), got {p}")
        for name, c in (("c_r", self.c_r), ("c_s", self.c_s)):
            if not (0.0 <= c < 1.0):
                raise ArgumentError(f"{name} must lie in [0, 1), got {c}")
        if not self.gamma >= 0.0:
            raise ArgumentError(f"gamma must be nonnegative, got {self.gamma}")
        if not (self.c_r > 0.0 and self.c_s > 0.0 and self.gamma > 0.0):
            warnings.warn(
                "two-sided scheme without truncation (c_r, c_s, gamma all "
                "positive) is outside the supported theory",
                OutsideTheoryWarning,
                stacklevel=2,
            )

    def feasible(self, d1: int, d2: int) -> None:
        """O(1) at any dims: the truncation region holds a cell if and only if it holds
        ``(d1, least B_s)`` or ``(least B_r, d2)``, the most of one side, the least of the other."""
        _positive_dims(d1, d2)
        least_r, least_s = math.ceil(self.c_r * d1), math.ceil(self.c_s * d2)
        if not (d1 >= (1.0 + self.gamma) * least_s or d2 >= (1.0 + self.gamma) * least_r):
            raise InfeasibleTruncationError(
                f"no arrival counts (B_r, B_s) with d1={d1}, d2={d2} satisfy the "
                f"truncation c_r={self.c_r}, c_s={self.c_s}, gamma={self.gamma}"
            )

    @functools.lru_cache(maxsize=8, typed=True)  # typed: d1=4.0 misses d1=4's entry, and fails
    def nu(self, d1: int, d2: int) -> float:
        """``E[min(B_r, B_s)]/(d1*d2)``, summed exactly over :meth:`arrival_pmf`; memoised."""
        pmf = self.arrival_pmf(d1, d2)  # first: it checks the dims
        matched = np.minimum(np.arange(d1 + 1)[:, None], np.arange(d2 + 1))
        return float(np.sum(pmf * matched)) / (d1 * d2)

    @functools.lru_cache(maxsize=8, typed=True)
    def arrival_pmf(self, d1: int, d2: int) -> np.ndarray:
        """Joint pmf of the arrival counts: entry ``[b_r, b_s]`` is P(B_r = b_r, B_s = b_s).

        Independent Bin(d1, p1) x Bin(d2, p2) restricted to the
        truncation region of the (d1+1) x (d2+1) grid and normalised in
        log space, so a region of tiny total mass does not underflow.
        Raises InfeasibleTruncationError, before any draw, when the
        region holds no cell.  The table is read-only and memoised per
        ``(scheme, d1, d2)``, so ``nu``, ``sampler`` and every fit's ν
        check in a study share one build.
        """
        self.feasible(d1, d2)
        b_r, b_s = np.arange(d1 + 1)[:, None], np.arange(d2 + 1)
        kept = (b_r >= self.c_r * d1) & (b_s >= self.c_s * d2) & (
            (b_r >= (1.0 + self.gamma) * b_s) | (b_s >= (1.0 + self.gamma) * b_r))
        log_pmf = np.where(kept, _binom_logpmf(d1, self.p1)[:, None]
                           + _binom_logpmf(d2, self.p2), -np.inf)
        return _locked(np.exp(log_pmf - logsumexp(log_pmf)), float)

    def arrivals(self, d1: int, d2: int) -> Callable[[np.random.Generator, int], tuple]:
        """The draw ``(rng, n) -> (B_r, B_s)``: n uniforms inverted through the cumulated
        :meth:`arrival_pmf`; each row-major index (never a zero-mass cell) splits into counts."""
        cdf = np.cumsum(self.arrival_pmf(d1, d2))
        cdf = cdf / cdf[-1]
        return lambda rng, n: np.divmod(np.searchsorted(cdf, rng.random(n), side="right"), d2 + 1)

    def sampler(self, d1: int, d2: int) -> Draw:
        arrivals = self.arrivals(d1, d2)

        def draw(rng, T):
            n = np.minimum(*arrivals(rng, T))
            # The rows ranked below n in a uniform permutation: a uniform
            # n-subset, in ascending order, matched to n uniform distinct columns.
            ranks = rng.permuted(np.broadcast_to(np.arange(d1), (T, d1)), axis=1)
            # nonzero's columns are a strided view of one (N, 2) array: copied, so the
            # batch holds 8 bytes per row index, not 16.
            return np.nonzero(ranks < n[:, None])[1].copy(), _prefixes(rng, d2, n), n
        return draw


def _binom_logpmf(n: int, p: float) -> np.ndarray:
    """log P(Bin(n, p) = k) for k = 0..n, by scipy.stats.binom's formula.

    Written out over scipy.special, which the package already loads;
    importing scipy.stats would add much to its start-up time and memory.
    """
    k = np.arange(n + 1)
    return (gammaln(n + 1) - (gammaln(k + 1) + gammaln(n - k + 1))
            + xlogy(k, p) + xlog1py(n - k, -p))


MatchingScheme = Union[OneToOne, OneToMany, TwoSided]
_BY_KIND = {cls.kind: cls for cls in (OneToOne, OneToMany, TwoSided)}
_scheme = _instance_of(MatchingScheme, "a matching scheme")  # a reader: _scheme(value, name)


def scheme_to_json(scheme: MatchingScheme) -> dict:
    return {"kind": scheme.kind, **{f.name: getattr(scheme, f.name) for f in fields(scheme)}}


def scheme_from_json(obj) -> MatchingScheme:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DataFormatError(f"scheme must be an object with a 'kind', got {obj!r}")
    kind = obj["kind"]
    cls = _BY_KIND.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DataFormatError(f"unknown scheme kind {kind!r}")
    names = [f.name for f in fields(cls)]
    unknown = [str(k) for k in obj if k not in ("kind", *names)]
    if unknown:
        raise DataFormatError(f"unknown keys for scheme '{kind}': {', '.join(unknown)}")
    try:
        return cls(**{name: obj[name] for name in names})
    except KeyError as exc:
        raise DataFormatError(f"bad parameters for scheme '{kind}': missing field {exc}") from None
    except ValueError as exc:
        raise DataFormatError(f"bad parameters for scheme '{kind}': {exc}") from exc


def _check_periods(d1, d2, rows, cols, offsets, scheme=None, y=None) -> None:
    """The one validator of matchings and batches; period t owns ``offsets[t]:offsets[t+1]``.

    Raises ArgumentError with the first offending ``period`` if an index is out of
    range, a reward is not finite, a column repeats within a period, or a
    period's row multiplicities violate ``scheme``.  Time and memory are
    O(entries + periods) whatever ``d1`` and ``d2`` a file header claims; beyond
    one boolean mask at a time, the only per-entry temporary is one int64 key array.
    """
    n = offsets.size - 1
    counts = np.diff(offsets)

    def fail(message: str, t) -> None:
        raise ArgumentError(message + (f" in period {t}" if n > 1 else ""), period=int(t))

    def fail_at(message: str, bad: np.ndarray) -> None:
        """Fail in the period of the first entry flagged ``bad``, if any is."""
        if bad.any():
            fail(message, np.searchsorted(offsets, bad.argmax(), side="right") - 1)

    def first_repeat(index: np.ndarray, limit: int):
        """First period holding one ``index`` value more than ``limit`` times, or None."""
        width = int(index.max(initial=0)) + 1
        if n * width > np.iinfo(np.int64).max:
            fail_at("indices too large to validate", index == index.max())
        keys = np.repeat(np.arange(n, dtype=np.int64) * width, counts)
        keys += index
        keys.sort()
        over = keys[limit:][keys[limit:] == keys[:-limit]]
        return over[0] // width if over.size else None

    fail_at("row index out of range", (rows < 0) | (rows >= d1))
    fail_at("column index out of range", (cols < 0) | (cols >= d2))
    if y is not None:
        fail_at("rewards must be finite", ~np.isfinite(y))
    t = first_repeat(cols, 1)
    if t is not None:
        fail("a column appears more than once", t)
    if scheme is None:
        return
    limit, every_row, message = scheme.row_rule
    bad = counts != d1 if every_row else np.zeros(n, dtype=bool)
    t = first_repeat(rows, limit)
    if t is not None:
        bad[t] = True
    if bad.any():
        fail(message, bad.argmax())


def _check_sigma(sigma) -> None:
    if _real(sigma, "sigma") < 0.0:
        raise ArgumentError(f"sigma must be finite and nonnegative, got {sigma}")


@dataclass(frozen=True)
class Matching:
    """A set of (row, column) pairs with every column used at most once."""

    d1: int
    d2: int
    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        _read_numbers(self)
        _positive_dims(self.d1, self.d2)
        rows, cols = (_flat(getattr(self, name), np.int64, name) for name in ("rows", "cols"))
        if rows.size != cols.size:
            raise ArgumentError("rows and cols must have equal length")
        _check_periods(self.d1, self.d2, rows, cols, np.array([0, rows.size]))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @property
    def size(self) -> int:
        return self.rows.size

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(self.rows.tolist(), self.cols.tolist()))


@dataclass(frozen=True)
class ObservationBatch:
    """T periods of matchings and rewards sharing scheme and dims, as flat arrays.

    Period t owns entries ``offsets[t]:offsets[t+1]`` of ``rows``,
    ``cols`` and ``y``.  Construction validates the whole batch once.
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
        _scheme(self.scheme, "scheme")
        _read_numbers(self)
        self.scheme.feasible(self.d1, self.d2)
        _check_sigma(self.sigma)
        if self.seed is not None:
            vars(self)["seed"] = _int(self.seed, "seed")
        for name, dtype in (("rows", np.int64), ("cols", np.int64), ("y", float),
                            ("offsets", np.int64)):
            object.__setattr__(self, name, _flat(getattr(self, name), dtype, name))
        offsets = self.offsets
        if offsets[:1].tolist() != [0] or np.any(np.diff(offsets) < 0) \
                or not offsets[-1] == self.rows.size == self.cols.size == self.y.size:
            raise ArgumentError("offsets must rise from 0 to the length of rows, cols and y")
        _check_periods(self.d1, self.d2, self.rows, self.cols, offsets, self.scheme, self.y)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, periods: slice) -> "ObservationBatch":
        if not isinstance(periods, slice):
            raise ArgumentError(f"batches are indexed by period slices, got {periods!r}")
        start, stop, step = periods.indices(len(self))
        if step != 1:
            raise ArgumentError("batch slices must be contiguous")
        lo, hi = self.offsets[start], self.offsets[max(start, stop)]
        offsets = _flat(self.offsets[start : max(start, stop) + 1] - lo, np.int64, "offsets")
        # Parts of validated arrays: built without __init__, so not checked again.
        view = object.__new__(ObservationBatch)
        vars(view).update(vars(self), rows=self.rows[lo:hi], cols=self.cols[lo:hi],
                          y=self.y[lo:hi], offsets=offsets)
        return view

    @property
    def nu(self) -> float:
        """The entrywise observation probability of the batch's scheme at its dims."""
        return self.scheme.nu(self.d1, self.d2)

    def scatter(self, weights: np.ndarray) -> np.ndarray:
        """Dense ``d1 x d2`` sums of one weight per revealed entry, each cell's in entry order."""
        index = self.rows * self.d2
        index += self.cols
        # On no entries bincount gives int64 zeros, whatever the weights' dtype.
        return np.bincount(index, weights=weights, minlength=self.d1 * self.d2).astype(
            float, copy=False).reshape(self.d1, self.d2)

    @property
    def records(self) -> tuple["ObservationBatch", ...]:
        """Each period as a one-period view of the batch."""
        return tuple(self[t : t + 1] for t in range(len(self)))


def sample_matching(scheme: MatchingScheme, d1: int, d2: int, rng: np.random.Generator) -> Matching:
    """Draw one matching from the given scheme: its draw with T = 1.

    The draw is uniform over the scheme's matching set conditional on
    the drawn arrival counts (degrees for one-to-many, (B_r, B_s) for
    two-sided).
    """
    return Matching(d1, d2, *_scheme(scheme, "scheme").sampler(d1, d2)(rng, 1)[:2])


@dataclass(frozen=True)
class NuEstimate:
    """Entrywise observation probability of a scheme."""

    nu: float


def entrywise_probability(scheme: MatchingScheme, d1: int, d2: int) -> NuEstimate:
    """Probability that any fixed entry (i, j) is observed in one period: ``scheme.nu(d1, d2)``."""
    return NuEstimate(nu=scheme.nu(d1, d2))


def observe(m: RewardMatrix, scheme: MatchingScheme, T: int, sigma: float,
            rng: np.random.Generator, seed: int | None = None) -> ObservationBatch:
    """Draw T periods of matchings with Gaussian-noised rewards.

    The scheme's draw gives all T matchings, then one normal draw their
    noise: each revealed entry (i, j) yields ``M[i, j] + N(0, sigma^2)``,
    independently across entries and periods.  ``seed`` is carried as
    provenance metadata only; the randomness comes from ``rng``.
    """
    _scheme(scheme, "scheme")
    if _int(T, "T") < 1:
        raise ArgumentError(f"T must be an integer >= 1, got {T!r}")
    _check_sigma(sigma)
    d1, d2 = m.shape
    rows, cols, counts = scheme.sampler(d1, d2)(rng, T)
    y = rng.standard_normal(rows.size)
    y *= sigma
    y += m.values[rows, cols]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return ObservationBatch(scheme, d1, d2, sigma, rows, cols, y, offsets, seed)


# ---------------------------------------------------------------------------
# JSON-lines serialization
# ---------------------------------------------------------------------------

# Least file per parsing process: at 1 MiB a second process costs more than it saves.
_SPLIT_BYTES = 2**20
_SPLIT_ENTRIES = 2**15  # least entries per writing process: 2 ranges break even near 2**13
_PIECE = 2**20  # most bytes of a column, or of record text, in one message from a child
_TEXT_ENTRIES = 2**14  # entries whose record text is formatted at a time


def _texts(values: np.ndarray, form: str) -> np.ndarray:
    """``form.format(v)`` for each of ``values``, as an object array, made once per value."""
    distinct, index = np.unique(values, return_inverse=True)
    return np.array([form.format(v) for v in distinct.tolist()], dtype=object)[index]


def _records(batch: ObservationBatch, a: int, b: int):
    """The record lines of periods ``a..b-1``, as ``json.dumps(record, sort_keys=True)`` spells
    them, in one bytes piece per run of periods that start in one ``_TEXT_ENTRIES`` block."""
    offsets = batch.offsets
    block = (offsets[a:b] - offsets[a]) // _TEXT_ENTRIES
    firsts = (np.flatnonzero(np.diff(block, prepend=-1)) + a).tolist()
    for c, d in zip(firsts, firsts[1:] + [b]):
        part = batch[c:d]
        ends = part.offsets.tolist()
        # "[i, " then "j], " for each pair: a period's text is its run of them, less ", ".
        texts = np.column_stack((_texts(part.rows, "[{}, "),
                                 _texts(part.cols, "{}], "))).ravel().tolist()
        yield "".join(f'{{"pairs": [{"".join(texts[2 * p : 2 * q])[:-2]}], "t": {t}, '
                      f'"y": {json.dumps(part.y[p:q].tolist())}}}\n'
                      for t, p, q in zip(range(c + 1, d + 1), ends, ends[1:])).encode()


def _formatted(batch: ObservationBatch, a: int, b: int) -> tuple[int, list]:
    """A writing child's work: periods ``a..b-1`` formatted whole, as a head that is never
    None (the range's period count) and the record text."""
    return b - a, list(_records(batch, a, b))


def save_batch(batch: ObservationBatch, path: str | Path) -> None:
    """Write a batch as UTF-8 JSON lines: one header line, then one record per t.

    A batch of at least ``2 * _SPLIT_ENTRIES`` entries is cut at period ends into one range
    per CPU this process may use, at most one per ``_SPLIT_ENTRIES``.  This process writes
    the first range while a :func:`_child` formats each later one whole (:func:`_formatted`);
    its text is written in period order.  A range whose child cannot start or ends early is
    formatted here once the file is cut back to the range's start.  The bytes are the same
    for any number of ranges, and no child outlives the call."""
    header = {"scheme": scheme_to_json(batch.scheme), "d1": batch.d1, "d2": batch.d2,
              "sigma": batch.sigma, "seed": batch.seed}
    offsets, T = batch.offsets, len(batch)
    n = max(1, min(_usable_cpus(), int(offsets[-1]) // _SPLIT_ENTRIES))
    cuts = (np.searchsorted(offsets, offsets[-1] * np.arange(1, n) // n, side="right") - 1).tolist()
    bounds = [0, *sorted(set(cuts) - {0, T}), T]
    children = [None]  # each range's child and pipe; the first range is this process's
    try:
        with open(path, "wb") as fh:
            for a, b in zip(bounds[1:-1], bounds[2:]):
                _start(children, _formatted, batch, a, b)
            fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
            for a, b, child in zip(bounds, bounds[1:], children):
                start = fh.tell()
                if _receive(child, itertools.repeat(fh.write)) is None:
                    fh.seek(start)  # formatted here, over any part a child sent
                    fh.truncate()
                    fh.writelines(_records(batch, a, b))
    finally:
        _reap(children)


_PAIR = np.frombuffer(b"[, ], ", np.uint8)  # the bytes that are not digits, pair by pair
_SPACED = str.maketrans("[]", "  ")


def _saved_record(line: str):
    """The ``(n, 2)`` pairs and parsed ``y`` of a line spelled as :func:`_records` spells it,
    ``{"pairs": [[i, j], ...], "t": t, "y": [...]}``, each index and ``t`` 1 to 18 digits with
    no leading zero and ``y`` flat; else None, never an error, so that JSON reads and faults
    every other line.  The pairs are checked byte by byte and read in one numpy call."""
    i = line.find('], "t": ')
    j = line.find(', "y": ', i + 1)
    pairs, t, y = line[11:i], line[i + 8 : j], line[j + 7 : line.rfind("}")]
    # A nested y, with two "[" or any "{", is JSON's to read: its depth limit counts the record.
    if not (line.isascii() and line.startswith('{"pairs": [') and 0 < i < j
            and line.endswith(("}", "}\n")) and t.isdigit() and len(t) < 19
            and (t[0] != "0" or t == "0") and "{" not in y and y.find("[") == y.rfind("[")):
        return None
    text = np.frombuffer((pairs + ", " if pairs else "").encode(), np.uint8)
    marks = np.flatnonzero((text - ord("0")) > 9)  # the bytes that are not digits
    if marks.size % 6:
        return None
    marks = marks.reshape(-1, 6)  # per pair: "[", ",", " ", "]", ",", " "
    starts = marks[:, 0:3:2] + 1  # each index's first byte, after "[" and after " "
    widths = marks[:, 1:4:2] - starts
    if not (text[marks] == _PAIR).all() or widths.sum() != text.size - marks.size \
            or widths.min(initial=1) < 1 or widths.max(initial=0) > 18 \
            or ((text[starts] == ord("0")) & (widths > 1)).any():
        return None
    try:
        values = json.loads(y)
    except ValueError:
        return None
    return np.fromstring(pairs.translate(_SPACED), np.int64, sep=",").reshape(-1, 2), values


def _append_record(line: str, columns: tuple[array, array, array]) -> int:
    """Append a record's integer ``pairs`` and numeric ``y`` to ``columns`` and return
    its count, else ValueError with nothing appended.  A line that :func:`_saved_record`
    declines is parsed by ``json.loads``; ``y`` meets the same rules either way.  numpy reads
    booleans mixed with numbers as 0/1, so they are looked for one by one where the text may
    spell one: ``true`` holds a ``u`` and ``false`` an ``l``, and no number or record key does.
    """
    record = _saved_record(line)
    maybe_bool = "u" in line or "l" in line
    if record is None:
        obj = json.loads(line)
        if not isinstance(obj, dict) or "pairs" not in obj or "y" not in obj:
            raise ValueError("missing pairs/y")
        try:
            pairs = np.asarray(obj["pairs"])
        except ValueError:  # ragged (a pair of another length, or holding a list): rejected below
            pairs = np.asarray(None)
        if pairs.shape == (0,):
            pairs = pairs.reshape(0, 2).astype(np.int64)
        if pairs.dtype.kind != "i" or pairs.shape[1:] != (2,) \
                or maybe_bool and any(type(v) is bool for p in obj["pairs"] for v in p):
            raise ValueError("pairs must be a list of [row, col] integer pairs")
        record = pairs, obj["y"]
    pairs, values = record
    y = np.asarray(values)
    if y.dtype.kind not in "iuf" or y.shape != (len(pairs),) \
            or maybe_bool and any(type(v) is bool for v in values):
        raise ValueError("y must be a list of one number per pair")
    for column, part in zip(columns, (*pairs.T.copy(), y.astype(float))):
        column.frombytes(part.view(np.uint8))  # contiguous: appended without a copy
    return len(y)


class _Window(io.RawIOBase):
    """Bytes ``[start, stop)`` of a file opened unbuffered, as a stream of their own;
    ``stop`` None reads to the end.  They are read at offsets of their own (``os.pread``),
    so the file position, which a forked child shares with its parent, never moves.
    A pipe, which has no offsets, is read on from where it is, and so is a file where
    there is no ``os.pread`` (nor a fork, so no child either)."""

    def __init__(self, raw, start: int, stop: int | None):
        self._raw, self._pos = raw, start if raw.seekable() and hasattr(os, "pread") else None
        self._left = math.inf if stop is None else stop - start
        if self._pos is None and raw.seekable():
            raw.seek(start)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = min(len(buffer), self._left)
        if self._pos is None:
            n = self._raw.readinto(memoryview(buffer)[:size])
        else:
            data = os.pread(self._raw.fileno(), size, self._pos)
            n = len(data)
            buffer[:n] = data
            self._pos += n
        self._left -= n
        return n


def _lines(raw, start: int, stop: int | None) -> io.TextIOWrapper:
    """The lines of a byte range as ``open(path, encoding="utf-8")`` splits them: at ``\\n``,
    ``\\r\\n`` and a lone ``\\r``, each given ending in ``\\n``.  A byte that is not UTF-8
    comes as a lone surrogate, for :func:`_utf8` to reject on its own line."""
    return io.TextIOWrapper(io.BufferedReader(_Window(raw, start, stop)), encoding="utf-8",
                            errors="surrogateescape")


def _utf8(line: str) -> str:
    """``line``, else UnicodeDecodeError at its first byte that is not UTF-8; the position
    it names is within the line, so the error reads the same whatever range holds the line."""
    if not line.isascii():
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    return line


def _line_end(raw, pos: int) -> int:
    """The offset just past the first line end at or after ``pos``, by the split of
    :func:`_lines`, or the end of the file."""
    raw.seek(pos)
    while block := raw.read(io.DEFAULT_BUFFER_SIZE):
        ends = [i for i in (block.find(b"\n"), block.find(b"\r")) if i >= 0]
        if ends:
            i = min(ends)
            end = pos + i + 1
            if block[i] == ord("\r"):  # one line end with the \n after it, if one follows
                raw.seek(end)
                end += raw.read(1) == b"\n"
            return end
        pos += len(block)
    return pos


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _bounds(raw) -> list:
    """Where the byte ranges of a file start, then None for its end: one range per CPU this
    process may use and per ``_SPLIT_BYTES`` of file, each after the first cut at a line end."""
    size = os.fstat(raw.fileno()).st_size  # 0 for a pipe, read as one range without a seek
    n = max(1, min(_usable_cpus(), size // _SPLIT_BYTES))
    cuts = sorted({_line_end(raw, k * size // n) for k in range(1, n)} - {size})
    return [0, *cuts, None]


def _parse_range(lines, columns: tuple[array, array, array], first: int) -> tuple[list, list, int]:
    """The one record parser: append to ``columns`` the records of ``lines``, a byte range
    that starts at line ``first`` of the file.

    Returns each record's entry count and line, counted from 1 at the range's start, and the
    range's number of lines, blank ones included.  Raises DataFormatError naming the first bad
    record by its line in the file, and OSError or UnicodeDecodeError at an unreadable byte.
    """
    counts, line_of, k = [], [], 0
    for k, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        _utf8(line)
        try:
            counts.append(_append_record(line, columns))
        except (ValueError, RecursionError) as exc:
            raise DataFormatError(f"bad batch record on line {first + k - 1}: {exc}") from exc
        line_of.append(k)
    return counts, line_of, k


def _parsed(raw, start: int, stop: int | None) -> tuple[tuple, tuple[array, array, array]]:
    """A parsing child's work: :func:`_parse_range`'s report on one byte range of the file
    open as ``raw``, and the range's three columns.  The child reads the descriptor it
    inherited, not the file's path, which may name another file by now."""
    columns = tuple(array(code) for code in "qqd")
    return _parse_range(_lines(raw, start, stop), columns, 1), columns


def _child(work, args: tuple, sender, receivers) -> None:
    """A forked child: send ``work(*args)``'s head and its buffers' byte sizes, then each
    buffer in pieces of at most ``_PIECE`` bytes.  Whatever stops it (a bad record, an
    unreadable byte, a parent that stopped reading) ends it quietly, with nothing more sent;
    the parent then does the range itself.  It first closes the read ends it inherited, its
    own among them, so that a write to a pipe the parent closed fails instead of waiting."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    for receiver in receivers:
        receiver.close()
    try:
        head, buffers = work(*args)
        views = [memoryview(buffer).cast("B") for buffer in buffers]
        sender.send((head, [len(view) for view in views]))
        for view in views:
            for i in range(0, len(view), _PIECE):
                sender.send_bytes(view[i : i + _PIECE])
    except Exception:
        pass


def _start(children: list, work, *args) -> None:
    """Append to ``children`` a forked :func:`_child` doing ``work(*args)``, with the read end
    of its pipe; or None when this process cannot start one.

    Forked, not spawned: a spawned child would start an interpreter and import numpy before
    it could parse or format a byte.  None while this process runs other Python threads,
    whose locks the child would inherit, held or not.  No child calls BLAS.
    """
    children.append(None)
    if multiprocessing.current_process().daemon or threading.active_count() > 1 \
            or "fork" not in multiprocessing.get_all_start_methods():
        return
    context = multiprocessing.get_context("fork")
    receivers = [child[1] for child in children if child]
    # An interrupt waits until the child is listed, so that the caller reaps it.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        receiver, sender = context.Pipe(duplex=False)
        with sender:  # the child's end: closed here once the child holds it
            child = context.Process(target=_child, daemon=True,
                                    args=(work, args, sender, [*receivers, receiver]))
            try:
                child.start()
            except OSError:
                receiver.close()
                raise
        children[-1] = child, receiver
    except OSError:  # out of file descriptors, processes or memory
        pass
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _receive(child, sinks):
    """The head a started child sends, each of its buffers fed piece by piece to the next of
    ``sinks``; None if there is no child or it ended early, when the caller undoes what the
    sinks took and does the range itself."""
    try:
        head, sizes = child[1].recv() if child else (None, ())
        for size, sink in zip(sizes, sinks):
            while size:
                piece = child[1].recv_bytes()
                sink(piece)
                size -= len(piece)
        return head
    except (EOFError, OSError):
        return None


def _reap(children) -> None:
    """Close every pipe's read end first, which ends a child blocked writing to it, then
    wait for each child, killed if it still runs."""
    for child in filter(None, children):
        child[1].close()
    for child in filter(None, children):
        if child[0].is_alive():
            child[0].kill()
        child[0].join()
        child[0].close()


def load_batch(path: str | Path) -> ObservationBatch:
    """Inverse of :func:`save_batch`; DataFormatError names the first malformed line.

    Records stream onto three growable typed columns, which the batch then
    holds without a copy: about 24 bytes per entry.  A record in save_batch's own spelling
    is read directly (:func:`_saved_record`), any other by ``json.loads``: the same batch,
    or the same message, either way.  A file of at least
    ``2 * _SPLIT_BYTES`` bytes (2 MiB) is cut at line ends into one byte range per
    CPU this process may use, at most one per ``_SPLIT_BYTES``.  This process parses
    the first range and a :func:`_child` each later one (:func:`_parsed`), all at once,
    from the one open file; a child's columns are appended in file order.  A range whose
    child cannot start (while this process runs other Python threads, none does) or ends
    early, as a bad record or byte ends it, is parsed here once the columns are cut back,
    so the error is raised here.  The batch, every message and its cause are the same for
    any number of ranges: the first faulty line wins, and lines are counted from the
    file's start, blank ones included.  No child outlives the call.
    """
    columns, counts, line_of = tuple(array(code) for code in "qqd"), [], []
    children = [None]  # each range's child and pipe; the first range is this process's
    try:
        with open(path, "rb", buffering=0) as raw:
            bounds = _bounds(raw)
            lines = _lines(raw, 0, bounds[1])
            first = _utf8(lines.readline())
            if not first:
                raise DataFormatError(f"batch file {path} is empty")
            try:
                header = json.loads(first)
            except (ValueError, RecursionError) as exc:
                raise DataFormatError(f"bad batch header: {exc}") from exc
            if not isinstance(header, dict) or not {"scheme", "d1", "d2", "sigma"} <= set(header):
                raise DataFormatError("batch header must carry scheme, d1, d2, sigma")
            unknown = [k for k in header if k not in ("scheme", "d1", "d2", "sigma", "seed")]
            if unknown:
                raise DataFormatError(f"unknown batch header keys: {', '.join(unknown)}")
            scheme = scheme_from_json(header["scheme"])
            try:  # the header's fields, read by the batch's own rules: a batch of no period
                empty = ObservationBatch(scheme, header["d1"], header["d2"], header["sigma"],
                                         [], [], [], [0], header.get("seed"))
            except ArgumentError as exc:
                raise DataFormatError(f"bad batch header fields: {exc}") from exc
            for a, b in zip(bounds[1:-1], bounds[2:]):
                _start(children, _parsed, raw, a, b)
            base = 1  # lines before the range: the header's, then each range's
            for a, b, child in zip(bounds, bounds[1:], children):
                sizes = [len(column) for column in columns]
                report = _receive(child, [column.frombytes for column in columns])
                if report is None:  # parsed here, over any part a child sent
                    for column, size in zip(columns, sizes):
                        del column[size:]
                    report = _parse_range(_lines(raw, a, b) if a else lines, columns, base + 1)
                counts += report[0]
                line_of += [base + line for line in report[1]]
                base += report[2]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read batch file {path}: {exc}") from exc
    finally:
        _reap(children)
    rows, cols, y = (np.frombuffer(column, column.typecode) for column in columns)
    try:
        return replace(empty, rows=rows, cols=cols, y=y, offsets=np.cumsum([0] + counts))
    except ArgumentError as exc:
        where = "" if exc.period is None else f"record on line {line_of[exc.period]}: "
        raise DataFormatError(f"{where}{exc}") from exc
