"""Tests for matching mechanisms, observation probability, and reward draws."""
import errno
import json
import multiprocessing
import os
import signal
import threading
import warnings
from array import array
from fractions import Fraction
from math import comb
from multiprocessing.connection import Connection

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from matchlearn import (
    ArgumentError,
    DataFormatError,
    InfeasibleTruncationError,
    Matching,
    ObservationBatch,
    OneToMany,
    OneToOne,
    OutsideTheoryWarning,
    TwoSided,
    entrywise_probability,
    generate_low_rank,
    load_batch,
    main,
    observe,
    sample_matching,
    save_batch,
    scheme_from_json,
    scheme_to_json,
)
from matchlearn import samplers
from matchlearn.samplers import _CHUNK, _prefixes


def make_two_sided(**kwargs) -> TwoSided:
    params = dict(p1=0.8, p2=0.8, c_r=0.5, c_s=0.5, gamma=0.2)
    params.update(kwargs)
    return TwoSided(**params)


def truncation_region(d1, d2, c_r, c_s, gamma) -> np.ndarray:
    """The kept cells of the (d1+1) x (d2+1) grid of arrival counts, the test oracle."""
    k1 = np.arange(d1 + 1)[:, None]
    k2 = np.arange(d2 + 1)[None, :]
    return (
        (k1 >= c_r * d1)
        & (k2 >= c_s * d2)
        & ((k1 >= (1 + gamma) * k2) | (k2 >= (1 + gamma) * k1))
    )


def truncated_pmf_grid(d1, p1, d2, p2, c_r, c_s, gamma) -> np.ndarray:
    """Exact normalized pmf on the (d1+1) x (d2+1) grid, the test oracle."""
    pmf = binom.pmf(np.arange(d1 + 1)[:, None], d1, p1) * binom.pmf(np.arange(d2 + 1), d2, p2)
    pmf = np.where(truncation_region(d1, d2, c_r, c_s, gamma), pmf, 0.0)
    return pmf / pmf.sum()


def exact_truncated_moments(scheme: TwoSided, d1: int, d2: int) -> tuple[Fraction, Fraction]:
    """The truncation region's mass under the untruncated product law, and
    nu = E[min(B_r, B_s)]/(d1 d2), in exact rational arithmetic: the
    oracle for regions of any mass."""
    p1, p2 = Fraction(scheme.p1), Fraction(scheme.p2)
    mass = weighted = Fraction(0)
    for k1 in range(d1 + 1):
        for k2 in range(d2 + 1):
            if (k1 >= scheme.c_r * d1 and k2 >= scheme.c_s * d2
                    and (k1 >= (1 + scheme.gamma) * k2 or k2 >= (1 + scheme.gamma) * k1)):
                w = (comb(d1, k1) * p1**k1 * (1 - p1) ** (d1 - k1)
                     * comb(d2, k2) * p2**k2 * (1 - p2) ** (d2 - k2))
                mass += w
                weighted += w * min(k1, k2)
    return mass, weighted / mass / (d1 * d2)


def draw_arrivals(scheme: TwoSided, d1: int, d2: int, n: int, rng) -> np.ndarray:
    """n (B_r, B_s) draws through the sampler's own inverse-CDF draw."""
    return np.column_stack(scheme.arrivals(d1, d2, rng, n))


def draw_matchings(scheme, d1: int, d2: int, n: int, rng, via: str) -> list:
    """n matchings as (rows, cols) pairs: n ``sample_matching`` calls, or the
    periods of one n-period ``observe`` batch."""
    if via == "sample_matching":
        return [(m.rows, m.cols) for m in
                (sample_matching(scheme, d1, d2, rng) for _ in range(n))]
    truth = generate_low_rank(d1, d2, 1, 1.0, np.random.default_rng(0))
    batch = observe(truth, scheme, n, 0.0, rng)
    return [(rec.rows, rec.cols) for rec in batch.records]


VIAS = ("sample_matching", "observe")


# ---------------------------------------------------------------------------
# sample_matching
# ---------------------------------------------------------------------------

def test_one_to_one_unique_matching():
    m = sample_matching(OneToOne(), 1, 1, np.random.default_rng(0))
    assert m.pairs == {(0, 0)}


def test_one_to_one_two_by_two_is_uniform():
    n = 20000
    for via in VIAS:
        matchings = draw_matchings(OneToOne(), 2, 2, n, np.random.default_rng(1), via)
        hits = sum(set(zip(rows.tolist(), cols.tolist())) == {(0, 0), (1, 1)}
                   for rows, cols in matchings)
        assert abs(hits / n - 0.5) <= 0.02, via


def test_one_to_many_row_degree_is_binomial():
    scheme = OneToMany(K=2, p0=0.5)
    n = 20000
    for via in VIAS:
        counts = np.zeros(3)
        for rows, _ in draw_matchings(scheme, 1, 4, n, np.random.default_rng(2), via):
            counts[rows.size] += 1
        assert np.max(np.abs(counts / n - np.array([0.25, 0.5, 0.25]))) <= 0.02, via


def test_one_to_one_marginal_frequency():
    rng = np.random.default_rng(3)
    d1, d2, n = 3, 5, 20000
    counts = np.zeros(d2)
    for _ in range(n):
        m = sample_matching(OneToOne(), d1, d2, rng)
        j = m.cols[np.flatnonzero(m.rows == 0)[0]]
        counts[j] += 1
    nu = 1.0 / d2
    band = 3 * np.sqrt(nu * (1 - nu) / n)
    assert np.max(np.abs(counts / n - nu)) <= band


def test_one_to_many_feasibility_gate():
    with pytest.raises(ArgumentError):
        sample_matching(OneToMany(K=3, p0=0.5), 4, 11, np.random.default_rng(0))


def test_one_to_one_needs_wide_matrix():
    with pytest.raises(ArgumentError):
        sample_matching(OneToOne(), 5, 4, np.random.default_rng(0))


@pytest.mark.parametrize(
    "scheme, d1, d2",
    [
        (OneToOne(), 6, 11),
        (OneToMany(K=2, p0=0.7), 5, 13),
        (make_two_sided(), 6, 14),
    ],
    ids=["oto", "otm", "tside"],
)
def test_sampled_matchings_satisfy_scheme_invariants(scheme, d1, d2):
    for via in VIAS:
        drawn = draw_matchings(scheme, d1, d2, 2000, np.random.default_rng(17), via)
        for rows, cols in drawn:
            assert np.unique(cols).size == cols.size
            assert np.all(np.diff(rows) >= 0)  # every scheme lists its rows in order
        rows, cols = (np.concatenate([m[k] for m in drawn]) for k in range(2))
        offsets = np.cumsum([0] + [m[0].size for m in drawn])
        # The batch validator checks every period against the scheme.
        ObservationBatch(scheme, d1, d2, 0.0, rows, cols, np.zeros(rows.size), offsets)


def test_two_sided_pair_count_is_min_of_arrivals():
    # Same seed: the matching sampler's first consumption is one uniform,
    # inverted through the arrival CDF, so the arrival counts can be
    # replayed from the enumerated pmf.
    scheme = make_two_sided()
    cdf = np.cumsum(truncated_pmf_grid(6, scheme.p1, 14, scheme.p2,
                                       scheme.c_r, scheme.c_s, scheme.gamma))
    for seed in range(200):
        u = np.random.default_rng(seed).random()
        b_r, b_s = divmod(int(np.searchsorted(cdf, u * cdf[-1], side="right")), 15)
        m = sample_matching(scheme, 6, 14, np.random.default_rng(seed))
        assert m.size == min(b_r, b_s)
        # Rows are hit at most once on the two-sided mechanism.
        assert np.unique(m.rows).size == m.size


# ---------------------------------------------------------------------------
# truncated-binomial arrival draws
# ---------------------------------------------------------------------------

def test_truncated_binomial_matches_enumerated_pmf():
    d1, p1, d2, p2, c_r, c_s, gamma = 10, 0.8, 40, 0.8, 0.5, 0.5, 0.2
    oracle = truncated_pmf_grid(d1, p1, d2, p2, c_r, c_s, gamma)
    n = 50000
    draws = draw_arrivals(TwoSided(p1, p2, c_r, c_s, gamma), d1, d2, n,
                          np.random.default_rng(29))
    empirical = np.zeros_like(oracle)
    np.add.at(empirical, (draws[:, 0], draws[:, 1]), 1)
    empirical /= n
    tv = 0.5 * np.sum(np.abs(empirical - oracle))
    assert tv <= 0.02


def test_truncated_binomial_respects_floors():
    d1, p1, d2, p2, c_r, c_s, gamma = 8, 0.6, 20, 0.7, 0.4, 0.3, 0.3
    draws = draw_arrivals(TwoSided(p1, p2, c_r, c_s, gamma), d1, d2, 500,
                          np.random.default_rng(31))
    for b_r, b_s in draws:
        assert b_r >= int(np.ceil(c_r * d1))
        assert b_s >= int(np.ceil(c_s * d2))
        assert b_r >= (1 + gamma) * b_s or b_s >= (1 + gamma) * b_r


def test_truncated_binomial_infeasible_region_errors():
    # B_r = B_s = 10 is the only cell above both floors, and it is not
    # separated: the region is empty, and every entry point says so
    # before it draws anything.
    scheme = TwoSided(0.8, 0.8, 0.999, 0.999, 1.0)
    m = generate_low_rank(10, 10, 1, 1.0, np.random.default_rng(0))
    rng = np.random.default_rng(37)
    state = rng.bit_generator.state
    with pytest.raises(InfeasibleTruncationError):
        sample_matching(scheme, 10, 10, rng)
    with pytest.raises(InfeasibleTruncationError):
        observe(m, scheme, 5, 1.0, rng)
    with pytest.raises(InfeasibleTruncationError):
        entrywise_probability(scheme, 10, 10)
    assert rng.bit_generator.state == state


def test_two_sided_feasibility_is_the_emptiness_of_the_truncation_region():
    # feasible decides from two corners in O(1); the oracle looks at every cell.
    cs, gammas, dims = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99), (0.0, 0.2, 0.5, 1.0, 2.5), range(1, 13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OutsideTheoryWarning)
        schemes = [TwoSided(0.5, 0.5, c_r, c_s, gamma)
                   for c_r in cs for c_s in cs for gamma in gammas]
    verdicts = {True: 0, False: 0}
    for scheme in schemes:
        for d1 in dims:
            for d2 in dims:
                kept = truncation_region(d1, d2, scheme.c_r, scheme.c_s, scheme.gamma).any()
                try:
                    scheme.feasible(d1, d2)
                    feasible = True
                except InfeasibleTruncationError:
                    feasible = False
                assert feasible == kept, (scheme, d1, d2)
                verdicts[feasible] += 1
    assert min(verdicts.values()) > 1000  # both verdicts are well sampled


def test_a_batch_holds_only_dims_its_scheme_can_hold():
    for scheme, d1, d2 in [(OneToOne(), 3, 2), (OneToMany(3, 0.5), 2, 5),
                           (TwoSided(0.8, 0.8, 0.999, 0.999, 1.0), 10, 10)]:
        with pytest.raises(ArgumentError):
            ObservationBatch(scheme, d1, d2, 0.5, [], [], [], [0])


def test_arrival_table_is_read_only_and_shared_by_equal_schemes():
    table = TwoSided(0.8, 0.8, 0.3, 0.3, 0.2).arrival_pmf(20, 60)
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    assert TwoSided(0.8, 0.8, 0.3, 0.3, 0.2).arrival_pmf(20, 60) is table
    assert TwoSided(0.8, 0.8, 0.3, 0.3, 0.2).arrival_pmf(20, 61) is not table


def test_truncated_binomial_rejects_bad_parameters():
    # TwoSided holds the only copy of the arrival parameters' checks.
    with pytest.raises(ArgumentError):
        TwoSided(0.0, 0.5, 0.1, 0.1, 0.2)
    with pytest.raises(ArgumentError):
        TwoSided(0.5, 0.5, 1.0, 0.1, 0.2)
    with pytest.raises(ArgumentError):
        TwoSided(0.5, 0.5, 0.1, 0.1, -0.5)


# ---------------------------------------------------------------------------
# entrywise_probability
# ---------------------------------------------------------------------------

def test_nu_one_to_one_closed_form():
    assert entrywise_probability(OneToOne(), 100, 750).nu == 1.0 / 750


def test_nu_one_to_many_closed_form():
    est = entrywise_probability(OneToMany(K=5, p0=0.8), 100, 750)
    assert est.nu == pytest.approx(4.0 / 750, rel=1e-15)


def test_nu_two_sided_matches_enumerated_expectation():
    # The last region holds a total mass below 1e-300, which a pmf
    # normalised in linear space would lose to underflow.
    cases = [
        (make_two_sided(), 10, 40),
        (TwoSided(0.6, 0.7, 0.4, 0.3, 0.3), 8, 20),
        (TwoSided(1e-40, 0.5, 0.9, 0.1, 0.1), 10, 10),
    ]
    for scheme, d1, d2 in cases:
        mass, exact = exact_truncated_moments(scheme, d1, d2)
        nu = entrywise_probability(scheme, d1, d2).nu
        assert nu == pytest.approx(float(exact), rel=1e-12, abs=0)
    assert mass < Fraction(1, 10**300)


# ---------------------------------------------------------------------------
# observe
# ---------------------------------------------------------------------------

def test_observe_noiseless_rewards_are_exact():
    m = generate_low_rank(4, 8, 2, 5.0, np.random.default_rng(43))
    batch = observe(m, OneToOne(), 50, 0.0, np.random.default_rng(44))
    for rec in batch.records:
        expected = m.values[rec.rows, rec.cols]
        assert np.array_equal(rec.y, expected)


def test_observe_noise_mean_and_variance():
    sigma = 0.7
    m = generate_low_rank(2, 2, 1, 3.0, np.random.default_rng(47))
    batch = observe(m, OneToOne(), 20000, sigma, np.random.default_rng(48))
    target = m.values[0, 0]
    pool = np.array([
        rec.y[k]
        for rec in batch.records
        for k in np.flatnonzero((rec.rows == 0) & (rec.cols == 0))
    ])
    assert pool.size >= 9500  # ~ T * nu = 10^4 revealed instances
    assert abs(pool.mean() - target) <= 4 * sigma / 100
    centered = pool - target
    assert 0.9 * sigma**2 <= centered.var(ddof=1) <= 1.1 * sigma**2


def test_observe_noise_scales_linearly_with_sigma():
    # Same seed => same matchings and same standard normals, so residuals
    # scale exactly with sigma.  This pins the draw order.
    m = generate_low_rank(3, 6, 1, 2.0, np.random.default_rng(53))
    b1 = observe(m, OneToOne(), 20, 1.0, np.random.default_rng(7))
    b2 = observe(m, OneToOne(), 20, 2.0, np.random.default_rng(7))
    for r1, r2 in zip(b1.records, b2.records):
        assert np.array_equal(r1.cols, r2.cols)
        resid1 = r1.y - m.values[r1.rows, r1.cols]
        resid2 = r2.y - m.values[r2.rows, r2.cols]
        assert np.allclose(resid2, 2.0 * resid1, rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "scheme, d1, d2, T",
    [
        (OneToOne(), 3, 5, 20000),
        (OneToMany(K=2, p0=0.5), 2, 6, 20000),
        (make_two_sided(c_r=0.3, c_s=0.3), 4, 9, 20000),
    ],
    ids=["oto", "otm", "tside"],
)
def test_observation_frequency_matches_nu(scheme, d1, d2, T):
    m = generate_low_rank(d1, d2, 1, 1.0, np.random.default_rng(59))
    est = entrywise_probability(scheme, d1, d2)
    batch = observe(m, scheme, T, 0.0, np.random.default_rng(61))
    i, j = d1 - 1, d2 - 1
    count = sum(
        bool(np.any((rec.rows == i) & (rec.cols == j)))
        for rec in batch.records
    )
    assert abs(count / T - est.nu) <= 4 * np.sqrt(est.nu / T)


every_scheme = pytest.mark.parametrize(
    "scheme", [OneToOne(), OneToMany(2, 0.6), make_two_sided()],
    ids=["one_to_one", "one_to_many", "two_sided"])


@every_scheme
def test_observed_index_arrays_are_contiguous(scheme):
    # A strided view would pin its whole base array: two-sided rows once came as
    # one column of an (N, 2) array, 16 bytes held per 8-byte index.
    truth = generate_low_rank(6, 20, 2, 1.0, np.random.default_rng(0))
    batch = observe(truth, scheme, 30, 0.5, np.random.default_rng(1))
    for a in (batch.rows, batch.cols, batch.y):
        assert a.strides == (8,)
        assert a.base is None or a.base.nbytes == a.nbytes


def test_observe_validates_arguments():
    m = generate_low_rank(3, 6, 1, 1.0, np.random.default_rng(0))
    for T in (0, 2.5, True, "3", None):
        with pytest.raises(ArgumentError, match="T must be an integer"):
            observe(m, OneToOne(), T, 1.0, np.random.default_rng(0))
    bad_sigma = "sigma must be (finite and nonnegative|a finite number)"
    for sigma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ArgumentError, match=bad_sigma):
            observe(m, OneToOne(), 5, sigma, np.random.default_rng(0))
        with pytest.raises(ArgumentError, match=bad_sigma):
            ObservationBatch(OneToOne(), 1, 1, sigma, [0], [0], [0.0], [0, 1])
    assert len(observe(m, OneToOne(), np.int64(3), 0.0, np.random.default_rng(0))) == 3


# ---------------------------------------------------------------------------
# scheme validation and serialization
# ---------------------------------------------------------------------------

def test_scheme_parameter_validation():
    with pytest.raises(ArgumentError):
        OneToMany(K=0, p0=0.5)
    with pytest.raises(ArgumentError):
        OneToMany(K=2, p0=0.0)
    with pytest.raises(ArgumentError):
        make_two_sided(p1=1.0)
    with pytest.raises(ArgumentError):
        make_two_sided(c_r=-0.1)
    with pytest.raises(ArgumentError):
        make_two_sided(gamma=-1.0)


def test_two_sided_rejects_nan_gamma():
    # `gamma < 0` is false for NaN; the check must still refuse it.
    with pytest.raises(ArgumentError, match="gamma"):
        TwoSided(0.8, 0.8, 0.3, 0.3, float("nan"))


@pytest.mark.parametrize("scheme", [OneToOne(), OneToMany(1, 0.5),
                                    TwoSided(0.8, 0.8, 0.3, 0.3, 0.2)],
                         ids=["one_to_one", "one_to_many", "two_sided"])
@pytest.mark.parametrize("d1, d2", [(0, 0), (-3, 5), (3, 0)])
def test_every_scheme_rejects_non_positive_dims(scheme, d1, d2):
    for call in (scheme.feasible, scheme.nu,
                 lambda d1, d2: scheme.draw(d1, d2, np.random.default_rng(0), 1),
                 lambda d1, d2: Matching(d1, d2, [], [])):
        with pytest.raises(ArgumentError, match="dimensions must be positive"):
            call(d1, d2)


@pytest.mark.parametrize("bad", ["one_to_one", None, OneToOne], ids=["str", "none", "class"])
def test_batch_builders_refuse_a_scheme_that_is_not_a_matching_scheme(bad):
    truth = generate_low_rank(2, 3, 1, 1.0, np.random.default_rng(0))
    calls = (lambda: ObservationBatch(bad, 1, 2, 0.5, [0], [1], [1.0], [0, 1]),
             lambda: observe(truth, bad, 3, 0.5, np.random.default_rng(1)),
             lambda: sample_matching(bad, 2, 3, np.random.default_rng(1)))
    for call in calls:
        with pytest.raises(ArgumentError, match="scheme must be a matching scheme"):
            call()


def test_two_sided_untruncated_flagged_outside_theory():
    with pytest.warns(OutsideTheoryWarning):
        TwoSided(p1=0.8, p2=0.8, c_r=0.0, c_s=0.0, gamma=0.0)


def test_scheme_json_round_trip():
    for scheme in (OneToOne(), OneToMany(K=3, p0=0.8), make_two_sided()):
        assert scheme_from_json(scheme_to_json(scheme)) == scheme
    with pytest.raises(DataFormatError):
        scheme_from_json({"kind": "mystery"})
    with pytest.raises(DataFormatError):
        scheme_from_json({"kind": "one_to_many", "K": 2})
    with pytest.raises(DataFormatError, match="unknown keys for scheme 'one_to_one': K, p0$"):
        scheme_from_json({"kind": "one_to_one", "K": 3, "p0": 0.5})


_TWO_SIDED = dict(kind="two_sided", p1=0.8, p2=0.8, c_r=0.5, c_s=0.5, gamma=0.2)


@pytest.mark.parametrize("obj", [
    {"kind": "one_to_many", "K": 2.9, "p0": 0.5},
    {"kind": "one_to_many", "K": 2.0, "p0": 0.5},
    {"kind": "one_to_many", "K": "2", "p0": 0.5},
    {"kind": "one_to_many", "K": True, "p0": 0.5},
    {"kind": "one_to_many", "K": 2, "p0": "0.5"},
    {"kind": "one_to_many", "K": 2, "p0": True},
    {"kind": "one_to_many", "K": 2, "p0": None},
    {**_TWO_SIDED, "gamma": "0.2"},
    {**_TWO_SIDED, "p1": False},
    {**_TWO_SIDED, "c_s": float("nan")},
    {**_TWO_SIDED, "c_r": [0.5]},
], ids=["K_float", "K_integral_float", "K_string", "K_bool", "p0_string", "p0_bool",
        "p0_null", "gamma_string", "p1_bool", "c_s_nan", "c_r_list"])
def test_scheme_from_json_takes_only_json_integers_and_numbers(obj):
    # Nothing is coerced: int("2"), int(2.9) and float(True) would all succeed.
    with pytest.raises(DataFormatError):
        scheme_from_json(obj)


def test_scheme_from_json_names_a_missing_field():
    with pytest.raises(DataFormatError) as info:
        scheme_from_json({"kind": "one_to_many", "K": 3})
    assert str(info.value) == "bad parameters for scheme 'one_to_many': missing field 'p0'"


def test_scheme_from_json_reads_an_integer_real_as_a_float():
    assert scheme_from_json({"kind": "one_to_many", "K": 2, "p0": 1}) == OneToMany(2, 1.0)


@pytest.mark.parametrize("cls, bad, good", [
    (OneToMany, (True, 0.8), (1, 0.8)),
    (OneToMany, (3, True), (3, 1.0)),
    (TwoSided, (0.8, 0.8, 0.3, 0.3, True), (0.8, 0.8, 0.3, 0.3, 1.0)),
])
def test_scheme_constructors_take_no_booleans_so_every_saved_batch_loads(tmp_path, cls, bad, good):
    # A boolean field would construct, observe and save, and the file would then
    # fail load_batch, whose scheme reader takes only JSON numbers.
    with pytest.raises(ArgumentError, match="must be (an integer|a finite number), got True"):
        cls(*bad)
    truth = generate_low_rank(2, 8, 1, 1.0, np.random.default_rng(0))
    batch = observe(truth, cls(*good), 6, 0.5, np.random.default_rng(1))
    save_batch(batch, tmp_path / "batch.jsonl")
    loaded = load_batch(tmp_path / "batch.jsonl")
    assert loaded.scheme == batch.scheme
    for name in ("rows", "cols", "y", "offsets"):
        assert np.array_equal(getattr(loaded, name), getattr(batch, name))


@pytest.mark.parametrize("sigma, seed", [(True, 3), (0.5, True), (0.5, 2.5), (0.5, "3")])
def test_batch_rejects_a_sigma_or_seed_that_its_file_header_cannot_hold(sigma, seed):
    # Each of these used to build and save a batch whose file then failed load_batch.
    truth = generate_low_rank(2, 8, 1, 1.0, np.random.default_rng(0))
    with pytest.raises(ArgumentError, match="sigma must be|seed must be"):
        observe(truth, OneToOne(), 3, sigma, np.random.default_rng(1), seed=seed)
    with pytest.raises(ArgumentError, match="sigma must be|seed must be"):
        ObservationBatch(OneToOne(), 1, 2, sigma, [0], [1], [1.0], [0, 1], seed)


@pytest.mark.parametrize("sigma, seed", [
    (np.float32(0.5), 3), (0.5, np.int64(3)), (np.float64(0.25), np.uint8(7)), (1, None),
])
def test_batch_stores_sigma_and_seed_as_python_numbers_so_its_file_loads(tmp_path, sigma, seed):
    # numpy scalars used to reach save_batch's json.dumps and raise a TypeError.
    truth = generate_low_rank(2, 8, 1, 1.0, np.random.default_rng(0))
    batch = observe(truth, OneToOne(), 3, sigma, np.random.default_rng(1), seed=seed)
    assert type(batch.sigma) is float and batch.sigma == sigma
    assert batch.seed == seed and (seed is None or type(batch.seed) is int)
    save_batch(batch, tmp_path / "batch.jsonl")
    loaded = load_batch(tmp_path / "batch.jsonl")
    assert (loaded.sigma, loaded.seed) == (batch.sigma, batch.seed)
    assert np.array_equal(loaded.y, batch.y)


def _whole_tile_prefixes(rng, d, counts):
    """The reference: the whole ``(T, d)`` tile permuted in one call."""
    tile = rng.permuted(np.broadcast_to(np.arange(d), (counts.size, d)), axis=1)
    return tile[np.arange(d) < counts[:, None]]


@pytest.mark.parametrize("d, T", [
    (_CHUNK // 8, 8),  # one chunk of 8 rows
    (_CHUNK // 8, 24),  # three whole chunks
    (_CHUNK // 8, 21),  # a ragged last chunk of 5 rows
    (_CHUNK + 1, 3),  # rows wider than a chunk: one row a chunk
    (5, 1),
])
@pytest.mark.parametrize("zeros", ["some", "all"])
def test_chunked_prefixes_equal_the_whole_tile_and_leave_the_same_stream(d, T, zeros):
    counts = np.random.default_rng([d, T]).integers(0, d + 1, size=T)
    counts[:: 1 if zeros == "all" else 3] = 0
    got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
    got, want = _prefixes(got_rng, d, counts), _whole_tile_prefixes(want_rng, d, counts)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert got_rng.random(3).tobytes() == want_rng.random(3).tobytes()


_STRICT_HEADER = {"scheme": {"kind": "one_to_one"}, "d1": 1, "d2": 2, "sigma": 0.5, "seed": 3}


@pytest.mark.parametrize("field, value", [
    ("d1", 2.9), ("d1", 1.0), ("d1", True), ("d2", "2"), ("d2", None),
    ("sigma", "1.0"), ("sigma", True), ("sigma", None), ("sigma", float("inf")), ("sigma", -0.5),
    ("seed", True), ("seed", 3.0), ("seed", "3"), ("extra", 1),
])
def test_load_batch_header_takes_only_json_integers_and_numbers(tmp_path, field, value):
    # A field that breaks the batch's rules, or a key it has no field for, is the header's fault.
    path = tmp_path / "header.jsonl"
    record = '\n{"t": 1, "pairs": [[0, 1]], "y": [1.0]}\n'
    path.write_text(json.dumps({**_STRICT_HEADER, field: value}) + record)
    message = (f"bad batch header fields: {field} " if field in _STRICT_HEADER
               else f"unknown batch header keys: {field}$")
    with pytest.raises(DataFormatError, match=f"^{message}"):
        load_batch(path)
    path.write_text(json.dumps(_STRICT_HEADER) + record)
    batch = load_batch(path)
    assert (batch.d1, batch.d2, batch.sigma, batch.seed) == (1, 2, 0.5, 3)


def test_load_batch_validates_in_memory_of_the_entries_not_the_header_dims(tmp_path):
    # Dense per-period row counts for these dimensions would take terabytes;
    # dimensions beyond int64 are JSON integers too.
    path = tmp_path / "huge.jsonl"
    records = '{"t": 1, "pairs": [[0, 1]], "y": [1.0]}\n{"t": 2, "pairs": [[7, 0]], "y": [2.0]}\n'
    for d1, d2 in ((10**12, 10**13), (2**70, 2**71)):
        header = {"scheme": dict(_TWO_SIDED), "d1": d1, "d2": d2, "sigma": 0.0}
        path.write_text(json.dumps(header) + "\n" + records)
        batch = load_batch(path)
        assert (batch.d1, batch.d2, len(batch)) == (d1, d2, 2)
    # Keys period * index would overflow int64: a typed error, not a wrong answer.
    path.write_text(json.dumps(header) + "\n" + records
                    + '{"t": 3, "pairs": [[0, 4611686018427387904]], "y": [3.0]}\n')
    with pytest.raises(DataFormatError, match="line 4: indices too large"):
        load_batch(path)


def test_matching_validation():
    with pytest.raises(ArgumentError):
        Matching(3, 4, np.array([0, 1]), np.array([2, 2]))  # column reuse
    with pytest.raises(ArgumentError):
        Matching(3, 4, np.array([3]), np.array([0]))  # row out of range
    m = Matching(3, 4, np.array([0, 2]), np.array([3, 1]))
    assert m.pairs == {(0, 3), (2, 1)}


def test_batch_jsonl_round_trip_and_determinism(tmp_path):
    m = generate_low_rank(3, 7, 2, 4.0, np.random.default_rng(67))
    scheme = OneToMany(K=2, p0=0.6)
    batch = observe(m, scheme, 25, 0.5, np.random.default_rng(5), seed=5)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_batch(batch, p1)
    save_batch(observe(m, scheme, 25, 0.5, np.random.default_rng(5), seed=5), p2)
    assert p1.read_bytes() == p2.read_bytes()  # byte-identical given the seed

    back = load_batch(p1)
    assert back.scheme == scheme
    assert (back.d1, back.d2, back.sigma, back.seed) == (3, 7, 0.5, 5)
    assert len(back) == len(batch)
    for r1, r2 in zip(back.records, batch.records):
        assert np.array_equal(r1.rows, r2.rows)
        assert np.array_equal(r1.cols, r2.cols)
        assert np.array_equal(r1.y, r2.y)


def test_load_batch_rejects_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("")
    with pytest.raises(DataFormatError):
        load_batch(path)
    path.write_text("not json\n")
    with pytest.raises(DataFormatError):
        load_batch(path)
    path.write_text('{"d1": 3, "d2": 4, "sigma": 0.0}\n')
    with pytest.raises(DataFormatError):
        load_batch(path)  # missing scheme
    header = '{"scheme": {"kind": "one_to_one"}, "d1": 3, "d2": 4, "sigma": 0.0, "seed": null}\n'
    path.write_text(header + '{"t": 1, "pairs": [[0, 0]], "y": [1.0, 2.0]}\n')
    with pytest.raises(DataFormatError):
        load_batch(path)  # misaligned y
    path.write_text(header + '{"t": 1, "pairs": [[0, 9]], "y": [1.0]}\n')
    with pytest.raises(DataFormatError):
        load_batch(path)  # column out of range


_MALFORMED_PAIRS = [
    ('[{"a": 1}]', "[1.0]"),  # a pair given as an object
    ("[[0, 1, 3]]", "[1.0]"),  # three elements
    ("[[0.9, 1.7]]", "[1.0]"),  # float indices
    ('[["1", "2"]]', "[1.0]"),  # string indices
    ("[[0, true]]", "[1.0]"),  # a boolean index
    ("[[0, 1]]", '["1.0"]'),  # a string reward
]
_MALFORMED_PAIRS_IDS = ["object", "three", "float", "string", "bool", "string_y"]


def malformed_pairs_lines(pairs: str, y: str) -> list[str]:
    """A two-sided file whose second record, on line 3, holds ``pairs`` and ``y``."""
    return [_TWO_SIDED_3x4, '{"t": 1, "pairs": [[0, 0]], "y": [1.0]}',
            f'{{"t": 2, "pairs": {pairs}, "y": {y}}}']


@pytest.mark.parametrize("pairs, y", _MALFORMED_PAIRS, ids=_MALFORMED_PAIRS_IDS)
def test_load_batch_rejects_malformed_pairs(tmp_path, pairs, y):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(malformed_pairs_lines(pairs, y)) + "\n")
    with pytest.raises(DataFormatError, match="line 3"):
        load_batch(path)


_ONE_TO_ONE_2x4 = '{"scheme": {"kind": "one_to_one"}, "d1": 2, "d2": 4, "sigma": 0.5}'
_TWO_SIDED_3x4 = ('{"scheme": {"kind": "two_sided", "p1": 0.8, "p2": 0.8, "c_r": 0.3, '
                  '"c_s": 0.3, "gamma": 0.2}, "d1": 3, "d2": 4, "sigma": 0.0}')
_GOOD_2x4 = '{"t": 1, "pairs": [[0, 1], [1, 2]], "y": [1.0, 2.0]}'
_BAD_DIMS = _TWO_SIDED_3x4.replace('"d1": 3, "d2": 4', '"d1": -5, "d2": 0')


_EDGE_CASES = [
    ([_ONE_TO_ONE_2x4, _GOOD_2x4, '{"pairs": [[0, 1], [1, %d]], "y": [1.0, 2.0]}' % 2**63],
     "bad batch record on line 3: pairs must be a list of [row, col] integer pairs"),
    ([_ONE_TO_ONE_2x4, _GOOD_2x4, '{"pairs": [[%d, 1], [1, 2]], "y": [1.0, 2.0]}' % -2**63],
     "record on line 3: row index out of range in period 1"),
    ([_TWO_SIDED_3x4, '{"pairs": [[0, 1]], "y": [1.0]}', '{"pairs": [], "y": []}'], [0, 1, 1]),
    ([_ONE_TO_ONE_2x4, _GOOD_2x4, "[1, 2]"], "bad batch record on line 3: missing pairs/y"),
    ([_ONE_TO_ONE_2x4, _GOOD_2x4, "", "   ", '{"pairs": [[0, 1], [1, 1]], "y": [1.0, 2.0]}'],
     "record on line 5: a column appears more than once in period 1"),
    ([_ONE_TO_ONE_2x4, _GOOD_2x4, "", _GOOD_2x4], [0, 2, 4]),
    ([_ONE_TO_ONE_2x4, _GOOD_2x4, '{"pairs": [[0, 1], [1, 2]], "y": [1.0, NaN]}'],
     "record on line 3: rewards must be finite in period 1"),
    ([_ONE_TO_ONE_2x4], [0]),
    # numpy cannot read a nested pair as an array; the loader names the rule it breaks.
    ([_ONE_TO_ONE_2x4, _GOOD_2x4, '{"pairs": [[0, [1]], [1, 2]], "y": [1.0, 2.0]}'],
     "bad batch record on line 3: pairs must be a list of [row, col] integer pairs"),
    # The header's dims are at fault, with or without a record to blame; so are dims its
    # scheme cannot hold, though every record would fit them.
    ([_BAD_DIMS], "bad batch header fields: dimensions must be positive, got (-5, 0)"),
    ([_BAD_DIMS, '{"pairs": [[0, 1]], "y": [1.0]}'],
     "bad batch header fields: dimensions must be positive, got (-5, 0)"),
    (['{"scheme": {"kind": "one_to_many", "K": 3, "p0": 0.5}, "d1": 2, "d2": 5, "sigma": 0.5}',
      '{"pairs": [[0, 0], [0, 1], [1, 4]], "y": [1.0, 2.0, 3.0]}'],
     "bad batch header fields: one-to-many needs d2 >= K*d1, got d2=5 < 3*2"),
    ([_TWO_SIDED_3x4.replace("0.3", "0.9").replace('"d2": 4', '"d2": 3'),
      '{"pairs": [[0, 1]], "y": [1.0]}'],
     "bad batch header fields: no arrival counts (B_r, B_s) with d1=3, d2=3 satisfy the "
     "truncation c_r=0.9, c_s=0.9, gamma=0.2"),
]
_EDGE_IDS = ["pair_2**63", "row_-2**63", "empty_two_sided", "array_record", "blank_lines_bad",
             "blank_line_good", "nan_y", "header_only", "nested_pair", "bad_dims_header_only",
             "bad_dims_with_record", "dims_one_to_many_cannot_hold",
             "dims_two_sided_cannot_hold"]


@pytest.mark.parametrize("lines, verdict", _EDGE_CASES, ids=_EDGE_IDS)
def test_load_batch_verdicts_at_the_edges(tmp_path, lines, verdict):
    # An accepted file is given by its offsets, a rejected one by the full message.
    path = tmp_path / "edge.jsonl"
    path.write_text("\n".join(lines) + "\n")
    if isinstance(verdict, str):
        with pytest.raises(DataFormatError) as info:
            load_batch(path)
        assert str(info.value) == verdict
    else:
        assert load_batch(path).offsets.tolist() == verdict


def test_load_batch_rejects_records_that_violate_the_scheme(tmp_path):
    path = tmp_path / "partial.jsonl"
    header = '{"scheme": {"kind": "one_to_one"}, "d1": 3, "d2": 4, "sigma": 0.0, "seed": null}\n'
    full = '{"t": 1, "pairs": [[0, 0], [1, 1], [2, 2]], "y": [1.0, 2.0, 3.0]}\n'
    partial = '{"t": 2, "pairs": [[0, 3], [2, 1]], "y": [1.0, 2.0]}\n'
    path.write_text(header + full + partial)
    with pytest.raises(DataFormatError, match="line 3"):
        load_batch(path)
    header = '{"scheme": {"kind": "one_to_many", "K": 1, "p0": 0.5}, "d1": 3, "d2": 4, "sigma": 0.0}\n'
    path.write_text(header + '{"t": 1, "pairs": [[0, 0], [0, 1]], "y": [1.0, 2.0]}\n')
    with pytest.raises(DataFormatError, match="line 2"):
        load_batch(path)
    path.write_text(header + '{"t": 1, "pairs": [[0, 0], [2, 1]], "y": [1.0, 2.0]}\n')
    assert len(load_batch(path)) == 1


# ---------------------------------------------------------------------------
# load_batch over several byte ranges
# ---------------------------------------------------------------------------


def loaded(path):
    """What load_batch makes of a file: the bytes of the batch's rows, cols, y and
    offsets, or the message of its DataFormatError."""
    try:
        batch = load_batch(path)
    except DataFormatError as exc:
        return str(exc)
    return [getattr(batch, name).tobytes() for name in ("rows", "cols", "y", "offsets")]


def failure(path) -> tuple[str, str]:
    """load_batch's DataFormatError on ``path``: its message and the repr of its cause."""
    with pytest.raises(DataFormatError) as info:
        load_batch(path)
    return str(info.value), repr(info.value.__cause__)


def count_children(monkeypatch) -> list:
    """A list that gains one entry per child started from now on."""
    started = []

    def start(children, *args):
        start_child(children, *args)
        if children[-1]:
            started.append(children[-1])

    start_child = samplers._start
    monkeypatch.setattr(samplers, "_start", start)
    return started


def split_into(monkeypatch, n: int) -> list:
    """Make load_batch cut any file of 16 bytes or more, and save_batch any batch of one
    entry or more, into up to ``n`` ranges; the returned list gains one entry per child
    started."""
    monkeypatch.setattr(samplers, "_SPLIT_BYTES", 16)
    monkeypatch.setattr(samplers, "_SPLIT_ENTRIES", 1)
    monkeypatch.setattr(samplers, "_usable_cpus", lambda: n)
    return count_children(monkeypatch)


def cut_at(monkeypatch, *cuts) -> None:
    """Make load_batch cut its file at exactly these byte offsets."""
    monkeypatch.setattr(samplers, "_bounds", lambda raw: [0, *cuts, None])


@pytest.mark.parametrize(
    "lines", [lines for lines, _ in _EDGE_CASES]
    + [malformed_pairs_lines(*case) for case in _MALFORMED_PAIRS],
    ids=_EDGE_IDS + _MALFORMED_PAIRS_IDS)
def test_split_loads_give_the_verdict_of_one_range(tmp_path, monkeypatch, lines):
    path = tmp_path / "edge.jsonl"
    path.write_text("\n".join(lines) + "\n")
    one = loaded(path)
    cause = failure(path) if isinstance(one, str) else None
    split_into(monkeypatch, 4)
    assert loaded(path) == one
    if cause:
        assert failure(path) == cause


# Blank and whitespace lines and empty periods, so that some cut falls before each.
_RAGGED = [_TWO_SIDED_3x4, '{"pairs": [[0, 1], [2, 3]], "y": [1.0, 2.0]}', "",
           '{"pairs": [], "y": []}', "  ", '{"pairs": [[1, 0]], "y": [3.5]}', "",
           '{"pairs": [], "y": []}', '{"pairs": [[2, 2], [0, 0], [1, 3]], "y": [4, 5, 6]}']
_BAD_LAST = '{"pairs": [[2, 2], [0, 2]], "y": [7.0, 8.0]}'  # a column twice
_BAD_Y = '{"pairs": [[2, 2]], "y": ["7.0"]}'
_NOT_UTF8 = "\udcff"  # written as the byte 0xff


@pytest.mark.parametrize("lines, verdict", [
    (_RAGGED, None),
    (_RAGGED + ["", _BAD_LAST], "record on line 11: a column appears more than once in period 5"),
    (_RAGGED + ["", _BAD_Y, _NOT_UTF8],
     "bad batch record on line 11: y must be a list of one number per pair"),
    (_RAGGED + [_NOT_UTF8, _BAD_Y], "cannot read batch file {path}: 'utf-8' codec can't decode "
                                    "byte 0xff in position 0: invalid start byte"),
], ids=["good", "bad_last", "bad_record_then_byte", "byte_then_bad_record"])
def test_split_loads_agree_with_one_range_for_every_cut(tmp_path, monkeypatch, lines, verdict):
    # Every line start after the header, as one cut and as one of two.
    data = ("\n".join(lines) + "\n").encode("utf-8", "surrogateescape")
    path = tmp_path / "ragged.jsonl"
    path.write_bytes(data)
    one = loaded(path)
    assert isinstance(one, list) if verdict is None else one == verdict.format(path=path)
    starts = [i + 1 for i, byte in enumerate(data[:-1]) if byte == ord("\n")][1:]
    for k, cut in enumerate(starts):
        cut_at(monkeypatch, cut)
        assert loaded(path) == one, cut
        cut_at(monkeypatch, *sorted({cut, starts[(k + 3) % len(starts)]}))
        assert loaded(path) == one, cut


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_split_loads_count_lines_at_every_universal_newline(tmp_path, monkeypatch, newline):
    # Lines end at "\n" alone, as in JSON Lines: a "\r" before it is whitespace to JSON.
    # A lone "\r" ends no line, so that file is one line, a header followed by extra data.
    path = tmp_path / "newlines.jsonl"
    lines = _RAGGED + _RAGGED[1:] * 2 + ["", _BAD_LAST, '{"pairs": [], "y": []}']
    path.write_text("\n".join(lines) + "\n")
    expected = loaded(path)
    assert expected == "record on line 27: a column appears more than once in period 15"
    path.write_bytes(("\n".join(lines) + "\n").replace("\n", newline).encode())
    if newline == "\r":
        expected = (f"bad batch header: Extra data: line 1 column {len(lines[0]) + 2} "
                    f"(char {len(lines[0]) + 1})")
    assert loaded(path) == expected
    for n in (2, 3, 4):
        started = split_into(monkeypatch, n)
        assert loaded(path) == expected
        assert len(started) == (n - 1 if newline == "\r\n" else 0)


def test_the_cli_refuses_a_batch_file_whose_lines_end_in_a_lone_carriage_return(
        tmp_path, capsys):
    # save_batch's lines with each "\n" made a lone "\r": one line, which is no header.
    truth = generate_low_rank(2, 4, 1, 3.0, np.random.default_rng(11))
    path, config = tmp_path / "cr.jsonl", tmp_path / "config.json"
    save_batch(observe(truth, OneToOne(), 40, 0.5, np.random.default_rng(12), seed=3), path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    config.write_text(json.dumps(dict(d1=2, d2=4, r=1, scheme={"kind": "one_to_one"}, T=40,
                                      seed=3, m=1, eta=0.7, sigma=0.5, scale=1.0,
                                      replications=1, q_spec="entry(0,0)")))
    message = "bad batch header: Extra data: line 1 column 79 (char 78)"
    assert failure(path) == (message, "JSONDecodeError('Extra data: line 1 column 79 (char 78)')")
    assert main(["infer", str(path), str(config), "--q", "entry(0,0)"]) == 4
    assert json.loads(capsys.readouterr().err) == {"error": "DataFormatError", "message": message}


@pytest.mark.parametrize("bad, message, cause", [
    ('{"pairs": [[0, 1]], "y": [true]}',
     "bad batch record on line 42: y must be a list of one number per pair",
     "ValueError('y must be a list of one number per pair')"),
    (_NOT_UTF8, "cannot read batch file {path}: 'utf-8' codec can't decode byte 0xff in "
                "position 0: invalid start byte",
     "UnicodeDecodeError('utf-8', b'\\xff\\n', 0, 1, 'invalid start byte')"),
], ids=["bad_record", "not_utf8"])
def test_a_bad_line_in_a_childs_range_is_named_by_its_line_in_the_file(
        tmp_path, monkeypatch, capfd, bad, message, cause):
    # The child that meets it ends quietly; the parent parses its range again and says why.
    path = tmp_path / "late.jsonl"
    lines = ([_TWO_SIDED_3x4] + ["", '{"pairs": [[0, 1]], "y": [1.0]}'] * 20 + [bad]
             + [_RAGGED[1]] * 5)
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    assert failure(path) == (message.format(path=path), cause)
    started = split_into(monkeypatch, 4)
    assert failure(path) == (message.format(path=path), cause)
    assert len(started) == 3
    assert capfd.readouterr().err == ""


def test_a_bad_line_in_the_parents_range_stops_a_child_blocked_on_a_full_pipe(
        tmp_path, monkeypatch):
    # The child's range holds far more than a pipe buffers, and the parent meets
    # its bad line only at the end of its own range.
    header = '{"scheme": {"kind": "one_to_one"}, "d1": 4, "d2": 8, "sigma": 0.0}'
    good = '{"pairs": [[0, 1], [1, 2], [2, 3], [3, 4]], "y": [1.0, 2.0, 3.0, 4.0]}'
    bad = good.replace("4.0]", '"4.0"]')
    path = tmp_path / "early.jsonl"
    path.write_text("\n".join([header] + [good] * 4000 + [bad] + [good] * 4000) + "\n")
    message = "bad batch record on line 4002: y must be a list of one number per pair"
    assert loaded(path) == message
    started = split_into(monkeypatch, 2)
    with open(path, "rb", buffering=0) as raw:
        cut = samplers._bounds(raw)[1]
    assert path.read_bytes()[:cut].endswith((bad + "\n").encode())
    assert loaded(path) == message
    assert len(started) == 1


@every_scheme
def test_a_saved_batch_loads_the_same_from_one_range_or_four(tmp_path, monkeypatch, scheme):
    truth = generate_low_rank(8, 24, 2, 3.0, np.random.default_rng(7))
    batch = observe(truth, scheme, 300, 0.5, np.random.default_rng(8), seed=9)
    path = tmp_path / "batch.jsonl"
    save_batch(batch, path)
    one = loaded(path)
    assert one == [getattr(batch, name).tobytes() for name in ("rows", "cols", "y", "offsets")]
    started = split_into(monkeypatch, 4)
    assert loaded(path) == one
    assert len(started) == 3


def test_records_longer_than_the_read_buffer_load_the_same_when_every_cut_is_inside_one(
        tmp_path, monkeypatch):
    # Five one-to-one periods at 3000 x 3000: each record is about 100 KB, longer than the
    # 64 KiB the lines are read in.  Each quarter of the file ends inside records 2 to 4,
    # and each cut is moved over reads to its record's end.
    rng = np.random.default_rng(5)
    batch = ObservationBatch(OneToOne(), 3000, 3000, 0.5, np.tile(np.arange(3000), 5),
                             np.concatenate([rng.permutation(3000) for _ in range(5)]),
                             rng.standard_normal(15000), np.arange(0, 15001, 3000), seed=1)
    path = tmp_path / "long.jsonl"
    save_batch(batch, path)
    data = path.read_bytes()
    line_ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    assert min(np.diff(line_ends)) > 2**16
    one = loaded(path)
    assert one == [getattr(batch, name).tobytes() for name in ("rows", "cols", "y", "offsets")]
    started = split_into(monkeypatch, 4)
    with open(path, "rb", buffering=0) as raw:
        assert all(data[k * len(data) // 4 - 1] != ord("\n") for k in (1, 2, 3))
        assert samplers._bounds(raw) == [0, *line_ends[2:5], None]
    assert loaded(path) == one
    assert len(started) == 3
    last = data[line_ends[4]:].decode()
    path.write_bytes(data[:line_ends[4]] + last.replace('"y": [', '"y": [true, ').encode())
    message = ("bad batch record on line 6: y must be a list of one number per pair",
               "ValueError('y must be a list of one number per pair')")
    assert failure(path) == message
    monkeypatch.undo()
    assert failure(path) == message


def _fork_fails(process):
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


def test_a_file_replaced_during_a_load_is_read_as_it_was_opened(tmp_path, monkeypatch):
    # The children read the file the load opened, not whatever its path names by then.
    truth = generate_low_rank(8, 24, 2, 3.0, np.random.default_rng(7))
    path, other = tmp_path / "batch.jsonl", tmp_path / "other.jsonl"
    save_batch(observe(truth, OneToOne(), 60, 0.5, np.random.default_rng(8)), path)
    save_batch(observe(truth, OneToOne(), 60, 0.5, np.random.default_rng(9)), other)
    one = loaded(path)
    started = split_into(monkeypatch, 3)
    start = samplers._start

    def replace_then_start(*args):
        if other.exists():
            os.replace(other, path)
        start(*args)

    monkeypatch.setattr(samplers, "_start", replace_then_start)
    assert loaded(path) == one
    assert len(started) == 2


def test_a_child_reads_its_range_without_moving_the_position_it_shares(tmp_path):
    # A forked child shares the file's position with the process parsing beside it.
    path = tmp_path / "batch.jsonl"
    path.write_text('{"pairs": [[0, 1]], "y": [1.0]}\n' * 3)
    children, columns = [], tuple(array(code) for code in "qqd")
    with open(path, "rb", buffering=0) as raw:
        raw.seek(5)
        try:
            samplers._start(children, samplers._parsed, raw, 32, None)
            sinks = [column.frombytes for column in columns]
            assert samplers._receive(children[0], sinks) == ([1, 1], [1, 2], 2)
        finally:
            samplers._reap(children)
        assert raw.tell() == 5
    assert columns[0].tolist() == [0, 0] and columns[2].tolist() == [1.0, 1.0]


# ---------------------------------------------------------------------------
# save_batch over several period ranges
# ---------------------------------------------------------------------------


def reference_bytes(batch: ObservationBatch) -> bytes:
    """What save_batch writes, one ``json.dumps`` per line: the header, then each record."""
    header = {"scheme": scheme_to_json(batch.scheme), "d1": batch.d1, "d2": batch.d2,
              "sigma": batch.sigma, "seed": batch.seed}
    records = [{"t": t, "pairs": np.column_stack((r.rows, r.cols)).tolist(), "y": r.y.tolist()}
               for t, r in enumerate(batch.records, start=1)]
    return "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in [header, *records]).encode()


def _draw(scheme, T: int, **seed) -> ObservationBatch:
    truth = generate_low_rank(8, 24, 2, 3.0, np.random.default_rng(7))
    return observe(truth, scheme, T, 0.5, np.random.default_rng(8), **seed)


_WRITTEN = {
    "one_to_one": _draw(OneToOne(), 300, seed=9),
    "one_to_many": _draw(OneToMany(2, 0.6), 300, seed=9),
    "two_sided": _draw(make_two_sided(), 300, seed=9),
    "one_to_many_empty_periods": _draw(OneToMany(1, 0.1), 60, seed=9),
    "two_sided_empty_periods": ObservationBatch(make_two_sided(), 3, 4, 0.0, [2, 0, 1],
                                                [3, 0, 2], [1.5, -2e-7, 0.25], [0, 0, 2, 2, 3, 3]),
    "one_period": _draw(OneToOne(), 1, seed=9),
    "two_periods": _draw(OneToMany(2, 0.6), 2, seed=9),
    "no_seed": _draw(OneToOne(), 40),
    "no_period": ObservationBatch(OneToOne(), 2, 4, 0.5, [], [], [], [0]),
}


@pytest.mark.parametrize("name", _WRITTEN)
def test_a_batch_is_written_the_same_in_any_number_of_ranges(tmp_path, monkeypatch, name):
    batch, path = _WRITTEN[name], tmp_path / "batch.jsonl"
    save_batch(batch, path)
    assert path.read_bytes() == reference_bytes(batch)
    for n in (2, 3, 4):
        started = split_into(monkeypatch, n)
        save_batch(batch, path)
        assert path.read_bytes() == reference_bytes(batch), n
        assert bool(started) == (len(batch) > 1), n


def test_a_split_load_without_pread_reads_each_range_after_a_seek(tmp_path, monkeypatch):
    # As where there is no os.pread, and so no fork (Windows): no child starts, and this
    # process reads each range from where a seek leaves the file.
    path = tmp_path / "batch.jsonl"
    save_batch(_WRITTEN["one_to_many"], path)
    one = loaded(path)
    monkeypatch.delattr(os, "pread")
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    started, offsets = split_into(monkeypatch, 4), []

    class Window(samplers._Window):
        def __init__(self, raw, start, stop):
            super().__init__(raw, start, stop)
            offsets.append(self._pos)

    monkeypatch.setattr(samplers, "_Window", Window)
    assert loaded(path) == one
    assert offsets == [None] * 7 and started == []  # one per cut looked up, one per range


def test_a_batch_below_two_splits_is_written_by_one_process(tmp_path, monkeypatch):
    # A study's batch, 30,000 entries, stays in one process at any CPU count.
    truth = generate_low_rank(50, 150, 2, 3.0, np.random.default_rng(7))
    batch = observe(truth, OneToOne(), 600, 0.5, np.random.default_rng(8))
    monkeypatch.setattr(samplers, "_usable_cpus", lambda: 4)
    started = count_children(monkeypatch)
    for least, children in ((samplers._SPLIT_ENTRIES, 0), (15001, 0), (15000, 1), (10000, 2)):
        monkeypatch.setattr(samplers, "_SPLIT_ENTRIES", least)
        save_batch(batch, tmp_path / "batch.jsonl")
        assert len(started) == children, least
        started.clear()


def test_a_path_that_cannot_be_opened_fails_before_any_child_starts(tmp_path, monkeypatch):
    started = split_into(monkeypatch, 3)
    for path in (tmp_path / "absent" / "batch.jsonl", tmp_path):
        with pytest.raises(OSError) as expected:
            open(path, "w", encoding="utf-8")  # how save_batch opened its file before
        with pytest.raises(OSError) as info:
            save_batch(_WRITTEN["one_to_one"], path)
        assert (type(info.value), str(info.value)) == (expected.type, str(expected.value))
    assert started == []


# ---------------------------------------------------------------------------
# The one child protocol, saving and loading
# ---------------------------------------------------------------------------


def transfer(direction: str, batch: ObservationBatch, path):
    """The bytes save_batch writes of ``batch`` at ``path`` (``"save"``), or what load_batch
    makes of the file there (``"load"``)."""
    if direction == "save":
        save_batch(batch, path)
        return path.read_bytes()
    return loaded(path)


def _work_exits(*args):
    os._exit(0)


def _work_raises(*args):
    raise RuntimeError("a child's work failed")


_WORK = {"save": "_formatted", "load": "_parsed"}
_DIRECTIONS = pytest.mark.parametrize("direction", ["save", "load"])


@pytest.mark.parametrize("fault", ["no_fork", "eagain", "thread", "exits", "raises", "one_piece"])
@_DIRECTIONS
def test_a_range_without_a_working_child_is_done_by_the_parent(
        tmp_path, monkeypatch, capfd, direction, fault):
    # A child that cannot start, or ends before its whole result, leaves its range to the
    # parent, which first undoes any part it took; no child prints a traceback.
    batch, path = _WRITTEN["one_to_many"], tmp_path / "batch.jsonl"
    path.write_bytes(reference_bytes(batch))
    expected = reference_bytes(batch) if direction == "save" else [
        getattr(batch, name).tobytes() for name in ("rows", "cols", "y", "offsets")]
    started = split_into(monkeypatch, 3)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    if fault == "no_fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    elif fault == "eagain":
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "_Popen",
                            staticmethod(_fork_fails))
    elif fault == "thread":
        thread.start()
    elif fault == "one_piece":  # the head and the first of many pieces, then nothing
        send_bytes = Connection.send_bytes

        def send_then_exit(connection, *args):
            send_bytes(connection, *args)
            os._exit(0)

        monkeypatch.setattr(Connection, "send_bytes", send_then_exit)
        monkeypatch.setattr(samplers, "_PIECE", 64)
    else:
        monkeypatch.setattr(samplers, _WORK[direction],
                            _work_exits if fault == "exits" else _work_raises)
    try:
        assert transfer(direction, batch, path) == expected
    finally:
        done.set()
        if thread.is_alive():
            thread.join()
    assert len(started) == (0 if fault in ("no_fork", "eagain", "thread") else 2)
    assert capfd.readouterr().err == ""


@_DIRECTIONS
def test_an_interrupt_as_a_child_starts_leaves_no_child(tmp_path, monkeypatch, direction):
    # The interrupt comes just after the fork; the call must still know the child to reap it.
    batch, path = _WRITTEN["one_to_one"], tmp_path / "batch.jsonl"
    path.write_bytes(reference_bytes(batch))
    split_into(monkeypatch, 2)
    fork, forked = multiprocessing.context.ForkProcess.start, []

    def fork_then_interrupt(process):
        fork(process)
        forked.append(process)
        os.kill(os.getpid(), signal.SIGINT)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", fork_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        transfer(direction, batch, path)
    assert len(forked) == 1  # and no_child_left finds it reaped


@_DIRECTIONS
def test_an_interrupt_while_receiving_leaves_no_child(tmp_path, monkeypatch, direction):
    batch, path = _WRITTEN["one_to_one"], tmp_path / "batch.jsonl"
    path.write_bytes(reference_bytes(batch))
    started = split_into(monkeypatch, 3)

    def interrupt(child, sinks):
        raise KeyboardInterrupt

    monkeypatch.setattr(samplers, "_receive", interrupt)
    with pytest.raises(KeyboardInterrupt):
        transfer(direction, batch, path)
    assert len(started) == 2


@_DIRECTIONS
def test_a_child_ends_by_itself_once_the_parent_stops_reading(tmp_path, direction):
    # Its range's result fills the pipe; the child must not wait on it for ever.
    batch, path = _draw(OneToOne(), 3000), tmp_path / "batch.jsonl"
    path.write_bytes(reference_bytes(batch))
    children = []
    with open(path, "rb", buffering=0) as raw:
        samplers._start(children, *((samplers._formatted, batch, 0, len(batch))
                                    if direction == "save" else (samplers._parsed, raw, 0, None)))
    child, receiver = children[0]
    try:
        receiver.close()
        child.join(timeout=30)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
        child.join()


# ---------------------------------------------------------------------------
# The direct reader of save_batch's own record spelling
# ---------------------------------------------------------------------------


def read_as_json(monkeypatch) -> None:
    """Make load_batch parse every record with ``json.loads``: the direct reader declines all."""
    monkeypatch.setattr(samplers, "_saved_record", lambda line: None)


def outcome(path):
    """What load_batch makes of a file: the bytes of its arrays, else the message of its
    DataFormatError and the repr of its cause."""
    one = loaded(path)
    return failure(path) if isinstance(one, str) else one


def saved_spelling(lines: list[str]) -> list[str]:
    """``lines`` with each record that JSON reads as an object of ``pairs``, ``y`` and maybe
    ``t`` spelled as save_batch spells it: keys sorted, and ``t`` its line number if absent."""
    out = []
    for k, line in enumerate(lines):
        try:
            obj = json.loads(line)
        except ValueError:
            obj = None
        if isinstance(obj, dict) and {"pairs", "y"} <= set(obj) <= {"pairs", "t", "y"}:
            line = json.dumps({"t": k, **obj}, sort_keys=True)
        out.append(line)
    return out


@pytest.mark.parametrize("lines, verdict", _EDGE_CASES, ids=_EDGE_IDS)
def test_edge_verdicts_hold_in_save_batchs_spelling(tmp_path, lines, verdict):
    path = tmp_path / "edge.jsonl"
    path.write_text("\n".join(saved_spelling(lines)) + "\n")
    if isinstance(verdict, str):
        with pytest.raises(DataFormatError) as info:
            load_batch(path)
        assert str(info.value) == verdict
    else:
        assert load_batch(path).offsets.tolist() == verdict


@pytest.mark.parametrize("pairs, y", _MALFORMED_PAIRS, ids=_MALFORMED_PAIRS_IDS)
def test_malformed_pairs_fail_alike_in_save_batchs_spelling(tmp_path, pairs, y):
    lines = malformed_pairs_lines(pairs, y)
    path, saved = tmp_path / "bad.jsonl", tmp_path / "saved.jsonl"
    path.write_text("\n".join(lines) + "\n")
    saved.write_text("\n".join(saved_spelling(lines)) + "\n")
    assert saved.read_text() != path.read_text()
    assert failure(saved) == failure(path)
    assert "bad batch record on line 3: " in failure(saved)[0]


@pytest.mark.parametrize("name", _WRITTEN)
def test_every_record_save_batch_writes_takes_the_direct_reader(tmp_path, monkeypatch, name):
    # The guard on save_batch's spelling: a change to it would send every load, silently,
    # down the JSON path.
    batch, path = _WRITTEN[name], tmp_path / "batch.jsonl"
    save_batch(batch, path)
    declined, read = [], samplers._saved_record

    def spy(line):
        record = read(line)
        if record is None:
            declined.append(line)
        return record

    monkeypatch.setattr(samplers, "_saved_record", spy)
    assert loaded(path) == [getattr(batch, field).tobytes()
                            for field in ("rows", "cols", "y", "offsets")]
    assert declined == []


@pytest.mark.parametrize("name", ["one_to_one", "one_to_many", "two_sided",
                                  "one_to_many_empty_periods"])
@pytest.mark.parametrize("ranges", [1, 4])
def test_a_saved_batch_loads_bit_identical_with_and_without_the_direct_reader(
        tmp_path, monkeypatch, name, ranges):
    path = tmp_path / "batch.jsonl"
    save_batch(_WRITTEN[name], path)
    started = split_into(monkeypatch, ranges)
    direct = loaded(path)
    read_as_json(monkeypatch)
    assert loaded(path) == direct
    assert len(started) == 2 * (ranges - 1)


# A two-sided 3 x 4 file whose second record, on line 3, is one of these near misses of the
# spelling save_batch writes: each breaks one condition the direct reader checks, or none.
_NEAR = '{"pairs": [[0, 1], [2, 3]], "t": 2, "y": [1.0, 2.0]}'
_NEAR_MISSES = {
    "as_saved": _NEAR,
    "index_leading_zero": _NEAR.replace("[2, 3]", "[2, 03]"),
    "index_18_digits": _NEAR.replace("[2, 3]", f"[2, {10**18 - 1}]"),
    "index_19_digits": _NEAR.replace("[2, 3]", f"[2, {10**18}]"),
    "index_2**63": _NEAR.replace("[2, 3]", f"[2, {2**63}]"),
    "index_20_digits": _NEAR.replace("[2, 3]", f"[2, {10**19 + 3}]"),
    "index_negative": _NEAR.replace("[2, 3]", "[2, -3]"),
    "index_float": _NEAR.replace("[2, 3]", "[2, 1.0]"),
    "index_exponent": _NEAR.replace("[2, 3]", "[2, 1e2]"),
    "index_empty": _NEAR.replace("[2, 3]", "[2, ]"),
    "index_outside_pair": _NEAR.replace("[2, 3]", "[2, 3]3"),
    "no_space": _NEAR.replace("[2, 3]", "[2,3]"),
    "colon_in_pair": _NEAR.replace("[2, 3]", "[2: 3]"),
    "t_leading_zero": _NEAR.replace('"t": 2', '"t": 02'),
    "t_string": _NEAR.replace('"t": 2', '"t": "2"'),
    "t_arabic_digit": _NEAR.replace('"t": 2', '"t": \u0663'),
    "t_5000_digits": _NEAR.replace('"t": 2', '"t": ' + "9" * 5000),
    "y_nan": _NEAR.replace("2.0]", "NaN]"),
    "y_infinity": _NEAR.replace("2.0]", "Infinity]"),
    "y_true": _NEAR.replace("2.0]", "true]"),
    "y_int": _NEAR.replace("2.0]", "2]"),
    "y_huge_int": _NEAR.replace("2.0]", f"{10**400}]"),
    "y_short": _NEAR.replace(", 2.0]", "]"),
    "y_nested": _NEAR.replace("2.0]", "[2.0]]"),
    "y_object": _NEAR.replace("[1.0, 2.0]", '{"a": 1.0}'),
    "y_deep": _NEAR.replace("[1.0, 2.0]", "[" * 10**5 + "]" * 10**5),
    "y_twice": _NEAR[:-1] + ', "y": [3.0, 4.0]}',
    "key_after_y": _NEAR[:-1] + ', "x": 1}',
    "two_closing_braces": _NEAR + "}",
    "digit_after_the_object": _NEAR + "0",
    "crlf_end": _NEAR + "\r",
    "empty_period": '{"pairs": [], "t": 2, "y": []}',
}


@pytest.mark.parametrize("line", _NEAR_MISSES.values(), ids=_NEAR_MISSES)
def test_near_misses_of_save_batchs_spelling_load_alike_with_and_without_the_direct_reader(
        tmp_path, monkeypatch, line):
    samplers._saved_record(line + "\n")  # it declines or reads the line, and never raises
    path = tmp_path / "near.jsonl"
    path.write_text("\n".join([_TWO_SIDED_3x4, _NEAR, line, _NEAR]) + "\n", encoding="utf-8")
    direct = outcome(path)
    read_as_json(monkeypatch)
    assert outcome(path) == direct


@pytest.mark.parametrize("y", ["[1.0, true]", "[false, 2.0]", "[1.0]", "[1.0, 2.0, 3.0]",
                               '[1.0, "2.0"]'], ids=["true", "false", "short", "long", "string"])
def test_rewards_that_break_a_rule_fail_alike_with_and_without_the_direct_reader(
        tmp_path, monkeypatch, y):
    path = tmp_path / "y.jsonl"
    path.write_text("\n".join([_TWO_SIDED_3x4, _NEAR.replace("[1.0, 2.0]", y)]) + "\n")
    expected = ("bad batch record on line 2: y must be a list of one number per pair",
                "ValueError('y must be a list of one number per pair')")
    assert failure(path) == expected
    read_as_json(monkeypatch)
    assert failure(path) == expected


@pytest.fixture(scope="module")
def saved_texts(tmp_path_factory) -> list[str]:
    """The text save_batch writes of a four-period batch of each scheme."""
    texts = []
    for scheme in (OneToOne(), OneToMany(2, 0.6), make_two_sided()):
        path = tmp_path_factory.mktemp("saved") / "batch.jsonl"
        save_batch(_draw(scheme, 4, seed=9), path)
        texts.append(path.read_text())
    return texts


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scheme=st.integers(0, 2), where=st.integers(0, 2**16),
       edit=st.sampled_from(["insert", "delete", "substitute"]),
       char=st.sampled_from(list('0123456789 [],.-e"tyx\r')))
def test_one_character_edits_load_alike_with_and_without_the_direct_reader(
        saved_texts, tmp_path, monkeypatch, scheme, where, edit, char):
    # One edit in the records, never the header: a batch, or the same message and cause.
    text = saved_texts[scheme]
    start = text.index("\n") + 1
    k = start + where % (len(text) - start)
    path = tmp_path / "edited.jsonl"
    path.write_text(text[:k] + ("" if edit == "delete" else char)
                    + text[k + (edit != "insert"):], encoding="utf-8", newline="")
    direct = outcome(path)
    with monkeypatch.context() as patch:
        read_as_json(patch)
        assert outcome(path) == direct
