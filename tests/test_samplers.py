"""Tests for matching mechanisms, observation probability, and reward draws."""
from fractions import Fraction
from math import comb

import numpy as np
import pytest
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
    observe,
    sample_matching,
    save_batch,
    scheme_from_json,
    scheme_to_json,
)
from matchlearn.samplers import _arrival_cdf, _draw_arrivals


def make_two_sided(**kwargs) -> TwoSided:
    params = dict(p1=0.8, p2=0.8, c_r=0.5, c_s=0.5, gamma=0.2)
    params.update(kwargs)
    return TwoSided(**params)


def truncated_pmf_grid(d1, p1, d2, p2, c_r, c_s, gamma) -> np.ndarray:
    """Exact normalized pmf on the (d1+1) x (d2+1) grid, the test oracle."""
    k1 = np.arange(d1 + 1)[:, None]
    k2 = np.arange(d2 + 1)[None, :]
    pmf = binom.pmf(k1, d1, p1) * binom.pmf(k2, d2, p2)
    region = (
        (k1 >= c_r * d1)
        & (k2 >= c_s * d2)
        & ((k1 >= (1 + gamma) * k2) | (k2 >= (1 + gamma) * k1))
    )
    pmf = np.where(region, pmf, 0.0)
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
    cdf = _arrival_cdf(scheme, d1, d2)
    return np.array([_draw_arrivals(cdf, d2, rng) for _ in range(n)])


# ---------------------------------------------------------------------------
# sample_matching
# ---------------------------------------------------------------------------

def test_one_to_one_unique_matching():
    m = sample_matching(OneToOne(), 1, 1, np.random.default_rng(0))
    assert m.pairs == {(0, 0)}


def test_one_to_one_two_by_two_is_uniform():
    rng = np.random.default_rng(1)
    hits = 0
    n = 20000
    for _ in range(n):
        m = sample_matching(OneToOne(), 2, 2, rng)
        hits += m.pairs == {(0, 0), (1, 1)}
    assert abs(hits / n - 0.5) <= 0.02


def test_one_to_many_row_degree_is_binomial():
    rng = np.random.default_rng(2)
    scheme = OneToMany(K=2, p0=0.5)
    counts = np.zeros(3)
    n = 20000
    for _ in range(n):
        m = sample_matching(scheme, 1, 4, rng)
        counts[m.size] += 1
    assert np.max(np.abs(counts / n - np.array([0.25, 0.5, 0.25]))) <= 0.02


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
    rng = np.random.default_rng(17)
    periods = []
    for _ in range(2000):
        m = sample_matching(scheme, d1, d2, rng)
        assert np.unique(m.cols).size == m.size
        periods.append((m.rows, m.cols, np.zeros(m.size)))
    ObservationBatch.from_periods(scheme, d1, d2, 0.0, periods)  # checks the scheme


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
        expected = m.values[rec.matching.rows, rec.matching.cols]
        assert np.array_equal(rec.y, expected)


def test_observe_noise_mean_and_variance():
    sigma = 0.7
    m = generate_low_rank(2, 2, 1, 3.0, np.random.default_rng(47))
    batch = observe(m, OneToOne(), 20000, sigma, np.random.default_rng(48))
    target = m.values[0, 0]
    pool = np.array([
        rec.y[k]
        for rec in batch.records
        for k in np.flatnonzero((rec.matching.rows == 0) & (rec.matching.cols == 0))
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
        assert np.array_equal(r1.matching.cols, r2.matching.cols)
        resid1 = r1.y - m.values[r1.matching.rows, r1.matching.cols]
        resid2 = r2.y - m.values[r2.matching.rows, r2.matching.cols]
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
        bool(np.any((rec.matching.rows == i) & (rec.matching.cols == j)))
        for rec in batch.records
    )
    assert abs(count / T - est.nu) <= 4 * np.sqrt(est.nu / T)


def test_observe_validates_arguments():
    m = generate_low_rank(3, 6, 1, 1.0, np.random.default_rng(0))
    with pytest.raises(ArgumentError):
        observe(m, OneToOne(), 0, 1.0, np.random.default_rng(0))
    with pytest.raises(ArgumentError):
        observe(m, OneToOne(), 5, -1.0, np.random.default_rng(0))


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
        assert np.array_equal(r1.matching.rows, r2.matching.rows)
        assert np.array_equal(r1.matching.cols, r2.matching.cols)
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


@pytest.mark.parametrize(
    "pairs, y",
    [
        ('[{"a": 1}]', "[1.0]"),  # a pair given as an object
        ("[[0, 1, 3]]", "[1.0]"),  # three elements
        ("[[0.9, 1.7]]", "[1.0]"),  # float indices
        ('[["1", "2"]]', "[1.0]"),  # string indices
        ("[[0, true]]", "[1.0]"),  # a boolean index
        ("[[0, 1]]", '["1.0"]'),  # a string reward
    ],
    ids=["object", "three", "float", "string", "bool", "string_y"],
)
def test_load_batch_rejects_malformed_pairs(tmp_path, pairs, y):
    path = tmp_path / "bad.jsonl"
    header = '{"scheme": {"kind": "two_sided", "p1": 0.8, "p2": 0.8, "c_r": 0.3, "c_s": 0.3, "gamma": 0.2}, "d1": 3, "d2": 4, "sigma": 0.0}\n'
    good = '{"t": 1, "pairs": [[0, 0]], "y": [1.0]}\n'
    path.write_text(header + good + f'{{"t": 2, "pairs": {pairs}, "y": {y}}}\n')
    with pytest.raises(DataFormatError, match="line 3"):
        load_batch(path)


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
