"""Tests for debiasing, projection, and linear-form inference."""
import warnings

import numpy as np
import pytest

from matchlearn import (
    ArgumentError,
    DegenerateSpectrumWarning,
    DegenerateTestError,
    EmptyMatchingWarning,
    EstimatorConfig,
    LinearForm,
    NonFiniteResultError,
    ObservationBatch,
    OneToMany,
    OneToOne,
    RemainderDroppedWarning,
    TwoSided,
    UndefinedVarianceError,
    confidence_interval,
    debias,
    entrywise_probability,
    estimate_sigma,
    generate_low_rank,
    infer_linear_form,
    observe,
    prepare_inference,
    project_rank_r,
    projection_magnitude,
    sample_matching,
    split,
    standard_error,
)


# A scheme whose matchings may leave rows unmatched, for hand-built
# batches of partial matchings.
PARTIAL = TwoSided(0.5, 0.5, 0.1, 0.1, 0.1)


def make_problem(d1, d2, r, T, sigma, seed, scale=1.0, scheme=OneToOne()):
    truth = generate_low_rank(d1, d2, r, scale, np.random.default_rng([seed, 1]))
    batch = observe(truth, scheme, T, sigma, np.random.default_rng([seed, 2]))
    return truth, batch


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def test_split_even():
    plan = split(4)
    assert plan.half1 == (2, 4)
    assert plan.half2 == (0, 2)
    assert plan.t0 == 2 and plan.t_used == 4


def test_split_odd_drops_last_with_warning():
    with pytest.warns(RemainderDroppedWarning):
        plan = split(5)
    assert plan.half1 == (2, 4) and plan.half2 == (0, 2)


def test_split_survey_scale():
    plan = split(1000)
    assert plan.t0 == 500
    assert plan.half1 == (500, 1000)


def test_split_too_small():
    with pytest.raises(ArgumentError):
        split(1)


# ---------------------------------------------------------------------------
# debias
# ---------------------------------------------------------------------------

def test_debias_exact_init_noiseless_is_identity():
    truth, batch = make_problem(5, 10, 2, 40, 0.0, seed=71)
    est = debias(truth.values, batch, 1.0 / 10)
    assert np.array_equal(est.m_unbs, truth.values)


def test_debias_hand_computed_single_matching():
    m_init = np.arange(6, dtype=float).reshape(2, 3)
    rec = ObservationBatch.from_periods(OneToOne(), 2, 3, 0.0, [([0, 1], [1, 2], [10.0, -3.0])])
    nu = 1.0 / 3.0
    est = debias(m_init, rec, nu)
    expect = m_init.copy()
    expect[0, 1] += (10.0 - m_init[0, 1]) / nu  # T0 = 1
    expect[1, 2] += (-3.0 - m_init[1, 2]) / nu
    np.testing.assert_allclose(est.m_unbs, expect, rtol=1e-15)


@pytest.mark.parametrize(
    "scheme,reps",
    [(OneToOne(), 500), (OneToMany(2, 0.7), 300), (TwoSided(0.8, 0.8, 0.3, 0.3, 0.2), 300)],
    ids=["one_to_one", "one_to_many", "two_sided"],
)
def test_debias_is_unbiased_over_replications(scheme, reps):
    d1, d2, t0 = 10, 20, 200
    truth = generate_low_rank(d1, d2, 1, 1.0, np.random.default_rng([73, 1]))
    # A deliberately wrong starting point: the correction must remove
    # its bias on average no matter how poor the initial estimate is.
    m_init = truth.values + 0.3 * np.random.default_rng([73, 2]).standard_normal((d1, d2))
    nu = entrywise_probability(scheme, d1, d2).nu
    probe = np.random.default_rng([73, 4])
    idx = (probe.integers(0, d1, 20), probe.integers(0, d2, 20))
    samples = np.empty((reps, 20))
    for rep in range(reps):
        batch = observe(truth, scheme, t0, 1.0, np.random.default_rng([73, 5, rep]))
        est = debias(m_init, batch, nu)
        samples[rep] = est.m_unbs[idx]
    dev = samples.mean(axis=0) - truth.values[idx]
    bound = 4.0 * samples.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(dev) <= bound)


def test_debias_argument_validation():
    truth, batch = make_problem(4, 8, 1, 10, 0.0, seed=83)
    with pytest.raises(ArgumentError):
        debias(truth.values, batch[:0], 1.0 / 8)
    with pytest.raises(ArgumentError):
        debias(truth.values, batch, 0.0)
    with pytest.raises(ArgumentError):
        debias(truth.values[:, :7], batch, 1.0 / 8)


def overflowing_batch(big_periods):
    """A 2x4 one-to-one batch with T=40; ``big_periods`` carry two rewards of 1e308."""
    rng = np.random.default_rng(0)
    periods = [(np.arange(2), rng.permutation(4)[:2],
                [1e308, 1e308] if t in big_periods else [1.0, 2.0]) for t in range(40)]
    return ObservationBatch.from_periods(OneToOne(), 2, 4, 0.0, periods)


def test_debias_overflow_is_a_numerical_error():
    # Finite rewards whose correction overflows fail as numerics, not as
    # a bad argument.
    batch = overflowing_batch([25])
    with pytest.raises(NonFiniteResultError, match="debiased estimate"):
        debias(np.zeros((2, 4)), batch, 0.25)
    with pytest.raises(NonFiniteResultError):
        prepare_inference(batch, EstimatorConfig(r=1, eta=0.5, m=1, nu=0.25))


def test_fit_overflow_is_a_numerical_error():
    batch = overflowing_batch(range(40))
    with pytest.raises(NonFiniteResultError, match="batch pair 1"):
        prepare_inference(batch, EstimatorConfig(r=1, eta=0.5, m=1, nu=0.25))


# ---------------------------------------------------------------------------
# project_rank_r
# ---------------------------------------------------------------------------

def test_project_rank_r_idempotent_on_low_rank_input():
    truth = generate_low_rank(6, 9, 2, 1.0, np.random.default_rng(87))
    out, u, v = project_rank_r(truth.values, 2)
    assert np.max(np.abs(out - truth.values)) <= 1e-10


def test_project_rank_r_matches_gram_eigendecomposition_oracle():
    a = np.random.default_rng(89).standard_normal((6, 9))
    out, _, _ = project_rank_r(a, 2)
    # Oracle via the Gram matrix: right vectors from A^T A, then U = A v / s.
    evals, evecs = np.linalg.eigh(a.T @ a)
    order = np.argsort(evals)[::-1][:2]
    v = evecs[:, order]
    s = np.sqrt(evals[order])
    u = (a @ v) / s
    oracle = (u * s) @ v.T
    np.testing.assert_allclose(out, oracle, atol=1e-10)


def test_project_rank_r_zero_matrix_flags_degenerate():
    with pytest.warns(DegenerateSpectrumWarning):
        out, _, _ = project_rank_r(np.zeros((4, 5)), 2)
    assert np.array_equal(out, np.zeros((4, 5)))


# ---------------------------------------------------------------------------
# prepare_inference: split, fit, debias, project, average
# ---------------------------------------------------------------------------

def test_combine_noiseless_ample_data_is_nearly_exact():
    truth, batch = make_problem(20, 40, 2, 16000, 0.0, seed=91)
    cfg = EstimatorConfig(r=2, eta=0.75, m=10, nu=1.0 / 40)
    art = prepare_inference(batch, cfg)
    assert np.max(np.abs(art.m_hat - truth.values)) <= 1e-6
    assert art.halves[0].source_init == 1 and art.halves[1].source_init == 2


def test_combine_is_symmetric_under_half_swap():
    truth, batch = make_problem(8, 16, 2, 800, 0.5, seed=93)
    cfg = EstimatorConfig(r=2, eta=0.7, m=4, nu=1.0 / 16)
    m_a = prepare_inference(batch, cfg).m_hat
    swapped = ObservationBatch.from_periods(
        batch.scheme,
        batch.d1,
        batch.d2,
        batch.sigma,
        [(rec.matching.rows, rec.matching.cols, rec.y)
         for rec in batch.records[400:] + batch.records[:400]],
    )
    m_b = prepare_inference(swapped, cfg).m_hat
    assert np.array_equal(m_a, m_b)


def test_combine_output_rank_at_most_two_r():
    truth, batch = make_problem(50, 150, 2, 600, 1.0, seed=95, scale=20.0)
    cfg = EstimatorConfig(r=2, eta=0.7, m=6, nu=1.0 / 150)
    s = np.linalg.svd(prepare_inference(batch, cfg).m_hat, compute_uv=False)
    assert s[4] <= 1e-9 * s[0]


def test_odd_t_warns_once():
    truth, batch = make_problem(6, 12, 2, 121, 0.5, seed=94)
    cfg = EstimatorConfig(r=2, eta=0.7, m=3, nu=1.0 / 12)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        prepare_inference(batch, cfg)
    dropped = [w for w in caught if issubclass(w.category, RemainderDroppedWarning)]
    assert len(dropped) == 1, [str(w.message) for w in dropped]


# ---------------------------------------------------------------------------
# estimate_sigma
# ---------------------------------------------------------------------------

def test_estimate_sigma_zero_for_exact_fit():
    truth, batch = make_problem(5, 10, 2, 40, 0.0, seed=97)
    out = estimate_sigma(truth.values, truth.values, batch[20:], batch[:20], 40)
    assert out == 0.0


def test_estimate_sigma_single_residual_formula():
    m1 = np.zeros((2, 3))
    m2 = np.zeros((2, 3))
    none = ObservationBatch.from_periods(PARTIAL, 2, 3, 0.0, [])
    rec = ObservationBatch.from_periods(PARTIAL, 2, 3, 0.0, [([1], [2], [0.7])])
    out = estimate_sigma(m1, m2, none, rec, t_used=2)
    assert out == pytest.approx(0.7**2 / 2.0, rel=1e-15)


def test_estimate_sigma_overflow_is_a_numerical_error():
    m0 = np.zeros((2, 3))
    rec = ObservationBatch.from_periods(PARTIAL, 2, 3, 0.0, [([1], [2], [1e200])])
    with pytest.raises(NonFiniteResultError, match="residual variance"):
        estimate_sigma(m0, m0, rec, rec, t_used=2)


def test_estimate_sigma_concentrates_around_noise_variance():
    hits = 0
    for rep in range(100):
        truth = generate_low_rank(20, 60, 1, 1.0, np.random.default_rng([73, rep, 1]))
        batch = observe(truth, OneToOne(), 2000, 1.0, np.random.default_rng([73, rep, 2]))
        cfg = EstimatorConfig(r=1, eta=0.75, m=5, nu=1.0 / 60)
        art = prepare_inference(batch, cfg)
        hits += 0.9 <= art.sigma_hat_sq <= 1.1
    assert hits >= 90


def test_estimate_sigma_skips_empty_matchings_with_warning():
    m0 = np.zeros((2, 3))
    empty = ([], [], [])
    batch = ObservationBatch.from_periods(PARTIAL, 2, 3, 0.0, [empty, ([0], [0], [1.0])])
    with pytest.warns(EmptyMatchingWarning):
        out = estimate_sigma(m0, m0, batch[:0], batch, t_used=2)
    assert out == pytest.approx(0.5)
    with pytest.raises(UndefinedVarianceError):
        with pytest.warns(EmptyMatchingWarning):
            estimate_sigma(m0, m0, batch[:1], batch[:1], t_used=2)


# ---------------------------------------------------------------------------
# standard_error / confidence_interval
# ---------------------------------------------------------------------------

def test_standard_error_unit_case():
    assert standard_error(1.0, 1.0, 100, 0.01) == pytest.approx(1.0, rel=1e-15)


def test_standard_error_one_to_one_closed_form():
    se = standard_error(1.0, 2.0, 1000, 1.0 / 750)
    assert se == pytest.approx(2.0 * np.sqrt(750.0 / 1000.0), abs=1e-9)
    assert se == pytest.approx(1.7320508, abs=1e-6)


def test_standard_error_one_to_many_identity():
    rng = np.random.default_rng(101)
    for _ in range(20):
        d2 = int(rng.integers(10, 1000))
        k = int(rng.integers(1, 6))
        p0 = float(rng.uniform(0.1, 1.0))
        t = int(rng.integers(50, 5000))
        sig_sq = float(rng.uniform(0.1, 4.0))
        proj = float(rng.uniform(0.1, 10.0))
        se = standard_error(sig_sq, proj, t, k * p0 / d2)
        direct = np.sqrt(sig_sq) * proj * np.sqrt(d2 / (t * k * p0))
        assert np.isclose(se, direct, rtol=1e-12)


def test_standard_error_validation():
    with pytest.raises(ArgumentError):
        standard_error(-1.0, 1.0, 10, 0.1)
    with pytest.raises(ArgumentError):
        standard_error(1.0, 1.0, 0, 0.1)


def test_confidence_interval_normal_quantile():
    lo, hi = confidence_interval(0.0, 1.0, 0.05)
    assert hi == pytest.approx(1.95996398, abs=1e-6)
    assert lo == pytest.approx(-hi, rel=1e-15)


def test_confidence_interval_collapses_as_alpha_grows():
    lo, hi = confidence_interval(3.0, 1.0, 0.9999)
    assert hi - lo < 2 * 1.3e-4


def test_confidence_interval_zero_se():
    assert confidence_interval(2.5, 0.0, 0.05) == (2.5, 2.5)


def test_confidence_interval_validation():
    with pytest.raises(ArgumentError):
        confidence_interval(0.0, 1.0, 0.0)
    with pytest.raises(ArgumentError):
        confidence_interval(0.0, -1.0, 0.05)


# ---------------------------------------------------------------------------
# infer_linear_form: intervals, threshold tests and comparisons
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fitted_artifacts():
    truth, batch = make_problem(15, 30, 2, 1200, 0.5, seed=103)
    cfg = EstimatorConfig(r=2, eta=0.7, m=4, nu=1.0 / 30)
    return truth, prepare_inference(batch, cfg)


ENTRY = LinearForm.from_triplets(15, 30, [(2, 5, 1.0)])


def test_threshold_at_null_value(fitted_artifacts):
    _, art = fitted_artifacts
    point = infer_linear_form(art, ENTRY).point
    res = infer_linear_form(art, ENTRY, null_value=point, direction="greater")
    assert res.z == 0.0
    assert res.p_value == pytest.approx(0.5, rel=1e-12)


def test_threshold_one_sided_quantile(fitted_artifacts):
    _, art = fitted_artifacts
    base = infer_linear_form(art, ENTRY)
    v0 = base.point - 1.6448536 * base.se
    res = infer_linear_form(art, ENTRY, null_value=v0, direction="greater")
    assert res.p_value == pytest.approx(0.05, abs=1e-6)
    less = infer_linear_form(art, ENTRY, null_value=v0, direction="less")
    assert less.p_value == pytest.approx(0.95, abs=1e-6)


def test_threshold_two_sided_quantile(fitted_artifacts):
    _, art = fitted_artifacts
    base = infer_linear_form(art, ENTRY)
    v0 = base.point + 1.959964 * base.se
    res = infer_linear_form(art, ENTRY, null_value=v0, direction="two-sided")
    assert res.p_value == pytest.approx(0.05, abs=1e-6)


def test_threshold_validation(fitted_artifacts):
    _, art = fitted_artifacts
    with pytest.raises(DegenerateTestError):
        infer_linear_form(art, LinearForm.from_triplets(15, 30, []))
    with pytest.raises(ArgumentError):
        infer_linear_form(art, ENTRY, direction="sideways")


def test_infer_linear_form_is_self_consistent(fitted_artifacts):
    truth, art = fitted_artifacts
    q = LinearForm.from_triplets(15, 30, [(2, 5, 1.0), (7, 11, -2.0)])
    res = infer_linear_form(art, q, alpha=0.05)
    assert res.point == pytest.approx(q.inner(art.m_hat), rel=1e-15)
    assert res.se == pytest.approx(
        np.sqrt(res.sigma_hat_sq) * res.proj_mag_hat * np.sqrt(1.0 / (1200 / 30)),
        rel=1e-12,
    )
    assert res.ci_low <= res.point <= res.ci_high
    assert res.ci_high - res.point == pytest.approx(1.95996398 * res.se, rel=1e-6)
    assert res.z == pytest.approx(res.point / res.se, rel=1e-12)
    assert 0.0 <= res.p_value <= 1.0


def test_infer_rejects_mismatched_dims(fitted_artifacts):
    _, art = fitted_artifacts
    with pytest.raises(ArgumentError):
        infer_linear_form(art, LinearForm.from_triplets(15, 29, [(0, 0, 1.0)]))


def test_compare_identical_matchings_is_degenerate(fitted_artifacts):
    _, art = fitted_artifacts
    q = LinearForm.from_triplets(15, 30, [(0, 0, 1.0), (1, 4, 1.0)])
    with pytest.raises(DegenerateTestError):
        infer_linear_form(art, q.subtract(q))


def test_compare_nearby_matchings_sparsity(fitted_artifacts):
    _, art = fitted_artifacts
    shared = [(i, i, 1.0) for i in range(14)]
    q1 = LinearForm.from_triplets(15, 30, shared + [(14, 14, 1.0)])
    q2 = LinearForm.from_triplets(15, 30, shared + [(14, 20, 1.0)])
    res = infer_linear_form(art, q1.subtract(q2))
    assert res.q.size <= 4
    assert res.alpha == 0.05


def test_projection_magnitude_estimate_tightens_with_data():
    truth = generate_low_rank(10, 20, 2, 1.0, np.random.default_rng([75, 1]))
    q = LinearForm.from_triplets(10, 20, [(0, 3, 1.0), (4, 11, 2.0), (7, 0, -1.0)])
    true_proj = projection_magnitude(truth.left_factors, truth.right_factors, q)
    medians = []
    for T in (400, 800, 1600):
        errs = []
        for rep in range(50):
            batch = observe(truth, OneToOne(), T, 1.0, np.random.default_rng([75, rep, T]))
            cfg = EstimatorConfig(r=2, eta=0.75, m=4, nu=1.0 / 20)
            art = prepare_inference(batch, cfg)
            errs.append(abs(projection_magnitude(art.u_hat, art.v_hat, q) - true_proj))
        medians.append(float(np.median(errs)))
    assert medians[0] >= medians[1] >= medians[2]
