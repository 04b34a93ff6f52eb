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
    InferenceResult,
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
    estimate_sigma,
    generate_low_rank,
    held_out_residual,
    infer_linear_form,
    observe,
    period_mean_squares,
    prepare_inference,
    project_rank_r,
    projection_magnitude,
    sample_matching,
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
# the half split of prepare_inference
# ---------------------------------------------------------------------------

def test_prepare_inference_odd_t_drops_the_last_period():
    truth, batch = make_problem(6, 12, 2, 41, 0.5, seed=92)
    cfg = EstimatorConfig(r=2, eta=0.7, m=3, nu=1.0 / 12)
    # The halves drop period 41; fit then cuts each 20-period half into 6 parts of 3.
    with pytest.warns(RemainderDroppedWarning, match="dropping 2 trailing observation"), \
            pytest.warns(RemainderDroppedWarning, match="dropping 1 trailing observation"):
        art = prepare_inference(batch, cfg)
    with pytest.warns(RemainderDroppedWarning, match="dropping 2 trailing observation"):
        even = prepare_inference(batch[:40], cfg)
    assert art.t_used == even.t_used == 40
    assert np.array_equal(art.m_hat, even.m_hat)
    assert art.sigma_hat_sq == even.sigma_hat_sq


def test_prepare_inference_needs_two_periods():
    truth, batch = make_problem(6, 12, 2, 1, 0.5, seed=92)
    cfg = EstimatorConfig(r=2, eta=0.7, m=1, nu=1.0 / 12)
    with pytest.raises(ArgumentError, match="at least 2 periods"):
        prepare_inference(batch, cfg)


# ---------------------------------------------------------------------------
# debias
# ---------------------------------------------------------------------------

def test_debias_exact_init_noiseless_is_identity():
    truth, batch = make_problem(5, 10, 2, 40, 0.0, seed=71)
    est = debias(truth.values, batch, held_out_residual(truth.values, batch))
    assert np.array_equal(est, truth.values)


def test_debias_hand_computed_single_matching():
    m_init = np.arange(6, dtype=float).reshape(2, 3)
    rec = ObservationBatch(OneToOne(), 2, 3, 0.0, [0, 1], [1, 2], [10.0, -3.0], [0, 2])
    nu = 1.0 / 3.0
    est = debias(m_init, rec, held_out_residual(m_init, rec))
    expect = m_init.copy()
    expect[0, 1] += (10.0 - m_init[0, 1]) / nu  # T0 = 1
    expect[1, 2] += (-3.0 - m_init[1, 2]) / nu
    np.testing.assert_allclose(est, expect, rtol=1e-15)


def test_debias_by_a_half_with_no_entries_returns_the_estimate():
    m_init = np.arange(6, dtype=float).reshape(2, 3)
    half = ObservationBatch(OneToMany(1, 0.5), 2, 3, 0.0, [], [], [], [0, 0, 0])
    assert half.scatter(half.y).dtype == np.float64
    est = debias(m_init, half, held_out_residual(m_init, half))
    assert est.dtype == np.float64 and np.array_equal(est, m_init)


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
    probe = np.random.default_rng([73, 4])
    idx = (probe.integers(0, d1, 20), probe.integers(0, d2, 20))
    samples = np.empty((reps, 20))
    for rep in range(reps):
        batch = observe(truth, scheme, t0, 1.0, np.random.default_rng([73, 5, rep]))
        est = debias(m_init, batch, held_out_residual(m_init, batch))
        samples[rep] = est[idx]
    dev = samples.mean(axis=0) - truth.values[idx]
    bound = 4.0 * samples.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(dev) <= bound)


def test_debias_argument_validation():
    truth, batch = make_problem(4, 8, 1, 10, 0.0, seed=83)
    residual = held_out_residual(truth.values, batch)
    with pytest.raises(ArgumentError):
        debias(truth.values, batch[:0], held_out_residual(truth.values, batch[:0]))
    with pytest.raises(ArgumentError):
        debias(truth.values[:, :7], batch, residual)
    with pytest.raises(ArgumentError, match="dims"):
        held_out_residual(truth.values[:, :7], batch)
    for short in (residual[1:], residual[:, None], 0.0):
        with pytest.raises(ArgumentError, match="one residual per held-out entry"):
            debias(truth.values, batch, short)
        with pytest.raises(ArgumentError, match="one residual per held-out entry"):
            period_mean_squares(batch, short)


def overflowing_batch(big_periods):
    """A 2x4 one-to-one batch with T=40; ``big_periods`` carry two rewards of 1e308."""
    rng = np.random.default_rng(0)
    cols = np.concatenate([rng.permutation(4)[:2] for _ in range(40)])
    y = np.tile([1.0, 2.0], 40)
    y[2 * np.asarray(big_periods)[:, None] + [0, 1]] = 1e308
    return ObservationBatch(OneToOne(), 2, 4, 0.0, np.tile([0, 1], 40), cols, y,
                            np.arange(0, 81, 2))


def test_debias_overflow_is_a_numerical_error():
    # Finite rewards whose correction overflows fail as numerics, not as
    # a bad argument.
    batch = overflowing_batch([25])
    m0 = np.zeros((2, 4))
    with pytest.raises(NonFiniteResultError, match="debiased estimate"):
        debias(m0, batch, held_out_residual(m0, batch))
    # Here the residual y - m_init itself overflows, to inf and without a warning.
    m0 = np.full((2, 4), -1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual = held_out_residual(m0, batch)
    with pytest.raises(NonFiniteResultError, match="debiased estimate"):
        debias(m0, batch, residual)
    with pytest.warns(DegenerateSpectrumWarning, match="rank-1 subspace is not well determined"), \
            pytest.raises(NonFiniteResultError):
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
    out = project_rank_r(truth.values, 2)
    assert np.max(np.abs(out - truth.values)) <= 1e-10


def test_project_rank_r_matches_gram_eigendecomposition_oracle():
    a = np.random.default_rng(89).standard_normal((6, 9))
    out = project_rank_r(a, 2)
    # Oracle via the Gram matrix: right vectors from A^T A, then U = A v / s.
    evals, evecs = np.linalg.eigh(a.T @ a)
    order = np.argsort(evals)[::-1][:2]
    v = evecs[:, order]
    s = np.sqrt(evals[order])
    u = (a @ v) / s
    oracle = (u * s) @ v.T
    np.testing.assert_allclose(out, oracle, atol=1e-10)


def test_prepare_inference_runs_no_dense_svd_of_a_full_matrix(monkeypatch):
    # Every rank-r SVD of a d1 x d2 matrix (spectral init, both
    # projections, m_hat's factors) takes the truncated route, whose only
    # dense SVD is the small (r+1) x d2 Ritz matrix; the r x r cores and
    # d x r retractions have min(shape) = r.
    shapes = []
    dense_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return dense_svd(a, *args, **kwargs)

    _, batch = make_problem(60, 180, 2, 600, 1.0, seed=95)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    prepare_inference(batch, EstimatorConfig(r=2, eta=0.75, m=5, nu=1.0 / 180))
    assert shapes and max(min(shape) for shape in shapes) <= 3
    assert shapes.count((3, 180)) == 5


def test_project_rank_r_zero_matrix_flags_degenerate():
    with pytest.warns(DegenerateSpectrumWarning):
        out = project_rank_r(np.zeros((4, 5)), 2)
    assert np.array_equal(out, np.zeros((4, 5)))


# ---------------------------------------------------------------------------
# prepare_inference: split, fit, debias, project, average
# ---------------------------------------------------------------------------

def test_combine_noiseless_ample_data_is_nearly_exact():
    truth, batch = make_problem(20, 40, 2, 16000, 0.0, seed=91)
    cfg = EstimatorConfig(r=2, eta=0.75, m=10, nu=1.0 / 40)
    art = prepare_inference(batch, cfg)
    assert np.max(np.abs(art.m_hat - truth.values)) <= 1e-6


def test_combine_is_symmetric_under_half_swap():
    truth, batch = make_problem(8, 16, 2, 800, 0.5, seed=93)
    cfg = EstimatorConfig(r=2, eta=0.7, m=4, nu=1.0 / 16)
    m_a = prepare_inference(batch, cfg).m_hat
    # Periods 400.. then 0..399; every one-to-one period holds d1 entries.
    k = batch.offsets[400]
    swapped = ObservationBatch(batch.scheme, batch.d1, batch.d2, batch.sigma,
                               *(np.roll(a, -k) for a in (batch.rows, batch.cols, batch.y)),
                               batch.offsets)
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

def sigma_of(m1, m2, half1, half2):
    """sigma^2 as prepare_inference forms it: half 2 scored against m1, half 1 against m2."""
    means = [period_mean_squares(h, held_out_residual(m, h)) for m, h in ((m1, half2), (m2, half1))]
    return estimate_sigma(means, len(half1) + len(half2))


def test_estimate_sigma_zero_for_exact_fit():
    truth, batch = make_problem(5, 10, 2, 40, 0.0, seed=97)
    out = sigma_of(truth.values, truth.values, batch[20:], batch[:20])
    assert out == 0.0


def test_estimate_sigma_single_residual_formula():
    m1 = np.zeros((2, 3))
    m2 = np.zeros((2, 3))
    empty = ObservationBatch(PARTIAL, 2, 3, 0.0, [], [], [], [0, 0])
    rec = ObservationBatch(PARTIAL, 2, 3, 0.0, [1], [2], [0.7], [0, 1])
    with pytest.warns(EmptyMatchingWarning):
        out = sigma_of(m1, m2, empty, rec)
    assert out == pytest.approx(0.7**2 / 2.0, rel=1e-15)


def test_estimate_sigma_overflow_is_a_numerical_error():
    m0 = np.zeros((2, 3))
    rec = ObservationBatch(PARTIAL, 2, 3, 0.0, [1], [2], [1e200], [0, 1])
    with pytest.raises(NonFiniteResultError, match="residual variance"):
        sigma_of(m0, m0, rec, rec)
    # Finite per-period means (1e308 each) whose exact sum overflows.
    rec = ObservationBatch(PARTIAL, 2, 3, 0.0, [1], [2], [1e154], [0, 1])
    with pytest.raises(NonFiniteResultError, match="residual variance"):
        sigma_of(m0, m0, rec, rec)


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
    batch = ObservationBatch(PARTIAL, 2, 3, 0.0, [0], [0], [1.0], [0, 0, 1])  # period 0 empty
    with pytest.warns(EmptyMatchingWarning):
        out = sigma_of(m0, m0, batch[:0], batch)
    assert out == pytest.approx(0.5)
    with pytest.raises(UndefinedVarianceError):
        with pytest.warns(EmptyMatchingWarning):
            sigma_of(m0, m0, batch[:1], batch[:1])
    with pytest.raises(ArgumentError, match="from only 1 periods"):
        estimate_sigma([np.ones(2)], 1)


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


ENTRY = LinearForm(15, 30, [2], [5], [1.0])


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
        infer_linear_form(art, LinearForm(15, 30, [], [], []))
    with pytest.raises(ArgumentError):
        infer_linear_form(art, ENTRY, direction="sideways")


def test_infer_linear_form_is_self_consistent(fitted_artifacts):
    truth, art = fitted_artifacts
    q = LinearForm(15, 30, [2, 7], [5, 11], [1.0, -2.0])
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


@pytest.mark.parametrize("se, ci_low, ci_high, problem",
                         [(-1.0, -1.0, 1.0, "se must be nonnegative"),
                          (1.0, 0.5, 2.0, "interval must contain the point estimate")])
def test_inference_result_keeps_its_invariants(se, ci_low, ci_high, problem):
    with pytest.raises(ArgumentError, match=problem):
        InferenceResult(q=LinearForm(1, 1, [0], [0], [1.0]), point=0.0, sigma_hat_sq=1.0,
                        proj_mag_hat=1.0, se=se, ci_low=ci_low, ci_high=ci_high, z=0.0,
                        p_value=1.0, alpha=0.05)


def test_infer_rejects_mismatched_dims(fitted_artifacts):
    _, art = fitted_artifacts
    with pytest.raises(ArgumentError):
        infer_linear_form(art, LinearForm(15, 29, [0], [0], [1.0]))


def test_compare_identical_matchings_is_degenerate(fitted_artifacts):
    _, art = fitted_artifacts
    q = LinearForm(15, 30, [0, 1], [0, 4], [1.0, 1.0])
    with pytest.raises(DegenerateTestError):
        infer_linear_form(art, q.subtract(q))


def test_compare_nearby_matchings_sparsity(fitted_artifacts):
    _, art = fitted_artifacts
    rows = np.arange(15)
    q1 = LinearForm(15, 30, rows, rows, np.ones(15))
    q2 = LinearForm(15, 30, rows, np.append(rows[:14], 20), np.ones(15))
    res = infer_linear_form(art, q1.subtract(q2))
    assert res.q.size <= 4
    assert res.alpha == 0.05


def test_projection_magnitude_estimate_tightens_with_data():
    truth = generate_low_rank(10, 20, 2, 1.0, np.random.default_rng([75, 1]))
    q = LinearForm(10, 20, [0, 4, 7], [3, 11, 0], [1.0, 2.0, -1.0])
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
