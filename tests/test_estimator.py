"""Tests for the batch-split gradient descent estimator."""
import numpy as np
import pytest

from matchlearn import (
    ArgumentError,
    DegenerateInitError,
    EstimatorConfig,
    FactorState,
    NonFiniteResultError,
    ObservationBatch,
    OneToOne,
    RankDeficientDesignError,
    RemainderDroppedWarning,
    SingularCoreError,
    TwoSided,
    aggregate_response,
    batch_loss,
    batch_loss_gradient,
    entrywise_probability,
    fit,
    generate_low_rank,
    gradient_step,
    observe,
    partition_batches,
    solve_G,
    spectral_init,
)


def projector_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a @ a.T - b @ b.T, 2))


def make_problem(d1, d2, r, T, sigma, seed, scale=1.0):
    truth = generate_low_rank(d1, d2, r, scale, np.random.default_rng([seed, 1]))
    batch = observe(truth, OneToOne(), T, sigma, np.random.default_rng([seed, 2]))
    return truth, batch


# A scheme whose matchings may leave rows unmatched, for hand-built
# batches of partial matchings.
PARTIAL = TwoSided(0.5, 0.5, 0.1, 0.1, 0.1)


def tiling_batch(truth):
    """d2 shifted one-to-one matchings covering every entry exactly once."""
    d1, d2 = truth.shape
    rows = np.tile(np.arange(d1), d2)
    cols = (rows + np.repeat(np.arange(d2), d1)) % d2
    return ObservationBatch(OneToOne(), d1, d2, 0.0, rows, cols, truth.values[rows, cols],
                            np.arange(0, d1 * d2 + 1, d1))


# ---------------------------------------------------------------------------
# partition_batches
# ---------------------------------------------------------------------------

def test_partition_exact_division():
    assert partition_batches(8, 2) == [(0, 2), (2, 4), (4, 6), (6, 8)]


def test_partition_remainder_dropped_with_warning():
    with pytest.warns(RemainderDroppedWarning):
        ranges = partition_batches(9, 2)
    assert ranges == [(0, 2), (2, 4), (4, 6), (6, 8)]


def test_partition_survey_scale():
    ranges = partition_batches(1000, 20)
    assert len(ranges) == 40
    assert all(b - a == 25 for a, b in ranges)
    assert ranges[0] == (0, 25) and ranges[-1] == (975, 1000)


def test_partition_too_few_observations():
    with pytest.raises(ArgumentError):
        partition_batches(3, 2)


# ---------------------------------------------------------------------------
# spectral_init
# ---------------------------------------------------------------------------

def test_spectral_init_exact_on_tiling():
    truth = generate_low_rank(4, 8, 2, 1.0, np.random.default_rng(5))
    recs = tiling_batch(truth)
    # Each entry is revealed exactly once across d2 matchings, so with
    # the one-to-one nu = 1/d2 the scaled aggregate reproduces the matrix itself.
    agg = aggregate_response(recs)
    np.testing.assert_allclose(agg, truth.values, atol=1e-12)
    u1, v1 = spectral_init(recs, 2)
    assert projector_distance(u1, truth.left_factors) <= 1e-10
    assert projector_distance(v1, truth.right_factors) <= 1e-10


def test_spectral_init_proximity_one_to_one():
    truth, batch = make_problem(5, 10, 1, 2000, 0.0, seed=7)
    u1, _ = spectral_init(batch, 1)
    assert projector_distance(u1, truth.left_factors) <= 0.2


def test_spectral_init_zero_aggregate_errors():
    rows = np.tile(np.arange(3), 2)
    recs = ObservationBatch(OneToOne(), 3, 6, 0.0, rows, rows + np.repeat([0, 1], 3),
                            np.zeros(6), [0, 3, 6])
    with pytest.raises(DegenerateInitError):
        spectral_init(recs, 1)


def test_spectral_init_argument_validation():
    truth, batch = make_problem(3, 6, 1, 4, 0.0, seed=9)
    with pytest.raises(ArgumentError):
        spectral_init(batch[:0], 1)


# ---------------------------------------------------------------------------
# solve_G
# ---------------------------------------------------------------------------

def test_solve_g_recovers_diagonal_core_noiseless():
    truth, batch = make_problem(6, 12, 2, 200, 0.0, seed=11)
    g = solve_G(truth.left_factors, truth.right_factors, batch)
    np.testing.assert_allclose(g, np.diag(truth.singular_values), atol=1e-8)


def test_solve_g_rank_one_scalar_formula():
    truth, batch = make_problem(4, 8, 1, 30, 0.5, seed=13)
    g = solve_G(truth.left_factors, truth.right_factors, batch)
    num = 0.0
    den = 0.0
    for rec in batch.records:
        for i, j, y in zip(rec.rows, rec.cols, rec.y):
            phi = truth.left_factors[i, 0] * truth.right_factors[j, 0]
            num += y * phi
            den += phi * phi
    assert abs(g[0, 0] - num / den) <= 1e-12 * abs(num / den)


def test_solve_g_matches_dense_normal_equation_oracle():
    rng = np.random.default_rng(17)
    truth, batch = make_problem(4, 6, 2, 40, 1.0, seed=17)
    u = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    v = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    g = solve_G(u, v, batch)

    # Oracle: assemble the r^2 x r^2 normal equations entry by entry.
    a = np.zeros((4, 4))
    b = np.zeros(4)
    for rec in batch.records:
        for i, j, y in zip(rec.rows, rec.cols, rec.y):
            phi = np.array(
                [u[i, p] * v[j, q] for p in range(2) for q in range(2)]
            )
            a += np.outer(phi, phi)
            b += y * phi
    g_oracle = np.linalg.solve(a, b).reshape(2, 2)
    np.testing.assert_allclose(g, g_oracle, atol=1e-9)


def test_solve_g_residual_orthogonality():
    truth, batch = make_problem(5, 10, 2, 60, 1.0, seed=19)
    u, v = truth.left_factors, truth.right_factors
    g = solve_G(u, v, batch)
    # Gradient of the objective in G at the solution must vanish.
    grad = np.zeros((2, 2))
    scale = 0.0
    for rec in batch.records:
        for i, j, y in zip(rec.rows, rec.cols, rec.y):
            resid = u[i] @ g @ v[j] - y
            grad += 2.0 * resid * np.outer(u[i], v[j])
            scale += y * y
    assert np.linalg.norm(grad) <= 1e-8 * max(scale, 1.0)


def test_solve_g_rank_deficient_design_errors():
    recs = ObservationBatch(PARTIAL, 3, 6, 0.0, [0, 1] * 4, [0, 1] * 4, [1.0, 2.0] * 4,
                            [0, 2, 4, 6, 8])
    u = np.linalg.qr(np.random.default_rng(23).standard_normal((3, 2)))[0]
    v = np.linalg.qr(np.random.default_rng(24).standard_normal((6, 2)))[0]
    with pytest.raises(RankDeficientDesignError) as exc_info:
        solve_G(u, v, recs)
    assert exc_info.value.condition is None or exc_info.value.condition > 1e6


def test_solve_g_argument_validation():
    truth, batch = make_problem(4, 8, 2, 10, 0.0, seed=27)
    with pytest.raises(ArgumentError):
        solve_G(truth.left_factors[:, :1], truth.right_factors, batch)
    # No revealed entry: the all-zero design is rank deficient, not a bad argument.
    with pytest.raises(RankDeficientDesignError) as err:
        solve_G(truth.left_factors, truth.right_factors, batch[:0])
    assert err.value.condition == float("inf")


# ---------------------------------------------------------------------------
# gradient_step
# ---------------------------------------------------------------------------

def test_gradient_step_fixed_point_at_truth():
    truth, batch = make_problem(6, 12, 2, 400, 0.0, seed=29)
    recs = batch
    state = FactorState(
        truth.left_factors, np.diag(truth.singular_values), truth.right_factors
    )
    new, grad_norm = gradient_step(state, recs[:200], recs[200:], 0.75)
    assert grad_norm == 0.0
    assert projector_distance(new.U, truth.left_factors) <= 1e-10
    assert projector_distance(new.V, truth.right_factors) <= 1e-10
    err = np.max(np.abs(new.estimate - truth.values))
    assert err <= 1e-8 * truth.singular_values[0]


def test_gradient_matches_central_differences():
    truth, batch = make_problem(3, 4, 1, 12, 0.8, seed=31)
    recs = batch
    m0 = np.random.default_rng(32).uniform(-1.0, 1.0, (3, 4))
    grad = batch_loss_gradient(m0, recs)
    h = 1e-6
    fd = np.zeros_like(grad)
    for i in range(3):
        for j in range(4):
            up = m0.copy()
            dn = m0.copy()
            up[i, j] += h
            dn[i, j] -= h
            fd[i, j] = (batch_loss(up, recs) - batch_loss(dn, recs)) / (2 * h)
    assert np.max(np.abs(grad - fd)) <= 1e-4 * np.max(np.abs(grad))


def test_gradient_step_decreases_projector_distance():
    d1, d2, r = 10, 20, 2
    truth = generate_low_rank(d1, d2, r, 1.0, np.random.default_rng([33, 1]))
    n0 = 3000
    batch = observe(truth, OneToOne(), 3 * n0, 0.0, np.random.default_rng([33, 2]))
    recs = batch
    pert = np.random.default_rng([33, 3])
    u0 = np.linalg.qr(truth.left_factors + 0.25 * pert.standard_normal((d1, r)))[0]
    v0 = np.linalg.qr(truth.right_factors + 0.25 * pert.standard_normal((d2, r)))[0]
    state = FactorState(u0, solve_G(u0, v0, recs[:n0]), v0)
    before = projector_distance(u0, truth.left_factors) + projector_distance(
        v0, truth.right_factors
    )
    new, _ = gradient_step(state, recs[n0 : 2 * n0], recs[2 * n0 :], 0.5)
    after = projector_distance(new.U, truth.left_factors) + projector_distance(
        new.V, truth.right_factors
    )
    assert after < before
    assert after <= 0.7 * before


def test_gradient_step_singular_core_errors():
    truth, batch = make_problem(4, 8, 2, 40, 0.0, seed=37)
    state = FactorState(
        truth.left_factors, np.diag([1.0, 0.0]), truth.right_factors
    )
    with pytest.raises(SingularCoreError):
        gradient_step(state, batch[:20], batch[20:], 0.5)


def test_gradient_step_rejects_bad_n0():
    truth, batch = make_problem(4, 8, 2, 40, 0.0, seed=39)
    state = FactorState(
        truth.left_factors, np.diag(truth.singular_values), truth.right_factors
    )
    with pytest.raises(ArgumentError):
        gradient_step(state, batch[:0], batch[20:], 0.5)


def test_overflow_in_refit_or_step_is_a_numerical_error():
    # Finite rewards near the largest double overflow the core refit's
    # right-hand side, or the gradient of a step.
    u = np.array([[1.0], [0.0]])
    v = np.array([[1.0], [0.0], [0.0], [0.0]])
    huge = ObservationBatch(OneToOne(), 2, 4, 0.0, [0, 1] * 4, [0, 1] * 4, [1.7e308, 0.0] * 4,
                            [0, 2, 4, 6, 8])
    with pytest.raises(NonFiniteResultError, match="core refit"):
        solve_G(u, v, huge)
    state = FactorState(u, np.array([[-1e308]]), v)
    with pytest.raises(NonFiniteResultError, match="gradient step"):
        gradient_step(state, huge, huge, 0.5)


def test_factor_state_validates_inputs():
    rng = np.random.default_rng(41)
    u = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    v = np.linalg.qr(rng.standard_normal((8, 2)))[0]
    with pytest.raises(ArgumentError):
        FactorState(u * 1.5, np.eye(2), v)
    with pytest.raises(ArgumentError):
        FactorState(u, np.eye(3), v)
    state = FactorState(u, np.diag([3.0, 2.0]), v)
    np.testing.assert_allclose(state.g_svd[1], [3.0, 2.0], rtol=1e-15)


def test_batch_loss_hand_computed():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    rec = ObservationBatch(OneToOne(), 2, 2, 0.0, [0, 1], [0, 1], [0.0, 0.0], [0, 2])
    assert batch_loss(m, rec) == pytest.approx(17.0)
    grad = batch_loss_gradient(m, rec)
    np.testing.assert_allclose(grad, [[2.0, 0.0], [0.0, 8.0]])


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_noiseless_trace_contracts():
    truth, batch = make_problem(20, 40, 2, 4000, 0.0, seed=43)
    cfg = EstimatorConfig(r=2, eta=0.75, m=5, nu=1.0 / 40)
    m_hat, trace = fit(batch, cfg, truth=truth)
    assert len(trace) == 5
    # Noiseless: every gradient pair strictly shrinks the error.
    assert np.all(np.diff(trace.rel_max_err_sq) < 0.0)
    rel = np.max(np.abs(m_hat - truth.values)) / truth.singular_values[-1]
    # Four calibrated steps retain about (1-eta)^4 of the spectral
    # initializer's error, which lands near 2e-4 here.
    assert rel <= 1e-3


def test_fit_noiseless_reaches_tight_accuracy_with_more_steps():
    truth, batch = make_problem(20, 40, 2, 4000, 0.0, seed=43)
    cfg = EstimatorConfig(r=2, eta=0.75, m=20, nu=1.0 / 40)
    m_hat, _ = fit(batch, cfg, truth=truth)
    rel = np.max(np.abs(m_hat - truth.values)) / truth.singular_values[-1]
    assert rel <= 1e-6


def test_fit_trace_shape_at_survey_scale():
    reps = 20
    for eta in (0.5, 0.7):
        traces = []
        for rep in range(reps):
            truth = generate_low_rank(50, 150, 2, 20.0, np.random.default_rng([11, rep, 1]))
            batch = observe(
                truth, OneToOne(), 600, 1.0, np.random.default_rng([11, rep, 2])
            )
            cfg = EstimatorConfig(r=2, eta=eta, m=10, nu=1.0 / 150)
            _, trace = fit(batch, cfg, truth=truth)
            traces.append(trace.rel_max_err_sq)
        med = np.median(np.array(traces), axis=0)
        # Most of the descent happens in the first few batches ...
        assert med[2] <= 0.5 * med[0]
        assert med[4] <= 0.1 * med[0]
        # ... after which the curve flattens out rather than climbing.
        for p in range(4, 9):
            assert med[p + 1] <= 1.25 * med[p]
        assert med[9] <= med[4]


def test_fit_noise_proportionality():
    ratios = []
    for rep in range(50):
        truth = generate_low_rank(20, 60, 2, 5.0, np.random.default_rng([7, rep, 1]))
        finals = []
        for sigma in (1.0, 2.0):
            batch = observe(
                truth, OneToOne(), 2400, sigma, np.random.default_rng([7, rep, 2])
            )
            cfg = EstimatorConfig(r=2, eta=0.7, m=6, nu=1.0 / 60)
            m_hat, _ = fit(batch, cfg)
            finals.append(np.max(np.abs(m_hat - truth.values)))
        ratios.append(finals[1] / finals[0])
    assert 1.5 <= float(np.median(ratios)) <= 2.5


def test_fit_rejects_mismatched_nu():
    truth, batch = make_problem(4, 8, 1, 16, 0.0, seed=47)
    cfg = EstimatorConfig(r=1, eta=0.75, m=2, nu=0.5)
    with pytest.raises(ArgumentError):
        fit(batch, cfg)


def test_fit_rejects_mismatched_nu_on_a_two_sided_batch():
    truth = generate_low_rank(4, 8, 1, 1.0, np.random.default_rng(59))
    batch = observe(truth, PARTIAL, 16, 0.0, np.random.default_rng(60))
    nu = entrywise_probability(PARTIAL, 4, 8).nu
    with pytest.raises(ArgumentError, match="inconsistent"):
        fit(batch, EstimatorConfig(r=1, eta=0.75, m=2, nu=nu * (1 + 1e-6)))
    m_hat, _ = fit(batch, EstimatorConfig(r=1, eta=0.75, m=2, nu=nu))
    assert np.all(np.isfinite(m_hat))


def test_fit_single_pair_returns_spectral_refit():
    truth, batch = make_problem(5, 10, 2, 400, 0.2, seed=49)
    cfg = EstimatorConfig(r=2, eta=0.75, m=1, nu=1.0 / 10)
    m_hat, trace = fit(batch, cfg, truth=truth)
    assert len(trace) == 1
    assert np.isnan(trace.grad_norm[0])
    u, v = spectral_init(batch[:200], 2)
    g = solve_G(u, v, batch[200:])
    np.testing.assert_array_equal(m_hat, (u @ g) @ v.T)


def test_fit_trace_policies():
    truth, batch = make_problem(5, 10, 2, 200, 0.1, seed=53)
    cfg = EstimatorConfig(r=2, eta=0.75, m=2, nu=1.0 / 10)
    _, trace = fit(batch, cfg)
    assert np.all(np.isnan(trace.rel_max_err_sq))
    assert np.all(np.isfinite(trace.g_sigma_min))


def test_fit_reports_failing_batch_index():
    rows = np.tile(np.arange(3), 8)
    cols = (rows + np.repeat(np.arange(8), 3)) % 6
    batch = ObservationBatch(OneToOne(), 3, 6, 0.0, rows, cols, np.zeros(24), np.arange(0, 25, 3))
    cfg = EstimatorConfig(r=1, eta=0.75, m=2, nu=1.0 / 6)
    with pytest.raises(DegenerateInitError, match="batch pair 1"):
        fit(batch, cfg)


def test_fit_reports_failure_in_later_batch():
    truth = generate_low_rank(3, 6, 2, 1.0, np.random.default_rng(57))
    good = observe(truth, OneToOne(), 90, 0.0, np.random.default_rng(58))
    # 30 stuck periods after the good ones leave row 2 unmatched, which a
    # partial scheme allows.
    batch = ObservationBatch(
        PARTIAL, 3, 6, 0.0, np.append(good.rows, [0, 1] * 30), np.append(good.cols, [0, 1] * 30),
        np.append(good.y, np.tile(truth.values[[0, 1], [0, 1]], 30)),
        np.append(good.offsets, good.offsets[-1] + np.arange(2, 61, 2)))
    cfg = EstimatorConfig(r=2, eta=0.75, m=2, nu=entrywise_probability(PARTIAL, 3, 6).nu)
    with pytest.raises(RankDeficientDesignError, match="batch pair 2"):
        fit(batch, cfg)


def test_fit_estimate_is_rotation_invariant():
    d1, d2, r = 8, 16, 2
    truth = generate_low_rank(d1, d2, r, 1.0, np.random.default_rng([59, 1]))
    n0 = 300
    batch = observe(truth, OneToOne(), 6 * n0, 0.3, np.random.default_rng([59, 2]))
    slices = [batch[p * n0 : (p + 1) * n0] for p in range(6)]

    rng = np.random.default_rng([59, 3])
    o1 = np.linalg.qr(rng.standard_normal((r, r)))[0]
    o2 = np.linalg.qr(rng.standard_normal((r, r)))[0]

    u, v = spectral_init(slices[0], r)
    states = []
    for uu, vv in ((u, v), (u @ o1, v @ o2)):
        states.append(FactorState(uu, solve_G(uu, vv, slices[1]), vv))
    scale = np.max(np.abs(states[0].estimate))
    assert np.max(np.abs(states[0].estimate - states[1].estimate)) <= 1e-8 * scale

    for p in (1, 2):
        states = [
            gradient_step(s, slices[2 * p], slices[2 * p + 1], 0.7)[0]
            for s in states
        ]
        diff = np.max(np.abs(states[0].estimate - states[1].estimate))
        assert diff <= 1e-8 * scale


def test_trace_csv_round_trip(tmp_path):
    truth, batch = make_problem(5, 10, 1, 120, 0.3, seed=63)
    cfg = EstimatorConfig(r=1, eta=0.75, m=3, nu=1.0 / 10)
    _, trace = fit(batch, cfg, truth=truth)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "batch,rel_max_err_sq,g_sigma_min,g_sigma_max,grad_norm"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == pytest.approx(trace.rel_max_err_sq[0])
    assert first[4] == "nan"


def test_estimator_config_validation():
    good = dict(r=1, eta=0.5, m=1, nu=0.1)
    EstimatorConfig(**good)
    for bad in (
        dict(good, eta=0.0),
        dict(good, eta=1.0),
        dict(good, m=0),
        dict(good, r=0),
        dict(good, nu=0.0),
        dict(good, nu=1.5),
    ):
        with pytest.raises(ArgumentError):
            EstimatorConfig(**bad)
