"""Tests for optimal one-to-one matching search and policy evaluation."""
from itertools import permutations

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import matchlearn.policy as policy_mod
from matchlearn import (
    ArgumentError,
    EstimatorConfig,
    Matching,
    NonFiniteResultError,
    OneToOne,
    evaluate_policy,
    generate_low_rank,
    matching_to_linear_form,
    observe,
    optimal_one_to_one,
    prepare_inference,
)


def brute_force_best(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Exhaustive maximum over injections; first (lex smallest) argmax."""
    d1, d2 = m.shape
    perms = np.array(list(permutations(range(d2), d1)), dtype=np.int64)
    totals = m[np.arange(d1), perms].sum(axis=1)
    best = int(np.argmax(totals))
    return perms[best], float(totals[best])


# ---------------------------------------------------------------------------
# optimal_one_to_one
# ---------------------------------------------------------------------------

def tie_slack(best: float, m) -> float:
    """optimal_one_to_one's tie slack for an optimum ``best`` of ``m`` (or of a matrix whose
    largest magnitude is ``m``), formed term by term as it forms it."""
    rtol = policy_mod._TIE_RTOL
    return rtol + rtol * abs(best) + rtol * float(np.abs(m).max())


def test_single_row_picks_largest_column():
    got = optimal_one_to_one(np.array([[1.0, 3.0]]))
    assert got.pairs == frozenset({(0, 1)})


def test_diagonally_dominant_square_is_identity():
    rng = np.random.default_rng(111)
    m = rng.uniform(-1.0, 1.0, size=(7, 7))
    np.fill_diagonal(m, 10.0)
    got = optimal_one_to_one(m)
    assert np.array_equal(got.cols, np.arange(7))


def test_seeded_integer_matrix_matches_exhaustive_search():
    m = np.random.default_rng(113).integers(-5, 6, size=(4, 5)).astype(float)
    oracle_cols, oracle_total = brute_force_best(m)
    got = optimal_one_to_one(m)
    assert np.array_equal(got.cols, oracle_cols)
    assert m[np.arange(4), got.cols].sum() == oracle_total


def test_matches_brute_force_on_200_random_instances():
    rng = np.random.default_rng(127)
    for _ in range(200):
        d1 = int(rng.integers(1, 7))
        d2 = int(rng.integers(d1, 8))
        m = rng.uniform(-10.0, 10.0, size=(d1, d2))
        oracle_cols, oracle_total = brute_force_best(m)
        got = optimal_one_to_one(m)
        assert m[np.arange(d1), got.cols].sum() == pytest.approx(
            oracle_total, rel=1e-12, abs=1e-12
        )
        assert np.array_equal(got.cols, oracle_cols)


def test_tie_breaking_matches_lexicographic_oracle_under_heavy_ties():
    rng = np.random.default_rng(131)
    for _ in range(60):
        d1 = int(rng.integers(2, 7))
        d2 = int(rng.integers(d1, 8))
        # Tiny integer range: optima are massively tied.
        m = rng.integers(0, 3, size=(d1, d2)).astype(float)
        oracle_cols, _ = brute_force_best(m)
        got = optimal_one_to_one(m)
        assert np.array_equal(got.cols, oracle_cols)


def test_all_equal_entries_returns_lexicographically_smallest():
    got = optimal_one_to_one(np.full((4, 6), 2.5))
    assert np.array_equal(got.rows, np.arange(4))
    assert np.array_equal(got.cols, np.arange(4))


def test_affine_transform_preserves_argmax():
    rng = np.random.default_rng(137)
    m = rng.standard_normal((5, 9))
    base = optimal_one_to_one(m)
    for _ in range(10):
        c = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(-20.0, 20.0))
        assert optimal_one_to_one(c * m + b).pairs == base.pairs


def test_beats_random_injections():
    rng = np.random.default_rng(139)
    m = rng.standard_normal((8, 13))
    got = optimal_one_to_one(m)
    best = m[np.arange(8), got.cols].sum()
    for _ in range(1000):
        cols = rng.permutation(13)[:8]
        assert m[np.arange(8), cols].sum() <= best + 1e-12


def count_solves(monkeypatch) -> list[int]:
    """Count linear_sum_assignment calls made by the policy module."""
    calls = [0]
    real = policy_mod.linear_sum_assignment

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(policy_mod, "linear_sum_assignment", counted)
    return calls


def test_unique_optimum_costs_at_most_one_solve_per_row(monkeypatch):
    m = generate_low_rank(50, 150, 2, 20.0, np.random.default_rng([151, 1])).values
    calls = count_solves(monkeypatch)
    got = optimal_one_to_one(m)
    assert calls[0] <= 50 + 1
    rows, cols = linear_sum_assignment(m, maximize=True)
    assert m[np.arange(50), got.cols].sum() == pytest.approx(
        m[rows, cols].sum(), rel=1e-12
    )


def test_tie_slack_decides_between_near_optimal_assignments():
    # The identity (lexicographically smallest) totals 3; swapping rows 0
    # and 1 totals 3 + gap.  Within the slack the identity counts as
    # optimal; beyond it the swap must win.
    tol = tie_slack(3.0, 1.0)
    for gap, expected in ((0.5 * tol, [0, 1, 2]), (1.5 * tol, [1, 0, 2]),
                          (10.0 * tol, [1, 0, 2])):
        m = np.array([[1.0, 1.0 + gap, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert optimal_one_to_one(m).cols.tolist() == expected


def test_alternatives_just_inside_the_tie_slack_stay_candidates():
    # As above, with gaps the certificate's near edges (slack <= 2 tol)
    # must still admit: the identity is within tol of the swap.
    tol = tie_slack(3.0, 1.0)
    for gap in (0.6 * tol, 0.9 * tol):
        m = np.array([[1.0, 1.0 + gap, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert optimal_one_to_one(m).cols.tolist() == [0, 1, 2]


def test_policy_size_200_by_600_reaches_the_assignment_optimum():
    m = generate_low_rank(200, 600, 2, 20.0, np.random.default_rng([157, 1])).values
    got = optimal_one_to_one(m)
    assert np.array_equal(got.rows, np.arange(200))
    assert np.unique(got.cols).size == 200
    rows, cols = linear_sum_assignment(m, maximize=True)
    best = float(m[rows, cols].sum())
    tol = tie_slack(best, m)
    assert abs(float(m[np.arange(200), got.cols].sum()) - best) <= tol


@pytest.mark.parametrize("d1", [50, 200])
def test_rank_two_search_costs_one_solve(monkeypatch, d1):
    m = generate_low_rank(d1, 3 * d1, 2, 20.0, np.random.default_rng([151, d1])).values
    calls = count_solves(monkeypatch)
    got = optimal_one_to_one(m)
    assert calls[0] == 1
    rows, cols = linear_sum_assignment(m, maximize=True)
    assert np.array_equal(got.cols, cols)


def test_policy_size_500_by_1500_reaches_the_assignment_optimum():
    m = generate_low_rank(500, 1500, 2, 20.0, np.random.default_rng([159, 1])).values
    got = optimal_one_to_one(m)
    assert np.unique(got.cols).size == 500
    rows, cols = linear_sum_assignment(m, maximize=True)
    best = float(m[rows, cols].sum())
    tol = tie_slack(best, m)
    assert abs(float(m[np.arange(500), got.cols].sum()) - best) <= tol


@pytest.mark.parametrize(
    "m, movable",
    [([[1.0, 2.0], [2.0, 3.0]], [True, True]),
     ([[1.0, 1.0, 0.0]], [True]),
     ([[1.0, 1.0, 3.0], [2.0, 2.0, 3.0]], [False, True])],
    ids=["tight_cycle", "tight_path", "path_from_later_column"],
)
def test_rows_with_tied_alternatives_fall_back_to_the_scan(m, movable):
    # The solver's optimum [1, 0] of the equal-sum swap, and [2, 1] of
    # the last matrix, are not the lexicographically smallest ones.
    m = np.array(m)
    sigma, best = policy_mod._solve(m)
    tol = tie_slack(best, m)
    assert policy_mod._certificate(m, sigma, tol)[0].tolist() == movable
    assert np.array_equal(optimal_one_to_one(m).cols, brute_force_best(m)[0])


def test_overflowing_optimal_total_raises_non_finite_result():
    m = np.array([[1e308, 1.7e308, 0.0], [1.7e308, 1e308, 0.0]])
    with pytest.raises(NonFiniteResultError):
        optimal_one_to_one(m)


@pytest.mark.parametrize(
    "m",
    [[[0.0, 1.7e308, 1.7e308]],
     [[1e307, 9e307, 9e307], [-9e307, 5e307, 0.0]],
     [[-1.7e308, 1.7e308]]],
    ids=["slack_terms_pass_the_largest_float", "two_rows", "non_finite_certificate_slack"],
)
def test_large_finite_rewards_match_exhaustive_search(m):
    # |best total| + max|m| passes the largest float, yet the tie slack stays finite.
    m = np.array(m)
    assert np.array_equal(optimal_one_to_one(m).cols, brute_force_best(m)[0])


@pytest.mark.parametrize(
    "m, sigma, tol",
    [([[-1.7e308, 1.7e308]], [1], 1.0),  # the slack of (0, 0) is 1.7e308 + 1.7e308
     ([[1.0, 0.0], [0.0, 1.0]], [1, 0], 1e-9),  # a worst matching: the sweeps never settle
     ([[0.0, 5.0]], [0], 1e-9)],  # the sweeps settle, but the excess 5 exceeds tol
    ids=["non_finite_slack", "sweeps_never_settle", "excess_above_tol"],
)
def test_a_certificate_that_cannot_hold_certifies_nothing(m, sigma, tol):
    movable, near = policy_mod._certificate(np.array(m), np.array(sigma), tol)
    assert movable.all() and near.all()


def test_optimal_one_to_one_validation():
    with pytest.raises(ArgumentError):
        optimal_one_to_one(np.zeros((3, 2)))
    with pytest.raises(ArgumentError):
        optimal_one_to_one(np.array([[1.0, np.inf]]))
    with pytest.raises(ArgumentError):
        optimal_one_to_one(np.zeros(4))


# ---------------------------------------------------------------------------
# matching_to_linear_form
# ---------------------------------------------------------------------------

def test_empty_matching_gives_empty_form():
    q = matching_to_linear_form(Matching(3, 5, [], []))
    assert q.size == 0
    assert q.inner(np.ones((3, 5))) == 0.0


def test_full_matching_l1_norm_is_d1():
    q = matching_to_linear_form(Matching(4, 7, [0, 1, 2, 3], [6, 0, 3, 1]))
    assert np.abs(q.weights).sum() == 4.0
    assert q.inner(np.ones((4, 7))) == 4.0


# ---------------------------------------------------------------------------
# evaluate_policy
# ---------------------------------------------------------------------------

def test_evaluate_policy_noiseless_recovers_optimal_value():
    truth = generate_low_rank(8, 12, 2, 1.0, np.random.default_rng([141, 1]))
    batch = observe(truth, OneToOne(), 4000, 0.0, np.random.default_rng([141, 2]))
    cfg = EstimatorConfig(r=2, eta=0.75, m=8, nu=1.0 / 12)
    art = prepare_inference(batch, cfg)
    mat = optimal_one_to_one(art.m_hat)
    true_mat = optimal_one_to_one(truth.values)
    assert mat.pairs == true_mat.pairs
    res = evaluate_policy(art, mat)
    true_value = matching_to_linear_form(true_mat).inner(truth.values)
    assert res.point == pytest.approx(true_value, abs=1e-5)
    assert res.ci_low <= res.point <= res.ci_high
