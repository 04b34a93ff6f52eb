"""Tests for optimal one-to-one matching search and policy evaluation."""
from itertools import permutations

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import matchlearn.policy as policy_mod
from matchlearn import (
    ArgumentError,
    DataFormatError,
    EstimatorConfig,
    Matching,
    OneToOne,
    PolicyEvaluation,
    evaluate_policy,
    generate_low_rank,
    matching_from_json,
    matching_to_json,
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
    tol = policy_mod._TIE_RTOL * (1.0 + 3.0 + 1.0)
    for gap, expected in ((0.5 * tol, [0, 1, 2]), (1.5 * tol, [1, 0, 2]),
                          (10.0 * tol, [1, 0, 2])):
        m = np.array([[1.0, 1.0 + gap, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert optimal_one_to_one(m).cols.tolist() == expected


def test_policy_size_200_by_600_reaches_the_assignment_optimum():
    m = generate_low_rank(200, 600, 2, 20.0, np.random.default_rng([157, 1])).values
    got = optimal_one_to_one(m)
    assert np.array_equal(got.rows, np.arange(200))
    assert np.unique(got.cols).size == 200
    rows, cols = linear_sum_assignment(m, maximize=True)
    best = float(m[rows, cols].sum())
    tol = policy_mod._TIE_RTOL * (1.0 + abs(best) + float(np.abs(m).max()))
    assert abs(float(m[np.arange(200), got.cols].sum()) - best) <= tol


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
# matching JSON round-trip
# ---------------------------------------------------------------------------

def test_matching_json_round_trip():
    mat = Matching(3, 6, [0, 1, 2], [5, 2, 0])
    back = matching_from_json(matching_to_json(mat))
    assert back.pairs == mat.pairs and back.d1 == 3 and back.d2 == 6
    q1 = matching_to_linear_form(mat)
    q2 = matching_to_linear_form(back)
    assert np.array_equal(q1.rows, q2.rows) and np.array_equal(q1.cols, q2.cols)


def test_matching_json_rejects_malformed_input():
    with pytest.raises(DataFormatError):
        matching_from_json("{not json")
    with pytest.raises(DataFormatError):
        matching_from_json('{"d1": 2, "pairs": []}')
    with pytest.raises(DataFormatError):
        matching_from_json('{"d1": 2, "d2": 2, "pairs": [[0, 0], [1]]}')
    with pytest.raises(DataFormatError):
        matching_from_json('{"d1": 2, "d2": 2, "pairs": [[0, 0], [1, 0]]}')


@pytest.mark.parametrize(
    "pairs", ["[[0.9, 1.7]]", '[["1", "2"]]', "[[true, 1]]", "[[0, 1], [1, false]]"],
    ids=["float", "string", "bool", "mixed_bool"],
)
def test_matching_json_takes_integer_pairs_only(pairs):
    with pytest.raises(DataFormatError):
        matching_from_json(f'{{"d1": 3, "d2": 4, "pairs": {pairs}}}')


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
    ev = evaluate_policy(art, mat)
    true_value = matching_to_linear_form(true_mat).inner(truth.values)
    assert ev.total_reward_estimate == pytest.approx(true_value, abs=1e-5)
    assert ev.inference.ci_low <= ev.total_reward_estimate <= ev.inference.ci_high


def test_policy_evaluation_rejects_mismatched_inference():
    truth = generate_low_rank(6, 9, 1, 1.0, np.random.default_rng([143, 1]))
    batch = observe(truth, OneToOne(), 400, 0.1, np.random.default_rng([143, 2]))
    cfg = EstimatorConfig(r=1, eta=0.75, m=2, nu=1.0 / 9)
    art = prepare_inference(batch, cfg)
    mat = optimal_one_to_one(art.m_hat)
    ev = evaluate_policy(art, mat)
    other = Matching(6, 9, [0], [0])
    if other.pairs != mat.pairs:
        with pytest.raises(ArgumentError):
            PolicyEvaluation(other, ev.total_reward_estimate, ev.inference)
