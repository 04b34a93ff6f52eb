"""Tests for matrix domain types, truncated SVD, and projection geometry."""
import json

import numpy as np
import pytest

from matchlearn import (
    ArgumentError,
    DataFormatError,
    DegenerateSpectrumWarning,
    LinearForm,
    RewardMatrix,
    generate_low_rank,
    projection_magnitude,
    svd_r,
)


def random_orthonormal(n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return q


def form_from_dense(dense: np.ndarray) -> LinearForm:
    """The form weighting every nonzero entry of ``dense`` by its value."""
    rows, cols = np.nonzero(dense)
    return LinearForm(*dense.shape, rows, cols, dense[rows, cols])


# ---------------------------------------------------------------------------
# generate_low_rank
# ---------------------------------------------------------------------------

def test_generate_low_rank_has_exactly_r_positive_singular_values():
    m = generate_low_rank(100, 750, 2, 20.0, np.random.default_rng(0))
    s = np.linalg.svd(m.values, compute_uv=False)
    assert s[1] > 1e-6 * s[0]
    assert np.all(s[2:] <= 1e-10 * s[0])
    assert m.singular_values.shape == (2,)
    assert np.all(m.singular_values > 0)


def test_generate_low_rank_full_rank_truncation_is_identity():
    # Mirrors the documented generation recipe to recover the raw draw.
    m = generate_low_rank(3, 3, 3, 1.0, np.random.default_rng(7))
    raw = np.random.default_rng(7).uniform(-1.0, 1.0, size=(3, 3))
    assert np.max(np.abs(m.values - raw)) <= 1e-12


def test_generate_low_rank_rank_one_output_is_rank_one():
    m = generate_low_rank(4, 6, 1, 5.0, np.random.default_rng(3))
    # Independent oracle: full SVD recomputed from scratch on the values.
    s = np.linalg.svd(np.array(m.values), compute_uv=False)
    assert s[1] / s[0] <= 1e-10


def test_generate_low_rank_deterministic_given_seed():
    a = generate_low_rank(6, 9, 2, 2.0, np.random.default_rng(11))
    b = generate_low_rank(6, 9, 2, 2.0, np.random.default_rng(11))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.left_factors, b.left_factors)


def test_generate_low_rank_rejects_bad_dimensions():
    rng = np.random.default_rng(0)
    with pytest.raises(ArgumentError):
        generate_low_rank(10, 5, 2, 1.0, rng)  # d2 < d1
    with pytest.raises(ArgumentError):
        generate_low_rank(5, 10, 0, 1.0, rng)
    with pytest.raises(ArgumentError):
        generate_low_rank(5, 10, 6, 1.0, rng)
    with pytest.raises(ArgumentError):
        generate_low_rank(5, 10, 2, 0.0, rng)


# ---------------------------------------------------------------------------
# svd_r
# ---------------------------------------------------------------------------

def test_svd_r_identity_warns_degenerate_and_returns_unit_values():
    with pytest.warns(DegenerateSpectrumWarning):
        u, s, v = svd_r(np.eye(3), 2)
    assert np.allclose(s, [1.0, 1.0])
    # Columns span a 2-dim coordinate subspace of R^3.
    assert np.allclose(u.T @ u, np.eye(2), atol=1e-12)


def test_svd_r_rank_one_outer_product_norm():
    rng = np.random.default_rng(5)
    u = rng.standard_normal(4)
    u *= 2.0 / np.linalg.norm(u)
    v = rng.standard_normal(7)
    v *= 3.0 / np.linalg.norm(v)
    _, s, _ = svd_r(np.outer(u, v), 1)
    assert abs(s[0] - 6.0) <= 1e-12


def test_svd_r_matches_gram_eigendecomposition_oracle():
    a = np.random.default_rng(12).standard_normal((5, 7))
    _, s, _ = svd_r(a, 3)
    # Oracle: eigenvalues of the 7x7 Gram matrix, an independent route.
    gram_eigs = np.linalg.eigvalsh(a.T @ a)[::-1]
    assert np.max(np.abs(s - np.sqrt(gram_eigs[:3]))) <= 1e-9


def test_svd_r_reconstruction_and_orthonormality():
    a = np.random.default_rng(2).standard_normal((6, 8))
    u, s, v = svd_r(a, 6)
    assert np.max(np.abs(u.T @ u - np.eye(6))) <= 1e-10
    assert np.max(np.abs(v.T @ v - np.eye(6))) <= 1e-10
    assert np.max(np.abs((u * s) @ v.T - a)) <= 1e-10 * s[0]


def test_svd_r_sign_convention_pins_factors():
    a = np.random.default_rng(9).standard_normal((6, 8))
    u, s, v = svd_r(a, 3)
    for k in range(3):
        assert u[np.argmax(np.abs(u[:, k])), k] > 0
    # Determinism: bit-identical factors on a repeat call.
    u2, s2, v2 = svd_r(a.copy(), 3)
    assert np.array_equal(u, u2) and np.array_equal(s, s2) and np.array_equal(v, v2)


def test_svd_r_rejects_bad_rank_and_nonfinite():
    with pytest.raises(ArgumentError):
        svd_r(np.ones((3, 4)), 4)
    with pytest.raises(ArgumentError):
        svd_r(np.ones((3, 4)), 0)
    bad = np.ones((3, 4))
    bad[0, 0] = np.nan
    with pytest.raises(ArgumentError):
        svd_r(bad, 1)


def test_eckart_young_optimality_against_sampled_competitors():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((6, 8))
    r = 2
    u, s, v = svd_r(a, r)
    best = np.linalg.norm(a - (u * s) @ v.T)
    for _ in range(50):
        left = rng.standard_normal((6, r))
        right = rng.standard_normal((8, r))
        competitor = left @ right.T
        assert best <= np.linalg.norm(a - competitor) + 1e-12


# ---------------------------------------------------------------------------
# RewardMatrix
# ---------------------------------------------------------------------------

def test_reward_matrix_validates_invariants():
    rng = np.random.default_rng(1)
    m = generate_low_rank(5, 8, 2, 3.0, rng)
    # Tampered factors must be rejected.
    bad_u = np.array(m.left_factors)
    bad_u[:, 0] *= 2.0
    with pytest.raises(ArgumentError):
        RewardMatrix(m.values, 2, bad_u, m.singular_values, m.right_factors)
    with pytest.raises(ArgumentError):
        RewardMatrix(m.values + 1.0, 2, m.left_factors, m.singular_values,
                     m.right_factors)
    with pytest.raises(ArgumentError):
        RewardMatrix(m.values.T, 2, m.right_factors, m.singular_values,
                     m.left_factors)  # d2 < d1


def test_reward_matrix_is_immutable():
    m = generate_low_rank(4, 6, 2, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        m.values[0, 0] = 99.0


# ---------------------------------------------------------------------------
# LinearForm
# ---------------------------------------------------------------------------

def test_linear_form_basic_accessors():
    q = LinearForm.from_triplets(3, 4, [(0, 1, 2.0), (2, 3, -1.5)])
    assert q.dims == (3, 4)
    m = np.arange(12, dtype=float).reshape(3, 4)
    assert q.inner(m) == pytest.approx(2.0 * m[0, 1] - 1.5 * m[2, 3])


def test_linear_form_rejects_duplicates_and_out_of_range():
    with pytest.raises(ArgumentError):
        LinearForm.from_triplets(3, 4, [(0, 1, 1.0), (0, 1, 2.0)])
    with pytest.raises(ArgumentError):
        LinearForm.from_triplets(3, 4, [(3, 0, 1.0)])
    with pytest.raises(ArgumentError):
        LinearForm.from_triplets(3, 4, [(0, 4, 1.0)])


def test_linear_form_empty_is_legal():
    q = LinearForm.from_triplets(3, 4, [])
    assert q.size == 0
    assert q.inner(np.ones((3, 4))) == 0.0


def test_linear_form_subtract_cancels_shared_entries():
    q1 = LinearForm.from_triplets(3, 4, [(0, 0, 1.0), (1, 2, 1.0)])
    q2 = LinearForm.from_triplets(3, 4, [(1, 2, 1.0), (2, 3, 1.0)])
    d = q1.subtract(q2)
    entries = dict(zip(zip(d.rows.tolist(), d.cols.tolist()), d.weights.tolist()))
    assert entries == {(0, 0): 1.0, (2, 3): -1.0}


def test_linear_form_json_round_trip():
    q = LinearForm.from_triplets(5, 6, [(0, 5, 0.25), (4, 0, -3.0)])
    text = q.to_json()
    parsed = json.loads(text)
    assert all(set(e) == {"i", "j", "w"} for e in parsed)
    back = LinearForm.from_json(text, 5, 6)
    assert np.array_equal(back.rows, q.rows)
    assert np.array_equal(back.cols, q.cols)
    assert np.array_equal(back.weights, q.weights)


def test_linear_form_from_json_rejects_malformed():
    with pytest.raises(DataFormatError):
        LinearForm.from_json("not json", 3, 3)
    with pytest.raises(DataFormatError):
        LinearForm.from_json('{"i": 0}', 3, 3)
    with pytest.raises(DataFormatError):
        LinearForm.from_json('[{"i": 0, "j": 9, "w": 1.0}]', 3, 3)


@pytest.mark.parametrize("entry", [
    '{"i": "abc", "j": 1, "w": 1}',
    '{"i": 0.9, "j": 2, "w": 1}',
    '{"i": 0, "j": "2", "w": 1}',
    '{"i": true, "j": 1, "w": 1}',
    '{"i": 0, "j": [1], "w": 1}',
    '{"i": 0, "j": 100000000000000000000000, "w": 1}',
    '{"i": 0, "j": 1, "w": true}',
    '{"i": 0, "j": 1, "w": "1"}',
    '{"i": 0, "j": 1, "w": null}',
    '{"i": 0, "j": 1, "w": NaN}',
    '{"i": 0, "j": 1, "w": 1e999}',
], ids=["string_i", "float_i", "string_j", "bool_i", "list_j", "huge_j",
        "bool_w", "string_w", "null_w", "nan_w", "inf_w"])
def test_linear_form_from_json_takes_integer_indices_and_numeric_weights(entry):
    # Entry 1 is malformed; the error names it.
    text = f'[{{"i": 0, "j": 0, "w": 1.0}}, {entry}]'
    with pytest.raises(DataFormatError, match="entry 1"):
        LinearForm.from_json(text, 3, 3)


def test_linear_form_from_json_accepts_integer_weights():
    q = LinearForm.from_json('[{"i": 2, "j": 1, "w": 3}]', 3, 3)
    assert (q.rows.tolist(), q.cols.tolist(), q.weights.tolist()) == ([2], [1], [3.0])


# ---------------------------------------------------------------------------
# projection_magnitude
# ---------------------------------------------------------------------------

def test_projection_magnitude_single_entry_formula():
    rng = np.random.default_rng(23)
    u = random_orthonormal(6, 2, rng)
    v = random_orthonormal(9, 2, rng)
    i, j = 4, 7
    q = LinearForm.from_triplets(6, 9, [(i, j, 1.0)])
    nu_i = u[i] @ u[i]
    nv_j = v[j] @ v[j]
    expected = np.sqrt(nu_i + nv_j - nu_i * nv_j)
    assert projection_magnitude(u, v, q) == pytest.approx(expected, rel=1e-12)


def test_projection_magnitude_fixes_tangent_element():
    rng = np.random.default_rng(31)
    m = generate_low_rank(5, 7, 2, 1.0, rng)
    q = form_from_dense(m.values)
    assert projection_magnitude(m.left_factors, m.right_factors, q) == pytest.approx(
        np.linalg.norm(m.values), rel=1e-10
    )


def test_projection_magnitude_matches_complement_oracle():
    rng = np.random.default_rng(37)
    u_full = random_orthonormal(6, 6, rng)
    v_full = random_orthonormal(9, 9, rng)
    u, u_perp = u_full[:, :2], u_full[:, 2:]
    v, v_perp = v_full[:, :2], v_full[:, 2:]
    mask = rng.random((6, 9)) < 0.3
    dense = np.where(mask, rng.standard_normal((6, 9)), 0.0)
    if not dense.any():
        dense[0, 0] = 1.0
    q = form_from_dense(dense)
    # Oracle: explicit complement construction of the tangent projection.
    oracle = np.linalg.norm(dense - u_perp @ u_perp.T @ dense @ v_perp @ v_perp.T)
    assert projection_magnitude(u, v, q) == pytest.approx(oracle, rel=1e-10)


def test_projection_magnitude_pythagoras():
    rng = np.random.default_rng(41)
    u_full = random_orthonormal(5, 5, rng)
    v_full = random_orthonormal(8, 8, rng)
    u, u_perp = u_full[:, :2], u_full[:, 2:]
    v, v_perp = v_full[:, :2], v_full[:, 2:]
    dense = rng.standard_normal((5, 8))
    q = form_from_dense(dense)
    proj = projection_magnitude(u, v, q)
    residual = np.linalg.norm(u_perp.T @ dense @ v_perp)
    assert proj**2 + residual**2 == pytest.approx(np.linalg.norm(dense) ** 2,
                                                  rel=1e-10)


def test_projection_magnitude_rotation_invariant():
    rng = np.random.default_rng(43)
    u = random_orthonormal(7, 3, rng)
    v = random_orthonormal(10, 3, rng)
    dense = np.where(rng.random((7, 10)) < 0.25, rng.standard_normal((7, 10)), 0.0)
    dense[2, 2] = 1.0
    q = form_from_dense(dense)
    base = projection_magnitude(u, v, q)
    for _ in range(5):
        o1 = random_orthonormal(3, 3, rng)
        o2 = random_orthonormal(3, 3, rng)
        rotated = projection_magnitude(u @ o1, v @ o2, q)
        assert abs(rotated - base) <= 1e-10 * max(1.0, base)


def test_projection_magnitude_empty_form_is_zero():
    rng = np.random.default_rng(47)
    u = random_orthonormal(4, 2, rng)
    v = random_orthonormal(5, 2, rng)
    assert projection_magnitude(u, v, LinearForm.from_triplets(4, 5, [])) == 0.0


def test_projection_magnitude_dim_mismatch():
    rng = np.random.default_rng(53)
    u = random_orthonormal(4, 2, rng)
    v = random_orthonormal(5, 2, rng)
    with pytest.raises(ArgumentError):
        projection_magnitude(u, v, LinearForm.from_triplets(5, 5, [(0, 0, 1.0)]))
