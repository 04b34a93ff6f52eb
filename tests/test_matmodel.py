"""Tests for matrix domain types, truncated SVD, and projection geometry."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchlearn import (
    ArgumentError,
    DataFormatError,
    DegenerateSpectrumWarning,
    InternalConsistencyError,
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
    for scale in (0.0, 1e308, float("inf")):  # the draw's range 2*scale must be finite
        with pytest.raises(ArgumentError, match="scale"):
            generate_low_rank(5, 10, 2, scale, rng)


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


def _signed_dense_svd(a):
    """np.linalg.svd(a) with the sign rule written out column by column: the left vector's
    largest-|.| entry (the first on ties) is made positive, and the right one flipped with
    it.  Also returns which columns were flipped."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    v, flipped = vt.T.copy(), []
    for c in range(u.shape[1]):
        magnitudes = np.abs(u[:, c]).tolist()
        flipped.append(bool(u[magnitudes.index(max(magnitudes)), c] < 0.0))
        if flipped[-1]:
            u[:, c], v[:, c] = -u[:, c], -v[:, c]
    return u, s, v, flipped


@pytest.mark.parametrize("shape", [(150, 2), (50, 2), (2, 2)])
def test_svd_r_full_rank_is_the_dense_svd_with_the_sign_rule_bit_for_bit(shape):
    # The first input drawn on which the rule flips one column and keeps the other.
    for seed in range(100):
        a = np.random.default_rng([seed, *shape]).standard_normal(shape)
        u, s, v, flipped = _signed_dense_svd(a)
        if sorted(flipped) == [False, True]:
            break
    assert sorted(flipped) == [False, True]
    got = svd_r(a, 2)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in (u, s, v)]


def test_svd_r_rejects_bad_rank_and_nonfinite():
    with pytest.raises(ArgumentError):
        svd_r(np.ones((3, 4)), 4)
    with pytest.raises(ArgumentError):
        svd_r(np.ones((3, 4)), 0)
    bad = np.ones((3, 4))
    bad[0, 0] = np.nan
    with pytest.raises(ArgumentError):
        svd_r(bad, 1)


def _svd_oracle_gaps(a, r):
    """Relative gaps of svd_r's values and projectors from a dense np.linalg.svd."""
    u, s, v = svd_r(a, r)
    uo, so, vto = np.linalg.svd(a, full_matrices=False)
    uo, so, vo = uo[:, :r], so[:r], vto[:r].T
    return (np.max(np.abs(s - so)) / so[0],
            np.max(np.abs(u @ u.T - uo @ uo.T)),
            np.max(np.abs(v @ v.T - vo @ vo.T)))


@pytest.mark.parametrize("shape, r", [
    ((5, 7), 3), ((7, 5), 3), ((40, 120), 2), ((120, 40), 2),  # truncated
    ((6, 8), 6), ((8, 6), 6), ((1, 5), 1),                        # full rank
], ids=["wide", "tall", "wide_40x120", "tall_120x40", "wide_full", "tall_full", "row"])
def test_svd_r_matches_dense_svd_oracle(shape, r):
    a = np.random.default_rng(31).standard_normal(shape)
    assert max(_svd_oracle_gaps(a, r)) <= 1e-10


def test_svd_r_matches_dense_svd_oracle_on_noisy_rank_two_500x1500():
    rng = np.random.default_rng(33)
    a = 3.0 * rng.standard_normal((500, 2)) @ rng.standard_normal((2, 1500))
    a += rng.standard_normal((500, 1500))
    assert max(_svd_oracle_gaps(a, 2)) <= 1e-10


@pytest.mark.parametrize("magnitude", [1e200, 1e-200])
def test_svd_r_extreme_magnitudes_need_no_warning(magnitude):
    # The Gram product of unscaled entries would overflow (or underflow to
    # zero); RuntimeWarnings are errors under the test suite's filter.
    a = magnitude * np.random.default_rng(35).uniform(-1.0, 1.0, size=(6, 15))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert max(_svd_oracle_gaps(a, 2)) <= 1e-10
        assert max(_svd_oracle_gaps(a.T, 2)) <= 1e-10


@pytest.mark.parametrize("a", [
    np.zeros((4, 9)),
    np.outer(np.arange(1.0, 5.0), np.arange(1.0, 10.0)),  # rank 1, asked for 2
    np.outer(np.arange(1.0, 10.0), np.arange(1.0, 5.0)),  # the same, tall
], ids=["zero", "rank_one_wide", "rank_one_tall"])
def test_svd_r_rank_deficient_is_finite_and_flags_degenerate(a):
    with pytest.warns(DegenerateSpectrumWarning):
        u, s, v = svd_r(a, 2)
    assert all(np.all(np.isfinite(x)) for x in (u, s, v))
    assert np.max(np.abs(u.T @ u - np.eye(2))) <= 1e-10
    assert np.max(np.abs(v.T @ v - np.eye(2))) <= 1e-10
    assert np.max(np.abs((u * s) @ v.T - a)) <= 1e-12 * max(1.0, s[0])


@pytest.mark.parametrize("shape", [(30, 90), (90, 30)])
def test_svd_r_truncated_repeat_calls_are_bit_identical(shape):
    a = np.random.default_rng(37).standard_normal(shape)
    first, again = svd_r(a, 2), svd_r(a.copy(), 2)
    assert all(np.array_equal(x, y) for x, y in zip(first, again))


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
        RewardMatrix(bad_u, m.singular_values, m.right_factors)
    with pytest.raises(ArgumentError):
        RewardMatrix(m.right_factors, m.singular_values, m.left_factors)  # d2 < d1
    for s in ([1.0, 2.0], [1.0, 0.0], [np.inf, 1.0], [np.nan, 1.0], [3.0], [[3.0, 1.0]]):
        with pytest.raises(ArgumentError):
            RewardMatrix(m.left_factors, s, m.right_factors)


def test_reward_matrix_is_immutable():
    m = generate_low_rank(4, 6, 2, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        m.values[0, 0] = 99.0


# ---------------------------------------------------------------------------
# LinearForm
# ---------------------------------------------------------------------------

def test_linear_form_basic_accessors():
    q = LinearForm(3, 4, [0, 2], [1, 3], [2.0, -1.5])
    assert q.dims == (3, 4)
    m = np.arange(12, dtype=float).reshape(3, 4)
    assert q.inner(m) == pytest.approx(2.0 * m[0, 1] - 1.5 * m[2, 3])
    with pytest.raises(ArgumentError, match="matrix shape"):
        q.inner(m.T)


def test_linear_form_rejects_duplicates_and_out_of_range():
    with pytest.raises(ArgumentError):
        LinearForm(3, 4, [0, 0], [1, 1], [1.0, 2.0])
    with pytest.raises(ArgumentError):
        LinearForm(3, 4, [3], [0], [1.0])
    with pytest.raises(ArgumentError):
        LinearForm(3, 4, [0], [4], [1.0])


def test_linear_form_empty_is_legal():
    q = LinearForm(3, 4, [], [], [])
    assert q.size == 0
    assert q.inner(np.ones((3, 4))) == 0.0


def test_linear_form_subtract_cancels_shared_entries():
    q1 = LinearForm(3, 4, [0, 1], [0, 2], [1.0, 1.0])
    q2 = LinearForm(3, 4, [1, 2], [2, 3], [1.0, 1.0])
    d = q1.subtract(q2)
    entries = dict(zip(zip(d.rows.tolist(), d.cols.tolist()), d.weights.tolist()))
    assert entries == {(0, 0): 1.0, (2, 3): -1.0}
    with pytest.raises(ArgumentError, match="different dims"):
        q1.subtract(LinearForm(4, 3, [1], [2], [1.0]))


def dict_subtract(q1: LinearForm, q2: LinearForm) -> dict:
    """``q1 - q2`` by the reference dict merge: w, then minus w', exact zeros dropped."""
    acc = {}
    for i, j, w in zip(q1.rows.tolist(), q1.cols.tolist(), q1.weights.tolist()):
        acc[(i, j)] = w
    for i, j, w in zip(q2.rows.tolist(), q2.cols.tolist(), q2.weights.tolist()):
        acc[(i, j)] = acc.get((i, j), 0.0) - w
    return {key: w for key, w in sorted(acc.items()) if w != 0.0}


@st.composite
def form_pairs(draw):
    """Two forms on one small grid: keys in both or in one only, empty forms, and
    shared keys whose weights cancel exactly."""
    d1, d2 = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    weight = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0])
    keys = st.lists(st.integers(0, d1 * d2 - 1), unique=True, max_size=d1 * d2)
    first = {k: draw(weight) for k in draw(keys)}
    second = {k: first[k] if k in first and draw(st.booleans()) else draw(weight)
              for k in draw(keys)}
    return [LinearForm(d1, d2, [k // d2 for k in w], [k % d2 for k in w], list(w.values()))
            for w in (first, second)]


@given(form_pairs())
@settings(max_examples=300, deadline=None)
def test_linear_form_subtract_equals_the_dict_merge(pair):
    q1, q2 = pair
    d = q1.subtract(q2)
    expected = dict_subtract(q1, q2)
    assert d.rows.tolist() == [i for i, _ in expected]
    assert d.cols.tolist() == [j for _, j in expected]
    assert d.weights.tobytes() == np.array(list(expected.values()), dtype=float).tobytes()


def test_linear_form_from_json_reads_hand_written_entries():
    text = '[{"i": 4, "j": 0, "w": -3}, {"w": 0.25, "j": 5, "i": 0}]'
    q = LinearForm.from_json(text, 5, 6)
    assert q.rows.tolist() == [0, 4] and q.cols.tolist() == [5, 0]
    assert q.weights.tolist() == [0.25, -3.0] and q.weights.dtype == np.float64
    empty = LinearForm.from_json("[]", 5, 6)
    assert empty.size == 0 and empty.dims == (5, 6)


def test_linear_form_from_json_rejects_malformed():
    with pytest.raises(DataFormatError):
        LinearForm.from_json("not json", 3, 3)
    with pytest.raises(DataFormatError):
        LinearForm.from_json('{"i": 0}', 3, 3)
    with pytest.raises(DataFormatError):
        LinearForm.from_json('[{"i": 0, "j": 9, "w": 1.0}]', 3, 3)
    with pytest.raises(DataFormatError, match="^linear form entry 0 must have exactly the keys"):
        LinearForm.from_json('[{"i": 0, "j": 1, "w": 1.5, "weight": 7}]', 2, 4)


@pytest.mark.parametrize("entry", [
    '{"i": "abc", "j": 1, "w": 1}',
    '{"i": 0.9, "j": 2, "w": 1}',
    '{"i": 0, "j": "2", "w": 1}',
    '{"i": true, "j": 1, "w": 1}',
    '{"i": 0, "j": [1], "w": 1}',
    '{"i": 0, "j": 100000000000000000000000, "w": 1}',
    '{"i": 9223372036854775808, "j": 1, "w": 1}',
    '{"i": 0, "j": 1180591620717411303424, "w": 1}',
    '{"i": 0, "j": 1, "w": true}',
    '{"i": 0, "j": 1, "w": "1"}',
    '{"i": 0, "j": 1, "w": null}',
    '{"i": 0, "j": 1, "w": NaN}',
    '{"i": 0, "j": 1, "w": 1e999}',
], ids=["string_i", "float_i", "string_j", "bool_i", "list_j", "huge_j", "i_2**63", "j_2**70",
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
    q = LinearForm(6, 9, [i], [j], [1.0])
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
    assert projection_magnitude(u, v, LinearForm(4, 5, [], [], [])) == 0.0


def test_projection_magnitude_dim_mismatch():
    rng = np.random.default_rng(53)
    u = random_orthonormal(4, 2, rng)
    v = random_orthonormal(5, 2, rng)
    with pytest.raises(ArgumentError):
        projection_magnitude(u, v, LinearForm(5, 5, [0], [0], [1.0]))
    with pytest.raises(ArgumentError, match="same number of columns"):
        projection_magnitude(u, random_orthonormal(5, 1, rng), LinearForm(4, 5, [0], [0], [1.0]))


def test_projection_magnitude_refuses_factors_that_are_not_orthonormal():
    # With u = v = [[2]] the radicand is 4 + 4 - 16 = -8, below its floor.
    with pytest.raises(InternalConsistencyError, match="radicand -8.000e[+]00"):
        projection_magnitude([[2.0]], [[2.0]], LinearForm(1, 1, [0], [0], [1.0]))
