"""Optimal one-to-one matching search and policy evaluation.

Given an estimated reward matrix, find the injection of rows into
columns that maximizes total reward, express it as a linear form, and
get its value's InferenceResult from the usual pipeline.  Matchings are
written as JSON, never read back.  Only one-to-one search ships here;
reward-optimal one-to-many assignment is out of scope.
"""
from __future__ import annotations

import json

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ArgumentError
from .inference import EstimationArtifacts, InferenceResult, infer_linear_form
from .matmodel import LinearForm, _as_float_matrix, _require_finite
from .samplers import Matching

# Slack when deciding whether a candidate assignment still attains the
# optimum; sums of d1 float rewards can disagree in the last few ulps
# depending on summation order.
_TIE_RTOL = 1e-9


def _solve(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Max-reward assignment of all rows of ``m``; returns (cols, total).

    Raises NonFiniteResultError when the total of finite rewards overflows.
    """
    rows, cols = linear_sum_assignment(m, maximize=True)
    out = np.empty(m.shape[0], dtype=np.int64)
    out[rows] = cols
    with np.errstate(over="ignore"):
        total = float(m[rows, cols].sum())
    return out, _require_finite(total, "assignment total")


def _certificate(m: np.ndarray, sigma: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Where assignments within ``tol`` of ``sigma``'s total may differ from it.

    ``sigma`` is an optimal assignment.  Its dual potentials come from
    the fixed point ``u = m[i, sigma(i)] - v[sigma(i)]``,
    ``v = max(0, max_i(m - u))`` iterated from ``v = 0``: the longest
    alternating paths, so at most ``d1 + 1`` sweeps (Bellman-Ford).  For
    any assignment tau, complementary slackness gives

        total(sigma) - total(tau) = sum of tau's slacks u_i + v_j - m_ij
            + sum of v over the columns sigma uses and tau does not
            - (sigma's own slacks + v over columns only tau uses),

    where the last bracket is zero for exact duals.  So if tau is within
    ``tol`` of the optimum, every edge it takes is near (slack at most
    ``2 tol``) and every column it vacates has v at most ``2 tol``.  Rows
    tau moves form alternating cycles and paths: row k takes the column
    of row k', which moves on, and a path starts at a vacated column
    and ends at a column sigma leaves free.  A node standing for "no
    row of sigma" closes each path into a cycle, so one strongly
    connected components pass over the near edges finds every row that
    can move.

    Returns ``(movable, near)``: boolean masks over rows and over
    edges.  Both are all true (certify nothing) when the sweeps do not
    settle, a slack is not finite, or the duals miss complementary
    slackness by more than ``tol``.
    """
    d1, d2 = m.shape
    rows = np.arange(d1)
    nothing = np.ones(d1, dtype=bool), np.ones((d1, d2), dtype=bool)
    v = np.zeros(d2)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(d1 + 1):
            u = m[rows, sigma] - v[sigma]
            v_next = np.maximum((m - u[:, None]).max(axis=0), 0.0)
            if np.array_equal(v_next, v):
                break
            v = v_next
        else:
            return nothing
        slack = u[:, None] + v - m
    if not np.isfinite(slack).all():
        return nothing
    free = np.ones(d2, dtype=bool)
    free[sigma] = False
    # The bracket above, with every negative slack counted as if each
    # row of tau took the worst one.  It also bounds v on free columns.
    excess = slack[rows, sigma].sum() + v[free].sum() + d1 * max(0.0, -slack.min())
    if not excess <= tol:
        return nothing

    near = slack <= 2.0 * tol
    owner = np.full(d2, d1)
    owner[sigma] = rows
    k, j = np.nonzero(near)
    vacate = rows[v[sigma] <= 2.0 * tol]
    src = np.concatenate([k, np.full(vacate.size, d1)])
    dst = np.concatenate([owner[j], vacate])
    graph = csr_matrix((np.ones(src.size), (src, dst)), shape=(d1 + 1, d1 + 1))
    _, labels = connected_components(graph, directed=True, connection="strong")
    return np.bincount(labels)[labels[:d1]] > 1, near


def optimal_one_to_one(m_hat) -> Matching:
    """Injection of rows into columns maximizing the total reward.

    Solved as a rectangular linear assignment problem.  Among optimal
    assignments the lexicographically smallest one is returned: row 0
    gets the lowest column it can take without losing optimality, then
    row 1, and so on.  Deterministic for any input, ties included.

    Cost: one assignment solve for the optimum, plus O(sweeps * d1 * d2)
    to certify rows from its dual potentials (``_certificate``): a row
    on no cycle or path of near-tight edges keeps its optimal column in
    every tied optimum, so it takes that column with no further solve.
    Each other row scans the free columns below its known optimal one
    that lie on a near-tight edge, one solve per candidate, and takes
    the first that still attains the optimum.  Raises
    NonFiniteResultError when the optimal total overflows.
    """
    m = _as_float_matrix(m_hat, "m_hat")
    d1, d2 = m.shape
    if not 1 <= d1 <= d2:
        raise ArgumentError(f"a full injection needs 1 <= d1 <= d2, got shape {m.shape}")

    sigma, best_total = _solve(m)
    # Scaled term by term: |best_total| + max|m| may pass the largest float.
    tol = _TIE_RTOL + _TIE_RTOL * abs(best_total) + _TIE_RTOL * float(np.abs(m).max())
    movable, near = _certificate(m, sigma, tol)

    # Python ints: list.remove compares numpy scalars far more slowly.
    ref_cols = sigma.tolist()

    chosen = np.empty(d1, dtype=np.int64)
    remaining = list(range(d2))
    fixed_total = 0.0
    for i in range(d1):
        # ref_cols[i - fixed rows] is a column known to attain the
        # optimum for row i; only smaller free columns on near edges
        # need testing.  A row that cannot move has the same column in
        # every assignment within tol of the optimum, ref_cols among
        # them.
        candidates = [ref_cols[0]]
        if movable[i]:
            candidates = [j for j in remaining if j == ref_cols[0] or near[i, j]]
        for j in candidates:
            if j == ref_cols[0]:
                sub_cols = ref_cols[1:]
                break
            free = [c for c in remaining if c != j]
            sub, sub_total = _solve(m[i + 1 :, :][:, free])
            sub_cols = np.asarray(free, dtype=np.int64)[sub].tolist()
            if fixed_total + m[i, j] + sub_total >= best_total - tol:
                break
        chosen[i] = j
        ref_cols = sub_cols
        fixed_total += m[i, j]
        remaining.remove(j)
    return Matching(d1, d2, np.arange(d1), chosen)


def matching_to_linear_form(matching: Matching) -> LinearForm:
    """Indicator form with weight 1 at each matched pair."""
    weights = np.ones(matching.size)
    return LinearForm(matching.d1, matching.d2, matching.rows, matching.cols, weights)


def evaluate_policy(artifacts: EstimationArtifacts, matching: Matching,
                    alpha: float = 0.05) -> InferenceResult:
    """Point estimate, CI, and test for the total reward of a matching."""
    return infer_linear_form(artifacts, matching_to_linear_form(matching), alpha=alpha)


# ---------------------------------------------------------------------------
# Matching file format
# ---------------------------------------------------------------------------

def matching_to_json(matching: Matching) -> str:
    pairs = [[int(i), int(j)] for i, j in zip(matching.rows, matching.cols)]
    return json.dumps({"d1": matching.d1, "d2": matching.d2, "pairs": pairs})
