"""Optimal one-to-one matching search and policy evaluation.

Given an estimated reward matrix, find the injection of rows into
columns that maximizes total reward, express it as a linear form, and
run the usual inference pipeline on its value.  Only one-to-one search
ships here; reward-optimal one-to-many assignment is out of scope.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ArgumentError, DataFormatError
from .inference import EstimationArtifacts, InferenceResult, infer_linear_form
from .matmodel import LinearForm
from .samplers import Matching, _int_pairs

__all__ = [
    "PolicyEvaluation",
    "optimal_one_to_one",
    "matching_to_linear_form",
    "evaluate_policy",
    "matching_to_json",
    "matching_from_json",
]

# Slack when deciding whether a candidate assignment still attains the
# optimum; sums of d1 float rewards can disagree in the last few ulps
# depending on summation order.
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class PolicyEvaluation:
    """An estimated-optimal matching together with inference on its value."""

    matching: Matching
    total_reward_estimate: float
    inference: InferenceResult

    def __post_init__(self):
        q = matching_to_linear_form(self.matching)
        same = (
            self.inference.q.size == q.size
            and np.array_equal(self.inference.q.rows, q.rows)
            and np.array_equal(self.inference.q.cols, q.cols)
            and np.array_equal(self.inference.q.weights, q.weights)
        )
        if not same:
            raise ArgumentError("inference.q does not match the matching")


def _solve(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Max-reward assignment of all rows of ``m``; returns (cols, total)."""
    rows, cols = linear_sum_assignment(m, maximize=True)
    out = np.empty(m.shape[0], dtype=np.int64)
    out[rows] = cols
    return out, float(m[rows, cols].sum())


def optimal_one_to_one(m_hat) -> Matching:
    """Injection of rows into columns maximizing the total reward.

    Solved as a rectangular linear assignment problem.  Among optimal
    assignments the lexicographically smallest one is returned: row 0
    gets the lowest column it can take without losing optimality, then
    row 1, and so on.  Deterministic for any input, ties included.

    Cost: one assignment solve for the optimum, then at most one per
    row.  That solve forbids the row's known optimal column; if the
    result falls short of the optimum, no other column can attain it.
    So a unique optimum costs at most ``d1 + 1`` solves.  Only rows
    whose certificate fails (an alternative within twice the tie slack)
    scan their smaller free columns, one solve per candidate.
    """
    m = np.asarray(m_hat, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1:
        raise ArgumentError(f"expected a nonempty matrix, got shape {m.shape}")
    d1, d2 = m.shape
    if d2 < d1:
        raise ArgumentError(f"need d2 >= d1 for a full injection, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ArgumentError("reward matrix must be finite")

    ref_cols, best_total = _solve(m)
    tol = _TIE_RTOL * (1.0 + abs(best_total) + float(np.abs(m).max()))

    chosen = np.empty(d1, dtype=np.int64)
    remaining = list(range(d2))
    fixed_total = 0.0
    for i in range(d1):
        # ref_cols[i - fixed rows] is a column known to attain the
        # optimum for row i; only smaller free columns need testing.
        # Every such candidate avoids the edge (i, ref_cols[0]), so the
        # best assignment without that edge bounds them all.  The extra
        # tol keeps the shortcut away from the scan's own threshold, so
        # summation-order rounding cannot change the answer.
        candidates = remaining
        if ref_cols[0] != remaining[0]:
            forbid = m[i:, remaining]
            forbid[0, remaining.index(ref_cols[0])] = -np.inf
            _, forbidden_total = _solve(forbid)
            if fixed_total + forbidden_total < best_total - 2.0 * tol:
                candidates = [ref_cols[0]]
        for j in candidates:
            if j == ref_cols[0]:
                sub_cols = ref_cols[1:]
                break
            free = [c for c in remaining if c != j]
            if i + 1 < d1:
                sub, sub_total = _solve(m[i + 1 :, :][:, free])
                sub_cols = np.asarray(free, dtype=np.int64)[sub]
            else:
                sub_cols, sub_total = np.empty(0, dtype=np.int64), 0.0
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


def evaluate_policy(
    artifacts: EstimationArtifacts, matching: Matching, alpha: float = 0.05
) -> PolicyEvaluation:
    """Point estimate, CI, and test for the total reward of a matching."""
    q = matching_to_linear_form(matching)
    result = infer_linear_form(artifacts, q, alpha=alpha)
    return PolicyEvaluation(matching, result.point, result)


# ---------------------------------------------------------------------------
# Matching file format
# ---------------------------------------------------------------------------

def matching_to_json(matching: Matching) -> str:
    pairs = [[int(i), int(j)] for i, j in zip(matching.rows, matching.cols)]
    return json.dumps({"d1": matching.d1, "d2": matching.d2, "pairs": pairs})


def matching_from_json(text: str) -> Matching:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid matching JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DataFormatError("matching JSON must be an object")
    missing = {"d1", "d2", "pairs"} - obj.keys()
    if missing:
        raise DataFormatError(f"matching JSON missing keys: {sorted(missing)}")
    try:
        pairs = _int_pairs(obj["pairs"])
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"matching JSON 'pairs': {exc}") from None
    try:
        return Matching(int(obj["d1"]), int(obj["d2"]), pairs[:, 0], pairs[:, 1])
    except (ArgumentError, TypeError, ValueError) as exc:
        raise DataFormatError(f"invalid matching contents: {exc}") from None
