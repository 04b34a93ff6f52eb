"""End-to-end acceptance gate.

Every test here prints exactly one ``ACCEPTANCE <name>: PASS|FAIL`` line
with the measured quantities (run with ``pytest -s`` to see the PASS
lines; FAIL lines surface in the captured output of the failing test).
The replication studies are shared through module-scoped fixtures so the
gate stays inside its time budgets on a single core.  All random streams
are derived from one frozen seed; nothing here is tuned per run.

Known red: the noiseless-exactness check asserts a relative max-norm
error of 1e-6 after a 5-pair fit.  The fitted error contracts by exactly
(1 - eta) per gradient step, so four steps at eta=0.75 cannot close the
~2.5e-2 spectral-initialization gap below ~2e-4; the squared form of the
same metric (the quantity the convergence traces record) does reach 1e-6
at these settings, and longer fits drive the plain metric to 1e-11.  The
test states the plain-metric target and is left failing rather than
weakened; the printed line reports both forms.
"""

from itertools import permutations
import time

import numpy as np
import pytest
from scipy.stats import binom

from matchlearn import (
    EstimatorConfig,
    LinearForm,
    OneToMany,
    OneToOne,
    TwoSided,
    batch_loss,
    batch_loss_gradient,
    debias,
    entrywise_probability,
    fit,
    generate_low_rank,
    held_out_residual,
    infer_linear_form,
    ks_statistic,
    matching_to_linear_form,
    observe,
    optimal_one_to_one,
    prepare_inference,
    project_rank_r,
    projection_magnitude,
    sample_matching,
    solve_G,
)

SEED = 20260819

# Shared replication-study scale.
D1, D2, R, T, SIGMA, SCALE = 50, 150, 2, 600, 1.0, 20.0
SCHEMES = {
    "one_to_one": OneToOne(),
    "one_to_many": OneToMany(3, 0.8),
    "two_sided": TwoSided(0.8, 0.8, 0.3, 0.3, 0.2),
}
# Batch counts calibrated per scheme at this scale; the two-sided design
# needs one extra refinement pair before its debiased statistic is
# well-standardized at T=600.
M_BY_SCHEME = {"one_to_one": 5, "one_to_many": 5, "two_sided": 6}


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")


def _truncated_pmf_grid(
    d1: int, p1: float, d2: int, p2: float, c_r: float, c_s: float, gamma: float
) -> np.ndarray:
    """Exact joint pmf of the truncated paired binomial, by enumeration."""
    k1 = np.arange(d1 + 1)[:, None]
    k2 = np.arange(d2 + 1)[None, :]
    pmf = binom.pmf(k1, d1, p1) * binom.pmf(k2, d2, p2)
    keep = (
        (k1 >= c_r * d1)
        & (k2 >= c_s * d2)
        & ((k1 >= (1 + gamma) * k2) | (k2 >= (1 + gamma) * k1))
    )
    pmf = np.where(keep, pmf, 0.0)
    return pmf / pmf.sum()


def _exact_nu_two_sided(scheme: TwoSided, d1: int, d2: int) -> float:
    """Reveal probability under the two-sided scheme, by enumeration."""
    pmf = _truncated_pmf_grid(
        d1, scheme.p1, d2, scheme.p2, scheme.c_r, scheme.c_s, scheme.gamma
    )
    k1 = np.arange(d1 + 1)[:, None]
    k2 = np.arange(d2 + 1)[None, :]
    return float((pmf * np.minimum(k1, k2)).sum() / (d1 * d2))


def _nu_for(name: str) -> float:
    if name == "one_to_one":
        return 1.0 / D2
    if name == "one_to_many":
        return 3 * 0.8 / D2
    return _exact_nu_two_sided(SCHEMES["two_sided"], D1, D2)


@pytest.fixture(scope="module")
def shared_truth():
    return generate_low_rank(D1, D2, R, SCALE, np.random.default_rng([SEED, 1]))


@pytest.fixture(scope="module")
def convergence_runs(shared_truth):
    """100-replication error traces for every scheme at two step sizes.

    Runs with debug checks on, so every retraction's orthonormality is
    asserted inside the fit itself; the orthonormality acceptance test
    consumes the fit count from here.
    """
    start = time.time()
    medians = {}
    n_fits = 0
    for name, scheme in SCHEMES.items():
        nu = _nu_for(name)
        for eta in (0.5, 0.7):
            rows = []
            for rep in range(100):
                batch = observe(
                    shared_truth, scheme, T, SIGMA,
                    np.random.default_rng([SEED, 3, rep]),
                )
                config = EstimatorConfig(r=R, eta=eta, m=10, nu=nu)
                _, trace = fit(batch, config, truth=shared_truth)
                rows.append(trace.rel_max_err_sq)
                n_fits += 1
            medians[(name, eta)] = np.median(np.array(rows), axis=0)
    return {"medians": medians, "elapsed": time.time() - start, "n_fits": n_fits}


@pytest.fixture(scope="module")
def inference_cells(shared_truth):
    """300-replication standardized statistics and CI hits, per scheme and form.

    The four probed forms are drawn once from a dedicated stream and
    shared across schemes: a single entry, a full one-to-one matching, a
    difference of two such matchings, and a one-to-many matching.
    """
    qrng = np.random.default_rng([SEED, 2])
    qs = {
        "single": LinearForm(D1, D2, [0], [0], [1.0]),
        "matching": matching_to_linear_form(sample_matching(OneToOne(), D1, D2, qrng)),
        "difference": matching_to_linear_form(
            sample_matching(OneToOne(), D1, D2, qrng)
        ).subtract(
            matching_to_linear_form(sample_matching(OneToOne(), D1, D2, qrng))
        ),
        "one_to_many": matching_to_linear_form(
            sample_matching(OneToMany(3, 0.8), D1, D2, qrng)
        ),
    }
    cells = {}
    for name, scheme in SCHEMES.items():
        nu = _nu_for(name)
        zs = {k: [] for k in qs}
        hits = {k: 0 for k in qs}
        for rep in range(300):
            batch = observe(
                shared_truth, scheme, T, SIGMA,
                np.random.default_rng([SEED, 4, rep]),
            )
            config = EstimatorConfig(r=R, eta=0.7, m=M_BY_SCHEME[name], nu=nu)
            artifacts = prepare_inference(batch, config)
            for key, q in qs.items():
                res = infer_linear_form(artifacts, q, alpha=0.05)
                target = q.inner(shared_truth.values)
                zs[key].append((res.point - target) / res.se)
                hits[key] += res.ci_low <= target <= res.ci_high
        for key in qs:
            cells[(name, key)] = {
                "z": np.asarray(zs[key]),
                "coverage": hits[key] / 300.0,
            }
    return cells


def test_noiseless_init_accuracy():
    start = time.time()
    truth = generate_low_rank(20, 40, 2, 1.0, np.random.default_rng([SEED, 1]))
    batch = observe(truth, OneToOne(), 4000, 0.0, np.random.default_rng([SEED, 2]))
    config = EstimatorConfig(r=2, eta=0.75, m=5, nu=1.0 / 40)
    m_init, _ = fit(batch, config, truth=truth)
    elapsed = time.time() - start
    rel = float(np.max(np.abs(m_init - truth.values)) / truth.singular_values[-1])
    ok = rel <= 1e-6 and elapsed <= 30.0
    _report(
        "noiseless-exactness", ok,
        f"rel_max_err={rel:.3e} target=1e-06 squared_form={rel**2:.3e} "
        f"elapsed={elapsed:.1f}s",
    )
    assert elapsed <= 30.0
    assert rel <= 1e-6, (
        f"relative max-norm error {rel:.3e} exceeds 1e-6; its square "
        f"({rel**2:.3e}) is within 1e-6, see module docstring"
    )


def test_error_trace_plateaus(convergence_runs):
    medians = convergence_runs["medians"]
    worst_drop = 0.0
    worst_tail = 0.0
    for med in medians.values():
        worst_drop = max(worst_drop, med[4] / med[0])
        worst_tail = max(worst_tail, med[4] / med[9])
    worst_final = 0.0
    for name in SCHEMES:
        anchor = medians[(name, 0.7)][9]
        for eta in (0.5, 0.7):
            worst_final = max(worst_final, medians[(name, eta)][9] / anchor)
    elapsed = convergence_runs["elapsed"]
    ok = (
        worst_drop <= 0.1 and worst_tail <= 10.0
        and worst_final <= 2.0 and elapsed <= 600.0
    )
    _report(
        "convergence-plateau", ok,
        f"worst_batch5_drop={worst_drop:.3f} (<=0.1) "
        f"worst_tail_ratio={worst_tail:.2f} (<=10) "
        f"worst_final_vs_eta0.7={worst_final:.2f} (<=2) elapsed={elapsed:.0f}s",
    )
    for (name, eta), med in medians.items():
        assert med[4] <= 0.1 * med[0], (name, eta, med[4], med[0])
        assert med[4] <= 10.0 * med[9], (name, eta, med[4], med[9])
    for name in SCHEMES:
        anchor = medians[(name, 0.7)][9]
        for eta in (0.5, 0.7):
            assert medians[(name, eta)][9] <= 2.0 * anchor, (name, eta)
    assert elapsed <= 600.0


def test_standardized_statistic_normality(inference_cells):
    worst = {"ks": 0.0, "mean": 0.0, "sd": 0.0}
    for cell in inference_cells.values():
        z = cell["z"]
        worst["ks"] = max(worst["ks"], ks_statistic(z))
        worst["mean"] = max(worst["mean"], abs(float(z.mean())))
        worst["sd"] = max(worst["sd"], abs(float(z.std(ddof=1)) - 1.0))
    ok = worst["ks"] <= 0.08 and worst["mean"] <= 0.15 and worst["sd"] <= 0.15
    _report(
        "normality", ok,
        f"worst_ks={worst['ks']:.3f} (<=0.08) worst_|mean|={worst['mean']:.3f} "
        f"(<=0.15) worst_|sd-1|={worst['sd']:.3f} (<=0.15) over "
        f"{len(inference_cells)} scheme/form cells",
    )
    for key, cell in inference_cells.items():
        z = cell["z"]
        assert ks_statistic(z) <= 0.08, key
        assert abs(float(z.mean())) <= 0.15, key
        assert abs(float(z.std(ddof=1)) - 1.0) <= 0.15, key


def test_interval_coverage(inference_cells):
    rates = {key: cell["coverage"] for key, cell in inference_cells.items()}
    lo, hi = min(rates.values()), max(rates.values())
    ok = lo >= 0.91 and hi <= 0.985
    _report(
        "coverage", ok,
        f"min={lo:.3f} max={hi:.3f} (target [0.91, 0.985], 95% intervals, "
        f"300 replications per cell)",
    )
    for key, rate in rates.items():
        assert 0.91 <= rate <= 0.985, (key, rate)


def test_policy_recovery_and_coverage():
    d1, d2, r, t, sigma = 20, 60, 3, 2000, 0.5
    truth = generate_low_rank(d1, d2, r, SCALE, np.random.default_rng([SEED, 1]))
    best = optimal_one_to_one(truth.values)
    best_value = matching_to_linear_form(best).inner(truth.values)
    recovered = 0
    covered = 0
    for rep in range(100):
        batch = observe(
            truth, OneToOne(), t, sigma, np.random.default_rng([SEED, 5, rep])
        )
        config = EstimatorConfig(r=r, eta=0.75, m=5, nu=1.0 / d2)
        artifacts = prepare_inference(batch, config)
        chosen = optimal_one_to_one(artifacts.m_hat)
        recovered += chosen.pairs == best.pairs
        res = infer_linear_form(artifacts, matching_to_linear_form(chosen), alpha=0.05)
        covered += res.ci_low <= best_value <= res.ci_high
    ok = recovered >= 95 and 88 <= covered <= 99
    _report(
        "policy", ok,
        f"recovery={recovered}/100 (>=95) optimal_reward_coverage={covered}/100 "
        f"(in [88, 99])",
    )
    assert recovered >= 95
    assert 88 <= covered <= 99


def test_oracle_equivalences():
    start = time.time()

    # Assignment search vs exhaustive enumeration on small instances.
    rng = np.random.default_rng([SEED, 61])
    for trial in range(40):
        d1 = int(rng.integers(1, 7))
        d2 = int(rng.integers(d1, 8))
        m = rng.normal(size=(d1, d2))
        if trial % 3 == 0:
            m = rng.integers(0, 3, size=(d1, d2)).astype(float)
        got = optimal_one_to_one(m)
        perms = np.array(list(permutations(range(d2), d1)))
        totals = m[np.arange(d1), perms].sum(axis=1)
        best = perms[int(np.argmax(totals))]
        got_cols = np.full(d1, -1)
        for i, j in zip(got.rows, got.cols):
            got_cols[i] = j
        assert np.array_equal(got_cols, best), trial

    # Projected-form magnitude vs an explicit-complement construction.
    rng = np.random.default_rng([SEED, 62])
    for d1, d2, r in ((6, 9, 2), (10, 17, 3), (5, 5, 1)):
        u = np.linalg.qr(rng.normal(size=(d1, r)))[0]
        v = np.linalg.qr(rng.normal(size=(d2, r)))[0]
        flat = rng.choice(d1 * d2, size=d1 + 3, replace=False)
        q = LinearForm(d1, d2, flat // d2, flat % d2, rng.normal(size=flat.size))
        u_perp = np.linalg.svd(u, full_matrices=True)[0][:, r:]
        v_perp = np.linalg.svd(v, full_matrices=True)[0][:, r:]
        dense = np.zeros((d1, d2))
        dense[q.rows, q.cols] = q.weights
        oracle = np.linalg.norm(
            dense - u_perp @ (u_perp.T @ dense @ v_perp) @ v_perp.T
        )
        assert abs(projection_magnitude(u, v, q) - oracle) <= 1e-10

    # Core solve vs dense least squares on the kron features.
    rng = np.random.default_rng([SEED, 63])
    truth = generate_low_rank(6, 10, 2, 1.0, rng)
    batch = observe(truth, OneToOne(), 60, 0.3, rng)
    u = np.linalg.qr(rng.normal(size=(6, 2)))[0]
    v = np.linalg.qr(rng.normal(size=(10, 2)))[0]
    g = solve_G(u, v, batch)
    feats = []
    ys = []
    for rec in batch.records:
        for i, j, y in zip(rec.rows, rec.cols, rec.y):
            feats.append(np.kron(u[i], v[j]))
            ys.append(y)
    g_oracle = np.linalg.lstsq(np.array(feats), np.array(ys), rcond=None)[0]
    assert np.max(np.abs(g - g_oracle.reshape(2, 2))) <= 1e-9

    # Rank-r projection vs a plain truncated SVD.
    rng = np.random.default_rng([SEED, 64])
    for d1, d2, r in ((8, 12, 3), (5, 20, 2)):
        m = rng.normal(size=(d1, d2))
        projected = project_rank_r(m, r)
        w, s, vt = np.linalg.svd(m, full_matrices=False)
        assert np.max(np.abs(projected - (w[:, :r] * s[:r]) @ vt[:r])) <= 1e-10

    # Debiasing vs the dense correction M_init + (T0 nu)^-1 sum_t X_t o (Y_t - M_init).
    rng = np.random.default_rng([SEED, 65])
    truth = generate_low_rank(8, 16, 2, 1.0, rng)
    batch = observe(truth, OneToOne(), 200, 0.5, rng)
    m_init = truth.values + 0.01 * rng.normal(size=truth.shape)
    nu = 1.0 / 16
    dense = np.zeros(truth.shape)
    for rec in batch.records:
        i, j = rec.rows, rec.cols
        dense[i, j] += rec.y - m_init[i, j]
    oracle = m_init + dense / (len(batch) * nu)
    debiased = debias(m_init, batch, held_out_residual(m_init, batch))
    assert np.max(np.abs(debiased - oracle)) <= 1e-10

    # Truncated paired-binomial arrival draws vs the enumerated pmf.
    d1, p1, d2, p2, c_r, c_s, gamma = 6, 0.6, 10, 0.6, 0.3, 0.3, 0.3
    pmf = _truncated_pmf_grid(d1, p1, d2, p2, c_r, c_s, gamma)
    rng = np.random.default_rng([SEED, 66])
    b1, b2 = TwoSided(p1, p2, c_r, c_s, gamma).arrivals(d1, d2, rng, 50_000)
    counts = np.zeros_like(pmf)
    np.add.at(counts, (b1, b2), 1)
    tv = 0.5 * float(np.abs(counts / 50_000 - pmf).sum())
    assert tv <= 0.02, tv

    # Exact reveal probability vs enumeration.
    scheme = SCHEMES["two_sided"]
    exact = _exact_nu_two_sided(scheme, D1, D2)
    gap = abs(entrywise_probability(scheme, D1, D2).nu - exact)
    assert gap <= 1e-12 * exact, (gap, exact)

    elapsed = time.time() - start
    ok = elapsed < 10.0
    _report(
        "oracle-equivalence", ok,
        f"assignment/projection/core-solve/rank-projection/ipw/"
        f"sampler-pmf(tv={tv:.3f})/reveal-prob(gap={gap:.1e}<=1e-12*nu) "
        f"all agree, elapsed={elapsed:.1f}s (<10s)",
    )
    assert elapsed < 10.0


def test_gradient_matches_finite_differences():
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng([SEED, 7, trial])
        d1 = int(rng.integers(3, 7))
        d2 = int(rng.integers(d1, 9))
        truth = generate_low_rank(d1, d2, 2, 1.0, rng)
        batch = observe(truth, OneToOne(), 25, 0.5, rng)
        point = rng.normal(size=(d1, d2))
        grad = batch_loss_gradient(point, batch)
        fd = np.zeros_like(grad)
        h = 1e-6
        for i in range(d1):
            for j in range(d2):
                bump = np.zeros_like(point)
                bump[i, j] = h
                fd[i, j] = (
                    batch_loss(point + bump, batch)
                    - batch_loss(point - bump, batch)
                ) / (2 * h)
        rel = float(
            np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12)
        )
        worst = max(worst, rel)
    ok = worst <= 1e-4
    _report(
        "gradient-check", ok,
        f"worst_rel_gap={worst:.2e} (<=1e-4) over 20 seeded instances",
    )
    assert worst <= 1e-4


def test_capacity_invariants_and_orthonormality(convergence_runs):
    d1, d2 = 8, 25
    rng = np.random.default_rng([SEED, 8])
    violations = 0
    for name, scheme in SCHEMES.items():
        for _ in range(10_000):
            mt = sample_matching(scheme, d1, d2, rng)
            rows = np.asarray(mt.rows)
            cols = np.asarray(mt.cols)
            if rows.size:
                if (
                    rows.min() < 0 or rows.max() >= d1
                    or cols.min() < 0 or cols.max() >= d2
                ):
                    violations += 1
                if np.unique(cols).size != cols.size:
                    violations += 1
            if name == "one_to_one":
                if not np.array_equal(np.sort(rows), np.arange(d1)):
                    violations += 1
            elif name == "one_to_many":
                if rows.size and np.bincount(rows, minlength=d1).max() > 3:
                    violations += 1
            elif rows.size and np.unique(rows).size != rows.size:
                violations += 1
    n_fits = convergence_runs["n_fits"]
    ok = violations == 0 and n_fits == 600
    _report(
        "sampler-invariants", ok,
        f"capacity_violations={violations}/30000 sampled matchings; "
        f"orthonormality asserted inside {n_fits} debug-checked fits",
    )
    assert violations == 0
    assert n_fits == 600
