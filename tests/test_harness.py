"""Tests for the replication harness, summaries, config, and CLI."""
import json

import numpy as np
import pytest
from scipy.special import ndtri

import matchlearn.harness as harness_mod
from matchlearn import (
    ArgumentError,
    ConfigError,
    EstimatorConfig,
    LinearForm,
    ObservationBatch,
    OneToMany,
    OneToOne,
    ReplicationFailureError,
    RunConfig,
    TwoSided,
    config_to_dict,
    entrywise_probability,
    fit,
    generate_low_rank,
    ks_statistic,
    load_batch,
    load_config,
    main,
    observe,
    parse_config,
    resolve_q,
    run_simulation,
    save_batch,
)


def base_config_dict(**overrides) -> dict:
    obj = {
        "d1": 6,
        "d2": 9,
        "r": 1,
        "scheme": {"kind": "one_to_one"},
        "T": 80,
        "seed": 7,
        "m": 2,
        "eta": 0.7,
        "sigma": 0.5,
        "scale": 1.0,
        "replications": 5,
        "q_spec": "entry(0,0)",
    }
    obj.update(overrides)
    return obj


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_config_dict(**overrides)))
    return path


# ---------------------------------------------------------------------------
# ks_statistic
# ---------------------------------------------------------------------------

def test_ks_statistic_on_normal_quantile_grid():
    n = 1000
    grid = ndtri((np.arange(1, n + 1) - 0.5) / n)
    assert ks_statistic(grid) <= 0.0005 + 0.5 / n


def test_ks_statistic_point_mass_at_zero():
    assert ks_statistic(np.zeros(100)) == 0.5


def test_ks_statistic_detects_uniform_sample():
    u = np.random.default_rng(151).uniform(0.0, 1.0, size=1000)
    assert ks_statistic(u) >= 0.3


def test_ks_statistic_validation():
    with pytest.raises(ArgumentError):
        ks_statistic([])
    with pytest.raises(ArgumentError):
        ks_statistic([0.0, np.inf])


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_applies_defaults():
    cfg = parse_config(
        {"d1": 10, "d2": 30, "r": 2, "scheme": {"kind": "one_to_one"},
         "T": 100, "seed": 3}
    )
    assert cfg.m == 20 and cfg.eta == 0.75 and cfg.sigma == 1.0
    assert cfg.scale == 20.0 and cfg.alpha == 0.05
    assert cfg.replications == 300 and cfg.q_spec == "entry(0,0)"
    assert cfg.study == "inference" and cfg.workers == 1
    assert cfg.regenerate_m is False and cfg.outputs is None


def test_config_round_trip_is_idempotent():
    obj = base_config_dict(
        scheme={"kind": "one_to_many", "K": 1, "p0": 0.5},
        outputs="some/dir",
        study="policy",
        regenerate_m=True,
    )
    cfg = parse_config(obj)
    again = parse_config(config_to_dict(cfg))
    assert again == cfg
    assert config_to_dict(again) == config_to_dict(cfg)


def test_parse_config_aggregates_all_problems():
    with pytest.raises(ConfigError) as err:
        parse_config(
            base_config_dict(d2=3, eta=2.0, study="bogus", q_spec="entry(99,0)")
        )
    assert len(err.value.problems) >= 4


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key: d3"):
        parse_config(base_config_dict(d3=4))


def test_parse_config_rejects_infeasible_one_to_many():
    with pytest.raises(ConfigError, match="K\\*d1"):
        parse_config(base_config_dict(scheme={"kind": "one_to_many", "K": 2, "p0": 0.5}))


def test_parse_config_rejects_missing_q_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(base_config_dict(q_spec=str(tmp_path / "absent.json")))


def test_load_config_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


# ---------------------------------------------------------------------------
# resolve_q
# ---------------------------------------------------------------------------

def test_resolve_q_entry():
    q = resolve_q("entry(1,2)", 4, 6, np.random.default_rng(0))
    assert q.size == 1 and q.rows[0] == 1 and q.cols[0] == 2 and q.weights[0] == 1.0


def test_resolve_q_random_oto():
    q = resolve_q("random_oto", 5, 8, np.random.default_rng(157))
    assert q.size == 5
    assert np.all(q.weights == 1.0)
    assert np.unique(q.cols).size == 5


def test_resolve_q_difference_annihilates_constants():
    q = resolve_q("oto_difference", 5, 8, np.random.default_rng(163))
    assert q.inner(np.ones((5, 8))) == pytest.approx(0.0, abs=1e-15)
    assert q.size <= 10


def test_resolve_q_random_otm():
    q = resolve_q("random_otm(2,0.8)", 4, 12, np.random.default_rng(167))
    assert 0 <= q.size <= 8
    assert np.all(q.weights == 1.0)


def test_resolve_q_from_file(tmp_path):
    form = LinearForm.from_triplets(4, 6, [(0, 1, 2.0), (3, 5, -1.0)])
    path = tmp_path / "q.json"
    path.write_text(form.to_json())
    q = resolve_q(str(path), 4, 6, np.random.default_rng(0))
    assert np.array_equal(q.rows, form.rows)
    assert np.array_equal(q.weights, form.weights)


def test_resolve_q_is_deterministic():
    a = resolve_q("random_oto", 6, 9, np.random.default_rng([3, 2]))
    b = resolve_q("random_oto", 6, 9, np.random.default_rng([3, 2]))
    assert np.array_equal(a.cols, b.cols)


# ---------------------------------------------------------------------------
# run_simulation
# ---------------------------------------------------------------------------

def test_run_simulation_zero_replications(tmp_path):
    cfg = parse_config(base_config_dict(replications=0, outputs=str(tmp_path / "o")))
    summary = run_simulation(cfg)
    assert summary.n_success == 0 and summary.n_failed == 0
    assert np.isnan(summary.ks_distance) and np.isnan(summary.coverage)
    assert (tmp_path / "o" / "standardized_stats.csv").read_text() == "rep,z\n"
    doc = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert doc["ks_distance"] is None and doc["n_success"] == 0


def test_run_simulation_inference_study(tmp_path):
    cfg = parse_config(base_config_dict(outputs=str(tmp_path / "o")))
    summary = run_simulation(cfg)
    assert summary.n_success == 5 and summary.n_failed == 0
    assert summary.standardized_stats.shape == (5,)
    assert 0.0 <= summary.coverage <= 1.0
    assert summary.recovery_count is None and summary.traces == ()
    stats_lines = (tmp_path / "o" / "standardized_stats.csv").read_text().splitlines()
    assert len(stats_lines) == 6 and stats_lines[0] == "rep,z"
    hist_lines = (tmp_path / "o" / "histogram.csv").read_text().splitlines()
    assert len(hist_lines) == 51
    assert not list((tmp_path / "o").glob("trace_rep*.csv"))
    doc = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert doc["n_success"] == 5
    assert doc["truth_value"] is not None
    assert "outputs" not in doc["config"]


def test_run_simulation_outputs_are_deterministic(tmp_path):
    files = ("summary.json", "standardized_stats.csv", "coverage.csv",
             "histogram.csv")
    contents = []
    for sub in ("a", "b"):
        cfg = parse_config(base_config_dict(outputs=str(tmp_path / sub)))
        run_simulation(cfg)
        contents.append([(tmp_path / sub / f).read_bytes() for f in files])
    assert contents[0] == contents[1]


def test_run_simulation_convergence_study(tmp_path):
    cfg = parse_config(
        base_config_dict(study="convergence", replications=3,
                         outputs=str(tmp_path / "o"))
    )
    summary = run_simulation(cfg)
    assert summary.n_success == 3
    assert len(summary.traces) == 3
    assert summary.standardized_stats.size == 0
    for k in range(3):
        text = (tmp_path / "o" / f"trace_rep{k}.csv").read_text()
        assert text.startswith("batch,rel_max_err_sq")
    doc = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert doc["ks_distance"] is None and doc["coverage"] is None


def test_run_simulation_policy_study(tmp_path):
    cfg = parse_config(
        base_config_dict(d1=5, d2=8, T=240, m=2, sigma=0.2, replications=4,
                         study="policy", outputs=str(tmp_path / "o"))
    )
    summary = run_simulation(cfg)
    assert summary.n_success == 4
    assert 0 <= summary.recovery_count <= 4
    doc = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert doc["recovery_count"] == summary.recovery_count


def test_run_simulation_excludes_isolated_failures(tmp_path, monkeypatch):
    real = harness_mod._run_replication

    def flaky(payload):
        if payload[0] == 0:
            return {"rep": 0, "ok": False, "error": "NumericalError: injected"}
        return real(payload)

    monkeypatch.setattr(harness_mod, "_run_replication", flaky)
    cfg = parse_config(
        base_config_dict(replications=20, outputs=str(tmp_path / "o"))
    )
    summary = run_simulation(cfg)
    assert summary.n_failed == 1 and summary.n_success == 19
    assert summary.failures == ("NumericalError: injected",)
    assert summary.standardized_stats.shape == (19,)
    lines = (tmp_path / "o" / "standardized_stats.csv").read_text().splitlines()
    assert lines[1].startswith("1,")


def test_run_simulation_aborts_on_widespread_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(
        harness_mod,
        "_run_replication",
        lambda payload: {"rep": payload[0], "ok": False, "error": "boom"},
    )
    cfg = parse_config(base_config_dict(outputs=str(tmp_path / "o")))
    with pytest.raises(ReplicationFailureError):
        run_simulation(cfg)


def test_run_simulation_regenerate_m(tmp_path):
    cfg = parse_config(
        base_config_dict(regenerate_m=True, replications=3,
                         outputs=str(tmp_path / "o"))
    )
    summary = run_simulation(cfg)
    assert summary.n_success == 3
    doc = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert doc["truth_value"] is None


def test_run_simulation_requires_outputs():
    cfg = parse_config(base_config_dict())
    with pytest.raises(ConfigError, match="outputs"):
        run_simulation(cfg)


def test_run_simulation_worker_pool_matches_serial(tmp_path, monkeypatch):
    cfg = parse_config(
        base_config_dict(replications=4, outputs=str(tmp_path / "serial"))
    )
    run_simulation(cfg)
    monkeypatch.setenv("MATCHLEARN_WORKERS", "2")
    cfg2 = parse_config(
        base_config_dict(replications=4, outputs=str(tmp_path / "pooled"))
    )
    run_simulation(cfg2)
    for name in ("summary.json", "standardized_stats.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "pooled" / name
        ).read_bytes()


def test_policy_study_solves_shared_truth_once(tmp_path, monkeypatch):
    calls = [0]
    real = harness_mod.optimal_one_to_one

    def counted(m):
        calls[0] += 1
        return real(m)

    monkeypatch.setattr(harness_mod, "optimal_one_to_one", counted)
    overrides = dict(d1=5, d2=8, T=240, m=2, sigma=0.2, replications=4,
                     study="policy")
    run_simulation(parse_config(
        base_config_dict(outputs=str(tmp_path / "serial"), **overrides)
    ))
    assert calls[0] == 4 + 1  # one m_hat per replication, one shared truth
    monkeypatch.setenv("MATCHLEARN_WORKERS", "2")
    run_simulation(parse_config(
        base_config_dict(outputs=str(tmp_path / "pooled"), **overrides)
    ))
    for name in ("summary.json", "standardized_stats.csv", "coverage.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "pooled" / name
        ).read_bytes()


def test_run_simulation_rejects_bad_worker_env(tmp_path, monkeypatch):
    monkeypatch.setenv("MATCHLEARN_WORKERS", "many")
    cfg = parse_config(base_config_dict(outputs=str(tmp_path / "o")))
    with pytest.raises(ConfigError, match="MATCHLEARN_WORKERS"):
        run_simulation(cfg)


def test_run_simulation_standardized_stats_roughly_normal(tmp_path):
    cfg = parse_config(
        base_config_dict(d1=20, d2=60, r=1, T=800, m=4, sigma=1.0,
                         replications=60, seed=17,
                         outputs=str(tmp_path / "o"))
    )
    summary = run_simulation(cfg)
    assert summary.n_success == 60
    # Loose smoke bound: the KS noise floor alone is ~0.17 at n=60.
    assert summary.ks_distance <= 0.25
    assert abs(summary.mean) <= 0.5


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_nu_one_to_one(capsys):
    code, out, _ = run_cli(capsys, ["nu", "--scheme", "oto", "--d1", "100",
                                    "--d2", "750"])
    assert code == 0
    doc = json.loads(out)
    assert doc["nu"] == pytest.approx(1.0 / 750, rel=1e-15)


def test_cli_nu_one_to_many(capsys):
    code, out, _ = run_cli(capsys, ["nu", "--scheme", "otm", "--d1", "10",
                                    "--d2", "40", "--K", "3", "--p0", "0.8"])
    assert code == 0
    assert json.loads(out)["nu"] == pytest.approx(3 * 0.8 / 40, rel=1e-15)


def test_cli_nu_two_sided_is_exact(capsys):
    argv = ["nu", "--scheme", "two_sided", "--d1", "20", "--d2", "60",
            "--p1", "0.8", "--p2", "0.8", "--c-r", "0.3", "--c-s", "0.3",
            "--gamma", "0.2"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    exact = entrywise_probability(TwoSided(0.8, 0.8, 0.3, 0.3, 0.2), 20, 60).nu
    assert json.loads(out) == {"nu": exact}
    # The Monte Carlo knobs are gone.
    for extra in (["--mc-samples", "20000"], ["--seed", "5"]):
        code, _, err = run_cli(capsys, argv + extra)
        assert code == 2 and json.loads(err)["error"] == "ConfigError"


def test_cli_nu_missing_scheme_args(capsys):
    code, _, err = run_cli(capsys, ["nu", "--scheme", "otm", "--d1", "10",
                                    "--d2", "40"])
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "ConfigError" and "--p0" in diag["message"]


def test_cli_rejects_malformed_config(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run_cli(capsys, ["simulate", str(bad)])
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"


def test_cli_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, ["transmogrify"])
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"


def test_cli_simulate_writes_outputs(capsys, tmp_path):
    cfg_path = write_config(tmp_path)
    code, out, _ = run_cli(
        capsys, ["simulate", str(cfg_path), "--out", str(tmp_path / "o")]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n_success"] == 5
    assert (tmp_path / "o" / "summary.json").is_file()


def test_cli_missing_batch_file_is_data_error(capsys, tmp_path):
    cfg_path = write_config(tmp_path)
    code, _, err = run_cli(
        capsys, ["estimate", str(tmp_path / "none.jsonl"), str(cfg_path)]
    )
    assert code == 4
    assert json.loads(err)["error"] == "DataFormatError"


def write_one_to_one_batch(path, *records):
    """A 3x4 one-to-one batch file with the given records, written as text."""
    header = {"scheme": {"kind": "one_to_one"}, "d1": 3, "d2": 4, "sigma": 0.0, "seed": None}
    lines = [json.dumps(header, sort_keys=True)] + [json.dumps(rec) for rec in records]
    path.write_text("\n".join(lines) + "\n")


def test_cli_infer_rejects_partial_one_to_one_batch(capsys, tmp_path):
    # A one-to-one batch cannot hold a partial matching in memory, so
    # the file is written as text.
    path = tmp_path / "partial.jsonl"
    write_one_to_one_batch(path, {"t": 1, "pairs": [[0, 3], [2, 1]], "y": [1.0, 2.0]})
    cfg_path = write_config(tmp_path, d1=3, d2=4, r=1, T=2, m=1, sigma=0.0)
    code, _, err = run_cli(
        capsys, ["infer", str(path), str(cfg_path), "--q", "entry(0,0)"]
    )
    assert code == 4
    diag = json.loads(err)
    assert diag["error"] == "DataFormatError" and "line 2" in diag["message"]


def test_cli_infer_rejects_non_integer_pairs(capsys, tmp_path):
    path = tmp_path / "floats.jsonl"
    good = {"t": 1, "pairs": [[0, 0], [1, 1], [2, 2]], "y": [1.0, 2.0, 3.0]}
    write_one_to_one_batch(
        path, good, {"t": 2, "pairs": [[0, 1], [1.5, 2], [2, 3]], "y": [1.0, 2.0, 3.0]}
    )
    cfg_path = write_config(tmp_path, d1=3, d2=4, r=1, T=2, m=1, sigma=0.0)
    code, _, err = run_cli(
        capsys, ["infer", str(path), str(cfg_path), "--q", "entry(0,0)"]
    )
    assert code == 4
    diag = json.loads(err)
    assert diag["error"] == "DataFormatError" and "line 3" in diag["message"]


@pytest.fixture()
def saved_batch(tmp_path):
    truth = generate_low_rank(8, 12, 2, 1.0, np.random.default_rng([171, 1]))
    batch = observe(truth, OneToOne(), 4000, 0.0, np.random.default_rng([171, 2]))
    path = tmp_path / "batch.jsonl"
    save_batch(batch, path)
    cfg_path = write_config(
        tmp_path, d1=8, d2=12, r=2, T=4000, m=8, eta=0.75, sigma=0.0, seed=21
    )
    return truth, path, cfg_path


def test_cli_estimate_emits_files(capsys, tmp_path, saved_batch):
    truth, batch_path, cfg_path = saved_batch
    code, out, _ = run_cli(
        capsys,
        ["estimate", str(batch_path), str(cfg_path), "--out", str(tmp_path / "e")],
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc["files"]) == {"m_init.csv", "trace.csv"}
    m_init = np.loadtxt(tmp_path / "e" / "m_init.csv", delimiter=",")
    assert np.max(np.abs(m_init - truth.values)) <= 5e-5
    # The CSV's %.17g digits read back as the very doubles the fit produced.
    expected, _ = fit(load_batch(batch_path), EstimatorConfig(r=2, eta=0.75, m=8, nu=1.0 / 12))
    assert np.array_equal(m_init, expected)


def test_cli_estimate_rejects_dim_mismatch(capsys, tmp_path, saved_batch):
    _, batch_path, _ = saved_batch
    other_cfg = write_config(tmp_path, name="other.json", d1=6, d2=9)
    code, _, err = run_cli(capsys, ["estimate", str(batch_path), str(other_cfg)])
    assert code == 2
    assert "dims" in json.loads(err)["message"]


def test_cli_infer_noiseless_entry(capsys, saved_batch):
    truth, batch_path, cfg_path = saved_batch
    code, out, _ = run_cli(
        capsys, ["infer", str(batch_path), str(cfg_path), "--q", "entry(0,0)"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["point"] == pytest.approx(truth.values[0, 0], abs=1e-5)
    assert doc["ci_low"] <= doc["point"] <= doc["ci_high"]
    assert doc["q_size"] == 1


def test_cli_infer_with_q_file(capsys, tmp_path, saved_batch):
    truth, batch_path, cfg_path = saved_batch
    form = LinearForm.from_triplets(8, 12, [(0, 0, 1.0), (3, 7, 1.0)])
    q_path = tmp_path / "q.json"
    q_path.write_text(form.to_json())
    code, out, _ = run_cli(
        capsys, ["infer", str(batch_path), str(cfg_path), "--q", str(q_path)]
    )
    assert code == 0
    doc = json.loads(out)
    expected = truth.values[0, 0] + truth.values[3, 7]
    assert doc["point"] == pytest.approx(expected, abs=1e-4)


@pytest.mark.parametrize("text", ['[{"i": "abc", "j": 1, "w": 1}]',
                                  '[{"i": 0.9, "j": "2", "w": true}]'],
                         ids=["string_index", "coercible"])
def test_cli_infer_rejects_malformed_q_file(capsys, tmp_path, saved_batch, text):
    _, batch_path, cfg_path = saved_batch
    q_path = tmp_path / "q.json"
    q_path.write_text(text)
    code, _, err = run_cli(
        capsys, ["infer", str(batch_path), str(cfg_path), "--q", str(q_path)]
    )
    assert code == 4
    diag = json.loads(err)
    assert diag["error"] == "DataFormatError" and "entry 0" in diag["message"]


def test_cli_policy_emits_matching(capsys, tmp_path, saved_batch):
    truth, batch_path, cfg_path = saved_batch
    code, out, _ = run_cli(
        capsys,
        ["policy", str(batch_path), str(cfg_path), "--out", str(tmp_path / "p")],
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["matching"]["pairs"]) == 8
    assert (tmp_path / "p" / "matching.json").is_file()
    assert (tmp_path / "p" / "evaluation.json").is_file()
    from matchlearn import matching_from_json, optimal_one_to_one

    expected = optimal_one_to_one(truth.values)
    written = matching_from_json((tmp_path / "p" / "matching.json").read_text())
    assert written.pairs == expected.pairs


def test_cli_numerical_failure_exit_code(capsys, tmp_path):
    records = [
        ([0, 1], [0, 1], [0.0, 0.0]),
        ([0, 1], [1, 2], [0.0, 0.0]),
    ]
    batch = ObservationBatch.from_periods(OneToOne(), 2, 3, 0.0, records)
    path = tmp_path / "zero.jsonl"
    save_batch(batch, path)
    cfg_path = write_config(tmp_path, d1=2, d2=3, r=1, T=2, m=1, sigma=0.0)
    code, _, err = run_cli(
        capsys, ["estimate", str(path), str(cfg_path), "--out", str(tmp_path / "e")]
    )
    assert code == 3
    assert json.loads(err)["error"] == "DegenerateInitError"


@pytest.mark.parametrize("big_periods", [[25], list(range(40))], ids=["one_period", "all"])
def test_cli_overflow_is_numerical_failure(capsys, tmp_path, big_periods):
    # Finite rewards of 1e308 overflow inside debias (one period) or the
    # fit (every period): a numerical failure, not a bad argument.
    rng = np.random.default_rng(0)
    records = [(np.arange(2), rng.permutation(4)[:2],
                [1e308, 1e308] if t in big_periods else [1.0, 2.0]) for t in range(40)]
    path = tmp_path / "big.jsonl"
    save_batch(ObservationBatch.from_periods(OneToOne(), 2, 4, 0.0, records), path)
    cfg_path = write_config(tmp_path, d1=2, d2=4, r=1, T=40, m=1, sigma=0.0)
    code, _, err = run_cli(capsys, ["infer", str(path), str(cfg_path), "--q", "entry(0,0)"])
    assert code == 3
    assert json.loads(err)["error"] == "NonFiniteResultError"
