"""Tests for the replication harness, summaries, config, and CLI."""
import contextlib
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import matchlearn
import matchlearn.harness as harness_mod
from matchlearn import (
    ArgumentError,
    ConfigError,
    DataFormatError,
    DegenerateSpectrumWarning,
    EstimationArtifacts,
    EstimatorConfig,
    LinearForm,
    Matching,
    ObservationBatch,
    OneToMany,
    OneToOne,
    ReplicationFailureError,
    RunConfig,
    TwoSided,
    confidence_interval,
    config_to_dict,
    entrywise_probability,
    fit,
    generate_low_rank,
    infer_linear_form,
    ks_statistic,
    load_batch,
    load_config,
    main,
    observe,
    parse_config,
    partition_batches,
    resolve_q,
    run_simulation,
    save_batch,
    scheme_to_json,
    svd_r,
)
from matchlearn import samplers


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


def test_config_round_trip_is_idempotent(tmp_path):
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
    # A config built in code, with numpy numbers and an integer for a float, echoes
    # a summary.json config that parse_config takes back as the same study.
    cfg = RunConfig(d1=np.int64(6), d2=9, r=np.int32(1), scheme=OneToMany(np.int64(1), 0.5),
                    T=80, seed=np.uint32(7), m=2, eta=np.float64(0.7), sigma=1,
                    scale=np.float32(0.5), replications=0, outputs=str(tmp_path), workers=2)
    run_simulation(cfg)
    echo = json.loads((tmp_path / "summary.json").read_text())["config"]
    again = parse_config(echo | {"outputs": cfg.outputs, "workers": cfg.workers})
    assert again == cfg
    assert config_to_dict(again) == echo | {"outputs": cfg.outputs, "workers": cfg.workers}
    assert type(echo["sigma"]) is float and type(again.sigma) is float


def test_parse_config_aggregates_all_problems():
    with pytest.raises(ConfigError) as err:
        parse_config(
            base_config_dict(d2=3, eta=2.0, study="bogus", q_spec="entry(99,0)")
        )
    assert len(err.value.problems) >= 4


@pytest.mark.parametrize("obj", [[], "config", None, 3])
def test_parse_config_rejects_a_value_that_is_not_an_object(obj):
    with pytest.raises(ConfigError, match=f"must be a JSON object, got {type(obj).__name__}"):
        parse_config(obj)


def test_config_error_takes_one_problem_or_a_list():
    assert ConfigError("bad d1").problems == ["bad d1"]
    assert str(ConfigError(["bad d1", "bad d2"])) == "bad d1; bad d2"


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key: d3"):
        parse_config(base_config_dict(d3=4))
    with pytest.raises(ConfigError, match="bad scheme: unknown keys for scheme 'one_to_one'"):
        parse_config(base_config_dict(scheme={"kind": "one_to_one", "K": 3, "p0": 0.5}))


def test_parse_config_rejects_infeasible_one_to_many():
    with pytest.raises(ConfigError, match="K\\*d1"):
        parse_config(base_config_dict(scheme={"kind": "one_to_many", "K": 2, "p0": 0.5}))


def test_parse_config_rejects_infeasible_two_sided_truncation():
    # At 10x10 only B_r = B_s = 10 clears both floors, and it is not separated.
    scheme = {"kind": "two_sided", "p1": 0.8, "p2": 0.8, "c_r": 0.999, "c_s": 0.999, "gamma": 1.0}
    with pytest.raises(ConfigError, match="truncation"):
        parse_config(base_config_dict(d1=10, d2=10, scheme=scheme))


def test_parse_config_rejects_infeasible_random_otm_q_spec():
    with pytest.raises(ConfigError, match="K\\*d1"):
        parse_config(base_config_dict(d1=20, d2=60, q_spec="random_otm(5, 0.5)"))
    with pytest.raises(ConfigError, match="random_otm"):
        parse_config(base_config_dict(q_spec="random_otm(0, 0.5)"))
    with pytest.raises(ConfigError, match="could not convert"):
        parse_config(base_config_dict(q_spec="random_otm(1, 1e)"))


_UNADDRESSABLE = 2 ** 40


def test_parse_config_rejects_unaddressable_dims():
    with pytest.raises(ConfigError, match="too large"):
        parse_config(base_config_dict(d1=_UNADDRESSABLE, d2=_UNADDRESSABLE))


@pytest.mark.parametrize("field, value, problem", [
    ("workers", 0, "workers must be >= 1, got 0"),
    ("r", 0, "need 1 <= r <= d1, got r=0"),
    ("r", 7, "need 1 <= r <= d1, got r=7"),
    ("m", 0, "need m >= 1, got 0"),
    ("replications", -1, "replications must be nonnegative, got -1"),
    ("alpha", 0.0, "need 0 < alpha < 1, got 0.0"),
    ("alpha", 1.0, "need 0 < alpha < 1, got 1.0"),
], ids=["workers", "r_zero", "r_above_d1", "m", "replications", "alpha_zero", "alpha_one"])
def test_parse_config_names_a_value_out_of_range(field, value, problem):
    with pytest.raises(ConfigError) as err:
        parse_config(base_config_dict(**{field: value}))
    assert problem in err.value.problems


def test_parse_config_caps_the_seed_below_2_to_the_32():
    # numpy splits a seed into 32-bit words, so [5 + 3 * 2**32, 1] seeds
    # the same stream as [5, 3, 1], replication 1's batch of seed 5.
    assert parse_config(base_config_dict(seed=2**32 - 1)).seed == 2**32 - 1
    for seed in (2**32, -1):
        with pytest.raises(ConfigError, match=r"seed must lie in \[0, 2\*\*32\)"):
            parse_config(base_config_dict(seed=seed))


@pytest.mark.parametrize("study, k", [("inference", 4), ("policy", 4), ("convergence", 2)])
def test_parse_config_needs_enough_periods_for_the_study(capsys, tmp_path, study, k):
    assert parse_config(base_config_dict(study=study, T=10 * k, m=10)).T == 10 * k
    with pytest.raises(ConfigError, match=f"need T >= {k}m for study {study!r}"):
        parse_config(base_config_dict(study=study, T=10 * k - 1, m=10))
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, study=study, T=10 * k - 1, m=10, outputs=str(out))
    code, _, err = run_cli(capsys, ["simulate", str(cfg_path)])
    assert code == 2 and "need T >=" in err and not out.exists()


def test_parse_config_keys_are_run_config_fields():
    schema = dataclasses.fields(RunConfig)
    required = [f.name for f in schema if f.default is dataclasses.MISSING]
    assert required == ["d1", "d2", "r", "scheme", "T", "seed"]
    cfg = parse_config(base_config_dict(outputs="out"))
    assert set(config_to_dict(cfg)) == {f.name for f in schema}
    for name in required:
        obj = base_config_dict()
        del obj[name]
        with pytest.raises(ConfigError, match=f"missing required config key: {name}$"):
            parse_config(obj)


def test_parse_config_rejects_missing_q_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(base_config_dict(q_spec=str(tmp_path / "absent.json")))


@pytest.mark.parametrize("text", ['[{"i": 99, "j": 0, "w": 1}]', '[{"i": 0, "j": 0, "w": "1"}]'],
                         ids=["index_out_of_range", "string_weight"])
def test_a_malformed_q_file_fails_before_any_output_exists(capsys, tmp_path, text):
    q_path = tmp_path / "q.json"
    q_path.write_text(text)
    with pytest.raises(DataFormatError):
        parse_config(base_config_dict(q_spec=str(q_path)))
    out = tmp_path / "out"
    with pytest.raises(DataFormatError):
        run_simulation(dataclasses.replace(parse_config(base_config_dict()), q_spec=str(q_path),
                                           outputs=str(out)))
    cfg_path = write_config(tmp_path, q_spec=str(q_path))
    code, _, err = run_cli(capsys, ["simulate", str(cfg_path), "--out", str(out)])
    assert code == 4 and json.loads(err)["error"] == "DataFormatError"
    assert not out.exists()


def test_a_q_file_is_read_once_per_validation(tmp_path, monkeypatch):
    q_path = tmp_path / "q.json"
    q_path.write_text('[{"i": 0, "j": 1, "w": 2.0}]')
    reads, from_json = [], LinearForm.from_json
    monkeypatch.setattr(LinearForm, "from_json",
                        lambda text, d1, d2: reads.append(text) or from_json(text, d1, d2))
    cfg = parse_config(base_config_dict(q_spec=str(q_path), outputs=str(tmp_path / "o")))
    assert len(reads) == 1
    run_simulation(cfg)
    assert len(reads) == 2


def test_load_config_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"d1": 6\xff}')
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(path)


def run_in_an_ascii_locale(tmp_path, *argv) -> subprocess.CompletedProcess:
    """``python -m matchlearn *argv`` in ``tmp_path``, where the locale's encoding, and so
    Python's default one for text files and file names, is ASCII."""
    return subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "matchlearn", *argv], cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(matchlearn.__file__).parents[1]),
             "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"},
    )


@pytest.mark.parametrize("field, problem", [
    ("outputs", "cannot write output directory résultats: "),
    ("q_spec", "q_spec résultats: q file not found or unreadable: "),
])
def test_a_config_file_is_read_as_utf8_whatever_the_locale(tmp_path, field, problem):
    # The name comes through whole, to be refused only where the file system cannot spell it.
    (tmp_path / "config.json").write_text(json.dumps(
        base_config_dict(outputs="out") | {field: "résultats"}, ensure_ascii=False),
        encoding="utf-8")
    proc = run_in_an_ascii_locale(tmp_path, "simulate", "config.json")
    problem += ("'ascii' codec can't encode character '\\xe9' in position 1: "
                "ordinal not in range(128)")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr) == {"error": "ConfigError", "message": problem,
                                       "problems": [problem]}
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_a_q_file_is_read_as_utf8_whatever_the_locale(tmp_path):
    # Its text is read, so the entry is what is refused; the batch is never reached.
    write_config(tmp_path)
    (tmp_path / "q.json").write_text('[{"i": 0, "j": 0, "w": "é"}]', encoding="utf-8")
    proc = run_in_an_ascii_locale(tmp_path, "infer", "batch.jsonl", "config.json",
                                  "--q", "q.json")
    assert (proc.returncode, proc.stdout) == (4, "")
    assert json.loads(proc.stderr) == {
        "error": "DataFormatError",
        "message": "q file q.json: linear form entry 0: w must be a finite number, got 'é'"}


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
    path = tmp_path / "q.json"
    path.write_text('[{"i": 3, "j": 5, "w": -1.0}, {"i": 0, "j": 1, "w": 2.0}]')
    q = resolve_q(str(path), 4, 6, np.random.default_rng(0))
    assert (q.rows.tolist(), q.cols.tolist(), q.weights.tolist()) == ([0, 3], [1, 5], [2.0, -1.0])


@pytest.mark.parametrize("spec", [None, 3, ""])
def test_resolve_q_needs_a_nonempty_string(spec):
    with pytest.raises(ArgumentError, match="a spec must be a nonempty string"):
        resolve_q(spec, 4, 6, np.random.default_rng(0))


def test_resolve_q_is_deterministic():
    a = resolve_q("random_oto", 6, 9, np.random.default_rng([3, 2]))
    b = resolve_q("random_oto", 6, 9, np.random.default_rng([3, 2]))
    assert np.array_equal(a.cols, b.cols)


# ---------------------------------------------------------------------------
# run_simulation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_run_simulation_zero_replications(tmp_path, no_process_started, workers):
    # A pool given no replication submits nothing, so it starts no process.
    cfg = parse_config(base_config_dict(replications=0, workers=workers,
                                        outputs=str(tmp_path / "o")))
    summary = run_simulation(cfg)
    assert summary.n_success == 0 and summary.n_failed == 0
    assert np.isnan(summary.ks_distance) and np.isnan(summary.coverage)
    assert (tmp_path / "o" / "standardized_stats.csv").read_text() == "rep,z\n"
    doc = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert doc["ks_distance"] is None and doc["n_success"] == 0


def test_small_batches_one_cpu_and_a_serial_study_start_no_process(
    tmp_path, monkeypatch, no_process_started
):
    # A file below two parsing ranges and a batch below two writing ranges stay in this
    # process; so does either above them with one usable CPU, and so does a workers=1 study.
    truth = generate_low_rank(6, 9, 1, 1.0, np.random.default_rng(0))
    batch = observe(truth, OneToOne(), 40, 0.5, np.random.default_rng(1))
    path = tmp_path / "batch.jsonl"
    save_batch(batch, path)
    assert batch.offsets[-1] < 2 * samplers._SPLIT_ENTRIES
    assert path.stat().st_size < 2 * samplers._SPLIT_BYTES
    assert np.array_equal(load_batch(path).y, batch.y)
    monkeypatch.setattr(samplers, "_SPLIT_BYTES", 16)
    monkeypatch.setattr(samplers, "_SPLIT_ENTRIES", 1)
    monkeypatch.setattr(samplers, "_usable_cpus", lambda: 1)
    save_batch(batch, path)
    assert np.array_equal(load_batch(path).y, batch.y)
    run_simulation(parse_config(base_config_dict(workers=1, outputs=str(tmp_path / "o"))))


def test_run_simulation_inference_study(tmp_path):
    cfg = parse_config(base_config_dict(outputs=str(tmp_path / "o")))
    summary = run_simulation(cfg)
    assert summary.n_success == 5 and summary.n_failed == 0
    assert summary.standardized_stats.shape == (5,)
    assert 0.0 <= summary.coverage <= 1.0
    assert summary.recovery_count is None and summary.traces == ()
    stats_lines = (tmp_path / "o" / "standardized_stats.csv").read_text().splitlines()
    assert len(stats_lines) == 6 and stats_lines[0] == "rep,z"
    assert not list((tmp_path / "o").glob("trace_rep*.csv"))
    doc = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert doc["n_success"] == 5
    assert doc["truth_value"] is not None
    assert "outputs" not in doc["config"] and "workers" not in doc["config"]


def test_run_simulation_outputs_are_deterministic(tmp_path):
    files = ("summary.json", "standardized_stats.csv", "coverage.csv")
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


def test_run_simulation_builds_the_two_sided_arrival_table_once(tmp_path):
    # Parsing, nu and each replication's sampler read the one memoised
    # table, and every stage of each half-fit reads the one memoised nu.
    scheme = {"kind": "two_sided", "p1": 0.8, "p2": 0.8, "c_r": 0.3, "c_s": 0.3, "gamma": 0.2}
    TwoSided.arrival_pmf.cache_clear()
    TwoSided.nu.cache_clear()
    cfg = parse_config(base_config_dict(scheme=scheme, replications=3,
                                        outputs=str(tmp_path / "o")))
    assert run_simulation(cfg).n_success == 3
    # misses: runs of the uncached builders
    table, nu = TwoSided.arrival_pmf.cache_info(), TwoSided.nu.cache_info()
    assert table.misses == 1 and table.hits >= 3
    # Per replication: both halves' nu check, spectral init and gradient
    # step (m=2), both debiases and the artifacts.
    assert nu.misses == 1 and nu.hits >= 3 * 9


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

    def flaky(*args):
        if args[-1] == 0:
            return {"rep": 0, "error": "NumericalError: injected"}
        return real(*args)

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
        lambda *args: {"rep": args[-1], "error": "boom"},
    )
    cfg = parse_config(base_config_dict(outputs=str(tmp_path / "o")))
    with pytest.raises(ReplicationFailureError):
        run_simulation(cfg)
    assert not (tmp_path / "o").exists()


def test_run_simulation_regenerate_m(tmp_path):
    cfg = parse_config(
        base_config_dict(regenerate_m=True, replications=3,
                         outputs=str(tmp_path / "o"))
    )
    summary = run_simulation(cfg)
    assert summary.n_success == 3
    doc = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert doc["truth_value"] is None


def test_replication_streams_differ_across_nearby_seeds(tmp_path, monkeypatch):
    # With a stream per `seed ^ rep`, seed 2's replication 1 and seed 3's
    # replication 0 drew the same matchings.
    drawn = []
    real = harness_mod.observe

    def recorded(*args, **kwargs):
        batch = real(*args, **kwargs)
        drawn.append((batch.rows.tobytes(), batch.cols.tobytes()))
        return batch

    monkeypatch.setattr(harness_mod, "observe", recorded)
    for seed in (2, 3):
        run_simulation(parse_config(base_config_dict(
            seed=seed, replications=2, outputs=str(tmp_path / str(seed)))))
    assert len(drawn) == 4
    seed2_rep1, seed3_rep0 = drawn[1], drawn[2]
    assert seed2_rep1 != seed3_rep0


def test_run_simulation_requires_outputs():
    cfg = parse_config(base_config_dict())
    with pytest.raises(ConfigError, match="outputs"):
        run_simulation(cfg)


@pytest.mark.parametrize("field, value", [("sigma", float("nan")), ("sigma", float("inf")),
                                          ("sigma", -1.0), ("scale", float("nan")),
                                          ("scale", 1e308), ("scale", 0.0)])
def test_run_simulation_rejects_sigma_and_scale_before_making_outputs(tmp_path, field, value):
    out = tmp_path / "o"
    cfg = dataclasses.replace(parse_config(base_config_dict()), outputs=str(out), **{field: value})
    with pytest.raises(ConfigError, match=field):
        run_simulation(cfg)
    assert not out.exists()


def sparse_study_dict(tmp_path, **overrides) -> dict:
    """A 1x1 one-to-many study whose batch slices, two to four periods long, now and then
    reveal no entry; a replication that draws such a slice fails on its own."""
    return base_config_dict(d1=1, d2=1, scheme={"kind": "one_to_many", "K": 1, "p0": 0.5},
                            T=16, m=1, sigma=0.5, scale=1.0, replications=10,
                            outputs=str(tmp_path / "out")) | overrides


@pytest.mark.filterwarnings("ignore::matchlearn.EmptyMatchingWarning")
def test_a_study_at_the_failure_tolerance_reports_its_failed_replications(tmp_path):
    # Replication 1's refit slice reveals no entry: 1 failure of 10, the 10% tolerance.
    cfg = parse_config(sparse_study_dict(tmp_path, scheme={"kind": "one_to_many", "K": 1,
                                                           "p0": 0.7}, T=12, seed=2))
    summary = run_simulation(cfg)
    (failure,) = summary.failures
    assert failure.startswith("RankDeficientDesignError: batch pair 1: core design is rank "
                              "deficient (condition inf)")
    assert summary.n_failed == 1 and summary.n_success == 9
    doc = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert doc["failures"] == [failure] and doc["n_failed"] == 1 and doc["n_success"] == 9
    # The aggregates cover the nine replications that succeeded, and only those.
    stats = np.loadtxt(tmp_path / "out" / "standardized_stats.csv", delimiter=",", skiprows=1)
    assert stats[:, 0].tolist() == [0, *range(2, 10)]
    assert np.array_equal(stats[:, 1], summary.standardized_stats)
    assert doc["mean"] == float(stats[:, 1].mean())
    covered = np.loadtxt(tmp_path / "out" / "coverage.csv", delimiter=",", skiprows=1)[:, 4]
    assert covered.size == 9 and doc["coverage"] == float(covered.mean())


@pytest.mark.filterwarnings("ignore::matchlearn.EmptyMatchingWarning")
def test_a_study_above_the_failure_tolerance_exits_3_naming_the_first_failure(capsys,
                                                                               tmp_path):
    # Replications 1, 6 and 9 fail: 3 of 10, above the 10% tolerance.
    cfg_path = write_config(tmp_path, **sparse_study_dict(tmp_path, seed=4))
    code, out, err = run_cli(capsys, ["simulate", str(cfg_path)])
    assert code == 3 and out == "" and len(err.splitlines()) == 1
    diag = json.loads(err)
    assert diag["error"] == "ReplicationFailureError"
    assert diag["message"].startswith("3 of 10 replications failed (tolerance 10%); first: "
                                      "RankDeficientDesignError: batch pair 1: ")
    assert not (tmp_path / "out").exists()


def test_run_simulation_worker_pool_matches_serial(tmp_path):
    cfg = parse_config(
        base_config_dict(replications=4, outputs=str(tmp_path / "serial"))
    )
    run_simulation(cfg)
    cfg2 = parse_config(
        base_config_dict(replications=4, workers=2, outputs=str(tmp_path / "pooled"))
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
    run_simulation(parse_config(
        base_config_dict(outputs=str(tmp_path / "pooled"), workers=2, **overrides)
    ))
    for name in ("summary.json", "standardized_stats.csv", "coverage.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "pooled" / name
        ).read_bytes()


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


@pytest.mark.parametrize("d1, d2", [(0, 0), (-3, 5)])
def test_cli_nu_rejects_non_positive_dims(capsys, d1, d2):
    code, out, err = run_cli(capsys, ["nu", "--scheme", "oto", "--d1", str(d1), "--d2", str(d2)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ArgumentError"


def test_cli_nu_rejects_nan_gamma(capsys):
    code, _, err = run_cli(capsys, ["nu", "--scheme", "ts", "--d1", "20", "--d2", "60",
                                    "--p1", "0.8", "--p2", "0.8", "--c-r", "0.3",
                                    "--c-s", "0.3", "--gamma", "nan"])
    assert code == 2
    assert json.loads(err)["error"] == "ArgumentError"


@pytest.mark.parametrize("scheme", [OneToOne(), OneToMany(3, 0.8),
                                    TwoSided(0.8, 0.8, 0.3, 0.3, 0.2)],
                         ids=["one_to_one", "one_to_many", "two_sided"])
def test_scheme_fields_json_keys_and_nu_flags_agree(capsys, scheme):
    names = [f.name for f in dataclasses.fields(scheme)]
    doc = scheme_to_json(scheme)
    assert list(doc) == ["kind"] + names
    argv = ["nu", "--scheme", scheme.kind, "--d1", "20", "--d2", "60"]
    for name in names:
        argv += ["--" + name.replace("_", "-"), str(doc[name])]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out) == {"nu": entrywise_probability(scheme, 20, 60).nu}
    for name in names:
        flag = argv.index("--" + name.replace("_", "-"))
        code, _, err = run_cli(capsys, argv[:flag] + argv[flag + 2:])
        assert code == 2 and "--" + name.replace("_", "-") in json.loads(err)["message"]
    # Another scheme's flag is refused, not dropped: `nu --scheme oto ... --K 3`.
    for other in (OneToOne(), OneToMany(3, 0.8), TwoSided(0.8, 0.8, 0.3, 0.3, 0.2)):
        for name in {f.name for f in dataclasses.fields(other)} - set(names):
            flag = "--" + name.replace("_", "-")
            code, out, err = run_cli(capsys, argv + [flag, "3"])
            doc = json.loads(err)
            assert (code, out, doc["error"]) == (2, "", "ConfigError")
            assert f"unknown {scheme.kind} flag: {flag}" in doc["problems"]


def test_cli_rejects_malformed_config(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run_cli(capsys, ["simulate", str(bad)])
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError"


def test_cli_rejects_a_scale_whose_draw_range_overflows(capsys, tmp_path):
    cfg_path = write_config(tmp_path, scale=1e308)
    code, out, err = run_cli(capsys, ["simulate", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ConfigError" and "scale" in doc["message"]
    assert not (tmp_path / "o").exists()


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
        capsys, ["estimate", str(tmp_path / "none.jsonl"), str(cfg_path), "--out",
                 str(tmp_path / "e")]
    )
    assert code == 4
    assert json.loads(err)["error"] == "DataFormatError"


@pytest.mark.parametrize("command", ["estimate", "infer", "policy"])
def test_cli_reads_the_config_before_the_batch(capsys, tmp_path, command):
    # A bad config fails before the batch is parsed, so a missing batch is not reached.
    cfg_path = write_config(tmp_path, eta=2.0)
    code, _, err = run_cli(capsys, [command, str(tmp_path / "none.jsonl"), str(cfg_path),
                                    *(["--q", "entry(0,0)"] if command == "infer" else [])])
    assert code == 2
    assert json.loads(err)["error"] == "ConfigError" and "eta" in json.loads(err)["message"]


@pytest.mark.parametrize("q, error", [("entry(9999,0)", "ArgumentError"),
                                      ("missing.json", "ConfigError")], ids=["entry", "file"])
def test_cli_infer_reads_the_form_before_the_batch(capsys, tmp_path, monkeypatch, q, error):
    # A form that does not fit the config's dims, or a q file that is not there, fails
    # before the batch is parsed: the batch is never read.
    def parse(path):
        raise AssertionError(f"{path} was parsed")

    monkeypatch.setattr(harness_mod, "load_batch", parse)
    spec = str(tmp_path / q) if q.endswith(".json") else q
    code, _, err = run_cli(capsys, ["infer", str(tmp_path / "batch.jsonl"),
                                    str(write_config(tmp_path)), "--q", spec])
    assert code == 2
    assert json.loads(err)["error"] == error


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
    cfg_path = write_config(tmp_path, d1=3, d2=4, r=1, T=4, m=1, sigma=0.0)
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
    cfg_path = write_config(tmp_path, d1=3, d2=4, r=1, T=4, m=1, sigma=0.0)
    code, _, err = run_cli(
        capsys, ["infer", str(path), str(cfg_path), "--q", "entry(0,0)"]
    )
    assert code == 4
    diag = json.loads(err)
    assert diag["error"] == "DataFormatError" and "line 3" in diag["message"]


@pytest.mark.parametrize("field, value", [("d1", 3.0), ("d2", "4"), ("sigma", "0.0"),
                                          ("seed", True),
                                          ("scheme", {"kind": "one_to_one", "K": 3})])
def test_cli_infer_rejects_a_coerced_header_field(capsys, tmp_path, field, value):
    path = tmp_path / "header.jsonl"
    header = {"scheme": {"kind": "one_to_one"}, "d1": 3, "d2": 4, "sigma": 0.0, "seed": None}
    header[field] = value
    good = {"t": 1, "pairs": [[0, 0], [1, 1], [2, 2]], "y": [1.0, 2.0, 3.0]}
    path.write_text(json.dumps(header) + "\n" + json.dumps(good) + "\n")
    cfg_path = write_config(tmp_path, d1=3, d2=4, r=1, T=4, m=1, sigma=0.0)
    code, _, err = run_cli(capsys, ["infer", str(path), str(cfg_path), "--q", "entry(0,0)"])
    assert code == 4
    diag = json.loads(err)
    assert diag["error"] == "DataFormatError" and field in diag["message"]


@pytest.mark.parametrize("scheme", [{"kind": "one_to_many", "K": 2.9, "p0": 0.5},
                                    {"kind": "one_to_many", "K": 1, "p0": "0.5"},
                                    {"kind": "one_to_one", "K": 3, "p0": 0.5},
                                    "one_to_one"])
def test_cli_rejects_a_coerced_config_scheme_parameter(capsys, tmp_path, scheme):
    cfg_path = write_config(tmp_path, d2=30, scheme=scheme)
    code, _, err = run_cli(capsys, ["simulate", str(cfg_path)])
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "ConfigError" and "bad scheme" in diag["message"]


def test_parse_config_rejects_a_boolean_for_a_number():
    with pytest.raises(ConfigError, match="eta must be a finite number"):
        parse_config(base_config_dict(eta=True))


_TS = dict(p1=0.8, p2=0.8, c_r=0.3, c_s=0.3, gamma=0.2)
_RUN = dict(d1=2, d2=4, r=1, T=8, seed=1, m=1, replications=0, workers=1,
            eta=0.5, sigma=0.5, scale=1.0, alpha=0.05)


_ARTIFACTS = EstimationArtifacts(m_hat=np.eye(2), u_hat=np.eye(2)[:, :1], v_hat=np.eye(2)[:, :1],
                                 sigma_hat_sq=1.0, t_used=4, nu=0.5)
_Q00 = LinearForm(2, 2, [0], [0], [1.0])


def _observed(**kwargs):
    truth = generate_low_rank(2, 8, 1, 1.0, np.random.default_rng(0))
    batch = observe(truth, OneToOne(), kwargs["T"], kwargs["sigma"], np.random.default_rng(1),
                    seed=kwargs["seed"])
    return {"T": len(batch), "sigma": batch.sigma, "seed": batch.seed}


def _simulated(**kwargs):
    with tempfile.TemporaryDirectory() as out:
        run_simulation(RunConfig(scheme=OneToOne(), outputs=out, **kwargs))
        return json.loads((Path(out) / "summary.json").read_text())["config"]


# Each Python entry point that takes scalars: (a call, returning what it stores by field
# if it stores any, its good arguments, its integer fields, its number fields).
_SCALAR_ENTRY_POINTS = {
    "OneToMany": (lambda **kw: vars(OneToMany(**kw)), dict(K=2, p0=0.5), ["K"], ["p0"]),
    "TwoSided": (lambda **kw: vars(TwoSided(**kw)), _TS, [], list(_TS)),
    "ObservationBatch": (
        lambda **kw: vars(ObservationBatch(OneToOne(), rows=[0], cols=[1], y=[1.0],
                                           offsets=[0, 1], **kw)),
        dict(d1=1, d2=2, sigma=0.5, seed=3), ["d1", "d2", "seed"], ["sigma"]),
    "observe": (_observed, dict(T=3, sigma=0.5, seed=3), ["T", "seed"], ["sigma"]),
    "Matching": (lambda **kw: vars(Matching(rows=[0], cols=[1], **kw)),
                 dict(d1=1, d2=2), ["d1", "d2"], []),
    "LinearForm": (lambda **kw: vars(LinearForm(rows=[0], cols=[1], weights=[1.0], **kw)),
                   dict(d1=1, d2=2), ["d1", "d2"], []),
    "OneToOne.nu": (OneToOne().nu, dict(d1=2, d2=4), ["d1", "d2"], []),
    "OneToMany.feasible": (OneToMany(2, 0.5).feasible, dict(d1=2, d2=8), ["d1", "d2"], []),
    "TwoSided.nu": (TwoSided(**_TS).nu, dict(d1=4, d2=8), ["d1", "d2"], []),
    "TwoSided.feasible": (TwoSided(**_TS).feasible, dict(d1=4, d2=8), ["d1", "d2"], []),
    "EstimatorConfig": (lambda **kw: vars(EstimatorConfig(**kw)),
                        dict(r=1, eta=0.5, m=2, nu=0.5), ["r", "m"], ["eta", "nu"]),
    "partition_batches": (partition_batches, dict(T=12, m=2), ["T", "m"], []),
    "generate_low_rank": (lambda **kw: generate_low_rank(rng=np.random.default_rng(0), **kw),
                          dict(d1=2, d2=4, r=1, scale=1.0), ["d1", "d2", "r"], ["scale"]),
    "svd_r": (lambda **kw: svd_r(np.diag([3.0, 2.0, 1.0]), **kw), dict(r=1), ["r"], []),
    "confidence_interval": (lambda **kw: confidence_interval(0.0, 1.0, **kw), dict(alpha=0.05),
                            [], ["alpha"]),
    "infer_linear_form": (lambda **kw: vars(infer_linear_form(_ARTIFACTS, _Q00, **kw)),
                          dict(alpha=0.05, null_value=0.5), [], ["alpha", "null_value"]),
    "run_simulation": (_simulated, _RUN, [k for k, v in _RUN.items() if type(v) is int],
                       [k for k, v in _RUN.items() if type(v) is float]),
}
_SCALAR_CASES = [(name, field, kind) for name, (_, _, ints, reals) in _SCALAR_ENTRY_POINTS.items()
                 for kind, names in ((int, ints), (float, reals)) for field in names]


@pytest.mark.parametrize("name, field, kind", _SCALAR_CASES,
                         ids=[f"{name}-{field}" for name, field, _ in _SCALAR_CASES])
def test_every_entry_point_reads_scalars_by_one_integer_and_one_number_rule(name, field, kind):
    # An integer field takes Python or numpy integers, a number field floats too, and
    # each is stored as a Python number; a boolean, a string, None or NaN is refused.
    call, good, _, _ = _SCALAR_ENTRY_POINTS[name]
    call(**good)  # first, so that a memoised call has the good arguments' entry to misuse
    numpy_value = (np.int64 if kind is int else np.float64)(good[field])
    stored = call(**good | {field: numpy_value})
    if isinstance(stored, dict) and field in stored:
        assert type(stored[field]) is kind and stored[field] == good[field]
    bad = [True, np.True_, "1", None, float("nan")]
    if kind is int:
        bad += [2.5, float(good[field])]
    if field == "seed" and name != "run_simulation":
        bad.remove(None)  # a batch's seed is optional
    for value in bad:
        with pytest.raises(ConfigError if name == "run_simulation" else ArgumentError):
            call(**good | {field: value})


def test_python_dash_m_runs_the_cli_without_warnings():
    proc = subprocess.run(
        [sys.executable, "-m", "matchlearn", "nu", "--scheme", "one_to_one",
         "--d1", "5", "--d2", "10"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(matchlearn.__file__).parents[1])},
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout) == {"nu": 0.1}


def test_python_dash_m_simulate_rejects_unaddressable_dims(tmp_path):
    cfg_path = write_config(tmp_path, d1=_UNADDRESSABLE, d2=_UNADDRESSABLE)
    proc = subprocess.run(
        [sys.executable, "-m", "matchlearn", "simulate", str(cfg_path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(matchlearn.__file__).parents[1])},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    diag = json.loads(proc.stderr)
    assert diag["error"] == "ConfigError" and "too large" in diag["message"]


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
    code, _, err = run_cli(capsys, ["estimate", str(batch_path), str(other_cfg),
                                    "--out", str(tmp_path / "e")])
    assert code == 2
    assert "dims" in json.loads(err)["message"]


def test_cli_infer_rejects_a_batch_of_another_scheme(capsys, tmp_path, saved_batch):
    _, batch_path, _ = saved_batch
    other_cfg = write_config(tmp_path, name="other.json", d1=8, d2=12, r=2, T=4000, m=8,
                             scheme={"kind": "one_to_many", "K": 1, "p0": 0.5})
    code, _, err = run_cli(capsys, ["infer", str(batch_path), str(other_cfg),
                                    "--q", "entry(0,0)"])
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert doc["message"] == "batch scheme differs from config scheme"


@pytest.mark.parametrize("batch_is_read", [True, False], ids=["a_valid_batch", "before_the_batch"])
def test_cli_estimate_needs_an_output_directory(capsys, monkeypatch, saved_batch, batch_is_read):
    _, batch_path, cfg_path = saved_batch  # the config sets no outputs
    if not batch_is_read:  # the missing directory is known from the arguments alone
        monkeypatch.setattr(harness_mod, "load_batch",
                            lambda *args: pytest.fail("estimate read the batch first"))
        batch_path = batch_path.with_name("missing.jsonl")
    code, out, err = run_cli(capsys, ["estimate", str(batch_path), str(cfg_path)])
    assert (code, out) == (2, "")
    problem = "no output directory: pass --out or set 'outputs'"
    assert json.loads(err) == {"error": "ConfigError", "message": problem, "problems": [problem]}


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


def test_cli_infer_reads_a_batch_through_a_pipe(capsys, saved_batch):
    # A pipe has no offsets to read at: the batch is read on from where the stream is.
    _, batch_path, cfg_path = saved_batch
    code, expected, _ = run_cli(capsys, ["infer", str(batch_path), str(cfg_path),
                                         "--q", "entry(0,0)"])
    proc = subprocess.run(
        [sys.executable, "-m", "matchlearn", "infer", "/dev/stdin", str(cfg_path),
         "--q", "entry(0,0)"],
        input=batch_path.read_text(), capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(matchlearn.__file__).parents[1])},
    )
    assert code == 0 and proc.returncode == 0
    assert proc.stdout == expected


def test_cli_infer_on_a_batch_with_an_empty_half_is_a_numerical_failure(capsys, tmp_path):
    # Periods 0..39 reveal no entry.  Half 2 debiases half 1's fit by nothing, which leaves
    # it as it was; fitting half 2 then has nothing to initialize from.
    scheme = OneToMany(1, 0.5)
    truth = generate_low_rank(4, 12, 1, 1.0, np.random.default_rng(5))
    later = observe(truth, scheme, 80, 0.5, np.random.default_rng(6))[40:]
    batch = ObservationBatch(scheme, 4, 12, 0.5, later.rows, later.cols, later.y,
                             np.concatenate([np.zeros(40, np.int64), later.offsets]))
    save_batch(batch, tmp_path / "batch.jsonl")
    cfg_path = write_config(tmp_path, d1=4, d2=12, r=1, scheme=scheme_to_json(scheme), T=80,
                            m=2, sigma=0.5)
    code, out, err = run_cli(capsys, ["infer", str(tmp_path / "batch.jsonl"), str(cfg_path),
                                      "--q", "entry(0,0)"])
    assert code == 3 and out == "" and len(err.splitlines()) == 1
    diag = json.loads(err)
    assert diag == {"error": "DegenerateInitError", "message": "batch pair 1: response "
                    "aggregate is identically zero; cannot initialize factors"}


def test_cli_infer_with_q_file(capsys, tmp_path, saved_batch):
    truth, batch_path, cfg_path = saved_batch
    q_path = tmp_path / "q.json"
    q_path.write_text('[{"i": 0, "j": 0, "w": 1.0}, {"i": 3, "j": 7, "w": 1.0}]')
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


def test_cli_infer_rejects_a_q_file_that_is_not_utf8(capsys, tmp_path, saved_batch):
    _, batch_path, cfg_path = saved_batch
    q_path = tmp_path / "q.json"
    q_path.write_bytes(b'[{"i": 0, "j": 0, "w": 1}]\xff')
    code, _, err = run_cli(
        capsys, ["infer", str(batch_path), str(cfg_path), "--q", str(q_path)]
    )
    assert code == 4
    diag = json.loads(err)
    assert diag["error"] == "DataFormatError" and "not UTF-8" in diag["message"]


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
    from matchlearn import optimal_one_to_one

    expected = optimal_one_to_one(truth.values)
    written = json.loads((tmp_path / "p" / "matching.json").read_text())
    assert (written["d1"], written["d2"]) == (expected.d1, expected.d2)
    assert {tuple(p) for p in written["pairs"]} == expected.pairs
    assert written == doc["matching"]


# The first file each command writes in its output directory.
_FIRST_OUTPUT = {"simulate": "standardized_stats.csv", "estimate": "m_init.csv",
                 "infer": "inference.json", "policy": "matching.json"}


@pytest.mark.parametrize("unusable", ["a_file", "under_a_file", "a_directory_in_the_way"])
@pytest.mark.parametrize("command", list(_FIRST_OUTPUT))
def test_cli_an_unusable_output_directory_is_a_config_error(
        capsys, tmp_path, saved_batch, command, unusable):
    # Made once the work has returned, written before anything is printed: one JSON line,
    # exit 2.
    _, batch_path, cfg_path = saved_batch
    out = tmp_path / "out"
    if unusable == "a_file":
        out.write_text("")
    elif unusable == "under_a_file":
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
    else:
        (out / _FIRST_OUTPUT[command]).mkdir(parents=True)
    inputs = ([str(write_config(tmp_path, name="study.json"))] if command == "simulate"
              else [str(batch_path), str(cfg_path)])
    code, stdout, stderr = run_cli(capsys, [command, *inputs, "--out", str(out),
                                            *(["--q", "entry(0,0)"] if command == "infer" else [])])
    assert (code, stdout, len(stderr.splitlines())) == (2, "", 1)
    diag = json.loads(stderr)
    assert diag["error"] == "ConfigError"
    assert diag["message"].startswith(f"cannot write output directory {out}: ")


@pytest.mark.parametrize("via", ["--out", "outputs"])
@pytest.mark.parametrize("command", list(_FIRST_OUTPUT))
def test_cli_an_empty_output_path_is_a_config_error_that_writes_nothing(
        capsys, tmp_path, monkeypatch, saved_batch, command, via):
    # Path("") names the current directory; an unset shell variable in --out "$OUT" gives one.
    _, batch_path, cfg_path = saved_batch
    if command == "simulate":
        cfg_path = write_config(tmp_path, name="study.json")
    if via == "outputs":
        cfg_path.write_text(json.dumps(json.loads(cfg_path.read_text()) | {"outputs": ""}))
    inputs = [str(cfg_path)] if command == "simulate" else [str(batch_path), str(cfg_path)]
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    code, stdout, stderr = run_cli(capsys, [command, *inputs,
                                            *(["--out", ""] if via == "--out" else []),
                                            *(["--q", "entry(0,0)"] if command == "infer" else [])])
    problem = "output directory path is empty"
    assert (code, stdout) == (2, "")
    assert json.loads(stderr) == {"error": "ConfigError", "message": problem,
                                  "problems": [problem]}
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("via", ["--out", "outputs"])
@pytest.mark.parametrize("command", list(_FIRST_OUTPUT))
def test_cli_refuses_an_empty_output_path_before_any_work(
        capsys, tmp_path, monkeypatch, command, via):
    # The path is known from the arguments: no replication runs and no batch is read first.
    def work(*args):
        pytest.fail(f"{command} worked before refusing an empty output path")

    monkeypatch.setattr(harness_mod, "_run_replication", work)
    monkeypatch.setattr(harness_mod, "load_batch", work)
    cfg_path = write_config(tmp_path, **({"outputs": ""} if via == "outputs" else {}))
    inputs = [str(cfg_path)] if command == "simulate" else [str(tmp_path / "batch.jsonl"),
                                                             str(cfg_path)]
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    code, stdout, stderr = run_cli(capsys, [command, *inputs,
                                            *(["--out", ""] if via == "--out" else []),
                                            *(["--q", "entry(0,0)"] if command == "infer" else [])])
    assert (code, stdout, json.loads(stderr)["problems"]) == (
        2, "", ["output directory path is empty"])
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["estimate", "infer", "policy"])
def test_cli_numerical_failure_exit_code(capsys, tmp_path, command):
    # A fit that fails leaves no output directory behind: none is made before the work returns.
    batch = ObservationBatch(OneToOne(), 2, 3, 0.0, [0, 1] * 4, [0, 1, 1, 2, 2, 0, 1, 0],
                             np.zeros(8), [0, 2, 4, 6, 8])
    path = tmp_path / "zero.jsonl"
    save_batch(batch, path)
    cfg_path = write_config(tmp_path, d1=2, d2=3, r=1, T=4, m=1, sigma=0.0,
                            study="convergence")
    code, _, err = run_cli(capsys, [command, str(path), str(cfg_path), "--out", str(tmp_path / "e"),
                                    *(["--q", "entry(0,0)"] if command == "infer" else [])])
    assert code == 3
    assert json.loads(err)["error"] == "DegenerateInitError"
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("command, k", [("estimate", 2), ("infer", 4), ("policy", 4)])
def test_cli_rejects_a_batch_shorter_than_the_command_fits(capsys, tmp_path, command, k):
    # The config's T passes its own rule; the batch file's period count is checked too.
    truth = generate_low_rank(6, 9, 1, 1.0, np.random.default_rng(0))
    path = tmp_path / "short.jsonl"
    save_batch(observe(truth, OneToOne(), 2 * k - 1, 0.5, np.random.default_rng(1)), path)
    cfg_path = write_config(tmp_path, m=2)
    argv = [command, str(path), str(cfg_path), "--out", str(tmp_path / "o")]
    code, _, err = run_cli(capsys, argv + (["--q", "entry(0,0)"] if command == "infer" else []))
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "ConfigError"
    assert f"needs a batch of T >= {k}m periods, got T={2 * k - 1}, m=2" in doc["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("big_periods", [[25], list(range(40))], ids=["one_period", "all"])
def test_cli_overflow_is_numerical_failure(capsys, tmp_path, big_periods):
    # Finite rewards of 1e308 overflow inside debias (one period) or the
    # fit (every period): a numerical failure, not a bad argument.
    rng = np.random.default_rng(0)
    cols = np.concatenate([rng.permutation(4)[:2] for _ in range(40)])
    y = np.tile([1.0, 2.0], 40)
    y[2 * np.asarray(big_periods)[:, None] + [0, 1]] = 1e308
    path = tmp_path / "big.jsonl"
    save_batch(ObservationBatch(OneToOne(), 2, 4, 0.0, np.tile([0, 1], 40), cols, y,
                                np.arange(0, 81, 2)), path)
    cfg_path = write_config(tmp_path, d1=2, d2=4, r=1, T=40, m=1, sigma=0.0)
    # With one huge period, a fit's spectrum ties before debias overflows.
    warns = (pytest.warns(DegenerateSpectrumWarning, match="rank-1 subspace is not well determined")
             if len(big_periods) == 1 else contextlib.nullcontext())
    with warns:
        code, _, err = run_cli(capsys, ["infer", str(path), str(cfg_path), "--q", "entry(0,0)"])
    assert code == 3
    assert json.loads(err)["error"] == "NonFiniteResultError"
