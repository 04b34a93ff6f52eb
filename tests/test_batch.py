"""Tests for the columnar observation batch against the per-period reference.

The reference path builds one validated :class:`Matching` and one noise
draw per period, as the samplers did before the batch became flat
arrays; every comparison here is exact.
"""
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from matchlearn import (
    ArgumentError,
    DataFormatError,
    LinearForm,
    ObservationBatch,
    OneToMany,
    OneToOne,
    TwoSided,
    aggregate_response,
    debias,
    estimate_sigma,
    generate_low_rank,
    load_batch,
    main,
    observe,
    sample_matching,
    save_batch,
    solve_G,
)

SCHEMES = {
    "one_to_one": OneToOne(),
    "one_to_many": OneToMany(3, 0.8),
    "two_sided": TwoSided(0.8, 0.8, 0.3, 0.3, 0.2),
}


def reference_periods(m, scheme, T, sigma, rng):
    """Per-period draws: a validated matching, then its noise."""
    periods = []
    for _ in range(T):
        mat = sample_matching(scheme, *m.shape, rng)
        noise = rng.standard_normal(mat.size)
        periods.append((mat.rows, mat.cols, m.values[mat.rows, mat.cols] + sigma * noise))
    return periods


def make_pair(scheme, seed, d1=6, d2=20, T=40):
    """A batch from ``observe`` and the reference periods from the same stream."""
    truth = generate_low_rank(d1, d2, 2, 3.0, np.random.default_rng([seed, 1]))
    batch = observe(truth, scheme, T, 0.7, np.random.default_rng([seed, 2]))
    periods = reference_periods(truth, scheme, T, 0.7, np.random.default_rng([seed, 2]))
    return truth, batch, periods


def test_observe_equals_concatenated_per_period_draws():
    for scheme in SCHEMES.values():
        for seed in (1, 2, 3):
            _, batch, periods = make_pair(scheme, seed)
            rows, cols, y = (np.concatenate([p[k] for p in periods]) for k in range(3))
            offsets = np.concatenate(([0], np.cumsum([p[0].size for p in periods])))
            assert batch.rows.tobytes() == rows.tobytes()
            assert batch.cols.tobytes() == cols.tobytes()
            assert batch.y.tobytes() == y.tobytes()
            assert batch.offsets.tobytes() == offsets.astype(np.int64).tobytes()


@pytest.mark.parametrize("kind", sorted(SCHEMES))
def test_batch_functions_equal_per_period_loops(kind):
    truth, batch, periods = make_pair(SCHEMES[kind], seed=5)
    d1, d2 = truth.shape
    nu = 0.1
    view, part = batch[7:31], periods[7:31]

    agg = np.zeros((d1, d2))
    for rows, cols, y in part:
        for i, j, v in zip(rows, cols, y):
            agg[i, j] += v
    assert np.array_equal(aggregate_response(view, nu), agg / (nu * len(part)))

    m_init = truth.values + 0.05
    corr = np.zeros((d1, d2))
    for rows, cols, y in part:
        for i, j, v in zip(rows, cols, y):
            corr[i, j] += (v - m_init[i, j]) * (1.0 / nu)
    assert np.array_equal(debias(m_init, view, nu).m_unbs, m_init + corr / len(part))

    # The core solve on the records of the periods, concatenated.
    u, v = truth.left_factors, truth.right_factors
    rows, cols, y = (np.concatenate([p[k] for p in part]) for k in range(3))
    feats = (u[rows][:, :, None] * v[cols][:, None, :]).reshape(rows.size, 4)
    g = np.linalg.solve(feats.T @ feats, feats.T @ y).reshape(2, 2)
    assert np.array_equal(solve_G(u, v, view, 2), g)

    m1, m2 = truth.values + 0.01, truth.values - 0.02
    total = 0.0
    for half, m_fit in ((periods[:20], m1), (periods[20:], m2)):
        for rows, cols, y in half:
            if rows.size:
                resid = y - m_fit[rows, cols]
                total += float(resid @ resid) / rows.size
    assert estimate_sigma(m1, m2, batch[20:], batch[:20], 40) == total / 40


def test_slices_are_views_of_the_parent():
    _, batch, _ = make_pair(SCHEMES["two_sided"], seed=7)
    view = batch[10:30]
    inner = view[5:8]
    assert len(view) == 20 and len(inner) == 3
    for name in ("rows", "cols", "y"):
        assert np.shares_memory(getattr(view, name), getattr(batch, name))
        assert np.shares_memory(getattr(inner, name), getattr(batch, name))
    lo = batch.offsets[15]
    assert inner.offsets[0] == 0 and inner.offsets[-1] == batch.offsets[18] - lo
    assert np.array_equal(inner.y, batch.y[lo : batch.offsets[18]])
    with pytest.raises(ValueError):
        view.y[0] = 0.0  # read-only, like the parent


def test_validator_rejects_a_column_repeated_within_one_period():
    scheme = SCHEMES["two_sided"]
    with pytest.raises(ArgumentError, match="in period 1") as info:
        ObservationBatch.from_periods(
            scheme, 3, 4, 0.0, [([0], [1], [1.0]), ([0, 1], [2, 2], [1.0, 2.0])]
        )
    assert info.value.period == 1
    batch = ObservationBatch.from_periods(
        scheme, 3, 4, 0.0, [([0], [2], [1.0]), ([1], [2], [2.0])]
    )
    assert len(batch) == 2


@pytest.mark.parametrize(
    "scheme, bad",
    [
        (OneToOne(), ([0, 1], [0, 1], [1.0, 2.0])),  # row 2 unmatched
        (OneToMany(1, 0.5), ([0, 0], [0, 1], [1.0, 2.0])),  # row 0 twice
        (SCHEMES["two_sided"], ([1, 1], [0, 3], [1.0, 2.0])),  # row 1 twice
    ],
    ids=["one_to_one", "one_to_many", "two_sided"],
)
def test_validator_names_the_period_that_violates_the_scheme(scheme, bad):
    good = ([0, 1, 2], [3, 2, 1], [1.0, 2.0, 3.0])
    with pytest.raises(ArgumentError, match="in period 2") as info:
        ObservationBatch.from_periods(scheme, 3, 4, 0.0, [good, good, bad, good])
    assert info.value.period == 2


def test_validator_names_the_period_of_a_bad_index_or_reward():
    good = ([0, 1, 2], [3, 2, 1], [1.0, 2.0, 3.0])
    for bad in (([0, 1, 2], [3, 4, 1], [1.0, 2.0, 3.0]),
                ([0, 1, 3], [3, 2, 1], [1.0, 2.0, 3.0]),
                ([0, 1, 2], [3, 2, 1], [1.0, np.nan, 3.0])):
        with pytest.raises(ArgumentError, match="in period 1") as info:
            ObservationBatch.from_periods(OneToOne(), 3, 4, 0.0, [good, bad, good])
        assert info.value.period == 1


# ---------------------------------------------------------------------------
# Loader fuzzing
# ---------------------------------------------------------------------------

_HEADER = {"scheme": {"kind": "one_to_one"}, "d1": 2, "d2": 4, "sigma": 0.5, "seed": 3}
_CONFIG = dict(d1=2, d2=4, r=1, scheme={"kind": "one_to_one"}, T=40, seed=3, m=1,
               eta=0.7, sigma=0.5, scale=1.0, replications=1, q_spec="entry(0,0)")

_scalars = st.one_of(
    st.integers(-3, 5),
    st.integers(),  # unbounded: also beyond 64 bits
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.5, 1.0]),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
)
_pair = st.one_of(
    st.lists(st.integers(-1, 4), min_size=2, max_size=2),
    st.lists(_scalars, max_size=3),
    _scalars,
    st.dictionaries(st.text(max_size=2), _scalars, max_size=2),
)
# A one-to-one record over d1 = 2 rows that is valid for distinct columns
# and numeric rewards, so that some fuzzed files load and fit.
_near_valid = st.builds(
    lambda a, b, y: {"t": 1, "pairs": [[0, a], [1, b]], "y": y},
    st.integers(0, 3), st.integers(0, 3),
    st.lists(st.one_of(st.floats(-1e6, 1e6), _scalars), min_size=2, max_size=2),
)
_record = st.one_of(
    _near_valid,
    st.fixed_dictionaries(
        {"pairs": st.lists(_pair, max_size=3), "y": st.lists(_scalars, max_size=3)},
        optional={"t": _scalars},
    ),
    st.dictionaries(st.sampled_from(["pairs", "y", "t"]),
                    st.one_of(_scalars, st.lists(_scalars, max_size=3)), max_size=3),
    _scalars,
    st.lists(_scalars, max_size=3),
)


@pytest.fixture(scope="module")
def valid_lines(tmp_path_factory):
    """Records of a valid 40-period batch that the CLI can fit."""
    path = tmp_path_factory.mktemp("base") / "base.jsonl"
    truth = generate_low_rank(2, 4, 1, 3.0, np.random.default_rng(11))
    save_batch(observe(truth, OneToOne(), 40, 0.5, np.random.default_rng(12), seed=3), path)
    return path.read_text().splitlines()[1:]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(_record, min_size=1, max_size=3), where=st.integers(0, 40))
def test_load_batch_accepts_or_raises_data_format_error(
    records, where, valid_lines, tmp_path, capsys
):
    fuzzed = [json.dumps(rec) for rec in records]
    lines = [json.dumps(_HEADER)] + valid_lines[:where] + fuzzed + valid_lines[where:]
    path = tmp_path / "fuzz.jsonl"
    path.write_text("\n".join(lines) + "\n")
    try:
        batch = load_batch(path)
    except DataFormatError:
        accepted = False
    else:
        accepted = True
        assert len(batch) == 40 + len(records)
    event("accepted" if accepted else "rejected")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_CONFIG))
    code = main(["infer", str(path), str(config), "--q", "entry(0,0)"])
    capsys.readouterr()
    assert code == (0 if accepted else 4)


# An entry of a 2 x 4 form that is valid for distinct (i, j) keys.
_near_valid_entry = st.fixed_dictionaries(
    {"i": st.integers(0, 1), "j": st.integers(0, 3), "w": st.floats(-10, 10)})
_entry = st.one_of(
    _near_valid_entry,
    st.fixed_dictionaries({"i": _scalars, "j": _scalars, "w": _scalars}),
    st.dictionaries(st.sampled_from(["i", "j", "w"]), _scalars, max_size=3),
    _scalars,
    st.lists(_scalars, max_size=3),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(entries=st.one_of(st.lists(_near_valid_entry, max_size=3), st.lists(_entry, max_size=3)))
def test_q_file_accepts_or_raises_data_format_error(entries, valid_lines, tmp_path, capsys):
    text = json.dumps(entries)
    try:
        q = LinearForm.from_json(text, 2, 4)
    except DataFormatError:
        accepted = False
    else:
        accepted = True
        # Nothing was coerced: indices were JSON integers, weights numbers.
        assert q.size == len(entries)
        assert all(type(e["i"]) is int and type(e["j"]) is int
                   and type(e["w"]) in (int, float) for e in entries)
    event("accepted" if accepted else "rejected")
    batch, config, q_path = (tmp_path / name for name in ("b.jsonl", "c.json", "q.json"))
    batch.write_text("\n".join([json.dumps(_HEADER)] + valid_lines) + "\n")
    config.write_text(json.dumps(_CONFIG))
    q_path.write_text(text)
    code = main(["infer", str(batch), str(config), "--q", str(q_path)])
    capsys.readouterr()
    # An accepted form may still be all zeros: a degenerate test, exit 3.
    assert code in ((0, 3) if accepted else (4,))
