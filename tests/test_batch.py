"""Tests for the columnar observation batch against the per-period reference.

The reference path builds one validated :class:`Matching` and one noise
draw per period with a Python loop, consuming the stream in the order of
the samplers' T-period draw: all arrival counts or degrees, then each
period's row permutation (two-sided), then each period's column
permutation, then each period's noise.  Every comparison here is exact.
"""
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from matchlearn import (
    ArgumentError,
    DataFormatError,
    EmptyMatchingWarning,
    EstimatorConfig,
    LinearForm,
    Matching,
    ObservationBatch,
    OneToMany,
    OneToOne,
    TwoSided,
    aggregate_response,
    debias,
    estimate_sigma,
    generate_low_rank,
    held_out_residual,
    load_batch,
    main,
    observe,
    period_mean_squares,
    prepare_inference,
    save_batch,
    solve_G,
)
from matchlearn import samplers

SCHEMES = {
    "one_to_one": OneToOne(),
    "one_to_many": OneToMany(3, 0.8),
    "two_sided": TwoSided(0.8, 0.8, 0.3, 0.3, 0.2),
}


def reference_periods(m, scheme, T, sigma, rng):
    """Per-period draws: validated matchings, then their noise."""
    d1, d2 = m.shape
    if isinstance(scheme, OneToOne):
        rows = [np.arange(d1)] * T
    elif isinstance(scheme, OneToMany):
        degrees = [rng.binomial(scheme.K, scheme.p0, size=d1) for _ in range(T)]
        rows = [np.repeat(np.arange(d1), k) for k in degrees]
    else:
        sizes = [int(np.minimum(*scheme.arrivals(d1, d2, rng, 1))[0]) for _ in range(T)]
        # A uniform k-subset of rows: the first k of an inverse permutation.
        rows = [np.sort(np.argsort(rng.permutation(d1))[:k]) for k in sizes]
    mats = [Matching(d1, d2, r, rng.permutation(d2)[:r.size]) for r in rows]
    return [(mat.rows, mat.cols,
             m.values[mat.rows, mat.cols] + sigma * rng.standard_normal(mat.size))
            for mat in mats]


def periods_batch(scheme, d1, d2, sigma, periods):
    """The batch of per-period ``(rows, cols, y)`` triples, concatenated."""
    rows, cols, y = ([v for p in periods for v in p[k]] for k in range(3))
    return ObservationBatch(scheme, d1, d2, sigma, rows, cols, y,
                            np.cumsum([0] + [len(p[0]) for p in periods]))


def sigma_oracle(halves):
    """Exact sum over nonempty periods of their mean squared residual, and the empty count."""
    means, skipped = [], 0
    for periods, m_fit in halves:
        for rows, cols, y in periods:
            total = 0.0
            for e in np.asarray(y) - m_fit[rows, cols]:
                total += e * e
            if len(rows):
                means.append(total / len(rows))
            else:
                skipped += 1
    return math.fsum(means), skipped


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
    nu = SCHEMES[kind].nu(d1, d2)
    view, part = batch[7:31], periods[7:31]

    agg = np.zeros((d1, d2))
    for rows, cols, y in part:
        for i, j, v in zip(rows, cols, y):
            agg[i, j] += v
    assert np.array_equal(aggregate_response(view), agg / (nu * len(part)))

    m_init = truth.values + 0.05
    corr = np.zeros((d1, d2))
    for rows, cols, y in part:
        for i, j, v in zip(rows, cols, y):
            corr[i, j] += (v - m_init[i, j]) * (1.0 / nu)
    residual = held_out_residual(m_init, view)
    assert np.array_equal(debias(m_init, view, residual), m_init + corr / len(part))

    # The core solve on the records of the periods, concatenated.
    u, v = truth.left_factors, truth.right_factors
    rows, cols, y = (np.concatenate([p[k] for p in part]) for k in range(3))
    feats = (u[rows][:, :, None] * v[cols][:, None, :]).reshape(rows.size, 4)
    g = np.linalg.solve(feats.T @ feats, feats.T @ y).reshape(2, 2)
    assert np.array_equal(solve_G(u, v, view), g)

    # sigma^2 by its definition: each period's squares added left to right,
    # the per-period means added exactly.
    m1, m2 = truth.values + 0.01, truth.values - 0.02
    total, _ = sigma_oracle([(periods[:20], m1), (periods[20:], m2)])
    h1, h2 = batch[20:], batch[:20]
    means = [period_mean_squares(h2, held_out_residual(m1, h2)),
             period_mean_squares(h1, held_out_residual(m2, h1))]
    assert estimate_sigma(means, 40) == total / 40


def test_sigma_skips_empty_periods_anywhere_in_either_half():
    # Empty periods in the middle and at the end of both halves (periods
    # 0-19 are half 2, 20-39 half 1), and one at the start of half 1.
    truth, _, periods = make_pair(SCHEMES["two_sided"], seed=11)
    empty = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    for t in (7, 19, 20, 31, 39):
        periods[t] = empty
    batch = periods_batch(SCHEMES["two_sided"], *truth.shape, 0.7, periods)
    m1, m2 = truth.values + 0.01, truth.values - 0.02
    total, skipped = sigma_oracle([(periods[:20], m1), (periods[20:], m2)])
    assert skipped == 5
    h1, h2 = batch[20:], batch[:20]
    means = [period_mean_squares(h2, held_out_residual(m1, h2)),
             period_mean_squares(h1, held_out_residual(m2, h1))]
    with pytest.warns(EmptyMatchingWarning, match="skipped 5 empty"):
        assert estimate_sigma(means, 40) == total / 40


def test_period_means_taken_in_slices_equal_one_bincount_over_the_half():
    # 200 entries per period: periods are squared and summed 655 at a time, so
    # these 700 periods, with an empty one at the cut, take two slices.
    truth = generate_low_rank(200, 400, 2, 3.0, np.random.default_rng(3))
    full = observe(truth, OneToOne(), 700, 0.7, np.random.default_rng(4))
    cut = range(131000, 131200)  # period 655 emptied
    offsets = full.offsets.copy()
    offsets[656:] -= 200
    half = ObservationBatch(SCHEMES["two_sided"], 200, 400, 0.7, np.delete(full.rows, cut),
                            np.delete(full.cols, cut), np.delete(full.y, cut), offsets)
    residual = held_out_residual(truth.values + 0.01, half)
    counts = np.diff(half.offsets)
    sums = np.bincount(np.repeat(np.arange(700), counts), weights=residual**2)
    expect = sums[counts > 0] / counts[counts > 0]
    assert period_mean_squares(half, residual).tobytes() == expect.tobytes()


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
    assert inner.offsets.dtype == np.int64
    assert np.array_equal(inner.y, batch.y[lo : batch.offsets[18]])
    with pytest.raises(ValueError):
        view.y[0] = 0.0  # read-only, like the parent
    with pytest.raises(ValueError):
        inner.offsets[0] = 1
    for key in (3, "a", slice(0, 10, 2)):
        with pytest.raises(ArgumentError):
            batch[key]


def test_scatter_adds_each_cell_in_entry_order_and_nu_is_the_schemes():
    _, batch, _ = make_pair(SCHEMES["one_to_many"], seed=9)
    weights = np.random.default_rng(3).standard_normal(batch.y.size)
    dense = np.zeros((batch.d1, batch.d2))
    for i, j, w in zip(batch.rows, batch.cols, weights):
        dense[i, j] += w
    assert batch.scatter(weights).tobytes() == dense.tobytes()
    assert batch[5:9].nu == batch.nu == SCHEMES["one_to_many"].nu(batch.d1, batch.d2)


def entries(kind, rows=(0, 1), cols=(0, 1), values=(1.0, 2.0), offsets=(0, 2)):
    """A 2x4 batch (one period unless ``offsets`` say otherwise), matching or linear form
    of these entries."""
    if kind == "batch":
        return ObservationBatch(OneToOne(), 2, 4, 0.5, rows, cols, values, offsets)
    if kind == "matching":
        return Matching(2, 4, rows, cols)
    return LinearForm(2, 4, rows, cols, values)


_BAD_ENTRIES = [("rows", [0, 1.9]), ("cols", [0.0, 1.0]), ("rows", [True, False]),
                ("cols", [0, True]), ("rows", ["0", "1"]), ("values", ["1.5", "2.5"]),
                ("values", [1.0, True]), ("values", [None, 1.0])]
_BAD_CASES = [(kind, field, value) for kind in ("batch", "matching", "form")
              for field, value in _BAD_ENTRIES if kind != "matching" or field != "values"]


@pytest.mark.parametrize("kind, field, value", _BAD_CASES,
                         ids=[f"{kind}-{field}={value}" for kind, field, value in _BAD_CASES])
def test_entry_constructors_take_only_integer_indices_and_numeric_values(kind, field, value):
    # numpy alone truncates 1.9 to 1, reads booleans as 0 and 1 and parses "1.5",
    # all of which the loaders reject in a file.
    entries(kind)
    with pytest.raises(ArgumentError, match="must hold only"):
        entries(kind, **{field: value})


_OFFSETS = "offsets must rise from 0"


@pytest.mark.parametrize("kind, change, message", [
    pytest.param("batch", dict(offsets=(1, 2)), _OFFSETS, id="batch-offsets_from_1"),
    pytest.param("batch", dict(offsets=(0, 2, 1)), _OFFSETS, id="batch-offsets_fall"),
    pytest.param("batch", dict(offsets=(0, 1)), _OFFSETS, id="batch-offsets_short"),
    pytest.param("batch", dict(rows=(0,)), _OFFSETS, id="batch-rows_short"),
    pytest.param("matching", dict(rows=(0,)), "rows and cols must have equal length",
                 id="matching-rows_short"),
    pytest.param("form", dict(values=(1.0,)), "rows, cols, weights must have equal length",
                 id="form-weights_short"),
    pytest.param("form", dict(values=(1.0, np.inf)), "weights must be finite", id="form-inf"),
    pytest.param("form", dict(values=(np.nan, 1.0)), "weights must be finite", id="form-nan"),
])
def test_entry_constructors_refuse_arrays_that_do_not_line_up_and_non_finite_weights(
        kind, change, message):
    entries(kind)
    with pytest.raises(ArgumentError, match=message):
        entries(kind, **change)


def test_entry_constructors_take_empty_lists():
    assert Matching(2, 4, [], []).size == LinearForm(2, 4, [], [], []).size == 0
    batch = ObservationBatch(OneToMany(1, 0.5), 2, 4, 0.5, [], [], [], [0, 0])
    assert len(batch) == 1 and batch.y.size == 0


def test_validator_rejects_a_column_repeated_within_one_period():
    scheme = SCHEMES["two_sided"]
    with pytest.raises(ArgumentError, match="in period 1") as info:
        periods_batch(scheme, 3, 4, 0.0, [([0], [1], [1.0]), ([0, 1], [2, 2], [1.0, 2.0])])
    assert info.value.period == 1
    batch = periods_batch(scheme, 3, 4, 0.0, [([0], [2], [1.0]), ([1], [2], [2.0])])
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
        periods_batch(scheme, 3, 4, 0.0, [good, good, bad, good])
    assert info.value.period == 2


@pytest.mark.parametrize("periods, message, period", [
    # Keys out of order within the period: found only once the keys are sorted.
    ([([0, 1, 2], [3, 2, 1]), ([2, 0, 2], [0, 1, 3]), ([0, 1, 2], [1, 2, 3])],
     "row multiplicity exceeds K=1", 1),
    ([([0, 1, 2], [3, 2, 1]), ([0, 1, 2], [3, 1, 3]), ([0, 1, 2], [1, 2, 3])],
     "a column appears more than once", 1),
    # An earlier repeat out of order wins over a later one in order.
    ([([0, 1, 2], [3, 2, 1]), ([0, 1, 2], [3, 1, 3]), ([0, 1, 2], [0, 1, 2]),
      ([0, 1, 2], [1, 1, 2])], "a column appears more than once", 1),
], ids=["row_out_of_order", "column_out_of_order", "earlier_out_of_order_wins"])
def test_validator_finds_a_repeat_whatever_the_order_of_its_keys(periods, message, period):
    with pytest.raises(ArgumentError, match=f"{message} in period {period}") as info:
        periods_batch(OneToMany(1, 0.5), 3, 4, 0.0,
                      [(rows, cols, [0.0] * len(rows)) for rows, cols in periods])
    assert info.value.period == period


@pytest.mark.parametrize("d2, periods", [(2**31, 3), (2**31 - 1, 1)], ids=["int64", "int32"])
def test_validator_keys_at_either_side_of_the_int32_limit(d2, periods):
    # periods * (largest column + 1) is 3 * 2**31, past int32's keys, then 2**31 - 1 within them.
    top = d2 - 1
    batch = [([0, 1], [top, 0], [0.0, 0.0])] * periods
    batch[periods // 2] = ([0, 1], [top, top], [0.0, 0.0])
    with pytest.raises(ArgumentError, match="a column appears more than once") as info:
        periods_batch(OneToOne(), 2, d2, 0.0, batch)
    assert info.value.period == periods // 2


def test_validator_names_the_period_of_a_bad_index_or_reward():
    good = ([0, 1, 2], [3, 2, 1], [1.0, 2.0, 3.0])
    for bad in (([0, 1, 2], [3, 4, 1], [1.0, 2.0, 3.0]),
                ([0, 1, 3], [3, 2, 1], [1.0, 2.0, 3.0]),
                ([0, 1, 2], [3, 2, 1], [1.0, np.nan, 3.0])):
        with pytest.raises(ArgumentError, match="in period 1") as info:
            periods_batch(OneToOne(), 3, 4, 0.0, [good, bad, good])
        assert info.value.period == 1


@pytest.mark.parametrize("kind", ["one_to_one", "one_to_many"])
def test_loading_and_validating_a_batch_hold_little_beyond_its_columns(kind, tmp_path):
    """Each entry is held once while loading, and validation adds one 8-byte key per entry.

    Peaks are traced allocations, against the bytes of the rows, cols and y returned.
    """
    truth = generate_low_rank(50, 150, 2, 3.0, np.random.default_rng(1))
    path = tmp_path / "batch.jsonl"
    save_batch(observe(truth, SCHEMES[kind], 400, 0.5, np.random.default_rng(2)), path)
    tracemalloc.start()
    try:
        batch = load_batch(path)
        load_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        ObservationBatch(batch.scheme, batch.d1, batch.d2, batch.sigma, batch.rows, batch.cols,
                         batch.y, batch.offsets)
        build_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    size = batch.rows.nbytes + batch.cols.nbytes + batch.y.nbytes
    assert load_peak <= 2.0 * size
    assert build_peak <= 0.6 * size


def test_observe_and_prepare_inference_hold_no_whole_tile_and_no_spare_dense_matrix():
    """At 50x1500, T=800 the (T, d2) index tile of the column draw is ten times the batch.

    ``observe`` permutes it in 1 MiB row chunks, so its traced peak stays within
    four times the rows, cols and y it returns (about 12 times for the whole tile).
    ``prepare_inference`` holds two dense d1 x d2 matrices besides the running
    stage's arrays, so it peaks within five of them above the batch (about six
    when every estimate is kept to the end).
    """
    truth = generate_low_rank(50, 1500, 2, 3.0, np.random.default_rng(1))
    tracemalloc.start()
    try:
        batch = observe(truth, OneToOne(), 800, 0.5, np.random.default_rng(2))
        held, observe_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        prepare_inference(batch, EstimatorConfig(r=2, eta=0.75, m=5, nu=batch.nu))
        prepare_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    size = batch.rows.nbytes + batch.cols.nbytes + batch.y.nbytes
    assert observe_peak <= 4.0 * size
    assert prepare_peak <= 5.0 * truth.values.nbytes


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


# The header: the valid one, or one with a field replaced by an arbitrary
# value (a scheme with arbitrary parameters among them) or dropped.
_scheme = st.fixed_dictionaries(
    {"kind": st.sampled_from(["one_to_one", "one_to_many", "two_sided", "mystery"])},
    optional={name: st.one_of(_scalars, st.floats(0.0, 1.0))
              for name in ("K", "p0", "p1", "p2", "c_r", "c_s", "gamma")},
)
_header = st.one_of(
    st.just(_HEADER),
    st.builds(lambda key, value: {**_HEADER, key: value},
              st.sampled_from(sorted(_HEADER)), st.one_of(_scalars, _scheme)),
    st.builds(lambda key: {k: v for k, v in _HEADER.items() if k != key},
              st.sampled_from(sorted(_HEADER))),
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
@given(records=st.lists(_record, min_size=1, max_size=3), where=st.integers(0, 40),
       header=_header)
def test_load_batch_accepts_or_raises_data_format_error(
    records, where, header, valid_lines, tmp_path, capsys
):
    fuzzed = [json.dumps(rec) for rec in records]
    lines = [json.dumps(header)] + valid_lines[:where] + fuzzed + valid_lines[where:]
    path = tmp_path / "fuzz.jsonl"
    path.write_text("\n".join(lines) + "\n")
    try:
        batch = load_batch(path)
    except DataFormatError:
        accepted = False
    else:
        accepted = True
        assert len(batch) == 40 + len(records)
        # Nothing was coerced: dimensions and seed were JSON integers, sigma a number.
        assert type(header["d1"]) is int and type(header["d2"]) is int
        assert type(header["sigma"]) in (int, float)
        assert header.get("seed") is None or type(header["seed"]) is int
        assert (batch.d1, batch.d2, batch.sigma, batch.seed) == (
            header["d1"], header["d2"], header["sigma"], header.get("seed"))
    event("accepted" if accepted else "rejected")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_CONFIG))
    code = main(["infer", str(path), str(config), "--q", "entry(0,0)"])
    capsys.readouterr()
    # An accepted header may still disagree with the config: exit 2.
    matches_config = accepted and (batch.d1, batch.d2, batch.scheme) == (2, 4, OneToOne())
    assert code == (4 if not accepted else 0 if matches_config else 2)


@pytest.mark.parametrize("ranges", [1, 3])
def test_a_batch_file_that_is_not_utf8_is_a_data_format_error(
    valid_lines, tmp_path, monkeypatch, capsys, ranges
):
    # The byte sits in the last record: with three ranges, a child meets it.  The
    # position named is within that record's line, whatever range holds it.
    data = ("\n".join([json.dumps(_HEADER)] + valid_lines) + "\n").encode()
    path, config = tmp_path / "latin.jsonl", tmp_path / "config.json"
    path.write_bytes(data[:-8] + b"\xff" + data[-8:])
    config.write_text(json.dumps(_CONFIG))
    monkeypatch.setattr(samplers, "_SPLIT_BYTES", 16)
    monkeypatch.setattr(samplers, "_usable_cpus", lambda: ranges)
    with pytest.raises(DataFormatError) as info:
        load_batch(path)
    assert str(info.value) == (f"cannot read batch file {path}: 'utf-8' codec can't decode "
                               f"byte 0xff in position {len(valid_lines[-1]) - 7}: "
                               "invalid start byte")
    assert type(info.value.__cause__) is UnicodeDecodeError
    assert main(["infer", str(path), str(config), "--q", "entry(0,0)"]) == 4
    assert "cannot read batch file" in capsys.readouterr().err


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
