"""Span tracing of matchlearn from outside the package.

The package imports functions by name (``from .estimator import fit``),
so a call goes through the binding in the calling module.  Tracing
therefore replaces every binding a layer is reached through, listed in
``SPANNED`` and ``COUNTED``, and puts the originals back on exit.

A span is ``[name, start, end, parent, rep]``.  ``parent`` is the index
of the enclosing span (-1 for a root) and ``rep`` the replication id:
each call of ``harness.observe`` starts a new replication, so spans of
one replication share an id without touching private harness code.
Self time is a span's duration minus the durations of its children.
"""
from __future__ import annotations

import gzip
import json
import os
import statistics
import time
import warnings
from contextlib import contextmanager

from matchlearn import errors, estimator, harness, inference, matmodel, policy, samplers

# (module, attribute, span name): every binding through which the
# package or the benchmark reaches a layer's public functions.
SPANNED = (
    (harness, "run_simulation", "harness.run_simulation"),
    (harness, "main", "harness.main"),
    (harness, "entrywise_probability", "samplers.entrywise_probability"),
    (estimator, "entrywise_probability", "samplers.entrywise_probability"),
    (harness, "load_batch", "samplers.load_batch"),
    (samplers, "save_batch", "samplers.save_batch"),
    (harness, "fit", "estimator.fit"),
    (inference, "fit", "estimator.fit"),
    (estimator, "spectral_init", "estimator.spectral_init"),
    (estimator, "solve_G", "estimator.solve_G"),
    (estimator, "gradient_step", "estimator.gradient_step"),
    (harness, "prepare_inference", "inference.prepare_inference"),
    (harness, "infer_linear_form", "inference.infer_linear_form"),
    (policy, "infer_linear_form", "inference.infer_linear_form"),
    (inference, "debias", "inference.debias"),
    (inference, "project_rank_r", "inference.project_rank_r"),
    (inference, "estimate_sigma", "inference.estimate_sigma"),
    (inference, "projection_magnitude", "matmodel.projection_magnitude"),
    (harness, "generate_low_rank", "matmodel.generate_low_rank"),
    (matmodel, "generate_low_rank", "matmodel.generate_low_rank"),
    (harness, "optimal_one_to_one", "policy.optimal_one_to_one"),
    (harness, "evaluate_policy", "policy.evaluate_policy"),
)
SVD_BINDINGS = (estimator, inference, matmodel)
OBSERVE_BINDINGS = (harness, samplers)
# (module, attribute, counter): hot calls that are counted, not spanned.
COUNTED = (
    (samplers, "sample_matching", "samplers.sample_matching_calls"),
    (harness, "sample_matching", "samplers.sample_matching_calls"),
    (policy, "linear_sum_assignment", "policy.assignment_solves"),
)
# Warning types reported one by one; any other MatchlearnWarning still
# counts towards the total.
WARNING_NAMES = (
    "DegenerateSpectrumWarning",
    "EmptyMatchingWarning",
    "OutsideTheoryWarning",
    "RemainderDroppedWarning",
)


def scheme_kind(scheme) -> str:
    return samplers.scheme_to_json(scheme)["kind"]


class Tracer:
    """Records spans and counters while :meth:`patched` is active."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.rep_scheme: dict[int, str] = {}
        self._stack: list[int] = []
        self._rep = 0  # current replication id; 0 outside a replication
        self._reps = 0  # replications started so far

    # -- recording -----------------------------------------------------

    def _count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._rep]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)
        return wrapper

    def _svd(self, fn):
        def wrapper(a, r):
            shape = getattr(a, "shape", None) or (len(a), len(a[0]))
            self._count("matmodel.svd_r_cells", shape[0] * shape[1])
            with self.span("matmodel.svd_r"):
                return fn(a, r)
        return wrapper

    def _observe(self, fn, starts_replication: bool):
        def wrapper(m, scheme, *args, **kwargs):
            kind = scheme_kind(scheme)
            if starts_replication:
                self._reps += 1
                self._rep = self._reps
                self.rep_scheme[self._rep] = kind
            with self.span(f"samplers.observe.{kind}"):
                batch = fn(m, scheme, *args, **kwargs)
            self._count("samplers.revealed_entries",
                        sum(rec.y.size for rec in batch.records))
            return batch
        return wrapper

    def _load(self, fn):
        def wrapper(path):
            self._count("samplers.load_batch_bytes", os.path.getsize(path))
            return fn(path)
        return wrapper

    def _study(self, fn):
        def wrapper(config):
            try:
                summary = fn(config)
            finally:
                self._rep = 0
            self._count("harness.replications", config.replications)
            self._count("harness.replications_failed", summary.n_failed)
            return summary
        return wrapper

    def _showwarning(self, message, category, *args, **kwargs):
        if issubclass(category, errors.MatchlearnWarning):
            self._count("errors.warnings")
            self._count(f"errors.warnings.{category.__name__}")
        else:
            self._forward_warning(message, category, *args, **kwargs)

    @contextmanager
    def patched(self):
        """Replace every traced binding; restore them all on exit."""
        saved = []

        def put(module, attr, new):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)

        try:
            for module, attr, name in SPANNED:
                fn = getattr(module, attr)
                if attr == "load_batch":
                    fn = self._load(fn)
                if attr == "run_simulation":
                    fn = self._study(fn)
                put(module, attr, self._spanned(name, fn))
            for module in SVD_BINDINGS:
                put(module, "svd_r", self._svd(module.svd_r))
            for module in OBSERVE_BINDINGS:
                put(module, "observe",
                    self._observe(module.observe, starts_replication=module is harness))
            for module, attr, name in COUNTED:
                put(module, attr, self._counted(name, getattr(module, attr)))
            with warnings.catch_warnings():
                # "always" so repeated warnings from one line are all counted.
                warnings.simplefilter("always", errors.MatchlearnWarning)
                self._forward_warning = warnings.showwarning
                warnings.showwarning = self._showwarning
                yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # -- analysis ------------------------------------------------------

    def summarize(self, roots: dict[str, list[int]]):
        """Per-name totals under each group of root spans.

        ``roots`` maps a group name to the indices of its root spans.
        Returns ``{group: {span name: [inclusive_s, self_s, calls]}}``
        and ``{group: {rep id: latency_s}}``, where a replication's
        latency runs from its observe call to the end of its last span.
        """
        child = [0.0] * len(self.spans)
        root_of = [0] * len(self.spans)
        for idx, (_, start, end, parent, _) in enumerate(self.spans):
            root_of[idx] = idx if parent < 0 else root_of[parent]
            if parent >= 0:
                child[parent] += end - start
        group_of = {r: g for g, rs in roots.items() for r in rs}
        totals = {g: {} for g in roots}
        reps = {g: {} for g in roots}
        rep_start, rep_end = {}, {}
        for idx, (name, start, end, _, rep) in enumerate(self.spans):
            group = group_of.get(root_of[idx])
            if group is None:
                continue
            acc = totals[group].setdefault(name, [0.0, 0.0, 0])
            acc[0] += end - start
            acc[1] += end - start - child[idx]
            acc[2] += 1
            if rep:
                rep_start.setdefault(rep, (group, start))
                rep_end[rep] = max(rep_end.get(rep, end), end)
        for rep, (group, start) in rep_start.items():
            reps[group][rep] = rep_end[rep] - start
        return totals, reps

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, rep in self.spans:
                fh.write(json.dumps([name, start, end, parent, rep]) + "\n")


def layer_metrics(tracer: Tracer, setup_roots, op_roots, setup_counts, op_counts):
    """Per-layer values for one traced set-up plus one average operation."""
    totals, reps = tracer.summarize({"setup": setup_roots, "ops": op_roots})
    n_ops = len(op_roots)

    def combine(setup_value, ops_value):
        return setup_value + ops_value / n_ops

    def field(name, k):  # k: 0 inclusive time, 1 self time, 2 calls
        return combine(*(totals[g].get(name, (0, 0.0, 0))[k] for g in ("setup", "ops")))

    def incl(name):
        return field(name, 0)

    def self_(name):
        return field(name, 1)

    def calls(name):
        return field(name, 2)

    def module_self(prefix):
        return combine(*(sum(v[1] for k, v in totals[g].items() if k.startswith(prefix))
                         for g in ("setup", "ops")))

    def counter(name):
        return combine(setup_counts.get(name, 0), op_counts.get(name, 0))

    rep_by_scheme: dict[str, list[float]] = {}
    for rep, latency in reps["ops"].items():
        rep_by_scheme.setdefault(tracer.rep_scheme[rep], []).append(latency)

    out = {}
    for kind in ("one_to_one", "one_to_many", "two_sided"):
        out[f"samplers.observe_s.{kind}"] = (incl(f"samplers.observe.{kind}"), "s")
    out.update({
        "samplers.sample_matching_calls": (counter("samplers.sample_matching_calls"), "count"),
        "samplers.revealed_entries": (counter("samplers.revealed_entries"), "count"),
        "samplers.entrywise_probability_s": (incl("samplers.entrywise_probability"), "s"),
        "samplers.load_batch_s": (incl("samplers.load_batch"), "s"),
        "samplers.load_batch_bytes": (counter("samplers.load_batch_bytes"), "B"),
        "samplers.save_batch_s": (incl("samplers.save_batch"), "s"),
        "samplers.self_s": (module_self("samplers."), "s"),
        "estimator.fit_s": (incl("estimator.fit"), "s"),
        "estimator.fit_calls": (calls("estimator.fit"), "count"),
        "estimator.spectral_init_s": (incl("estimator.spectral_init"), "s"),
        "estimator.gradient_step_self_s": (self_("estimator.gradient_step"), "s"),
        "estimator.gradient_steps": (calls("estimator.gradient_step"), "count"),
        "estimator.solve_G_s": (incl("estimator.solve_G"), "s"),
        "estimator.solve_G_calls": (calls("estimator.solve_G"), "count"),
        "estimator.self_s": (module_self("estimator."), "s"),
        "inference.prepare_inference_s": (incl("inference.prepare_inference"), "s"),
        "inference.prepare_inference_self_s": (self_("inference.prepare_inference"), "s"),
        "inference.debias_s": (incl("inference.debias"), "s"),
        "inference.project_rank_r_s": (incl("inference.project_rank_r"), "s"),
        "inference.estimate_sigma_s": (incl("inference.estimate_sigma"), "s"),
        "inference.infer_linear_form_s": (incl("inference.infer_linear_form"), "s"),
        "inference.self_s": (module_self("inference."), "s"),
        "matmodel.svd_r_s": (incl("matmodel.svd_r"), "s"),
        "matmodel.svd_r_calls": (calls("matmodel.svd_r"), "count"),
        "matmodel.svd_r_cells": (counter("matmodel.svd_r_cells"), "count"),
        "matmodel.projection_magnitude_s": (incl("matmodel.projection_magnitude"), "s"),
        "matmodel.generate_low_rank_s": (incl("matmodel.generate_low_rank"), "s"),
        "matmodel.self_s": (module_self("matmodel."), "s"),
        "policy.optimal_one_to_one_s": (incl("policy.optimal_one_to_one"), "s"),
        "policy.optimal_one_to_one_calls": (calls("policy.optimal_one_to_one"), "count"),
        "policy.assignment_solves": (counter("policy.assignment_solves"), "count"),
        "policy.evaluate_policy_s": (incl("policy.evaluate_policy"), "s"),
        "policy.self_s": (module_self("policy."), "s"),
        "harness.run_simulation_self_s": (self_("harness.run_simulation"), "s"),
        "harness.main_self_s": (self_("harness.main"), "s"),
        "harness.replications": (counter("harness.replications"), "count"),
        "harness.replications_failed": (counter("harness.replications_failed"), "count"),
        "harness.self_s": (module_self("harness."), "s"),
    })
    for kind in ("one_to_one", "one_to_many", "two_sided"):
        lat = rep_by_scheme.get(kind)
        out[f"harness.replication_s.{kind}"] = (statistics.median(lat) if lat else 0.0, "s")
    out["errors.warnings"] = (counter("errors.warnings"), "count")
    for warning in WARNING_NAMES:
        name = f"errors.warnings.{warning}"
        out[name] = (counter(name), "count")
    out["bench.self_s"] = (module_self("bench."), "s")
    return out, rep_by_scheme
