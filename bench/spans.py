"""Span recorder and hooks for the traced benchmark run.

Each hook wraps one public function of ``refac`` at every binding its
callers look up: the defining module and each ``refac`` module that
imported the name, or the class attribute for a method.  A span records
its name, start, end, parent span and one count taken from the result
(assignments drawn, values sampled, ...).  Spans stay in memory; the run
writes them out at the end and derives the per-layer metrics from them,
with self time as a span's duration minus that of its child spans.

A hook whose target no longer exists is skipped with a warning, and only
the metrics that need it are dropped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

ROUND = "bench.round"


class Recorder:
    """Spans of one single-threaded run, in the order they were opened."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: list[float] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(float("nan"))
        self.counts.append(0)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int, count=0) -> None:
        self.ends[index] = time.perf_counter()
        self.counts[index] = count
        self._open.pop()

    def span(self, name: str, fn, counter=None):
        """``fn`` wrapped so that every call records one span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(index, counter(result) if counter and result is not None else 0)
        return traced

    def dump(self, path: str) -> None:
        ids = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(ids),
                       "fields": ["name", "start", "end", "parent", "count"],
                       "spans": [[ids[n], s, e, p, c] for n, s, e, p, c in zip(
                           self.names, self.starts, self.ends, self.parents,
                           self.counts)]}, fh)


def _rows(result) -> int:
    return result.shape[0]


def _size(result) -> int:
    return result.size


def _draws(result) -> int:
    return result.draws_attempted


def _replications(result) -> int:
    return result.reps * len(result.all_results())


#: (span name, defining module, attribute path, count taken from the result)
HOOKS = (
    ("rerandomize.draw_assignment_batch", "refac.rerandomize", "draw_assignment_batch", _rows),
    ("rerandomize.rerandomize", "refac.rerandomize", "rerandomize", _draws),
    ("balance.statistics", "refac.balance", "CriterionEngine.statistics", _rows),
    ("balance.batch_group_means", "refac.balance", "batch_group_means", _rows),
    ("balance.engine_build", "refac.balance", "CriterionEngine.__init__", None),
    ("balance.report", "refac.balance", "CriterionEngine.report", None),
    ("design.build_structure", "refac.design", "build_structure", None),
    ("design.orthogonalize_effects", "refac.design", "orthogonalize_effects", None),
    ("design.orthogonalize_covariates", "refac.design", "orthogonalize_covariates", None),
    ("estimate.effect_estimates", "refac.estimate", "effect_estimates", None),
    ("estimate.sample_moments", "refac.estimate", "sample_moments", None),
    ("estimate.projection_coefficients", "refac.estimate", "projection_coefficients", None),
    ("asymptotic.truncated_gaussian_sample", "refac.asymptotic",
     "truncated_gaussian_sample", _size),
    ("asymptotic.simulate_law", "refac.asymptotic", "simulate_law", None),
    ("confidence.confidence_set", "refac.confidence", "confidence_set", None),
    ("confidence.estimated_law", "refac.confidence", "estimated_law", None),
    ("truth.population_truth", "refac.truth", "population_truth", None),
    ("truth.law_from_truth", "refac.truth", "law_from_truth", None),
    ("simlab.replicate", "refac.simlab", "replicate", _replications),
    ("chisq.chi2_quantile", "refac.chisq", "chi2_quantile", None),
    ("linalg.population_covariance", "refac.linalg", "population_covariance", None),
    ("linalg.sym_inverse", "refac.linalg", "sym_inverse", None),
    ("linalg.sym_sqrt", "refac.linalg", "sym_sqrt", None),
    ("linalg.sym_inv_sqrt", "refac.linalg", "sym_inv_sqrt", None),
    ("linalg.psd_sqrt", "refac.linalg", "psd_sqrt", None),
    ("linalg.kronecker_init", "refac.linalg", "KroneckerPSD.__init__", None),
    ("linalg.kronecker_inv_quadform", "refac.linalg", "KroneckerPSD.inv_quadform", None),
    ("linalg.kronecker_inv_dense", "refac.linalg", "KroneckerPSD.inv_dense", None),
    ("linalg.kronecker_inv_sqrt_dense", "refac.linalg", "KroneckerPSD.inv_sqrt_dense", None),
    ("cli.read_data_file", "refac.cli", "read_data_file", None),
    ("cli.main", "refac.cli", "main", None),
    ("rng.stream", "refac.rng", "stream", None),
)


def install(recorder: Recorder, hooks=HOOKS) -> tuple[list, set[str]]:
    """Wrap every hook target; returns (undo list, names of missing hooks)."""
    undo, missing = [], set()
    for name, module_name, path, counter in hooks:
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            print(f"trace: hook target {module_name}.{path} not found; "
                  f"metrics that need span {name!r} are dropped", file=sys.stderr)
            missing.add(name)
            continue
        traced = recorder.span(name, original, counter)
        if owner_path:
            bindings = [owner]
        else:
            bindings = [module for key, module in list(sys.modules.items())
                        if (key == "refac" or key.startswith("refac."))
                        and vars(module).get(attr) is original]
        for module in bindings:
            undo.append((module, attr, original))
            setattr(module, attr, traced)
    return undo, missing


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


class _Table:
    """Per-name totals over all spans and over the first round."""

    def __init__(self, recorder: Recorder):
        names = np.array(recorder.names, dtype=object)
        starts, ends = np.array(recorder.starts), np.array(recorder.ends)
        parents = np.array(recorder.parents, dtype=np.int64)
        counts = np.array(recorder.counts, dtype=float)
        duration = ends - starts
        child_time = np.zeros(len(names))
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], duration[has_parent])
        self_time = duration - child_time
        rounds = np.flatnonzero(names == ROUND)
        first = rounds[0]
        in_first = (starts >= starts[first]) & (ends <= ends[first])
        parent_names = np.where(has_parent, names[np.maximum(parents, 0)], "")
        self._rows = {}
        for name in set(recorder.names):
            mask = names == name
            self._rows[name] = {
                "calls": int(mask.sum()),
                "time": float(duration[mask].sum()),
                "self": float(self_time[mask].sum()),
                "count": float(counts[mask].sum()),
                "calls_first": int((mask & in_first).sum()),
                "count_first": float(counts[mask & in_first].sum()),
            }
        top_linalg = np.array([n.startswith("linalg.") and not p.startswith("linalg.")
                               for n, p in zip(names, parent_names)], dtype=bool)
        self.linalg_time = float(duration[top_linalg].sum())

    def get(self, name: str, key: str) -> float:
        return self._rows.get(name, {}).get(key, 0)

    def per(self, name: str, key: str, by: str, scale: float = 1.0) -> float:
        """Total ``key`` of a span name divided by its ``by``; 0 with no calls."""
        denominator = self.get(name, by)
        return scale * self.get(name, key) / denominator if denominator else 0.0


DRAW, RERANDOMIZE = "rerandomize.draw_assignment_batch", "rerandomize.rerandomize"
STATISTICS, ENGINE, REPORT = "balance.statistics", "balance.engine_build", "balance.report"
SAMPLER, SIMULATE = "asymptotic.truncated_gaussian_sample", "asymptotic.simulate_law"
CONFIDENCE, PROJECTION = "confidence.confidence_set", "estimate.projection_coefficients"
MOMENTS, EFFECTS = "estimate.sample_moments", "estimate.effect_estimates"
ORTHOGONALIZE = ("design.orthogonalize_effects", "design.orthogonalize_covariates")
LINALG = tuple(name for name, *_ in HOOKS if name.startswith("linalg."))


def _ms_per_call(name):
    return (name,), lambda t, ops, first_ops: t.per(name, "time", "calls", 1e3)


def _orthogonalize_ms(t, ops, first_ops):
    calls = sum(t.get(n, "calls") for n in ORTHOGONALIZE)
    return 1e3 * sum(t.get(n, "time") for n in ORTHOGONALIZE) / calls if calls else 0.0


#: metric name -> (unit, span names it needs, value(table, ops, first-round ops))
METRICS = {
    "rerandomize.draw_us_per_assignment": (
        "us", (DRAW,), lambda t, ops, f: t.per(DRAW, "time", "count", 1e6)),
    "rerandomize.useful_draw_ratio": (
        "ratio", (DRAW, RERANDOMIZE),
        lambda t, ops, f: t.get(RERANDOMIZE, "count") / t.get(DRAW, "count")
        if t.get(DRAW, "count") else 0.0),
    "rerandomize.draws_per_op": (
        "count", (RERANDOMIZE,), lambda t, ops, f: t.get(RERANDOMIZE, "count_first") / f),
    "rerandomize.ms_per_acceptance": ("ms", *_ms_per_call(RERANDOMIZE)),
    "rerandomize.loop_self_us_per_batch": (
        "us", (RERANDOMIZE, DRAW, STATISTICS, ENGINE, REPORT),
        lambda t, ops, f: 1e6 * t.get(RERANDOMIZE, "self") / t.get(DRAW, "calls")
        if t.get(DRAW, "calls") else 0.0),
    "balance.stat_us_per_assignment": (
        "us", (STATISTICS,), lambda t, ops, f: t.per(STATISTICS, "time", "count", 1e6)),
    "balance.group_means_us_per_assignment": (
        "us", ("balance.batch_group_means",),
        lambda t, ops, f: t.per("balance.batch_group_means", "time", "count", 1e6)),
    "balance.engine_build_ms": ("ms", *_ms_per_call(ENGINE)),
    "balance.report_ms": ("ms", *_ms_per_call(REPORT)),
    "design.build_structure_ms": ("ms", *_ms_per_call("design.build_structure")),
    "design.orthogonalize_ms": ("ms", ORTHOGONALIZE, _orthogonalize_ms),
    "estimate.effect_estimates_us": (
        "us", (EFFECTS,), lambda t, ops, f: t.per(EFFECTS, "time", "calls", 1e6)),
    "estimate.sample_moments_ms": ("ms", *_ms_per_call(MOMENTS)),
    "estimate.projection_ms": ("ms", *_ms_per_call(PROJECTION)),
    "estimate.projection_calls_per_op": (
        "count", (PROJECTION,), lambda t, ops, f: t.get(PROJECTION, "calls_first") / f),
    "asymptotic.sampler_ns_per_value": (
        "ns", (SAMPLER,), lambda t, ops, f: t.per(SAMPLER, "time", "count", 1e9)),
    "asymptotic.sampler_values_per_op": (
        "count", (SAMPLER,), lambda t, ops, f: t.get(SAMPLER, "count_first") / f),
    "asymptotic.simulate_law_self_ms": (
        "ms", (SIMULATE, SAMPLER, "linalg.psd_sqrt"),
        lambda t, ops, f: t.per(SIMULATE, "self", "calls", 1e3)),
    "confidence.set_ms": ("ms", *_ms_per_call(CONFIDENCE)),
    "confidence.self_ms": (
        "ms", (CONFIDENCE, "confidence.estimated_law", MOMENTS, EFFECTS, SIMULATE),
        lambda t, ops, f: t.per(CONFIDENCE, "self", "calls", 1e3)),
    "truth.population_truth_ms": ("ms", *_ms_per_call("truth.population_truth")),
    "truth.law_from_truth_ms": ("ms", *_ms_per_call("truth.law_from_truth")),
    "simlab.self_ms_per_rep": (
        "ms", ("simlab.replicate", RERANDOMIZE, EFFECTS, CONFIDENCE, SIMULATE,
               "truth.population_truth", "truth.law_from_truth"),
        lambda t, ops, f: t.per("simlab.replicate", "self", "count", 1e3)),
    "chisq.quantile_us": (
        "us", ("chisq.chi2_quantile",),
        lambda t, ops, f: t.per("chisq.chi2_quantile", "time", "calls", 1e6)),
    "linalg.ms_per_op": ("ms", LINALG, lambda t, ops, f: 1e3 * t.linalg_time / ops),
    "cli.read_data_ms": ("ms", *_ms_per_call("cli.read_data_file")),
    "cli.self_ms_per_op": (
        "ms", ("cli.main", "cli.read_data_file", ENGINE, RERANDOMIZE, EFFECTS,
               "confidence.estimated_law", CONFIDENCE),
        lambda t, ops, f: 1e3 * t.get("cli.main", "self") / ops),
    "rng.stream_us": (
        "us", ("rng.stream",), lambda t, ops, f: t.per("rng.stream", "time", "calls", 1e6)),
}


def layer_metrics(recorder: Recorder, missing: set[str], ops: int,
                  first_round_ops: int) -> dict:
    """Per-layer metrics of a finished run, leaving out those whose hooks
    are missing.  Counts per operation come from the first round, which
    every run completes, so they repeat exactly for a given seed."""
    table = _Table(recorder)
    out = {}
    for name, (unit, needs, value) in METRICS.items():
        if missing.intersection(needs):
            continue
        out[name] = {"value": float(value(table, ops, first_round_ops)), "unit": unit}
    return out
