"""Synthetic populations, the replication study, and the tradeoff sweep."""

import importlib
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from refac.balance import (EffectTierCriterion, MahalanobisCriterion,
                           thresholds_from_probability)
from refac.chisq import chi2_quantile, truncation_variance_factor
from refac.design import (CONTRAST_BUDGET_BYTES, EffectTierPartition, GroupSizes, build_structure,
                          partition_by_order)
from refac.errors import ValidationError
from refac.rng import stream
from refac.simlab import (BASELINE_NAME, CovariateColumn, OutcomeRecipe,
                          Population, PopulationSpec, _quantile_se, _run_tasks,
                          _ratio_reduction_se, _variance_se, binary_column,
                          education_like, generate_population, normal_column,
                          replicate, report_rows, report_to_dict,
                          tradeoff_sweep, uniform_column)
from refac.truth import population_truth


# ---------------------------------------------------------------------------
# covariate columns and outcome recipes


def test_column_constructors_and_validation():
    assert normal_column(2.0, 3.0) == CovariateColumn("normal", 2.0, 3.0)
    assert binary_column(0.3).kind == "binary"
    assert uniform_column(1.0, 2.0).kind == "uniform"
    with pytest.raises(ValidationError):
        CovariateColumn("lognormal")
    with pytest.raises(ValidationError):
        normal_column(0.0, 0.0)
    with pytest.raises(ValidationError):
        binary_column(1.0)
    with pytest.raises(ValidationError):
        uniform_column(2.0, 2.0)


def test_outcome_recipe_tables():
    recipe = OutcomeRecipe(intercepts=(0.0, 1.0), slopes=np.array([1.0, 2.0]))
    np.testing.assert_array_equal(recipe.slope_table(2, 2),
                                  [[1.0, 2.0], [1.0, 2.0]])
    np.testing.assert_array_equal(recipe.noise_table(2), [1.0, 1.0])
    with pytest.raises(ValidationError):
        recipe.slope_table(2, 3)
    table = OutcomeRecipe(intercepts=(0.0, 1.0),
                          slopes=np.array([[1.0], [2.0]]),
                          noise_scales=(0.5, 0.7))
    np.testing.assert_array_equal(table.noise_table(2), [0.5, 0.7])
    with pytest.raises(ValidationError):
        table.slope_table(4, 1)
    with pytest.raises(ValidationError):
        table.noise_table(3)
    with pytest.raises(ValidationError):
        OutcomeRecipe(intercepts=(0.0,), slopes=np.zeros((1, 1, 1)))
    with pytest.raises(ValidationError):
        OutcomeRecipe(intercepts=(0.0,), slopes=np.zeros(1), clamp=(1.0, 1.0))
    with pytest.raises(ValidationError):
        OutcomeRecipe(intercepts=(0.0,), slopes=np.zeros(1),
                      noise_scales=-1.0).noise_table(1)
    for bad in ({"intercepts": "ab"}, {"intercepts": 5}, {"slopes": "x"},
                {"clamp": 5}, {"clamp": ("a", "b")},
                {"noise_scales": ("a", "b")}, {"noise_scales": ((1.0,), (1.0,))}):
        with pytest.raises(ValidationError):
            OutcomeRecipe(**{"intercepts": (0.0, 1.0), "slopes": np.zeros(1), **bad})


def test_additivity_checks():
    ok = OutcomeRecipe(intercepts=(0.0, 1.0), slopes=np.array([1.0]),
                       additive=True)
    ok.check_additive(2, 1)
    bad_slopes = OutcomeRecipe(intercepts=(0.0, 1.0),
                               slopes=np.array([[1.0], [1.1]]), additive=True)
    with pytest.raises(ValidationError, match="same slopes"):
        bad_slopes.check_additive(2, 1)
    bad_noise = OutcomeRecipe(intercepts=(0.0, 1.0), slopes=np.array([1.0]),
                              noise_scales=(0.5, 0.6), additive=True)
    with pytest.raises(ValidationError, match="same noise"):
        bad_noise.check_additive(2, 1)
    clamped = OutcomeRecipe(intercepts=(0.0, 1.0), slopes=np.array([1.0]),
                            additive=True, clamp=(0.0, 1.0))
    with pytest.raises(ValidationError, match="drop one of the two"):
        clamped.check_additive(2, 1)


def test_population_spec_validation():
    col = normal_column()
    recipe = OutcomeRecipe(intercepts=(0.0, 1.0), slopes=np.array([1.0]))
    with pytest.raises(ValidationError):
        PopulationSpec(n=3, k=1, columns=(col,), outcome=recipe)
    with pytest.raises(ValidationError):
        PopulationSpec(n=10, k=1, columns=(), outcome=recipe)
    with pytest.raises(ValidationError):
        PopulationSpec(n=10, k=1, columns=(col,), outcome=recipe,
                       correlation=np.eye(2))
    with pytest.raises(ValidationError, match="correlation must be numbers"):
        PopulationSpec(n=10, k=1, columns=(col,), outcome=recipe, correlation="x")
    skew = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValidationError, match="symmetric"):
        PopulationSpec(n=10, k=1, columns=(col, col), outcome=recipe,
                       correlation=skew)
    scaled = np.array([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="unit diagonal"):
        PopulationSpec(n=10, k=1, columns=(col, col), outcome=recipe,
                       correlation=scaled)


# ---------------------------------------------------------------------------
# population generation


def test_generate_population_is_deterministic():
    spec = PopulationSpec(
        n=50, k=1, columns=(normal_column(), binary_column(0.4)),
        outcome=OutcomeRecipe(intercepts=(0.0, 1.0),
                              slopes=np.array([1.0, 0.5])))
    a = generate_population(spec, stream(111, 0))
    b = generate_population(spec, stream(111, 0))
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.potential, b.potential)
    assert a.n == 50 and a.covariate_count == 2 and a.q_count == 2


def test_generated_marginals():
    spec = PopulationSpec(
        n=40_000, k=1,
        columns=(normal_column(5.0, 2.0), binary_column(0.3),
                 uniform_column(-1.0, 3.0)),
        outcome=OutcomeRecipe(intercepts=(0.0, 1.0),
                              slopes=np.array([0.0, 0.0, 0.0])))
    pop = generate_population(spec, stream(111, 1))
    x = pop.x
    assert x[:, 0].mean() == pytest.approx(5.0, abs=0.05)
    assert x[:, 0].std(ddof=1) == pytest.approx(2.0, rel=0.03)
    assert set(np.unique(x[:, 1])) == {0.0, 1.0}
    assert x[:, 1].mean() == pytest.approx(0.3, abs=0.012)
    assert x[:, 2].min() >= -1.0 and x[:, 2].max() <= 3.0
    assert x[:, 2].mean() == pytest.approx(1.0, abs=0.03)


def test_generated_correlation_survives_marginals():
    corr = np.array([[1.0, 0.6], [0.6, 1.0]])
    spec = PopulationSpec(
        n=30_000, k=1, columns=(normal_column(), normal_column()),
        outcome=OutcomeRecipe(intercepts=(0.0, 1.0),
                              slopes=np.array([0.0, 0.0])),
        correlation=corr)
    pop = generate_population(spec, stream(111, 2))
    got = np.corrcoef(pop.x, rowvar=False)[0, 1]
    assert got == pytest.approx(0.6, abs=0.02)
    bad = np.array([[1.0, 1.2], [1.2, 1.0]])
    with pytest.raises(ValidationError, match="positive definite"):
        generate_population(
            PopulationSpec(n=10, k=1,
                           columns=(normal_column(), normal_column()),
                           outcome=spec.outcome, correlation=bad),
            stream(111, 3))


def test_additive_outcomes_have_constant_unit_effects():
    spec = PopulationSpec(
        n=60, k=2, columns=(normal_column(),),
        outcome=OutcomeRecipe(intercepts=(0.0, 1.0, 2.0, 5.0),
                              slopes=np.array([1.0]), noise_scales=0.7,
                              additive=True))
    pop = generate_population(spec, stream(111, 4))
    diffs = pop.potential - pop.potential[:, [0]]
    for q, shift in enumerate((0.0, 1.0, 2.0, 5.0)):
        np.testing.assert_allclose(diffs[:, q], shift, atol=1e-12)


def test_noiseless_outcomes_are_exactly_linear():
    spec = PopulationSpec(
        n=30, k=1, columns=(normal_column(), uniform_column()),
        outcome=OutcomeRecipe(intercepts=(1.0, 2.0),
                              slopes=np.array([[1.0, 0.0], [0.5, 2.0]]),
                              noise_scales=0.0))
    pop = generate_population(spec, stream(111, 5))
    expected = np.array([1.0, 2.0]) + pop.x @ np.array(
        [[1.0, 0.0], [0.5, 2.0]]).T
    np.testing.assert_allclose(pop.potential, expected, atol=1e-12)


def test_clamped_outcomes_stay_in_bounds():
    spec = PopulationSpec(
        n=400, k=1, columns=(normal_column(),),
        outcome=OutcomeRecipe(intercepts=(0.0, 0.5), slopes=np.array([2.0]),
                              noise_scales=1.0, clamp=(-1.0, 1.0)))
    pop = generate_population(spec, stream(111, 6))
    assert pop.potential.min() >= -1.0 and pop.potential.max() <= 1.0
    assert (pop.potential == 1.0).any()  # the clamp actually bites


def test_intercept_count_must_match_design():
    spec = PopulationSpec(
        n=20, k=2, columns=(normal_column(),),
        outcome=OutcomeRecipe(intercepts=(0.0, 1.0), slopes=np.array([1.0])))
    with pytest.raises(ValidationError, match="intercepts"):
        generate_population(spec, stream(111, 7))


def test_education_like_population():
    spec, sizes = education_like()
    assert spec.n == 1398 and spec.k == 2
    assert spec.covariate_count == 5
    assert sizes.n == 1398 and sizes.q_count == 4
    pop = generate_population(spec, stream(20260819, 2))
    assert pop.potential.min() >= 0.0 and pop.potential.max() <= 4.0
    truth = population_truth(pop.x, pop.potential, build_structure(2), sizes)
    # the calibration keeps every effect's squared multiple correlation
    # in a common band around 0.245
    assert np.all(truth.r_squared > 0.19)
    assert np.all(truth.r_squared < 0.31)


# ---------------------------------------------------------------------------
# Monte Carlo error helpers


def test_variance_se_matches_gaussian_theory():
    samples = stream(112, 0).standard_normal(20_000) * 3.0
    # Var(s^2) for Gaussians is 2 sigma^4 / (n - 1)
    expected = math.sqrt(2.0 * 81.0 / (20_000 - 1))
    assert _variance_se(samples) == pytest.approx(expected, rel=0.1)


def test_quantile_se_matches_gaussian_theory():
    samples = stream(112, 1).standard_normal(20_000)
    p = 0.95
    density = math.exp(-1.6449 ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
    expected = math.sqrt(p * (1 - p) / 20_000) / density
    assert _quantile_se(samples, p) == pytest.approx(expected, rel=0.25)


def test_ratio_reduction_se_formula():
    got = _ratio_reduction_se(2.0, 0.2, 4.0, 0.1)
    expected = 0.5 * math.sqrt(0.1 ** 2 + 0.025 ** 2)
    assert got == pytest.approx(expected, rel=1e-12)
    assert math.isnan(_ratio_reduction_se(0.0, 0.1, 1.0, 0.1))


# ---------------------------------------------------------------------------
# the replication study


def _tiny_population(seed=113, n=64):
    spec = PopulationSpec(
        n=n, k=2, columns=(normal_column(), normal_column()),
        outcome=OutcomeRecipe(intercepts=(0.0, 0.4, 0.8, 1.6),
                              slopes=np.array([1.0, 0.6]), noise_scales=0.9,
                              additive=True))
    pop = generate_population(spec, stream(seed, 2))
    return pop, build_structure(2), GroupSizes.equal(4, n)


def _loose_design(p=0.3):
    return ("balanced", MahalanobisCriterion(
        float(thresholds_from_probability(12, p)[0])))


def test_replicate_smoke_and_determinism():
    pop, s, sizes = _tiny_population()
    designs = [_loose_design()]
    report = replicate(pop, s, sizes, designs, reps=24, seed=7,
                       theory_draws=2000)
    assert report.reps == 24 and report.n == 64 and report.k == 2
    assert report.baseline.name == BASELINE_NAME
    assert [d.name for d in report.designs] == ["balanced"]
    assert report.alpha is None and report.law_draws is None
    assert report.baseline.mean_draws == 1.0
    assert math.isnan(report.baseline.coverage)
    assert np.all(np.isnan(report.baseline.variance_reduction))
    d = report.designs[0]
    assert np.all(d.variance_reduction_theory >= 0.0)
    assert np.all(d.variance_reduction_theory < 1.0)
    assert d.mean_draws >= 1.0
    again = replicate(pop, s, sizes, designs, reps=24, seed=7,
                      theory_draws=2000)
    np.testing.assert_equal(report_rows(report), report_rows(again))
    assert report.timing_seconds > 0.0


def test_replicate_report_rows_layout():
    pop, s, sizes = _tiny_population()
    report = replicate(pop, s, sizes, [_loose_design()], reps=6, seed=8,
                       theory_draws=1000)
    rows = report_rows(report)
    assert len(rows) == 2 * 3  # (baseline + 1 design) x 3 effects
    expected_cols = [
        "design", "effect", "reps", "true_effect", "acceptance_rate",
        "acceptance_rate_se", "mean_draws", "mean_error", "mean_error_se",
        "variance", "variance_se", "variance_reduction",
        "variance_reduction_se", "variance_reduction_theory",
        "quantile_range", "quantile_range_se", "quantile_range_reduction",
        "quantile_range_reduction_se", "quantile_range_reduction_theory",
        "coverage", "coverage_se",
    ]
    for row in rows:
        assert list(row) == expected_cols
    assert [r["effect"] for r in rows[:3]] == ["1", "2", "1:2"]

    as_dict = report_to_dict(report)
    assert "timing_seconds" not in as_dict
    assert len(as_dict["designs"]) == 2
    timed = report_to_dict(report, include_timing=True)
    assert timed["timing_seconds"] == report.timing_seconds


def test_replicate_coverage_path():
    pop, s, sizes = _tiny_population()
    report = replicate(pop, s, sizes, [_loose_design(0.5)], reps=6, seed=9,
                       coverage=True, alpha=0.1, law_draws=1500,
                       theory_draws=1000)
    assert report.alpha == 0.1 and report.law_draws == 1500
    for res in report.all_results():
        assert 0.0 <= res.coverage <= 1.0
        assert not math.isnan(res.coverage_se)


def test_replicate_coverage_does_not_depend_on_batch_size(monkeypatch):
    # the confidence-set law has its own substream, so how many rows the
    # accept/reject loop drew past the accepted one cannot move coverage
    pop, s, sizes = _tiny_population()
    module = importlib.import_module("refac.rerandomize")
    coverages = []
    for batch in (1, 256):
        monkeypatch.setattr(module, "_batch_size",
                            lambda p, remaining, b=batch: min(b, remaining))
        report = replicate(pop, s, sizes, [_loose_design(0.05)], reps=30,
                           seed=9, coverage=True, alpha=0.5, law_draws=100,
                           theory_draws=1000, workers=1)
        coverages.append([res.coverage for res in report.all_results()])
    assert coverages[0] == coverages[1]


def test_replicate_worker_layout_does_not_change_results():
    pop, s, sizes = _tiny_population(n=32)
    designs = [_loose_design(0.5)]
    for coverage in (False, True):
        rows = [report_rows(replicate(
            pop, s, sizes, designs, reps=6, seed=10, coverage=coverage,
            alpha=0.2, law_draws=200, theory_draws=1000, workers=workers))
            for workers in (1, 2, None)]
        np.testing.assert_equal(rows[1], rows[0])
        np.testing.assert_equal(rows[2], rows[0])
    assert not math.isnan(rows[0][-1]["coverage"])


def test_task_loop_raises_the_lowest_failing_task_and_stops():
    # whichever thread gets there first, the error raised is that of the
    # lowest failing index, and no index is taken after a failure
    alive = threading.active_count()
    for threads in (1, 2, 4):
        ran, five_failed = [], threading.Event()

        def task(i):
            ran.append(i)
            if i == 3:
                five_failed.wait(0.5 if threads > 1 else 0.0)
                raise ValueError(i)
            if i == 5:
                five_failed.set()
                raise KeyError(i)
            time.sleep(0.001)
            return i

        with pytest.raises(ValueError) as err:
            _run_tasks(task, 10_000, threads)
        assert err.value.args == (3,)
        assert len(ran) < 1_000
        assert threading.active_count() == alive
    assert _run_tasks(lambda i: i * i, 5, 3) == [0, 1, 4, 9, 16]


def test_task_loop_runs_each_index_once_under_contention():
    # more threads than cores and a short switch interval: every index is
    # taken by exactly one thread, and its result lands in its own slot
    ran, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = _run_tasks(lambda i: ran.append(i) or i * i, 3_000, 8)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == list(range(3_000))
    assert results == [i * i for i in range(3_000)]


def test_task_loop_stops_on_an_interrupt():
    # an interrupt stops the loop and is raised even when a lower index
    # fails with an error
    taken, alive, interrupted = [], threading.active_count(), threading.Event()

    def task(i):
        taken.append(i)
        if i == 0:
            interrupted.wait(0.5)
            raise ValueError(i)
        if i == 1:
            interrupted.set()
            raise KeyboardInterrupt
        time.sleep(0.001)

    with pytest.raises(KeyboardInterrupt):
        _run_tasks(task, 10_000, 2)
    assert len(taken) < 1_000
    assert threading.active_count() == alive


def test_replicate_validation():
    pop, s, sizes = _tiny_population()
    with pytest.raises(ValidationError):
        replicate(pop, s, sizes, [], reps=1, seed=1)
    with pytest.raises(ValidationError):
        replicate(pop, s, sizes, [], reps=4, seed=1, workers=0)
    with pytest.raises(ValidationError):
        replicate(pop, s, sizes, [], reps=4, seed=1, theory_draws=10)
    with pytest.raises(ValidationError, match="reserved"):
        replicate(pop, s, sizes, [(BASELINE_NAME, MahalanobisCriterion(1.0))],
                  reps=4, seed=1)
    with pytest.raises(ValidationError, match="unique"):
        replicate(pop, s, sizes,
                  [("a", MahalanobisCriterion(1.0)),
                   ("a", MahalanobisCriterion(2.0))], reps=4, seed=1)
    with pytest.raises(ValidationError, match="k="):
        replicate(pop, build_structure(3), GroupSizes.equal(8, 64), [],
                  reps=4, seed=1)
    with pytest.raises(ValidationError, match="group sizes sum"):
        replicate(pop, s, GroupSizes.equal(4, 100), [], reps=4, seed=1)
    for law_draws in (0, CONTRAST_BUDGET_BYTES // 8 + 1):
        with pytest.raises(ValidationError, match="law draws"):
            replicate(pop, s, sizes, [], reps=4, seed=1, coverage=True,
                      law_draws=law_draws)


def test_theory_draws_are_bounded_by_the_law_sample_size(monkeypatch):
    # the (theory_draws, F) law sample must fit CONTRAST_BUDGET_BYTES; the
    # count is refused before any replication or law sample
    module = importlib.import_module("refac.simlab")
    monkeypatch.setattr(module, "simulate_law", None)
    monkeypatch.setattr(module, "_run_tasks", None)
    pop, s, sizes = _tiny_population()
    cap = CONTRAST_BUDGET_BYTES // 8 // s.f_count
    for draws in (cap + 1, 10 ** 10):
        with pytest.raises(ValidationError,
                           match=rf"theory_draws must lie in \[1000, {cap}\] for 3 effects"):
            replicate(pop, s, sizes, [], reps=4, seed=1, theory_draws=draws)
    # the default fits up to K = 7; K = 8 takes at most 131,586
    assert CONTRAST_BUDGET_BYTES // 8 // build_structure(7).f_count >= 200_000
    with pytest.raises(ValidationError, match=r"\[1000, 131586\] for 255 effects"):
        replicate(pop, build_structure(8), sizes, [], reps=4, seed=1)


def test_replicate_threads_are_capped_by_cpus_and_tasks(monkeypatch):
    # a huge worker count starts at most min(CPU count, tasks) - 1 helper
    # threads, allocates nothing per worker and leaves no thread running
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    pop, s, sizes = _tiny_population()
    alive = threading.active_count()
    for cpus, reps, designs, cap in ((64, 2, [], 1), (64, 4, [_loose_design()], 7),
                                     (3, 4, [_loose_design()], 2)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda c=cpus: c)
        started.clear()
        replicate(pop, s, sizes, designs, reps=reps, seed=1, theory_draws=1000,
                  workers=10 ** 12)
        assert 1 <= len(started) <= cap
        assert not any(t.is_alive() for t in started)
    assert threading.active_count() == alive


def test_theory_law_sample_peaks_at_one_sample():
    # simulate_law fills one (draws, F) array, and replicate takes |phi| and
    # its quantiles in place, so the sample itself bounds the peak
    pop, s, sizes = _tiny_population()
    draws = 400_000
    tracemalloc.start()
    try:
        replicate(pop, s, sizes, [], reps=2, seed=4, theory_draws=draws, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * draws * s.f_count * 8


def test_replicate_variance_reduction_tracks_theory_loosely():
    # a fast, low-precision version of the heavyweight acceptance check
    pop, s, sizes = _tiny_population(n=400)
    part = partition_by_order(s)
    cuts = thresholds_from_probability((8, 4), (0.05, 0.5))
    designs = [
        ("overall", MahalanobisCriterion(
            float(thresholds_from_probability(12, 0.05)[0]))),
        ("tiers", EffectTierCriterion(partition=part,
                                      thresholds=tuple(cuts))),
    ]
    report = replicate(pop, s, sizes, designs, reps=400, seed=11,
                       theory_draws=20_000)
    for res in report.designs:
        gap = np.abs(res.variance_reduction - res.variance_reduction_theory)
        assert np.all(gap <= 4.0 * res.variance_reduction_se + 0.02)


# ---------------------------------------------------------------------------
# the tradeoff sweep


def test_tradeoff_sweep_equal_sizes_is_monotone_in_both_tiers():
    pop, s, sizes = _tiny_population(n=200)
    part = partition_by_order(s)
    probs = [1.0, 0.5, 0.2, 0.05, 0.01]
    curve = tradeoff_sweep(pop.x, pop.potential, s, sizes, part,
                           overall_probability=0.01,
                           lead_probabilities=probs)
    assert curve.overall_probability == 0.01
    assert curve.effect_names == ("1", "2", "1:2")
    assert [p.lead_probability for p in curve.points] == probs
    for point in curve.points:
        assert point.tail_probability == pytest.approx(
            min(0.01 / point.lead_probability, 1.0))
    assert curve.points[0].cutoffs[0] is None  # p1 = 1: lead tier untruncated
    assert curve.points[-1].cutoffs[1] is None  # p2 = 1: tail tier untruncated
    mains = np.array([p.reduction[:2] for p in curve.points])
    interaction = np.array([p.reduction[2] for p in curve.points])
    # equal group sizes: each tier's statistic only explains its own
    # effects, so tightening the lead tier helps mains and nothing else
    assert np.all(np.diff(mains, axis=0) > 0.0)
    assert np.all(np.diff(interaction) < 0.0)


def test_tradeoff_sweep_matches_direct_variance_reduction():
    pop, s, sizes = _tiny_population(n=200)
    part = partition_by_order(s)
    curve = tradeoff_sweep(pop.x, pop.potential, s, sizes, part,
                           overall_probability=0.04,
                           lead_probabilities=[0.2])
    point = curve.points[0]
    assert point.cutoffs[0] == pytest.approx(chi2_quantile(0.2, 4))
    assert point.cutoffs[1] == pytest.approx(chi2_quantile(0.2, 2))
    v1 = truncation_variance_factor(4, point.cutoffs[0])
    truth = population_truth(pop.x, pop.potential, s, sizes)
    # equal sizes: the lead tier's share of a main effect is its full r^2
    expected_main = (1.0 - v1) * truth.r_squared[0]
    assert point.reduction[0] == pytest.approx(expected_main, abs=1e-10)


def test_tradeoff_sweep_validation():
    pop, s, sizes = _tiny_population()
    part = partition_by_order(s)
    three = EffectTierPartition(((0,), (1,), (2,)))
    with pytest.raises(ValidationError, match="exactly 2"):
        tradeoff_sweep(pop.x, pop.potential, s, sizes, three, 0.1, [0.5])
    with pytest.raises(ValidationError):
        tradeoff_sweep(pop.x, pop.potential, s, sizes, part, 1.0, [1.0])
    with pytest.raises(ValidationError, match="must lie in"):
        tradeoff_sweep(pop.x, pop.potential, s, sizes, part, 0.1, [0.05])
