"""The benchmark's own tests: every output check passes on the program's
output and fails on a corrupted copy, and the tracer's spans add up.

    PYTHONPATH=src python3 -m pytest bench
"""

import importlib
import math

import numpy as np
import pytest

import checks
import spans
from refac import balance, confidence, design, estimate, rng, truth
from refac.asymptotic import variance_reduction as program_variance_reduction
from workloads import VarianceStudy

# the package attribute refac.rerandomize is the function of that name
rerandomize = importlib.import_module("refac.rerandomize")


def _trial(k=3, counts=None, seed=1):
    structure = design.build_structure(k)
    sizes = design.GroupSizes(counts or (6,) * 2 ** k)
    x = rng.stream(seed, 0).standard_normal((sizes.n, 3))
    return structure, sizes, x


def _criteria(structure, l_count=3):
    mains = design.partition_by_order(structure)
    cov_tiers = design.CovariateTierPartition(((0,), (1, 2)))
    grid = design.TierGrid.triangular(2, 2)
    dims = grid.dims(cov_tiers, mains)
    return (
        balance.MahalanobisCriterion(
            float(balance.thresholds_from_probability(structure.f_count * l_count, 0.2)[0])),
        balance.EffectTierCriterion(mains, tuple(balance.thresholds_from_probability(
            [l_count * s for s in mains.sizes()], (0.3, 0.6)))),
        balance.GridTierCriterion(mains, cov_tiers, grid, tuple(
            balance.thresholds_from_probability(dims, (0.3, 0.6)))),
    )


def test_group_counts_catch_a_moved_unit():
    labels = rng.stream(2).permutation(np.repeat(np.arange(1, 5), 6))
    assert checks.group_counts(labels, [6] * 4) == []
    moved = labels.copy()
    moved[np.argmax(moved == 1)] = 2
    assert checks.group_counts(moved, [6] * 4)
    assert checks.group_counts(np.append(labels[:-1], 5), [6] * 4)


@pytest.mark.parametrize("counts", [None, (5, 6, 7, 8, 6, 5, 9, 6)])
def test_statistics_sum_holds_for_each_criterion_and_catches_corruption(counts):
    structure, sizes, x = _trial(counts=counts)
    for i, criterion in enumerate(_criteria(structure)):
        outcome = rerandomize.rerandomize(x, structure, sizes, criterion, rng.stream(3, i))
        values, limits = outcome.report.values, outcome.report.limits
        labels = outcome.assignment.codes + 1
        assert checks.statistics_sum(values, limits, x, labels) == []

        name = next(iter(limits))
        perturbed = dict(values, **{name: values[name] * (1 + 1e-7)})
        assert checks.statistics_sum(perturbed, limits, x, labels)
        tight = dict(limits, **{name: values[name] * 0.5})
        assert checks.statistics_sum(values, tight, x, labels)
        moved = labels.copy()
        moved[np.argmax(moved == 1)] = 2
        assert checks.statistics_sum(values, limits, x, moved)


def test_contrast_estimates_match_the_program_and_catch_a_shifted_estimate():
    structure, sizes, x = _trial(k=3)
    assignment = rerandomize.draw_assignment(sizes, rng.stream(4))
    y = x @ (1.0, -0.5, 0.25) + 0.3 * assignment.codes + rng.stream(5).standard_normal(sizes.n)
    names = structure.effect_names()
    tau_hat = estimate.effect_estimates(y, assignment, structure)
    labels = assignment.codes + 1
    assert checks.contrast_estimates(names, tau_hat, y, labels, 3) == []
    shifted = tau_hat.copy()
    shifted[4] += 1e-6
    assert checks.contrast_estimates(names, shifted, y, labels, 3)
    assert checks.contrast_estimates(names[::-1], tau_hat, y, labels, 3)


def test_symmetric_psd_catches_asymmetry_and_negative_eigenvalues():
    w = rng.stream(6).standard_normal((5, 3))
    psd = w @ w.T  # rank 3: two zero eigenvalues
    assert checks.symmetric_psd(psd, "m") == []
    asymmetric = psd.copy()
    asymmetric[0, 1] += 1e-3
    assert checks.symmetric_psd(asymmetric, "m")
    assert checks.symmetric_psd(psd - 1e-3 * np.eye(5), "m")


def test_peakedness_holds_on_a_trial_and_catches_corruption():
    structure, sizes, x = _trial(k=2, counts=(50,) * 4)
    criterion = balance.MahalanobisCriterion(
        float(balance.thresholds_from_probability(9, 0.1)[0]))
    outcome = rerandomize.rerandomize(x, structure, sizes, criterion, rng.stream(7))
    y = x @ (1.0, 1.0, 0.5) + rng.stream(8).standard_normal(sizes.n)
    restricted, complete = (confidence.confidence_set(
        y, x, outcome.assignment, structure, sizes, c, rng=rng.stream(9), draws=20_000)
        for c in (criterion, balance.CompleteRandomization()))
    assert checks.peakedness(restricted.threshold, restricted.shape,
                             complete.threshold, complete.shape) == []
    assert checks.peakedness(complete.threshold, restricted.shape,
                             restricted.threshold, complete.shape)
    assert checks.peakedness(restricted.threshold, restricted.shape * (1 + 1e-12),
                             complete.threshold, complete.shape)


def test_coverage_floor():
    floor = 0.95 - 4.5 * math.sqrt(0.95 * 0.05 / 1000)
    assert checks.coverage_floor(950, 1000, 0.05, "d") == []
    assert checks.coverage_floor(math.ceil(floor * 1000), 1000, 0.05, "d") == []
    assert checks.coverage_floor(math.floor(floor * 1000), 1000, 0.05, "d")


def test_mean_error_and_variance_ratio_catch_shifts():
    se = np.array([0.01, 0.02, 0.01])
    assert checks.mean_error(np.array([0.01, -0.05, 0.0]), se, "d") == []
    assert checks.mean_error(np.array([0.01, -0.1, 0.0]), se, "d")

    expected = np.array([0.5, 0.6, 0.55])
    df = 400  # SE of the log ratio 0.0707, so 4.5 SE is a factor 1.375
    assert checks.variance_ratio(expected * 1.3, expected, df, "d") == []
    assert checks.variance_ratio(expected / 1.3, expected, df, "d") == []
    assert checks.variance_ratio(expected * np.array([1.0, 1.45, 1.0]), expected, df, "d")
    assert checks.variance_ratio(expected * np.array([1.0, 1.0, 0.69]), expected, df, "d")


def test_closed_form_reductions_agree_with_the_program():
    study = VarianceStudy(seed=3, workdir="")
    x, potential = study.population.x, study.population.potential
    closed = study._closed_forms()
    for name, criterion in study.designs:
        profile = truth.criterion_profile(x, potential, study.structure, study.sizes,
                                          criterion)
        dims = balance.criterion_dimensions(criterion, study.structure, 2)
        program = program_variance_reduction(profile, dims,
                                             balance.criterion_cutoffs(criterion))
        np.testing.assert_allclose(closed[name], program, rtol=1e-9, err_msg=name)


@pytest.mark.parametrize("k, counts", [(2, None), (3, (5, 6, 7, 8, 6, 5, 9, 6))])
def test_complete_randomization_variance_agrees_with_the_program(k, counts):
    structure, sizes, x = _trial(k=k, counts=counts)
    noise = rng.stream(11).standard_normal((sizes.n, structure.q_count))
    potential = x @ rng.stream(12).standard_normal((3, structure.q_count)) + noise
    exact = truth.population_truth(x, potential, structure, sizes).total_cov
    np.testing.assert_allclose(
        checks.complete_randomization_variance(potential, structure.effect_names(),
                                               k, sizes.counts),
        np.diag(exact), rtol=1e-10)


def _traced_rerandomize(recorder, rounds=2):
    structure, sizes, x = _trial(k=2, counts=(10,) * 4)
    criterion = balance.MahalanobisCriterion(
        float(balance.thresholds_from_probability(9, 0.05)[0]))
    draws = []
    for i in range(rounds):
        index = recorder.open(spans.ROUND)
        draws.append(rerandomize.rerandomize(
            x, structure, sizes, criterion, rng.stream(10, i)).draws_attempted)
        recorder.close(index)
    return draws


def test_traced_counts_repeat_and_self_time_excludes_children():
    originals = (rerandomize.rerandomize, balance.CriterionEngine.statistics)
    recorder = spans.Recorder()
    undo, missing = spans.install(recorder)
    try:
        assert rerandomize.rerandomize is not originals[0]
        draws = _traced_rerandomize(recorder)
    finally:
        spans.uninstall(undo)
    assert not missing
    assert (rerandomize.rerandomize, balance.CriterionEngine.statistics) == originals
    metrics = spans.layer_metrics(recorder, missing, ops=2, first_round_ops=1)
    assert metrics["rerandomize.draws_per_op"]["value"] == draws[0]
    assert 0.0 < metrics["rerandomize.useful_draw_ratio"]["value"] <= 1.0

    table = spans._Table(recorder)
    loop = spans.RERANDOMIZE
    assert 0.0 < table.get(loop, "self") < table.get(loop, "time")


def test_missing_hook_drops_only_its_metrics(capsys):
    recorder = spans.Recorder()
    hooks = spans.HOOKS + (("balance.gone", "refac.balance", "no_such_function", None),)
    hooks = tuple(h if h[0] != spans.STATISTICS else
                  (h[0], h[1], "CriterionEngine.renamed", h[3]) for h in hooks)
    undo, missing = spans.install(recorder, hooks)
    try:
        _traced_rerandomize(recorder, rounds=1)
    finally:
        spans.uninstall(undo)
    assert missing == {"balance.gone", spans.STATISTICS}
    assert "not found" in capsys.readouterr().err
    metrics = spans.layer_metrics(recorder, missing, ops=1, first_round_ops=1)
    assert "balance.stat_us_per_assignment" not in metrics
    assert "rerandomize.loop_self_us_per_batch" not in metrics
    assert "rerandomize.draw_us_per_assignment" in metrics

