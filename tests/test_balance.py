"""Balance criteria, imbalance statistics, and the batched engine."""

import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from refac.balance import (BalanceReport, CompleteRandomization,
                           CriterionEngine, EffectTierCriterion,
                           GridTierCriterion, MahalanobisCriterion,
                           batch_group_means, criterion_cutoffs,
                           criterion_dimensions, criterion_plan, group_means,
                           stacked_cross, thresholds_from_probability)
from refac.design import (CovariateTierPartition, EffectTierPartition,
                          GroupSizes, TierGrid, build_structure,
                          coefficient_gram, orthogonalize_covariates,
                          orthogonalize_effects, partition_by_order)
from refac.errors import ValidationError
from refac.rerandomize import draw_assignment_batch
from refac.rng import stream
from oracles import (covariate_diff_in_means, imbalance_covariance,
                     mahalanobis_effect_tiers, mahalanobis_overall,
                     orthogonalized_diff_in_means)
from test_invariances import designs, partitions


def _random_codes(sizes: GroupSizes, rng) -> np.ndarray:
    return draw_assignment_batch(sizes, rng, 1)[0]


# ---------------------------------------------------------------------------
# criterion dataclasses and threshold helpers


def test_criterion_validation():
    with pytest.raises(ValidationError):
        MahalanobisCriterion(threshold=-1.0)
    with pytest.raises(ValidationError):
        MahalanobisCriterion(threshold=np.inf)
    part = EffectTierPartition(((0, 1), (2,)))
    with pytest.raises(ValidationError):
        EffectTierCriterion(partition=part, thresholds=(1.0,))
    with pytest.raises(ValidationError):
        EffectTierCriterion(partition=part, thresholds=(1.0, 0.0))
    grid = TierGrid.triangular(2, 2)
    cov_part = CovariateTierPartition(((0,), (1,)))
    with pytest.raises(ValidationError):
        GridTierCriterion(effect_partition=part, covariate_partition=cov_part,
                          grid=grid, thresholds=(1.0,))
    with pytest.raises(ValidationError):  # grid shape mismatch with partitions
        GridTierCriterion(effect_partition=part,
                          covariate_partition=CovariateTierPartition(((0, 1),)),
                          grid=grid, thresholds=(1.0, 2.0))


def test_criterion_dimensions_and_cutoffs():
    s = build_structure(2)
    assert criterion_dimensions(CompleteRandomization(), s, 3).size == 0
    np.testing.assert_array_equal(
        criterion_dimensions(MahalanobisCriterion(2.0), s, 3), [9.0])
    part = EffectTierPartition(((0, 1), (2,)))
    crit = EffectTierCriterion(partition=part, thresholds=(2.0, 9.0))
    np.testing.assert_array_equal(criterion_dimensions(crit, s, 3), [6.0, 3.0])
    np.testing.assert_array_equal(criterion_cutoffs(crit), [2.0, 9.0])
    grid = GridTierCriterion(effect_partition=part,
                             covariate_partition=CovariateTierPartition(((0,), (1,))),
                             grid=TierGrid.triangular(2, 2),
                             thresholds=(0.5, 30.0))
    np.testing.assert_array_equal(criterion_dimensions(grid, s, 2), [2.0, 4.0])
    with pytest.raises(ValidationError):
        criterion_dimensions(MahalanobisCriterion(2.0), s, 0)


def test_thresholds_from_probability_matches_chi_square_quantiles():
    dims = np.array([2, 6, 11])
    probs = np.array([0.5, 0.001, 0.9])
    out = thresholds_from_probability(dims, probs)
    np.testing.assert_allclose(out, scipy.stats.chi2.ppf(probs, dims), atol=1e-6)
    assert thresholds_from_probability(3, 0.2).shape == (1,)


@pytest.mark.parametrize("dims,probs", [
    ([2, 3], [0.5]),
    ([2.5], [0.5]),
    ([0], [0.5]),
    ([2], [0.0]),
    ([2], [1.0]),
])
def test_thresholds_from_probability_rejects_bad_input(dims, probs):
    with pytest.raises(ValidationError):
        thresholds_from_probability(dims, probs)


# ---------------------------------------------------------------------------
# group means and difference-in-means


def test_group_means_known_values():
    values = np.array([1.0, 2.0, 3.0, 5.0, 10.0, 20.0])
    codes = np.array([0, 0, 1, 1, 2, 2])
    np.testing.assert_allclose(group_means(values, codes, 3),
                               [[1.5], [4.0], [15.0]])
    with pytest.raises(ValidationError, match="group 4 empty"):
        group_means(values, codes, 4)


def test_batch_group_means_matches_loop():
    rng = stream(31, 0)
    sizes = GroupSizes((3, 4, 5, 2))
    x = rng.standard_normal((sizes.n, 3))
    codes = draw_assignment_batch(sizes, rng, 6)
    batched = batch_group_means(x, codes, sizes)
    assert batched.shape == (6, 4, 3)
    for b in range(6):
        np.testing.assert_allclose(batched[b], group_means(x, codes[b], 4),
                                   atol=1e-12)


def test_group_sums_match_per_group_reference_at_128_groups():
    rng = stream(31, 1)
    sizes = GroupSizes(tuple(int(c) for c in rng.integers(2, 12, 128)))
    x = rng.standard_normal((sizes.n, 3))
    codes = draw_assignment_batch(sizes, rng, 5)
    batched = batch_group_means(x, codes, sizes)
    for b, row in enumerate(codes):
        expected = np.array([x[row == q].mean(0) for q in range(128)])
        np.testing.assert_allclose(batched[b], expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(group_means(x, row, 128), expected,
                                   rtol=1e-12, atol=1e-12)


def test_group_means_rejects_empty_groups_and_misaligned_codes():
    codes = np.repeat(np.arange(128), 2)
    codes[codes == 57] = 58
    with pytest.raises(ValidationError, match="group 58 empty"):
        group_means(np.ones(256), codes, 128)
    with pytest.raises(ValidationError, match="256 assignment codes for 255 rows"):
        group_means(np.ones(255), np.repeat(np.arange(128), 2), 128)
    with pytest.raises(ValidationError, match="must lie in"):
        group_means(np.ones(4), np.array([0, 1, 2, 4]), 4)


def test_diff_in_means_single_factor_is_mean_difference():
    s = build_structure(1)
    x = np.array([1.0, 2.0, 3.0, 10.0, 20.0, 30.0])
    codes = np.array([0, 0, 0, 1, 1, 1])
    np.testing.assert_allclose(covariate_diff_in_means(x, codes, s), [18.0])


def test_diff_in_means_matches_dense_formula():
    rng = stream(31, 1)
    s = build_structure(2)
    sizes = GroupSizes((4, 5, 6, 7))
    x = rng.standard_normal((sizes.n, 3))
    codes = _random_codes(sizes, rng)
    diffs = covariate_diff_in_means(x, codes, s)
    xbar = np.vstack([x[codes == q].mean(axis=0) for q in range(4)])
    np.testing.assert_allclose(diffs, (0.5 * s.contrasts @ xbar).ravel(),
                               atol=1e-12)


def test_orthogonalized_diffs_reorder_for_equal_sizes():
    rng = stream(31, 2)
    s = build_structure(3)
    sizes = GroupSizes.equal(8, 48)
    part = EffectTierPartition(((6,), (0, 1, 2, 3, 4, 5)))
    tiered = orthogonalize_effects(s, sizes, part)
    x = rng.standard_normal((48, 2))
    codes = _random_codes(sizes, rng)
    theta = orthogonalized_diff_in_means(x, codes, s, tiered)
    plain = covariate_diff_in_means(x, codes, s).reshape(7, 2)
    np.testing.assert_allclose(theta.reshape(7, 2), plain[[6, 0, 1, 2, 3, 4, 5]],
                               atol=1e-12)


def test_imbalance_covariance_dense_form():
    rng = stream(31, 3)
    s = build_structure(2)
    sizes = GroupSizes((3, 4, 5, 6))
    x = rng.standard_normal((sizes.n, 2))
    cov = np.cov(x, rowvar=False, ddof=1)
    kron = imbalance_covariance(s, sizes, cov)
    np.testing.assert_allclose(kron.dense(),
                               np.kron(coefficient_gram(s, sizes), cov),
                               atol=1e-12)



@pytest.mark.parametrize("k, rows, l_count", [(2, 3, 1), (3, 4, 3)])
def test_stacked_cross_matches_its_einsum_definition(k, rows, l_count):
    rng = stream(31, 40, k)
    s = build_structure(k)
    counts = rng.integers(3, 20, s.q_count)
    left_rows = rng.standard_normal((rows, s.q_count))
    cross_rows = rng.standard_normal((s.q_count, l_count))
    expected = 4.0 ** (1 - k) * np.einsum("fq,q,gq,ql->fgl", s.contrasts, 1.0 / counts,
                                          left_rows, cross_rows)
    np.testing.assert_allclose(stacked_cross(s, counts, left_rows, cross_rows),
                               expected, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# statistic identities


def _setup(seed, k=2, counts=(4, 5, 6, 7), l_count=3):
    rng = stream(seed, 0)
    s = build_structure(k)
    sizes = GroupSizes(counts)
    x = rng.standard_normal((sizes.n, l_count)) @ rng.standard_normal(
        (l_count, l_count))
    codes = _random_codes(sizes, rng)
    return s, sizes, x, codes


def test_overall_statistic_matches_dense_quadratic_form():
    s, sizes, x, codes = _setup(32)
    diffs = covariate_diff_in_means(x, codes, s)
    cov = np.cov(x, rowvar=False, ddof=1)
    stat = mahalanobis_overall(diffs, imbalance_covariance(s, sizes, cov))
    dense = np.kron(coefficient_gram(s, sizes), cov)
    np.testing.assert_allclose(stat, diffs @ np.linalg.solve(dense, diffs),
                               rtol=1e-10)


def test_tier_statistics_sum_to_overall():
    # Blockwise orthogonalization leaves the total Mahalanobis distance intact,
    # so the tier statistics decompose it exactly -- any sizes, any partition.
    s, sizes, x, codes = _setup(33, k=3, counts=(2, 3, 4, 5, 6, 7, 8, 9),
                                l_count=2)
    cov = np.cov(x, rowvar=False, ddof=1)
    diffs = covariate_diff_in_means(x, codes, s)
    overall = mahalanobis_overall(diffs, imbalance_covariance(s, sizes, cov))
    for tiers in [((0, 1, 2), (3, 4, 5, 6)),
                  ((4,), (0, 1, 2, 3, 5), (6,)),
                  (tuple(range(7)),)]:
        tiered = orthogonalize_effects(s, sizes, EffectTierPartition(tiers))
        theta = orthogonalized_diff_in_means(x, codes, s, tiered)
        stats = mahalanobis_effect_tiers(theta, tiered, cov)
        assert stats.shape == (len(tiers),)
        np.testing.assert_allclose(stats.sum(), overall, rtol=1e-10)


def _grid_statistics(x, codes, s, sizes, part, cov_part, grid):
    """(cells, sums) of the grid criterion's engine for one assignment."""
    engine = CriterionEngine(x, s, sizes, GridTierCriterion(
        effect_partition=part, covariate_partition=cov_part, grid=grid,
        thresholds=(1.0,) * len(grid)))
    batch = codes[None, :]
    return engine.grid_cells(batch)[0], engine.statistics(batch)[0]


def test_grid_cells_match_effect_tiers_for_single_covariate_tier():
    s, sizes, x, codes = _setup(34, k=2, counts=(5, 5, 6, 4), l_count=2)
    part = partition_by_order(s)
    tiered = orthogonalize_effects(s, sizes, part)
    cov_part = CovariateTierPartition(((0, 1),))
    grid = TierGrid.triangular(1, 2)
    cells, sums = _grid_statistics(x, codes, s, sizes, part, cov_part, grid)
    theta = orthogonalized_diff_in_means(x, codes, s, tiered)
    tier_stats = mahalanobis_effect_tiers(theta, tiered,
                                          np.cov(x, rowvar=False, ddof=1))
    np.testing.assert_allclose(cells[0], tier_stats, rtol=1e-10)
    np.testing.assert_allclose(sums, [tier_stats.sum()], rtol=1e-10)


def test_grid_sums_add_cells_by_group():
    s, sizes, x, codes = _setup(35, l_count=3)
    part = partition_by_order(s)
    cov_part = CovariateTierPartition(((0,), (1, 2)))
    grid = TierGrid.triangular(2, 2)
    cells, sums = _grid_statistics(x, codes, s, sizes, part, cov_part, grid)
    assert cells.shape == (2, 2)
    np.testing.assert_allclose(
        sums, [cells[0, 0], cells[0, 1] + cells[1, 0] + cells[1, 1]],
        rtol=1e-12)


# ---------------------------------------------------------------------------
# the batched engine


def _check_engine_against_standalone(s, sizes, x, codes, part, cov_part):
    """Engine statistics on each row of ``codes`` against the per-assignment
    Kronecker oracles, for the overall, effect-tier and grid criteria."""
    cov = np.cov(x, rowvar=False, ddof=1).reshape(x.shape[1], -1)
    tiered = orthogonalize_effects(s, sizes, part)
    e = orthogonalize_covariates(x, cov_part)
    grid = TierGrid.triangular(len(cov_part), len(part))
    engines = [CriterionEngine(x, s, sizes, crit) for crit in (
        MahalanobisCriterion(5.0),
        EffectTierCriterion(partition=part, thresholds=(1.0,) * len(part)),
        GridTierCriterion(effect_partition=part, covariate_partition=cov_part,
                          grid=grid, thresholds=(1.0,) * len(grid)))]
    for b, row in enumerate(codes):
        batch = row[None, :]
        diffs = covariate_diff_in_means(x, row, s)
        expected = mahalanobis_overall(diffs, imbalance_covariance(s, sizes, cov))
        np.testing.assert_allclose(engines[0].statistics(batch), [[expected]],
                                   rtol=1e-10)
        theta = orthogonalized_diff_in_means(x, row, s, tiered)
        np.testing.assert_allclose(engines[1].statistics(batch)[0],
                                   mahalanobis_effect_tiers(theta, tiered, cov), rtol=1e-10)
        # cell (t, h) is tier h's statistic on covariate tier t of the
        # orthogonalized covariates; group j adds the cells of grid group j
        cells = np.array([
            mahalanobis_effect_tiers(
                orthogonalized_diff_in_means(e[:, list(idx)], row, s, tiered),
                tiered, np.cov(e[:, list(idx)], rowvar=False, ddof=1).reshape(len(idx), -1))
            for idx in cov_part.tiers])
        sums = np.array([sum(cells[t, h] for t, h in cell) for cell in grid.cells])
        np.testing.assert_allclose(engines[2].grid_cells(codes)[b], cells, rtol=1e-10)
        np.testing.assert_allclose(engines[2].statistics(codes)[b], sums, rtol=1e-10)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_engine_matches_standalone_statistics(data):
    s, sizes, x, codes = _setup(36)
    _check_engine_against_standalone(s, sizes, x, codes[None, :], partition_by_order(s),
                                     CovariateTierPartition(((0, 2), (1,))))
    # drawn tiers of unequal sizes, in any order, under unequal group sizes
    s, sizes, x, codes, _ = data.draw(designs())
    _check_engine_against_standalone(
        s, sizes, x, codes, EffectTierPartition(data.draw(partitions(s.f_count))),
        CovariateTierPartition(data.draw(partitions(x.shape[1]))))


def test_single_covariate_tier_in_any_column_order_is_the_overall_statistic():
    # a tier that lists every column out of order once paired the covariance
    # of the reordered columns with the differences in the original order
    s, sizes, x, codes = _setup(36)
    everything = EffectTierPartition((tuple(range(s.f_count)),))
    overall = CriterionEngine(x, s, sizes, MahalanobisCriterion(5.0))
    for order in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
        grid = CriterionEngine(x, s, sizes, GridTierCriterion(
            effect_partition=everything,
            covariate_partition=CovariateTierPartition((order,)),
            grid=TierGrid.triangular(1, 1), thresholds=(5.0,)))
        np.testing.assert_allclose(grid.statistics(codes[None, :]),
                                   overall.statistics(codes[None, :]), rtol=1e-12)


def test_criterion_plan_cells_groups_and_labels():
    s = build_structure(2)
    sizes = GroupSizes((4, 5, 6, 7))
    part = partition_by_order(s)
    overall = criterion_plan(MahalanobisCriterion(2.0), s, sizes, 3)
    assert overall.cells == ((0, 0),) and overall.groups == ((0,),)
    assert overall.cutoffs == (2.0,) and overall.dims == (9,)
    assert overall.labels == ("overall",) and overall.cell_labels == ()
    # a single effect tier is the raw contrasts and the coefficient Gram matrix
    np.testing.assert_array_equal(overall.tiered.coeffs, s.contrasts)
    np.testing.assert_array_equal(overall.tiered.gram_blocks[0],
                                  coefficient_gram(s, sizes))
    complete = criterion_plan(CompleteRandomization(), s, sizes, 3)
    assert complete.groups == ((0,),) and complete.cutoffs == (None,)
    assert complete.labels == () and complete.limits.size == 0
    tiers = criterion_plan(EffectTierCriterion(part, (2.0, 9.0)), s, None, 3)
    assert tiers.cells == ((0, 0), (0, 1)) and tiers.groups == ((0,), (1,))
    assert tiers.labels == ("tier_1", "tier_2") and tiers.dims == (6, 3)
    with pytest.raises(ValidationError, match="group sizes"):
        tiers.tiered
    grid = criterion_plan(GridTierCriterion(
        part, CovariateTierPartition(((0,), (1, 2))), TierGrid.triangular(2, 2),
        (0.5, 30.0)), s, sizes, 3)
    assert grid.cells == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert grid.groups == ((0,), (1, 2, 3))
    assert grid.cell_labels == ("cell_1_1", "cell_1_2", "cell_2_1", "cell_2_2")
    assert grid.labels == ("group_1", "group_2") and grid.dims == (2, 7)


def test_engine_retains_one_projection_of_the_plan():
    # one F x Q whitened projection; the plan caches no tiered coefficients,
    # Gram block or whitened rows
    s = build_structure(8)
    sizes = GroupSizes.equal(s.q_count, 2 * s.q_count)
    x = stream(31, 60).standard_normal((sizes.n, 2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine = CriterionEngine(x, s, sizes, MahalanobisCriterion(5.0))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert engine.plan.cells == ((0, 0),)  # the engine is still alive here
    assert retained < 2 * s.f_count * s.q_count * 8


def test_engine_acceptance_probability_is_product_of_tier_masses():
    s, sizes, x, _ = _setup(37)
    part = partition_by_order(s)
    dims = criterion_dimensions(EffectTierCriterion(
        partition=part, thresholds=(1.0, 1.0)), s, x.shape[1])
    cuts = thresholds_from_probability(dims, (0.3, 0.7))
    engine = CriterionEngine(x, s, sizes, EffectTierCriterion(
        partition=part, thresholds=tuple(cuts)))
    assert engine.acceptance_probability == pytest.approx(0.21, abs=1e-9)
    unrestricted = CriterionEngine(x, s, sizes, CompleteRandomization())
    assert unrestricted.acceptance_probability == 1.0


def test_engine_accept_and_worst_ratio():
    s, sizes, x, _ = _setup(38)
    engine = CriterionEngine(x, s, sizes, MahalanobisCriterion(4.0))
    stats = np.array([[3.9], [4.0], [4.1]])
    np.testing.assert_array_equal(engine.accept(stats), [True, True, False])
    np.testing.assert_allclose(engine.worst_ratio(stats),
                               [0.975, 1.0, 1.025])


def test_engine_complete_randomization_accepts_everything():
    s, sizes, x, codes = _setup(39)
    engine = CriterionEngine(x, s, sizes, CompleteRandomization())
    stats = engine.statistics(codes[None, :])
    assert stats.shape == (1, 0)
    np.testing.assert_array_equal(engine.accept(stats), [True])
    np.testing.assert_array_equal(engine.worst_ratio(stats), [0.0])
    report = engine.report(codes)
    assert report.passed and report.values == {} and report.limits == {}


def test_engine_reports():
    s, sizes, x, codes = _setup(40)
    engine = CriterionEngine(x, s, sizes, MahalanobisCriterion(1e9))
    report = engine.report(codes)
    assert isinstance(report, BalanceReport)
    assert set(report.values) == {"overall"} and report.passed
    assert report.limits["overall"] == 1e9
    assert report.acceptance_probability == pytest.approx(1.0, abs=1e-9)

    part = partition_by_order(s)
    tiers = CriterionEngine(x, s, sizes, EffectTierCriterion(
        partition=part, thresholds=(1e-6, 2.0)))
    report = tiers.report(codes)
    assert set(report.values) == {"tier_1", "tier_2"}
    assert not report.passed  # the 1e-6 cutoff is unreachable

    crit = GridTierCriterion(
        effect_partition=part,
        covariate_partition=CovariateTierPartition(((0,), (1, 2))),
        grid=TierGrid.triangular(2, 2), thresholds=(5.0, 50.0))
    report = CriterionEngine(x, s, sizes, crit).report(codes)
    assert set(report.values) == {"cell_1_1", "cell_1_2", "cell_2_1",
                                  "cell_2_2", "group_1", "group_2"}
    assert set(report.limits) == {"group_1", "group_2"}
    assert report.values["group_2"] == pytest.approx(
        report.values["cell_1_2"] + report.values["cell_2_1"]
        + report.values["cell_2_2"], rel=1e-12)


def test_engine_rejects_mismatched_rows():
    s = build_structure(2)
    sizes = GroupSizes.equal(4, 20)
    with pytest.raises(ValidationError, match="covariate rows"):
        CriterionEngine(np.zeros((19, 2)), s, sizes, CompleteRandomization())


# ---------------------------------------------------------------------------
# Monte Carlo calibration against exact moments


def test_overall_statistic_has_exact_mean_equal_to_dimension():
    # The sampling covariance of the stacked differences is exactly the
    # Kronecker imbalance covariance, so E[M] = L * F without any asymptotics.
    rng = stream(41, 0)
    s = build_structure(2)
    sizes = GroupSizes((50, 50, 50, 50))
    x = rng.standard_normal((sizes.n, 2))
    engine = CriterionEngine(x, s, sizes, MahalanobisCriterion(1.0))
    codes = draw_assignment_batch(sizes, rng, 4000)
    stats = engine.statistics(codes)[:, 0]
    se = stats.std(ddof=1) / np.sqrt(len(stats))
    assert abs(stats.mean() - 6.0) < 4 * se


def test_tier_linear_pieces_are_empirically_uncorrelated():
    rng = stream(41, 1)
    s = build_structure(2)
    sizes = GroupSizes((20, 30, 40, 30))
    x = rng.standard_normal((sizes.n, 2))
    part = partition_by_order(s)
    tiered = orthogonalize_effects(s, sizes, part)
    codes = draw_assignment_batch(sizes, rng, 4000)
    xbar = batch_group_means(x, codes, sizes)
    theta = (s.scale * np.einsum("fq,bql->bfl", tiered.coeffs, xbar)
             ).reshape(len(codes), -1)
    lead = theta[:, :4]   # tier 1: two main effects x two covariates
    trail = theta[:, 4:]  # tier 2: interaction x two covariates
    prods = lead[:, :, None] * trail[:, None, :]
    mean = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / np.sqrt(len(codes))
    assert np.all(np.abs(mean) < 4 * se + 1e-12)
