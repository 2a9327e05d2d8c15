"""Exact finite-population decompositions from full potential-outcome tables."""

import numpy as np
import pytest

from refac.balance import (CompleteRandomization, EffectTierCriterion,
                           GridTierCriterion, MahalanobisCriterion, stacked_cross)
from refac.chisq import truncation_variance_factor
from refac.design import (CovariateTierPartition, EffectTierPartition,
                          GroupSizes, TierGrid, build_structure,
                          orthogonalize_covariates, orthogonalize_effects,
                          partition_by_order)
from refac.errors import ValidationError
from refac.linalg import KroneckerPSD, population_covariance
from refac.rng import stream
from refac.truth import criterion_profile, law_from_truth, population_truth
from oracles import overall_profile, pairwise_explained


def _heterogeneous_population(seed, n=96, k=2, l_count=3,
                              counts=None):
    """Potentials with arm-specific slopes and noise: nothing degenerate."""
    rng = stream(seed, 0)
    s = build_structure(k)
    sizes = GroupSizes(counts) if counts else GroupSizes.equal(s.q_count, n)
    x = rng.standard_normal((sizes.n, l_count))
    slopes = 1.0 + 0.3 * rng.standard_normal((s.q_count, l_count))
    shifts = rng.standard_normal(s.q_count)
    potential = x @ slopes.T + shifts + 0.7 * rng.standard_normal(
        (sizes.n, s.q_count))
    return s, sizes, x, potential


def _explained(x, potential, s, sizes, eff, cov=None, groups=None):
    """Per-group explained covariance blocks (F x F each), straight from the
    definition: each cell (t, h) adds C (B_h x S_t)^{-1} C', with C the
    stacked cross covariance of effect tier h with covariate tier t.  One
    covariate tier of all columns and one group per effect tier by default.
    """
    cov = cov or CovariateTierPartition((tuple(range(x.shape[1])),))
    groups = groups or [((0, h),) for h in range(len(eff))]
    tiered = orthogonalize_effects(s, sizes, eff)
    e = orthogonalize_covariates(x, cov)
    out = []
    for group in groups:
        total = np.zeros((s.f_count, s.f_count))
        for t, h in group:
            block = e[:, list(cov.tiers[t])]
            cross = stacked_cross(s, sizes.counts,
                                  tiered.coeffs[tiered.block_slices[h]],
                                  population_covariance(potential, block))
            cross = cross.reshape(s.f_count, -1)
            kron = KroneckerPSD(tiered.gram_blocks[h], population_covariance(block))
            total += cross @ kron.inv_dense() @ cross.T
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# the overall decomposition


def test_truth_mean_and_shapes():
    s, sizes, x, potential = _heterogeneous_population(81)
    truth = population_truth(x, potential, s, sizes)
    np.testing.assert_allclose(truth.tau,
                               s.scale * s.contrasts @ potential.mean(axis=0),
                               atol=1e-12)
    assert truth.total_cov.shape == (3, 3)
    assert truth.cross_cov.shape == (3, 9)
    assert truth.covariate_count == 3
    assert np.all(truth.r_squared > 0.0) and np.all(truth.r_squared < 1.0)
    np.testing.assert_allclose(truth.r_squared,
                               np.diag(truth.explained_cov)
                               / np.diag(truth.total_cov), atol=1e-14)


def test_total_splits_into_explained_plus_residual():
    # the projected table is covariate-linear and its complement is
    # covariate-orthogonal column by column, so the split is exact
    for counts in [None, (20, 25, 30, 21)]:
        s, sizes, x, potential = _heterogeneous_population(82, counts=counts)
        truth = population_truth(x, potential, s, sizes)
        np.testing.assert_allclose(truth.explained_cov + truth.residual_cov,
                                   truth.total_cov, atol=1e-10)


def test_explained_matches_cross_covariance_route():
    # dual route: projected-potential covariance vs the quadratic form of
    # the stacked cross-covariance in the imbalance metric
    s, sizes, x, potential = _heterogeneous_population(83, counts=(12, 18, 24, 30))
    truth = population_truth(x, potential, s, sizes)
    via_cross = truth.cross_cov @ truth.imbalance().inv_dense() @ truth.cross_cov.T
    np.testing.assert_allclose(truth.explained_cov, via_cross, atol=1e-10)


def test_single_factor_total_matches_neyman_formula():
    rng = stream(84, 0)
    s = build_structure(1)
    sizes = GroupSizes((11, 17))
    x = rng.standard_normal((28, 2))
    potential = np.column_stack([x @ np.array([1.0, 0.5]),
                                 x @ np.array([0.6, 1.2]) + 1.0])
    potential += 0.5 * rng.standard_normal((28, 2))
    truth = population_truth(x, potential, s, sizes)
    y0, y1 = potential[:, 0], potential[:, 1]
    expected = (np.var(y0, ddof=1) / 11 + np.var(y1, ddof=1) / 17
                - np.var(y1 - y0, ddof=1) / 28)
    assert truth.total_cov[0, 0] == pytest.approx(expected, rel=1e-12)


def test_truth_validation():
    s, sizes, x, potential = _heterogeneous_population(85)
    with pytest.raises(ValidationError, match="n x 4"):
        population_truth(x, potential[:, :3], s, sizes)
    with pytest.raises(ValidationError, match="align"):
        population_truth(x[:-1], potential, s, sizes)
    with pytest.raises(ValidationError, match="sum to"):
        population_truth(x, potential, s, GroupSizes.equal(4, 88))
    constant = np.ones_like(potential)
    with pytest.raises(ValidationError, match="degenerate"):
        population_truth(x, constant, s, sizes)


# ---------------------------------------------------------------------------
# per-component decompositions


def test_effect_tier_blocks_sum_to_the_explained_covariance():
    s, sizes, x, potential = _heterogeneous_population(
        86, k=3, counts=(8, 9, 10, 11, 12, 13, 14, 15))
    truth = population_truth(x, potential, s, sizes)
    for tiers in [((0, 1, 2), (3, 4, 5, 6)),
                  ((5,), (0, 1, 2, 3), (4, 6)),
                  (tuple(range(7)),)]:
        blocks = _explained(x, potential, s, sizes, EffectTierPartition(tiers))
        assert len(blocks) == len(tiers)
        np.testing.assert_allclose(sum(blocks), truth.explained_cov,
                                   atol=1e-10)


def test_grid_blocks_sum_to_the_explained_covariance():
    s, sizes, x, potential = _heterogeneous_population(87, counts=(15, 20, 25, 36))
    truth = population_truth(x, potential, s, sizes)
    eff = partition_by_order(s)
    cov = CovariateTierPartition(((0, 2), (1,)))
    blocks = _explained(x, potential, s, sizes, eff, cov,
                        TierGrid.triangular(2, 2).cells)
    assert len(blocks) == 2
    np.testing.assert_allclose(sum(blocks), truth.explained_cov, atol=1e-10)


def test_pairwise_explained_rows_sum_to_r_squared_for_equal_sizes():
    s, sizes, x, potential = _heterogeneous_population(88)
    truth = population_truth(x, potential, s, sizes)
    table = pairwise_explained(truth)
    assert table.shape == (3, 3)
    assert np.all(table >= 0.0)
    np.testing.assert_allclose(table.sum(axis=1), truth.r_squared, atol=1e-10)


# ---------------------------------------------------------------------------
# profiles


def test_overall_profile_reads_off_truth():
    s, sizes, x, potential = _heterogeneous_population(89)
    truth = population_truth(x, potential, s, sizes)
    profile = overall_profile(truth)
    assert profile.tier_count == 1
    np.testing.assert_allclose(profile.r_squared, truth.r_squared, atol=1e-12)
    assert np.all(profile.canonical[0] >= -1e-12)
    assert np.all(profile.canonical[0] <= 1.0 + 1e-12)


def test_criterion_profile_decomposes_r_squared():
    s, sizes, x, potential = _heterogeneous_population(90, counts=(18, 22, 26, 30))
    truth = population_truth(x, potential, s, sizes)
    part = partition_by_order(s)
    profile = criterion_profile(x, potential, s, sizes, EffectTierCriterion(
        partition=part, thresholds=(1.0, 1.0)))
    assert profile.tier_count == 2
    np.testing.assert_allclose(profile.r_squared, truth.r_squared, atol=1e-10)
    overall = criterion_profile(x, potential, s, sizes, CompleteRandomization())
    np.testing.assert_allclose(overall.per_tier,
                               overall_profile(truth).per_tier, atol=1e-12)


# ---------------------------------------------------------------------------
# exact asymptotic laws


def test_law_covariances_interpolate_between_residual_and_total():
    s, sizes, x, potential = _heterogeneous_population(91, counts=(14, 19, 23, 40))
    truth = population_truth(x, potential, s, sizes)

    unrestricted = law_from_truth(x, potential, s, sizes,
                                  CompleteRandomization())
    np.testing.assert_allclose(unrestricted.base_cov, truth.residual_cov,
                               atol=1e-12)
    assert unrestricted.components[0].cutoff is None
    np.testing.assert_allclose(unrestricted.covariance(), truth.total_cov,
                               atol=1e-10)

    a = 3.5
    law = law_from_truth(x, potential, s, sizes, MahalanobisCriterion(a))
    v = truncation_variance_factor(law.components[0].dim, a)
    np.testing.assert_allclose(
        law.covariance(), truth.total_cov - (1 - v) * truth.explained_cov,
        atol=1e-10)


def test_tiered_law_covariance_uses_per_tier_factors():
    s, sizes, x, potential = _heterogeneous_population(92, counts=(14, 19, 23, 40))
    truth = population_truth(x, potential, s, sizes)
    part = partition_by_order(s)
    thresholds = (2.5, 9.0)
    law = law_from_truth(x, potential, s, sizes, EffectTierCriterion(
        partition=part, thresholds=thresholds))
    blocks = _explained(x, potential, s, sizes, part)
    expected = truth.residual_cov.copy()
    for comp, block, a in zip(law.components, blocks, thresholds):
        v = truncation_variance_factor(comp.dim, a)
        expected += v * block
        np.testing.assert_allclose(comp.coef @ comp.coef.T, block, atol=1e-10)
    np.testing.assert_allclose(law.covariance(), expected, atol=1e-10)
    assert [c.dim for c in law.components] == [6, 3]


def test_grid_law_covariance_uses_per_group_factors():
    s, sizes, x, potential = _heterogeneous_population(93)
    eff = partition_by_order(s)
    cov = CovariateTierPartition(((0,), (1, 2)))
    grid = TierGrid.triangular(2, 2)
    thresholds = (1.5, 20.0)
    crit = GridTierCriterion(effect_partition=eff, covariate_partition=cov,
                             grid=grid, thresholds=thresholds)
    law = law_from_truth(x, potential, s, sizes, crit)
    blocks = _explained(x, potential, s, sizes, eff, cov, grid.cells)
    truth = population_truth(x, potential, s, sizes)
    expected = truth.residual_cov.copy()
    for comp, block, a in zip(law.components, blocks, thresholds):
        v = truncation_variance_factor(comp.dim, a)
        expected += v * block
        np.testing.assert_allclose(comp.coef @ comp.coef.T, block, atol=1e-10)
    np.testing.assert_allclose(law.covariance(), expected, atol=1e-10)
    assert [c.dim for c in law.components] == [2, 7]
