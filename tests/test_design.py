"""Contrast algebra, group sizes, tier partitions, and orthogonalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refac.design import (CovariateTierPartition, EffectTierPartition,
                          FactorialStructure, GroupSizes, TierGrid,
                          build_structure, coefficient_gram,
                          orthogonalize_covariates, orthogonalize_effects,
                          partition_by_order)
from refac.errors import ValidationError
from refac.rng import stream


# ---------------------------------------------------------------------------
# structure construction


def test_two_factor_contrasts_golden():
    s = build_structure(2)
    expected = np.array([
        [-1.0, -1.0, 1.0, 1.0],   # factor 1
        [-1.0, 1.0, -1.0, 1.0],   # factor 2
        [1.0, -1.0, -1.0, 1.0],   # interaction
    ])
    np.testing.assert_array_equal(s.contrasts, expected)
    assert s.effect_labels == ((1,), (2,), (1, 2))
    assert s.effect_names() == ("1", "2", "1:2")
    assert s.q_count == 4 and s.f_count == 3
    assert s.scale == pytest.approx(0.5)


def test_one_factor_design():
    s = build_structure(1)
    np.testing.assert_array_equal(s.contrasts, [[-1.0, 1.0]])
    assert s.scale == pytest.approx(1.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_contrast_rows_are_orthogonal_and_balanced(k):
    s = build_structure(k)
    q = 2 ** k
    assert s.contrasts.shape == (q - 1, q)
    assert np.abs(s.contrasts).max() == 1.0
    np.testing.assert_array_equal(s.contrasts @ s.contrasts.T, q * np.eye(q - 1))
    np.testing.assert_array_equal(s.contrasts.sum(axis=1), np.zeros(q - 1))


def test_effect_order_is_by_interaction_order_then_lex():
    s = build_structure(4)
    orders = [len(label) for label in s.effect_labels]
    assert orders == sorted(orders)
    for order in (1, 2, 3, 4):
        group = [lab for lab in s.effect_labels if len(lab) == order]
        assert group == sorted(group)
    assert s.effect_labels[0] == (1,)
    assert s.effect_labels[-1] == (1, 2, 3, 4)


def test_interaction_rows_are_products_of_main_rows():
    s = build_structure(3)
    mains = {lab[0]: s.contrasts[i] for i, lab in enumerate(s.effect_labels)
             if len(lab) == 1}
    for i, lab in enumerate(s.effect_labels):
        expected = np.prod([mains[f] for f in lab], axis=0)
        np.testing.assert_array_equal(s.contrasts[i], expected)


def test_combination_order_most_significant_first():
    s = build_structure(3)
    # column 0 is all factors at -1; column indexing increments factor 3 first
    np.testing.assert_array_equal(s.contrasts[:3, 0], [-1.0, -1.0, -1.0])
    np.testing.assert_array_equal(s.contrasts[:3, 1], [-1.0, -1.0, 1.0])
    np.testing.assert_array_equal(s.contrasts[:3, 4], [1.0, -1.0, -1.0])


def test_contrasts_are_read_only():
    s = build_structure(2)
    with pytest.raises(ValueError):
        s.contrasts[0, 0] = 5.0


@pytest.mark.parametrize("bad", [0, -1, 21, 2.5, True, "3"])
def test_build_structure_rejects_bad_factor_counts(bad):
    with pytest.raises(ValidationError):
        build_structure(bad)


# ---------------------------------------------------------------------------
# group sizes and the weighted Gram matrix


def test_group_sizes_basics():
    sizes = GroupSizes((3, 4, 5, 6))
    assert sizes.n == 18
    assert sizes.q_count == 4
    np.testing.assert_array_equal(sizes.as_array(), [3.0, 4.0, 5.0, 6.0])
    sizes.validate_for(build_structure(2))
    with pytest.raises(ValidationError):
        sizes.validate_for(build_structure(3))


def test_group_sizes_equal_constructor():
    assert GroupSizes.equal(4, 100).counts == (25, 25, 25, 25)
    with pytest.raises(ValidationError):
        GroupSizes.equal(4, 99)


@pytest.mark.parametrize("bad", [(), (2, 1, 2, 2), (2.0, 2, 2, 2), (2, True, 2, 2)])
def test_group_sizes_rejects_bad_counts(bad):
    with pytest.raises(ValidationError):
        GroupSizes(tuple(bad))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gram_reduces_to_scaled_identity_for_equal_sizes(k):
    s = build_structure(k)
    sizes = GroupSizes.equal(s.q_count, 8 * s.q_count)
    gram = coefficient_gram(s, sizes)
    np.testing.assert_allclose(gram, (4.0 / sizes.n) * np.eye(s.f_count),
                               atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(min_value=1, max_value=4), data=st.data())
def test_gram_inverse_identity_property(k, data):
    # 4^{1-K} b_q' Binv b_l / (n_q n_l) must equal delta_{ql}/n_q - 1/n
    s = build_structure(k)
    counts = data.draw(st.tuples(*([st.integers(min_value=2, max_value=12)]
                                   * s.q_count)))
    sizes = GroupSizes(counts)
    inv = np.linalg.inv(coefficient_gram(s, sizes))
    narr = sizes.as_array()
    lhs = 4.0 ** (1 - k) * (s.contrasts.T @ inv @ s.contrasts) / np.outer(narr, narr)
    rhs = np.diag(1.0 / narr) - 1.0 / sizes.n
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# ---------------------------------------------------------------------------
# partitions


def test_partition_by_order_defaults_to_mains_first():
    s = build_structure(3)
    part = partition_by_order(s)
    assert part.tiers == ((0, 1, 2), (3, 4, 5, 6))
    deeper = partition_by_order(s, max_lead_order=2)
    assert deeper.tiers == ((0, 1, 2, 3, 4, 5), (6,))


def test_partition_by_order_needs_two_nonempty_tiers():
    with pytest.raises(ValidationError):
        partition_by_order(build_structure(1))
    with pytest.raises(ValidationError):
        partition_by_order(build_structure(3), max_lead_order=3)


def test_partition_validation():
    part = EffectTierPartition(((0, 2), (1,)))
    part.validate(3)
    with pytest.raises(ValidationError):
        part.validate(4)  # does not cover index 3
    with pytest.raises(ValidationError):
        EffectTierPartition(((0,), ()))
    with pytest.raises(ValidationError):
        EffectTierPartition(((0, 1), (1,)))
    with pytest.raises(ValidationError):
        CovariateTierPartition(((-1,),))


def test_partition_order_and_sizes():
    part = CovariateTierPartition(((2, 0), (1, 3)))
    assert part.sizes() == (2, 2)
    assert part.order() == [2, 0, 1, 3]
    assert len(part) == 2
    assert part == CovariateTierPartition(((2, 0), (1, 3)))
    assert part != EffectTierPartition(((2, 0), (1, 3)))


# ---------------------------------------------------------------------------
# effect-tier orthogonalization


def _tiered_setup(k, counts, tiers):
    s = build_structure(k)
    sizes = GroupSizes(counts)
    part = EffectTierPartition(tiers)
    return s, sizes, orthogonalize_effects(s, sizes, part)


def _weighted_gram(s, sizes, coeffs):
    return 4.0 ** (1 - s.k) * ((coeffs / sizes.as_array()) @ coeffs.T)


def test_orthogonalize_effects_is_identity_for_equal_sizes():
    s, sizes, tiered = _tiered_setup(2, (5, 5, 5, 5), ((0, 1), (2,)))
    np.testing.assert_allclose(tiered.coeffs, s.contrasts[[0, 1, 2]], atol=1e-12)
    np.testing.assert_allclose(_weighted_gram(s, sizes, tiered.coeffs),
                               (4.0 / 20.0) * np.eye(3), atol=1e-12)


def test_orthogonalize_effects_block_diagonalizes_the_gram():
    s, sizes, tiered = _tiered_setup(3, (2, 3, 4, 5, 6, 7, 8, 9),
                                     ((0, 1, 2), (3, 4, 5), (6,)))
    # the weighted Gram matrix of the new rows, computed from them directly
    gram = _weighted_gram(s, sizes, tiered.coeffs)
    assert tiered.tier_count == 3
    for a, sa in enumerate(tiered.block_slices):
        for b, sb in enumerate(tiered.block_slices):
            if a != b:
                assert np.abs(gram[sa, sb]).max() < 1e-12
    for block, sl in zip(tiered.gram_blocks, tiered.block_slices):
        np.testing.assert_allclose(block, gram[sl, sl], atol=1e-12)
        np.testing.assert_array_equal(block, block.T)


def test_orthogonalize_effects_first_tier_untouched():
    s, _, tiered = _tiered_setup(3, (2, 3, 4, 5, 6, 7, 8, 9),
                                 ((1, 4), (0, 2, 3, 5, 6)))
    np.testing.assert_array_equal(tiered.coeffs[:2], s.contrasts[[1, 4]])


# ---------------------------------------------------------------------------
# covariate-tier orthogonalization


def test_orthogonalize_covariates_kills_cross_tier_covariance():
    rng = stream(21, 0)
    x = rng.standard_normal((60, 5)) @ rng.standard_normal((5, 5))
    part = CovariateTierPartition(((0, 3), (1,), (2, 4)))
    e = orthogonalize_covariates(x, part)
    np.testing.assert_array_equal(e[:, [0, 3]], x[:, [0, 3]])
    cov = np.cov(e, rowvar=False, ddof=1)
    for t_late in range(1, 3):
        late = list(part.tiers[t_late])
        for t_early in range(t_late):
            early = list(part.tiers[t_early])
            assert np.abs(cov[np.ix_(late, early)]).max() < 1e-10


def test_orthogonalize_covariates_validates_shape():
    with pytest.raises(ValidationError):
        orthogonalize_covariates(np.zeros(5), CovariateTierPartition(((0,),)))
    with pytest.raises(ValidationError):
        orthogonalize_covariates(np.zeros((5, 2)),
                                 CovariateTierPartition(((0,),)))


# ---------------------------------------------------------------------------
# tier grids


def test_triangular_grid_layouts():
    assert TierGrid.triangular(1, 1).cells == (((0, 0),),)
    g22 = TierGrid.triangular(2, 2)
    assert g22.cells == (((0, 0),), ((0, 1), (1, 0), (1, 1)))
    g32 = TierGrid.triangular(3, 2)
    assert g32.cells == (((0, 0),), ((0, 1), (1, 0), (1, 1), (2, 0), (2, 1)))


def test_grid_validate_coverage_and_order():
    grid = TierGrid.triangular(2, 2)
    grid.validate(2, 2)
    with pytest.raises(ValidationError):
        grid.validate(3, 2)
    with pytest.raises(ValidationError):  # deeper cell before a shallower one
        TierGrid(cells=(((1, 1),), ((0, 0), (0, 1), (1, 0)))).validate(2, 2)
    with pytest.raises(ValidationError):
        TierGrid(cells=(((0, 0), (0, 0)),))
    with pytest.raises(ValidationError):
        TierGrid(cells=((),))


def test_grid_dims_count_cell_blocks():
    cov = CovariateTierPartition(((0, 1, 2), (3,)))
    eff = EffectTierPartition(((0, 1), (2,)))
    grid = TierGrid.triangular(2, 2)
    np.testing.assert_array_equal(grid.dims(cov, eff), [6.0, 3.0 + 2.0 + 1.0])
