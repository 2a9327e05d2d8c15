"""Property tests of the paper's identities for every balance criterion.

Each criterion is a grid of (covariate tier, effect tier) cells: the overall
criterion is the 1 x 1 grid and the effect-tier criterion the 1 x H grid.
These tests pin the engine statistics and both law builders to that view,
and the statistics to their affine and relabelling invariances.  The
simulated law of every criterion kind is held to its covariance and to its
symmetry, within Monte Carlo error.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from refac.asymptotic import simulate_law
from refac.balance import (CompleteRandomization, CriterionEngine,
                           EffectTierCriterion, GridTierCriterion,
                           MahalanobisCriterion)
from refac.design import (CovariateTierPartition, EffectTierPartition,
                          GroupSizes, TierGrid, build_structure)
from refac.estimate import projection_coefficients
from refac.rerandomize import Assignment, draw_assignment_batch
from refac.rng import stream
from refac.truth import law_from_truth

PROPERTY = settings(max_examples=25, deadline=None)


@st.composite
def designs(draw, max_k=3, max_l=3):
    """(structure, sizes, x, codes, rng): unequal sizes, correlated covariates."""
    k = draw(st.integers(1, max_k))
    l_count = draw(st.integers(1, max_l))
    structure = build_structure(k)
    counts = draw(st.lists(st.integers(l_count + 2, l_count + 6),
                           min_size=structure.q_count, max_size=structure.q_count))
    sizes = GroupSizes(tuple(counts))
    rng = stream(draw(st.integers(0, 2 ** 32 - 1)), 0)
    x = rng.standard_normal((sizes.n, l_count)) @ _well_conditioned(rng, l_count)
    codes = draw_assignment_batch(sizes, rng, 4)
    return structure, sizes, x, codes, rng


@st.composite
def partitions(draw, count):
    """A random ordered partition of range(count) into nonempty tiers."""
    order = draw(st.permutations(range(count)))
    cuts = sorted(draw(st.sets(st.integers(1, count - 1), max_size=count - 1))
                  if count > 1 else set())
    bounds = [0, *cuts, count]
    return tuple(tuple(order[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))


def _well_conditioned(rng, size):
    """Random invertible matrix with condition number at most e^2."""
    left, _ = np.linalg.qr(rng.standard_normal((size, size)))
    right, _ = np.linalg.qr(rng.standard_normal((size, size)))
    return (left * np.exp(rng.uniform(-1.0, 1.0, size))) @ right


def _close(actual, expected, rtol=1e-10):
    actual, expected = np.asarray(actual), np.asarray(expected)
    np.testing.assert_allclose(actual, expected, rtol=rtol,
                               atol=rtol * max(np.abs(expected).max(initial=0.0), 1e-300))


def _single_covariate_tier(l_count):
    return CovariateTierPartition((tuple(range(l_count)),))


def _column_grid(effect_partition, l_count, thresholds):
    """The 1 x H grid with one threshold group per effect tier."""
    return GridTierCriterion(
        effect_partition=effect_partition,
        covariate_partition=_single_covariate_tier(l_count),
        grid=TierGrid(tuple(((0, h),) for h in range(len(effect_partition)))),
        thresholds=thresholds)


def _criteria(structure, l_count, effect_tiers, covariate_tiers):
    f_count = structure.f_count
    effect_partition = EffectTierPartition(effect_tiers)
    covariate_partition = CovariateTierPartition(covariate_tiers)
    grid = TierGrid.triangular(len(covariate_partition), len(effect_partition))
    return [
        MahalanobisCriterion(5.0),
        EffectTierCriterion(effect_partition, (3.0,) * len(effect_partition)),
        GridTierCriterion(effect_partition, covariate_partition, grid,
                          (4.0,) * len(grid)),
        _column_grid(EffectTierPartition((tuple(range(f_count)),)), l_count, (5.0,)),
    ]


def _block_triangular(rng, covariate_tiers, l_count):
    """Invertible map that sends each covariate tier into itself plus earlier
    tiers, which keeps every grid statistic unchanged."""
    a = np.zeros((l_count, l_count))
    earlier: list[int] = []
    for tier in covariate_tiers:
        tier = list(tier)
        a[np.ix_(tier, tier)] = _well_conditioned(rng, len(tier))
        if earlier:
            a[np.ix_(earlier, tier)] = rng.standard_normal((len(earlier), len(tier)))
        earlier.extend(tier)
    return a


# ---------------------------------------------------------------------------
# engine statistics


@PROPERTY
@given(data=st.data())
def test_statistics_are_invariant_to_affine_covariate_maps(data):
    structure, sizes, x, codes, rng = data.draw(designs())
    l_count = x.shape[1]
    effect_tiers = data.draw(partitions(structure.f_count))
    covariate_tiers = data.draw(partitions(l_count))
    shift = rng.standard_normal(l_count)
    general = x @ _well_conditioned(rng, l_count) + shift
    tiered = x @ _block_triangular(rng, covariate_tiers, l_count) + shift
    for crit in _criteria(structure, l_count, effect_tiers, covariate_tiers):
        moved = tiered if isinstance(crit, GridTierCriterion) else general
        _close(CriterionEngine(moved, structure, sizes, crit).statistics(codes),
               CriterionEngine(x, structure, sizes, crit).statistics(codes))


@PROPERTY
@given(data=st.data())
def test_statistics_are_invariant_to_relabelling_units(data):
    structure, sizes, x, codes, rng = data.draw(designs())
    l_count = x.shape[1]
    effect_tiers = data.draw(partitions(structure.f_count))
    covariate_tiers = data.draw(partitions(l_count))
    perm = rng.permutation(sizes.n)
    for crit in _criteria(structure, l_count, effect_tiers, covariate_tiers):
        _close(CriterionEngine(x[perm], structure, sizes, crit).statistics(codes[:, perm]),
               CriterionEngine(x, structure, sizes, crit).statistics(codes))


@PROPERTY
@given(data=st.data())
def test_tier_statistics_sum_to_the_overall_statistic(data):
    structure, sizes, x, codes, _ = data.draw(designs())
    effect_tiers = data.draw(partitions(structure.f_count))
    overall = CriterionEngine(x, structure, sizes, MahalanobisCriterion(1.0))
    tiers = CriterionEngine(x, structure, sizes, EffectTierCriterion(
        EffectTierPartition(effect_tiers), (1.0,) * len(effect_tiers)))
    _close(tiers.statistics(codes).sum(axis=1), overall.statistics(codes)[:, 0])


@PROPERTY
@given(data=st.data())
def test_overall_and_tier_criteria_are_one_column_grids(data):
    structure, sizes, x, codes, _ = data.draw(designs())
    l_count = x.shape[1]
    everything = EffectTierPartition((tuple(range(structure.f_count)),))
    effect_partition = EffectTierPartition(data.draw(partitions(structure.f_count)))
    cuts = (2.0,) * len(effect_partition)
    pairs = [
        (MahalanobisCriterion(5.0), _column_grid(everything, l_count, (5.0,))),
        (EffectTierCriterion(effect_partition, cuts),
         _column_grid(effect_partition, l_count, cuts)),
    ]
    for crit, grid in pairs:
        _close(CriterionEngine(x, structure, sizes, grid).statistics(codes),
               CriterionEngine(x, structure, sizes, crit).statistics(codes))


# ---------------------------------------------------------------------------
# both law builders


def _potential(rng, x, q_count):
    slopes = 1.0 + 0.4 * rng.standard_normal((q_count, x.shape[1]))
    return x @ slopes.T + rng.standard_normal(q_count) + 0.6 * rng.standard_normal(
        (x.shape[0], q_count))


@PROPERTY
@given(data=st.data())
def test_law_builders_agree_with_one_column_grids(data):
    structure, sizes, x, codes, rng = data.draw(designs(max_l=2))
    l_count = x.shape[1]
    potential = _potential(rng, x, structure.q_count)
    assignment = Assignment(codes=codes[0], q_count=structure.q_count)
    y = potential[np.arange(sizes.n), assignment.codes]
    everything = EffectTierPartition((tuple(range(structure.f_count)),))
    effect_partition = EffectTierPartition(data.draw(partitions(structure.f_count)))
    cuts = (2.0,) * len(effect_partition)
    pairs = [
        (MahalanobisCriterion(5.0), _column_grid(everything, l_count, (5.0,))),
        (EffectTierCriterion(effect_partition, cuts),
         _column_grid(effect_partition, l_count, cuts)),
    ]
    builders = [
        lambda c: law_from_truth(x, potential, structure, sizes, c).components,
        lambda c: projection_coefficients(y, x, assignment, structure, sizes, c),
    ]
    for crit, grid in pairs:
        for build in builders:
            expected, actual = build(crit), build(grid)
            assert [c.dim for c in actual] == [c.dim for c in expected]
            assert [c.cutoff for c in actual] == [c.cutoff for c in expected]
            for a, e in zip(actual, expected):
                _close(a.coef @ a.coef.T, e.coef @ e.coef.T, rtol=1e-12)


# ---------------------------------------------------------------------------
# the law's properties, by Monte Carlo

#: Monte Carlo tolerance in standard errors; the draws are derandomized so
#: that each run checks the same laws with the same samples
Z = 4.5
LAW_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
LAW_DRAWS = 20_000


def _laws(data):
    """(law, rng): the exact law of every criterion kind for one population."""
    structure, sizes, x, _, rng = data.draw(designs(max_l=2))
    l_count = x.shape[1]
    effect_tiers = data.draw(partitions(structure.f_count))
    covariate_tiers = data.draw(partitions(l_count))
    potential = _potential(rng, x, structure.q_count)
    criteria = [CompleteRandomization(),
                *_criteria(structure, l_count, effect_tiers, covariate_tiers)]
    return [law_from_truth(x, potential, structure, sizes, c) for c in criteria], rng


@LAW_PROPERTY
@given(data=st.data())
def test_simulated_law_has_the_law_covariance(data):
    # the variance of u'phi along random directions u, against u' Sigma u,
    # with the SE of a sample variance from the sample's fourth moment
    laws, rng = _laws(data)
    for law in laws:
        sample = simulate_law(law, rng, LAW_DRAWS)
        directions = rng.standard_normal((3, law.dim))
        projected = sample @ directions.T
        centered = projected - projected.mean(axis=0)
        variance = (centered ** 2).mean(axis=0)
        se = np.sqrt(((centered ** 2 - variance) ** 2).mean(axis=0) / LAW_DRAWS)
        expected = np.einsum("uf,fg,ug->u", directions, law.covariance(), directions)
        assert np.all(np.abs(variance - expected) <= Z * se), (variance, expected, se)


@LAW_PROPERTY
@given(data=st.data())
def test_simulated_law_gives_a_ball_and_its_reflection_equal_mass(data):
    # the law is symmetric: an off-center ball A and -A, on one sample
    laws, rng = _laws(data)
    for law in laws:
        sample = simulate_law(law, rng, LAW_DRAWS)
        center = np.sqrt(np.diag(law.covariance())) * rng.standard_normal(law.dim)
        radius = np.median(np.linalg.norm(sample - center, axis=1))
        inside = np.linalg.norm(sample - center, axis=1) <= radius
        reflected = np.linalg.norm(sample + center, axis=1) <= radius
        diff = inside.astype(float) - reflected
        assert abs(diff.mean()) <= Z * diff.std() / np.sqrt(LAW_DRAWS)
