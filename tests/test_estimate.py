"""Point estimates, within-group moments, and estimated law components."""

import importlib

import numpy as np
import pytest

from refac.balance import (CompleteRandomization, EffectTierCriterion,
                           GridTierCriterion, MahalanobisCriterion)
from refac.design import (CovariateTierPartition, GroupSizes, TierGrid,
                          build_structure, partition_by_order)
from refac.errors import SingularMatrixError, ValidationError
from refac.estimate import (effect_estimates, neyman_covariance,
                            projection_coefficients,
                            residual_covariance_estimate, sample_moments)
from refac.rerandomize import Assignment, draw_assignment
from refac.rng import stream
from refac.truth import population_truth


def _observe(potential: np.ndarray, assignment: Assignment) -> np.ndarray:
    return potential[np.arange(assignment.n), assignment.codes]


# ---------------------------------------------------------------------------
# effect estimates


def test_effect_estimates_single_factor():
    s = build_structure(1)
    a = Assignment(codes=np.array([0, 0, 1, 1]), q_count=2)
    y = np.array([1.0, 3.0, 10.0, 20.0])
    np.testing.assert_allclose(effect_estimates(y, a, s), [13.0])


def test_effect_estimates_match_contrast_formula():
    rng = stream(61, 0)
    s = build_structure(2)
    sizes = GroupSizes((4, 5, 6, 7))
    a = draw_assignment(sizes, rng)
    y = rng.standard_normal(sizes.n)
    ybar = np.array([y[a.codes == q].mean() for q in range(4)])
    np.testing.assert_allclose(effect_estimates(y, a, s),
                               0.5 * s.contrasts @ ybar, atol=1e-12)


def test_effect_estimates_validation():
    s = build_structure(2)
    a = Assignment(codes=np.array([0, 1, 2, 3]), q_count=4)
    with pytest.raises(ValidationError, match="vector"):
        effect_estimates(np.zeros((4, 1)), a, s)
    with pytest.raises(ValidationError, match="groups"):
        effect_estimates(np.zeros(4), a, build_structure(3))
    gap = Assignment(codes=np.array([0, 1, 2, 2]), q_count=4)
    with pytest.raises(ValidationError, match="group 4 empty"):
        effect_estimates(np.zeros(4), gap, s)


# ---------------------------------------------------------------------------
# sample moments


def test_sample_moments_match_numpy():
    rng = stream(61, 1)
    sizes = GroupSizes((6, 7, 8, 9))
    a = draw_assignment(sizes, rng)
    x = rng.standard_normal((sizes.n, 2))
    y = rng.standard_normal(sizes.n)
    m = sample_moments(y, x, a)
    assert m.group_sizes == (6, 7, 8, 9)
    assert m.q_count == 4
    for q in range(4):
        mask = a.codes == q
        yq, xq = y[mask], x[mask]
        assert m.means[q] == pytest.approx(yq.mean())
        assert m.variances[q] == pytest.approx(np.var(yq, ddof=1))
        np.testing.assert_allclose(m.covariate_cov[q],
                                   np.cov(xq, rowvar=False, ddof=1), atol=1e-12)
        full = np.cov(np.column_stack([yq, xq]), rowvar=False, ddof=1)
        np.testing.assert_allclose(m.cross_cov[q], full[0, 1:], atol=1e-12)
        fit = full[0, 1:] @ np.linalg.solve(full[1:, 1:], full[0, 1:])
        assert m.residual_variances[q] == pytest.approx(m.variances[q] - fit,
                                                        abs=1e-12)


def test_sample_moments_floor_exact_linear_outcomes():
    rng = stream(61, 2)
    sizes = GroupSizes((8, 8))
    a = draw_assignment(sizes, rng)
    x = rng.standard_normal((16, 2))
    y = 2.0 + x @ np.array([1.5, -0.5])  # no noise: residuals vanish
    m = sample_moments(y, x, a)
    assert np.all(m.residual_variances >= 0.0)
    np.testing.assert_allclose(m.residual_variances, 0.0, atol=1e-12)


def test_sample_moments_validation():
    rng = stream(61, 3)
    a = Assignment(codes=np.array([0, 0, 0, 1, 1, 1]), q_count=2)
    x = rng.standard_normal((6, 2))
    with pytest.raises(ValidationError, match="needs at least 4"):
        sample_moments(np.zeros(6), x, a)
    with pytest.raises(ValidationError, match="align"):
        sample_moments(np.zeros(5), x[:5], a)


@pytest.mark.parametrize("l_count", [1, 3])
def test_batched_sample_moments_match_per_group_cov(l_count):
    rng = stream(61, 20, l_count)
    sizes = GroupSizes(tuple(int(v) for v in rng.integers(l_count + 2, 14, 128)))
    a = draw_assignment(sizes, rng)
    x = 3.0 + rng.standard_normal((sizes.n, l_count))
    y = x @ rng.standard_normal(l_count) + rng.standard_normal(sizes.n)
    m = sample_moments(y, x, a)
    assert m.group_sizes == sizes.counts
    for q in range(128):
        z = np.column_stack([y, x])[a.codes == q]
        full = np.cov(z, rowvar=False, ddof=1)
        fit = full[0, 1:] @ np.linalg.solve(full[1:, 1:], full[0, 1:])
        np.testing.assert_allclose(m.means[q], z[:, 0].mean(), rtol=1e-12)
        np.testing.assert_allclose(m.variances[q], full[0, 0], rtol=1e-12)
        np.testing.assert_allclose(m.cross_cov[q], full[0, 1:], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(m.covariate_cov[q], full[1:, 1:],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(m.residual_variances[q], full[0, 0] - fit,
                                   rtol=1e-12, atol=1e-12)


def _six_groups(rng, short=()):
    """Codes for six groups of 6 units (2 in each group of ``short``)."""
    counts = [2 if q in short else 6 for q in range(6)]
    codes = np.repeat(np.arange(6), counts)
    return Assignment(codes=codes, q_count=6), rng.standard_normal((codes.size, 2))


def test_sample_moments_names_the_first_short_group():
    a, x = _six_groups(stream(61, 21), short=(2, 4))
    with pytest.raises(ValidationError, match="^group 3 has 2 units but needs at least 4"):
        sample_moments(np.zeros(a.n), x, a)


def test_sample_moments_names_the_first_singular_group():
    a, x = _six_groups(stream(61, 22))
    for q in (1, 3):  # collinear covariates in groups 2 and 4
        mask = a.codes == q
        x[mask, 1] = 2.0 * x[mask, 0]
    with pytest.raises(SingularMatrixError, match="^group 2 covariate covariance is singular"):
        sample_moments(x[:, 0], x, a)


def test_sample_moments_names_the_first_inconsistent_group(monkeypatch):
    """Shrunken eigenvalues inflate the covariate fit past the outcome
    variance in groups 3 and 5, which round-off alone does only erratically."""
    estimate = importlib.import_module("refac.estimate")
    original = estimate.guarded_eigh

    def shrunk(mat, **kwargs):
        w, u = original(mat, **kwargs)
        w = w.copy()
        w[[2, 4]] *= 1e-3
        return w, u

    monkeypatch.setattr(estimate, "guarded_eigh", shrunk)
    a, x = _six_groups(stream(61, 23))
    y = x @ np.array([1.0, -1.0]) + 0.1 * stream(61, 24).standard_normal(a.n)
    with pytest.raises(ValidationError, match="^group 3 residual variance is -"):
        sample_moments(y, x, a)


# ---------------------------------------------------------------------------
# covariance estimators


def test_covariance_estimators_match_weighted_outer_sum():
    rng = stream(61, 4)
    s = build_structure(2)
    sizes = GroupSizes((8, 9, 10, 11))
    a = draw_assignment(sizes, rng)
    x = rng.standard_normal((sizes.n, 2))
    y = x @ np.array([1.0, 2.0]) + rng.standard_normal(sizes.n)
    m = sample_moments(y, x, a)

    def outer(per_group):
        out = np.zeros((3, 3))
        for q in range(4):
            b = s.contrasts[:, q]
            out += per_group[q] / m.group_sizes[q] * np.outer(b, b)
        return 0.25 * out

    np.testing.assert_allclose(neyman_covariance(m, s),
                               outer(m.variances), atol=1e-12)
    np.testing.assert_allclose(residual_covariance_estimate(m, s),
                               outer(m.residual_variances), atol=1e-12)
    # removing explained variance can only shrink the estimate
    gap = neyman_covariance(m, s) - residual_covariance_estimate(m, s)
    assert np.linalg.eigvalsh(gap).min() > -1e-12


# ---------------------------------------------------------------------------
# estimated law components


def _population(seed, n=240, l_count=2):
    rng = stream(seed, 0)
    s = build_structure(2)
    sizes = GroupSizes.equal(4, n)
    x = rng.standard_normal((n, l_count))
    beta = np.linspace(1.0, 2.0, l_count)
    base = x @ beta
    potential = np.column_stack([base + shift for shift in (0.0, 1.0, 2.0, 4.0)])
    potential += 0.8 * rng.standard_normal((n, 4))
    return s, sizes, x, potential, rng


def test_projection_components_shapes_and_cutoffs():
    s, sizes, x, potential, rng = _population(62)
    a = draw_assignment(sizes, rng)
    y = _observe(potential, a)

    comps = projection_coefficients(y, x, a, s, sizes, CompleteRandomization())
    assert len(comps) == 1
    assert comps[0].cutoff is None
    assert comps[0].dim == 6 and comps[0].coef.shape == (3, 6)

    comps = projection_coefficients(y, x, a, s, sizes, MahalanobisCriterion(5.0))
    assert comps[0].cutoff == 5.0

    part = partition_by_order(s)
    crit = EffectTierCriterion(partition=part, thresholds=(2.0, 9.0))
    comps = projection_coefficients(y, x, a, s, sizes, crit)
    assert [c.cutoff for c in comps] == [2.0, 9.0]
    assert [c.dim for c in comps] == [4, 2]
    assert [c.coef.shape for c in comps] == [(3, 4), (3, 2)]

    grid_crit = GridTierCriterion(
        effect_partition=part,
        covariate_partition=CovariateTierPartition(((0,), (1,))),
        grid=TierGrid.triangular(2, 2), thresholds=(0.5, 30.0))
    comps = projection_coefficients(y, x, a, s, sizes, grid_crit)
    assert [c.cutoff for c in comps] == [0.5, 30.0]
    assert [c.dim for c in comps] == [2, 4]


def test_projection_total_is_invariant_to_the_criterion_split():
    # Every criterion splits the same estimated explained covariance into
    # components; summing coef coef' over components must give one matrix.
    s, sizes, x, potential, rng = _population(63)
    a = draw_assignment(sizes, rng)
    y = _observe(potential, a)
    part = partition_by_order(s)
    criteria = [
        CompleteRandomization(),
        MahalanobisCriterion(5.0),
        EffectTierCriterion(partition=part, thresholds=(2.0, 9.0)),
    ]
    totals = []
    for crit in criteria:
        comps = projection_coefficients(y, x, a, s, sizes, crit)
        totals.append(sum(c.coef @ c.coef.T for c in comps))
    np.testing.assert_allclose(totals[1], totals[0], atol=1e-10)
    np.testing.assert_allclose(totals[2], totals[0], atol=1e-10)


def test_projection_reuses_supplied_moments():
    s, sizes, x, potential, rng = _population(64)
    a = draw_assignment(sizes, rng)
    y = _observe(potential, a)
    m = sample_moments(y, x, a)
    direct = projection_coefficients(y, x, a, s, sizes, MahalanobisCriterion(3.0))
    reused = projection_coefficients(y, x, a, s, sizes, MahalanobisCriterion(3.0),
                                     moments=m)
    np.testing.assert_array_equal(direct[0].coef, reused[0].coef)


@pytest.mark.parametrize("tiers", [((0,), (1,)), ((1, 0),)])
def test_grid_projection_takes_the_moments_of_x(tiers):
    # supplied moments are those of x, also when the grid residualizes a
    # later covariate tier on an earlier one
    s, sizes, x, potential, rng = _population(66)
    a = draw_assignment(sizes, rng)
    y = _observe(potential, a)
    cov = CovariateTierPartition(tiers)
    grid = TierGrid.triangular(len(cov), 2)
    crit = GridTierCriterion(
        effect_partition=partition_by_order(s), covariate_partition=cov,
        grid=grid, thresholds=(1.5, 20.0)[:len(grid)])
    direct = projection_coefficients(y, x, a, s, sizes, crit)
    reused = projection_coefficients(y, x, a, s, sizes, crit,
                                     moments=sample_moments(y, x, a))
    for d, r in zip(direct, reused):
        np.testing.assert_allclose(r.coef @ r.coef.T, d.coef @ d.coef.T,
                                   rtol=1e-12, atol=1e-14)


def test_estimated_moments_recover_noiseless_truth():
    # With outcomes exactly linear in the covariates and a large sample, the
    # estimated explained covariance should approximate the exact population
    # decomposition and the residual estimate should vanish.
    rng = stream(65, 0)
    s = build_structure(2)
    n = 2000
    sizes = GroupSizes.equal(4, n)
    x = rng.standard_normal((n, 2))
    beta = np.array([1.0, 0.5])
    potential = np.column_stack([x @ beta + shift
                                 for shift in (0.0, 1.0, 2.0, 4.0)])
    truth = population_truth(x, potential, s, sizes)
    a = draw_assignment(sizes, rng)
    y = _observe(potential, a)
    m = sample_moments(y, x, a)
    np.testing.assert_allclose(residual_covariance_estimate(m, s), 0.0,
                               atol=1e-10)
    comps = projection_coefficients(y, x, a, s, sizes, CompleteRandomization(),
                                    moments=m)
    estimated = comps[0].coef @ comps[0].coef.T
    np.testing.assert_allclose(estimated, truth.explained_cov,
                               rtol=0.2, atol=5e-4)
