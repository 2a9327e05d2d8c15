"""Ellipsoidal confidence sets with simulated thresholds."""

import numpy as np
import pytest

from refac.asymptotic import AsymptoticLaw, quadratic_form_samples
from refac.balance import (CompleteRandomization, MahalanobisCriterion,
                           thresholds_from_probability)
from refac.chisq import chi2_quantile
from refac.confidence import (DEFAULT_LAW_DRAWS, ConfidenceSet,
                              confidence_set, covariance_estimate,
                              estimated_law)
from refac.design import GroupSizes, build_structure
from refac.errors import ValidationError
from refac.estimate import (projection_coefficients,
                            residual_covariance_estimate, sample_moments)
from refac.rerandomize import draw_assignment, rerandomize
from refac.rng import stream
from refac.truth import population_truth


def _observed(potential, assignment):
    return potential[np.arange(assignment.n), assignment.codes]


def _setup(seed, n=400, beta=(1.0, 0.5), noise=0.8):
    rng = stream(seed, 0)
    s = build_structure(2)
    sizes = GroupSizes.equal(4, n)
    x = rng.standard_normal((n, 2))
    base = x @ np.asarray(beta)
    potential = np.column_stack([base + shift for shift in (0.0, 0.5, 1.0, 2.0)])
    potential += noise * rng.standard_normal((n, 4))
    return s, sizes, x, potential, rng


# ---------------------------------------------------------------------------
# geometry


def test_confidence_set_contains_and_intervals():
    cs = ConfidenceSet(center=np.array([1.0, -2.0]),
                       shape=np.diag([4.0, 9.0]), threshold=2.0,
                       alpha=0.05, draws=1000,
                       law=AsymptoticLaw(base_cov=np.diag([4.0, 9.0]), components=()))
    assert cs.contains([1.0, -2.0])
    assert not cs.contains([1.0 + 4.0, -2.0])
    intervals = cs.axis_intervals()
    half = np.sqrt(2.0 * np.array([4.0, 9.0]))
    np.testing.assert_allclose(intervals[:, 0], cs.center - half)
    np.testing.assert_allclose(intervals[:, 1], cs.center + half)
    # with a diagonal shape the axis endpoints sit on the boundary
    assert cs.contains([cs.center[0] + half[0] * (1 - 1e-9), cs.center[1]])
    assert not cs.contains([cs.center[0] + half[0] * (1 + 1e-9), cs.center[1]])


# ---------------------------------------------------------------------------
# covariance estimates and the estimated law


def test_covariance_estimate_reduces_to_residual_without_components():
    resid = np.array([[2.0, 0.3], [0.3, 1.0]])
    np.testing.assert_array_equal(covariance_estimate(resid, ()), resid)
    contrast = np.array([[1.0, -1.0]])
    np.testing.assert_allclose(covariance_estimate(resid, (), contrast),
                               [[2.0 + 1.0 - 0.6]])


def test_estimated_law_assembles_moment_pieces():
    s, sizes, x, potential, rng = _setup(101)
    a = draw_assignment(sizes, rng)
    y = _observed(potential, a)
    m = sample_moments(y, x, a)
    crit = MahalanobisCriterion(4.0)
    law = estimated_law(y, x, a, s, sizes, crit, moments=m)
    np.testing.assert_array_equal(law.base_cov,
                                  residual_covariance_estimate(m, s))
    comps = projection_coefficients(y, x, a, s, sizes, crit, moments=m)
    assert len(law.components) == 1
    np.testing.assert_array_equal(law.components[0].coef, comps[0].coef)
    assert law.components[0].cutoff == 4.0
    total = covariance_estimate(law.base_cov, law.components)
    np.testing.assert_allclose(total, law.covariance(), atol=1e-14)


# ---------------------------------------------------------------------------
# the full construction


def test_confidence_set_center_and_determinism():
    s, sizes, x, potential, rng = _setup(102)
    a = draw_assignment(sizes, rng)
    y = _observed(potential, a)
    crit = MahalanobisCriterion(
        float(thresholds_from_probability(6, 0.5)[0]))
    cs1 = confidence_set(y, x, a, s, sizes, crit, rng=stream(102, 1),
                         draws=4000)
    cs2 = confidence_set(y, x, a, s, sizes, crit, rng=stream(102, 1),
                         draws=4000)
    assert cs1.threshold == cs2.threshold
    np.testing.assert_array_equal(cs1.center, cs2.center)
    assert cs1.alpha == 0.05 and cs1.draws == 4000
    law = estimated_law(y, x, a, s, sizes, crit)
    np.testing.assert_array_equal(cs1.law.covariance(), law.covariance())
    np.testing.assert_array_equal(cs1.shape, law.base_cov)
    from refac.estimate import effect_estimates
    np.testing.assert_allclose(cs1.center, effect_estimates(y, a, s),
                               atol=1e-12)


def test_confidence_set_contrast_projects():
    s, sizes, x, potential, rng = _setup(103)
    a = draw_assignment(sizes, rng)
    y = _observed(potential, a)
    contrast = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    cs = confidence_set(y, x, a, s, sizes, CompleteRandomization(),
                        contrast=contrast, rng=stream(103, 1), draws=4000)
    assert cs.center.shape == (2,)
    assert cs.shape.shape == (2, 2)
    from refac.estimate import effect_estimates
    np.testing.assert_allclose(cs.center,
                               contrast @ effect_estimates(y, a, s),
                               atol=1e-12)


def test_default_identity_contrast_matches_an_explicit_identity():
    # contrast=None skips the identity product and its SVD check; on the
    # same stream it must give the same set as np.eye
    s, sizes, x, potential, rng = _setup(106)
    a = draw_assignment(sizes, rng)
    y = _observed(potential, a)
    crit = MahalanobisCriterion(float(thresholds_from_probability(6, 0.2)[0]))
    implicit = confidence_set(y, x, a, s, sizes, crit, rng=stream(106, 1),
                              draws=5000)
    explicit = confidence_set(y, x, a, s, sizes, crit, contrast=np.eye(3),
                              rng=stream(106, 1), draws=5000)
    np.testing.assert_allclose(implicit.center, explicit.center, rtol=1e-12)
    np.testing.assert_allclose(implicit.shape, explicit.shape, rtol=1e-12)
    assert implicit.threshold == pytest.approx(explicit.threshold, rel=1e-12)
    law = estimated_law(y, x, a, s, sizes, crit)
    np.testing.assert_allclose(
        quadratic_form_samples(law, None, law.base_cov, stream(106, 2), 5000),
        quadratic_form_samples(law, np.eye(3), law.base_cov, stream(106, 2), 5000),
        rtol=1e-12)


def test_confidence_set_validates_alpha():
    s, sizes, x, potential, rng = _setup(104)
    a = draw_assignment(sizes, rng)
    y = _observed(potential, a)
    for alpha in (0.0, 1.0, -0.1):
        with pytest.raises(ValidationError):
            confidence_set(y, x, a, s, sizes, CompleteRandomization(),
                           alpha=alpha, rng=stream(104, 1), draws=100)


def test_uninformative_covariates_give_wald_threshold():
    # with slopes near zero the explained component is noise and the
    # simulated threshold approaches the chi-square quantile
    s, sizes, x, potential, rng = _setup(105, beta=(0.0, 0.0), noise=1.0)
    a = draw_assignment(sizes, rng)
    y = _observed(potential, a)
    cs = confidence_set(y, x, a, s, sizes, CompleteRandomization(),
                        rng=stream(105, 1), draws=60_000)
    assert cs.threshold == pytest.approx(chi2_quantile(0.95, 3), abs=0.5)


def test_default_law_draws_constant():
    assert DEFAULT_LAW_DRAWS == 100_000


def test_empirical_coverage_is_near_nominal():
    # light version of the heavyweight acceptance check: additive outcomes,
    # moderate rerandomization, 100 replications at alpha = 0.05
    s, sizes, x, potential, _ = _setup(106, noise=0.6)
    truth = population_truth(x, potential, s, sizes)
    crit = MahalanobisCriterion(float(thresholds_from_probability(6, 0.5)[0]))
    hits = 0
    reps = 100
    for i in range(reps):
        rng = stream(106, 1, i)
        outcome = rerandomize(x, s, sizes, crit, rng)
        y = _observed(potential, outcome.assignment)
        cs = confidence_set(y, x, outcome.assignment, s, sizes, crit,
                            rng=rng, draws=3000)
        hits += cs.contains(truth.tau)
    # binomial SE at 0.95 over 100 reps is about 0.022; stay 4 SEs clear
    assert hits / reps >= 0.86
