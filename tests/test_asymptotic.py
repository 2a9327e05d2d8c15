"""Truncated-Gaussian sampling, asymptotic laws, and quantile thresholds."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from refac.asymptotic import (AsymptoticLaw, CorrelationProfile, LawComponent,
                              _radius_plan,
                              commutation_gap, correlation_profile,
                              quadratic_form_samples, quantile_threshold,
                              quantile_thresholds, simulate_law,
                              truncated_gaussian_sample, validate_contrast,
                              variance_reduction)
from refac.chisq import chi2_quantile, truncation_variance_factor
from refac.design import CONTRAST_BUDGET_BYTES
from refac.errors import SingularMatrixError, ValidationError
from refac.rng import stream


# ---------------------------------------------------------------------------
# the truncated sampler


def test_untruncated_sampler_is_plain_gaussian():
    draws = truncated_gaussian_sample(3, None, stream(71, 0), 50)
    np.testing.assert_array_equal(draws,
                                  stream(71, 0).standard_normal((50, 3)))
    inf = truncated_gaussian_sample(3, np.inf, stream(71, 0), 50)
    np.testing.assert_array_equal(inf, draws)


@pytest.mark.parametrize("dim,prob", [(3, 0.5), (6, 0.01)])
def test_truncated_sampler_respects_the_cutoff(dim, prob):
    cutoff = chi2_quantile(prob, dim)
    draws = truncated_gaussian_sample(dim, cutoff, stream(71, 1), 20_000)
    assert draws.shape == (20_000, dim)
    norms = (draws ** 2).sum(axis=1)
    assert norms.max() <= cutoff


def test_truncated_sampler_moments():
    dim, cutoff = 3, chi2_quantile(0.4, 3)
    n = 200_000
    draws = truncated_gaussian_sample(dim, cutoff, stream(71, 2), n)
    v = truncation_variance_factor(dim, cutoff)
    # symmetric coordinates: mean 0, variance v, zero cross-correlation
    mean_se = draws.std(axis=0, ddof=1) / np.sqrt(n)
    np.testing.assert_array_less(np.abs(draws.mean(axis=0)), 4 * mean_se)
    sq = draws ** 2
    var_se = sq.std(axis=0, ddof=1) / np.sqrt(n)
    np.testing.assert_array_less(np.abs(sq.mean(axis=0) - v), 4 * var_se)
    for i in range(dim):
        for j in range(i):
            prod = draws[:, i] * draws[:, j]
            se = prod.std(ddof=1) / np.sqrt(n)
            assert abs(prod.mean()) < 4 * se


def test_truncated_sampler_radius_distribution():
    dim, prob = 4, 0.3
    cutoff = chi2_quantile(prob, dim)
    draws = truncated_gaussian_sample(dim, cutoff, stream(71, 3), 20_000)
    norms = (draws ** 2).sum(axis=1)
    mass = scipy.stats.chi2.cdf(cutoff, dim)
    result = scipy.stats.kstest(norms,
                                lambda t: scipy.stats.chi2.cdf(t, dim) / mass)
    assert result.pvalue > 0.005


@pytest.mark.parametrize("dim,prob,method", [
    (6, 0.1, "envelope"), (6, 0.9, "chisquare"), (50, 0.01, "inverse")])
def test_each_radius_branch_follows_the_truncated_chi_square(dim, prob, method):
    cutoff = chi2_quantile(prob, dim)
    assert _radius_plan(dim, cutoff)[0] == method
    draws = truncated_gaussian_sample(dim, cutoff, stream(71, 5, dim), 20_000)
    norms = (draws ** 2).sum(axis=1)
    assert norms.max() <= cutoff
    mass = scipy.stats.chi2.cdf(cutoff, dim)
    result = scipy.stats.kstest(norms,
                                lambda t: scipy.stats.chi2.cdf(t, dim) / mass)
    assert result.pvalue > 0.005


def _rejection_reference(dim, cutoff, rng, size):
    """Rows of N(0, I_dim) kept when their squared norm is <= cutoff."""
    kept = []
    while sum(len(k) for k in kept) < size:
        z = rng.standard_normal((4 * size, dim))
        kept.append(z[(z ** 2).sum(axis=1) <= cutoff])
    return np.concatenate(kept)[:size]


def test_leading_coordinates_match_a_rejection_sampler():
    # the first of coords < dim coordinates against the first coordinate of
    # whole vectors drawn by rejection: the 20 two-sample p-values must look
    # uniform
    dim, coords, size = 6, 2, 2_000
    cutoff = chi2_quantile(0.3, dim)
    pvalues = []
    for seed in range(20):
        ours = truncated_gaussian_sample(dim, cutoff, stream(74, seed), size,
                                         coords=coords)
        assert ours.shape == (size, coords)
        reference = _rejection_reference(dim, cutoff, stream(75, seed), size)
        pvalues.append(scipy.stats.ks_2samp(ours[:, 0], reference[:, 0]).pvalue)
    assert scipy.stats.kstest(pvalues, "uniform").pvalue > 0.01


def test_truncated_sampler_validation():
    rng = stream(71, 4)
    with pytest.raises(ValidationError):
        truncated_gaussian_sample(0, 1.0, rng, 10)
    with pytest.raises(ValidationError):
        truncated_gaussian_sample(3, -1.0, rng, 10)
    with pytest.raises(ValidationError):
        truncated_gaussian_sample(3, 1.0, rng, 10, coords=4)
    with pytest.raises(ValidationError, match="underflows"):
        truncated_gaussian_sample(400, 1e-280, rng, 10)


# ---------------------------------------------------------------------------
# law containers


def test_law_component_validation():
    with pytest.raises(ValidationError):
        LawComponent(coef=np.zeros(3), dim=3, cutoff=None)
    with pytest.raises(ValidationError):
        LawComponent(coef=np.zeros((2, 3)), dim=4, cutoff=None)
    with pytest.raises(ValidationError):
        LawComponent(coef=np.zeros((2, 3)), dim=3, cutoff=0.0)
    with pytest.raises(ValidationError, match="non-finite"):
        LawComponent(coef=np.array([[np.nan, 1.0], [0.0, 1.0]]), dim=2, cutoff=3.0)
    comp = LawComponent(coef=np.eye(3), dim=3, cutoff=2.0)
    assert comp.variance_factor == pytest.approx(
        truncation_variance_factor(3, 2.0))
    assert LawComponent(np.eye(2), 2, None).variance_factor == 1.0


def test_asymptotic_law_validation_and_covariance():
    with pytest.raises(ValidationError):
        AsymptoticLaw(base_cov=np.zeros((2, 3)), components=())
    with pytest.raises(ValidationError):
        AsymptoticLaw(base_cov=np.eye(2),
                      components=(LawComponent(np.zeros((3, 2)), 2, None),))
    coef1 = np.array([[1.0, 0.0], [0.5, 0.5]])
    coef2 = np.array([[0.2], [0.1]])
    a1, a2 = 3.0, 1.0
    law = AsymptoticLaw(base_cov=0.5 * np.eye(2), components=(
        LawComponent(coef1, 2, a1), LawComponent(coef2, 1, a2)))
    assert law.dim == 2
    expected = (0.5 * np.eye(2)
                + truncation_variance_factor(2, a1) * coef1 @ coef1.T
                + truncation_variance_factor(1, a2) * coef2 @ coef2.T)
    np.testing.assert_allclose(law.covariance(), expected, atol=1e-14)


def test_simulate_law_reproducible_and_identity_base():
    law = AsymptoticLaw(base_cov=np.eye(3), components=())
    a = simulate_law(law, stream(72, 0), 40)
    b = simulate_law(law, stream(72, 0), 40)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(a, stream(72, 0).standard_normal((40, 3)),
                               atol=1e-12)
    with pytest.raises(ValidationError):
        simulate_law(law, stream(72, 0), 0)


def test_simulate_law_covariance_matches_formula():
    base = np.array([[0.5, 0.1], [0.1, 0.3]])
    coef = np.array([[0.6, 0.0, 0.2], [0.1, 0.4, 0.0]])
    cutoff = chi2_quantile(0.3, 3)
    components = {
        "full rank": LawComponent(coef, 3, cutoff),
        "untruncated": LawComponent(coef, 3, None),
        # rank 1 < F = 2 with d = 4 > F
        "rank deficient": LawComponent(
            np.outer([0.5, 0.25], [1.0, -1.0, 0.5, 0.0]), 4,
            chi2_quantile(0.2, 4)),
        "d < F": LawComponent(np.array([[0.7], [-0.4]]), 1,
                              chi2_quantile(0.5, 1)),
    }
    for i, (label, comp) in enumerate(components.items()):
        law = AsymptoticLaw(base_cov=base, components=(comp,))
        draws = simulate_law(law, stream(72, 1, i), 200_000)
        np.testing.assert_array_less(np.abs(draws.mean(axis=0)), 0.01,
                                     err_msg=label)
        np.testing.assert_allclose(np.cov(draws, rowvar=False),
                                   law.covariance(), atol=0.012,
                                   err_msg=label)


def test_simulate_law_memory_is_linear_in_the_rank():
    # a 2000-dim component read through a rank-3 coefficient: the peak must
    # stay a small multiple of draws * (F + r) doubles, where a single
    # (draws, d) array would take 160 MB
    f_count, dim, draws = 3, 2_000, 10_000
    coef = stream(72, 2).standard_normal((f_count, dim)) / math.sqrt(dim)
    law = AsymptoticLaw(base_cov=np.eye(f_count), components=(
        LawComponent(coef, dim, chi2_quantile(0.5, dim)),))
    tracemalloc.start()
    try:
        sample = simulate_law(law, stream(72, 3), draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.shape == (draws, f_count)
    assert peak < 4 * draws * (f_count + 3) * 8


def test_simulate_law_peaks_at_one_sample():
    # the sampler's chunks are written into one (draws, F) array, so no
    # stacked copy doubles the peak
    f_count, draws = 31, 50_000
    coef = stream(74, 2).standard_normal((f_count, 40)) / math.sqrt(40)
    law = AsymptoticLaw(base_cov=np.eye(f_count), components=(
        LawComponent(coef, 40, chi2_quantile(0.3, 40)),))
    tracemalloc.start()
    try:
        sample = simulate_law(law, stream(74, 3), draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.shape == (draws, f_count)
    assert peak < 1.5 * sample.nbytes


# ---------------------------------------------------------------------------
# correlation profiles and variance reduction


def test_correlation_profile_known_values():
    total = np.diag([4.0, 8.0])
    w1 = np.diag([1.0, 2.0])
    w2 = np.diag([1.0, 4.0])
    profile = correlation_profile(total, [w1, w2])
    np.testing.assert_allclose(profile.per_tier,
                               [[0.25, 0.25], [0.25, 0.5]], atol=1e-14)
    np.testing.assert_allclose(profile.r_squared, [0.5, 0.75], atol=1e-14)
    np.testing.assert_allclose(profile.canonical,
                               [[0.25, 0.25], [0.5, 0.25]], atol=1e-14)
    assert profile.tier_count == 2


def test_correlation_profile_validation():
    with pytest.raises(ValidationError):
        correlation_profile(np.eye(2), [])
    with pytest.raises(ValidationError):
        correlation_profile(np.diag([1.0, 0.0]), [np.eye(2)])


def test_variance_reduction_closed_form():
    profile = CorrelationProfile(
        r_squared=np.array([0.5, 0.75]),
        per_tier=np.array([[0.25, 0.25], [0.25, 0.5]]),
        canonical=np.array([[0.25, 0.25], [0.5, 0.25]]))
    a = chi2_quantile(0.3, 4)
    v = truncation_variance_factor(4, a)
    got = variance_reduction(profile, [4, 2], [a, None])
    np.testing.assert_allclose(got, (1 - v) * profile.per_tier[0], atol=1e-14)
    assert np.all(got >= 0.0) and np.all(got < profile.r_squared)


def test_variance_reduction_validates_lengths():
    profile = correlation_profile(np.eye(2), [0.5 * np.eye(2)])
    with pytest.raises(ValidationError):
        variance_reduction(profile, [2, 2], [1.0, 1.0])


def test_commutation_gap():
    total = np.eye(2)
    w1 = np.diag([0.5, 0.1])
    w2 = np.diag([0.2, 0.3])
    assert commutation_gap(total, [w1, w2]) == pytest.approx(0.0, abs=1e-14)
    rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    w3 = rot @ np.diag([0.5, 0.0]) @ rot.T
    assert commutation_gap(total, [w1, w3]) > 0.01
    assert commutation_gap(total, [w1]) == 0.0


# ---------------------------------------------------------------------------
# quantile thresholds


def test_validate_contrast():
    c = validate_contrast(np.array([1.0, 0.0, 0.0]), 3)
    assert c.shape == (1, 3)
    with pytest.raises(ValidationError):
        validate_contrast(np.eye(3), 2)
    with pytest.raises(ValidationError):
        validate_contrast(np.zeros((4, 3)), 3)
    with pytest.raises(ValidationError):
        validate_contrast(np.array([[1.0, 0.0], [2.0, 0.0]]), 2)


def test_gaussian_quadratic_form_is_chi_square():
    law = AsymptoticLaw(base_cov=np.eye(3), components=())
    samples = quadratic_form_samples(law, np.eye(3), np.eye(3),
                                     stream(73, 0), 100_000)
    assert samples.min() >= 0.0
    for p in (0.5, 0.9, 0.95):
        assert np.quantile(samples, p) == pytest.approx(
            chi2_quantile(p, 3), abs=0.12)
    # a one-row contrast reduces to a 1-dimensional chi-square
    single = quadratic_form_samples(law, np.array([[1.0, 0.0, 0.0]]),
                                    np.eye(1), stream(73, 1), 100_000)
    assert np.quantile(single, 0.95) == pytest.approx(
        chi2_quantile(0.95, 1), abs=0.08)


def _mixed_law(rng) -> AsymptoticLaw:
    """F = 4: two truncated components (one of full rank 4 < d) and an
    untruncated one."""
    coef = [rng.standard_normal((4, d)) for d in (3, 6, 2)]
    return AsymptoticLaw(base_cov=0.3 * np.eye(4) + 0.1, components=(
        LawComponent(coef[0], 3, chi2_quantile(0.2, 3)),
        LawComponent(coef[1], 6, chi2_quantile(0.05, 6)),
        LawComponent(coef[2], 2, None)))


def test_quadratic_form_is_the_squared_norm_of_the_law_sample():
    # one sampler: with no repeated least eigenvalue to draw as a noncentral
    # chi-square, q under the identity shape is ||phi||^2 of the same draws,
    # over several chunks
    law = _mixed_law(stream(73, 12))
    draws = 20_000
    np.testing.assert_allclose(
        quadratic_form_samples(law, None, np.eye(4), stream(73, 13), draws),
        (simulate_law(law, stream(73, 13), draws) ** 2).sum(axis=1), rtol=1e-12)


def _orthonormal_rows(rng, rows, cols):
    q, _ = np.linalg.qr(rng.standard_normal((cols, rows)))
    return q.T


def _round_off_law(case, rng):
    """F = 5 laws whose factors an arbitrary eigenbasis would not pin down."""
    if case == "identity_gram":
        # coef coef' = 0.49 I, the overall component of equal group sizes
        # with an additive outcome
        return AsymptoticLaw(base_cov=0.51 * np.eye(5), components=(
            LawComponent(0.7 * _orthonormal_rows(rng, 5, 10), 10, chi2_quantile(0.05, 10)),))
    # the Gaussian part U diag(1, 1, 1, 2, 2) U' repeats 2 above its least
    # eigenvalue, and an untruncated component supplies the repeat
    u = _orthonormal_rows(rng, 5, 5).T
    return AsymptoticLaw(base_cov=u @ np.diag([1.0, 1.0, 1.0, 1.0, 2.0]) @ u.T, components=(
        LawComponent(rng.standard_normal((5, 3)) / 2.0, 3, chi2_quantile(0.3, 3)),
        LawComponent(u[:, [3]], 1, None)))


@pytest.mark.parametrize("case", ["identity_gram", "repeated_gaussian"])
def test_fixed_seed_draws_move_by_round_off_only(case):
    # a few ulps in every coefficient and cutoff move a fixed-seed sample by
    # round-off, not by a rotated factor or a resized proposal block
    rng = stream(73, 20)
    law = _round_off_law(case, rng)

    def ulps(value):
        return value * (1.0 + np.finfo(float).eps * rng.integers(-4, 5, np.shape(value)))

    moved = AsymptoticLaw(base_cov=law.base_cov, components=tuple(
        LawComponent(ulps(c.coef), c.dim, None if c.cutoff is None else float(ulps(c.cutoff)))
        for c in law.components))
    for sample in (lambda lw, r: simulate_law(lw, r, 5_000),
                   lambda lw, r: quadratic_form_samples(lw, None, np.eye(5), r, 5_000)):
        before, after = sample(law, stream(73, 21)), sample(moved, stream(73, 21))
        assert np.abs(after - before).max() <= 1e-9 * np.abs(before).max()


@pytest.mark.parametrize("entry", [np.nan, np.inf, -1.0])
def test_law_samplers_refuse_a_gaussian_part_not_finite_and_psd(entry):
    base = np.eye(3)
    base[0, 0] = entry
    law = AsymptoticLaw(base_cov=base, components=(LawComponent(np.eye(3), 3, 2.0),))
    with pytest.raises(SingularMatrixError, match="law base covariance"):
        simulate_law(law, stream(73, 22), 10)
    with pytest.raises(SingularMatrixError, match="law base covariance"):
        quadratic_form_samples(law, None, np.eye(3), stream(73, 22), 10)


TWO_ROWS = np.array([[1.0, -1.0, 0.0, 0.5], [0.0, 2.0, 1.0, 0.0]])
THREE_ROWS = np.vstack([TWO_ROWS, [0.5, 0.0, 1.0, -1.0]])


def _contrasted(mat, contrast):
    return mat if contrast is None else contrast @ mat @ contrast.T


@pytest.mark.parametrize("shaped", ["random", "base", "gaussian"])
@pytest.mark.parametrize("contrast", [None, TWO_ROWS, THREE_ROWS],
                         ids=["identity", "two_rows", "three_rows"])
def test_quadratic_form_mean_is_the_trace(contrast, shaped):
    # E[q] = tr(shape^{-1} C Sigma C') for a law with truncated and
    # untruncated components.  A random shape leaves no repeated eigenvalue
    # to draw as a noncentral chi-square; twice the Gaussian part's
    # covariance makes it s = 1/2 with F' >= 3
    rng = stream(73, 10)
    law = _mixed_law(rng)
    rows = 4 if contrast is None else contrast.shape[0]
    a = rng.standard_normal((rows, rows))
    gaussian = law.base_cov + law.components[2].coef @ law.components[2].coef.T
    shape = {"random": a @ a.T + 0.5 * np.eye(rows),
             "base": _contrasted(law.base_cov, contrast),
             "gaussian": 2.0 * _contrasted(gaussian, contrast)}[shaped]
    draws = 200_000
    q = quadratic_form_samples(law, contrast, shape, stream(73, 11), draws)
    expected = np.trace(np.linalg.solve(shape, _contrasted(law.covariance(), contrast)))
    assert abs(q.mean() - expected) <= 4.5 * q.std(ddof=1) / math.sqrt(draws)


@pytest.mark.parametrize("contrast", [None, TWO_ROWS], ids=["identity", "two_rows"])
@pytest.mark.parametrize("untruncated", [False, True], ids=["base_only", "with_component"])
def test_gaussian_law_whitened_by_its_covariance_is_chi_square(contrast, untruncated):
    # a Gaussian law standardized by its own covariance gives chi^2_F'
    # quantiles, whether the sampler draws its whitened Gaussian part M = I
    # as one chi-square (four rows) or as normals (two rows), and whether an
    # untruncated component is folded into it
    rng = stream(73, 14)
    a = rng.standard_normal((4, 4))
    components = (LawComponent(rng.standard_normal((4, 3)), 3, None),) if untruncated else ()
    law = AsymptoticLaw(base_cov=a @ a.T + 0.2 * np.eye(4), components=components)
    shape = _contrasted(law.covariance(), contrast)
    draws = 200_000
    q = quadratic_form_samples(law, contrast, shape, stream(73, 15), draws)
    df = shape.shape[0]
    for p in (0.25, 0.5, 0.9, 0.95):
        x = chi2_quantile(p, df)
        se = math.sqrt(p * (1 - p) / draws) / scipy.stats.chi2.pdf(x, df)
        assert abs(np.quantile(q, p) - x) <= 4.5 * se, p


def test_zero_base_quadratic_form_is_the_component_norm():
    # with no Gaussian base q = ||c||^2: a whitened truncated vector's
    # squared norm, which never passes the cutoff and follows the
    # truncated chi-square
    cutoff = chi2_quantile(0.3, 3)
    law = AsymptoticLaw(base_cov=np.zeros((3, 3)),
                        components=(LawComponent(2.0 * np.eye(3), 3, cutoff),))
    q = quadratic_form_samples(law, None, 4.0 * np.eye(3), stream(73, 16), 20_000)
    assert q.max() <= cutoff * (1 + 1e-12)
    mass = scipy.stats.chi2.cdf(cutoff, 3)
    result = scipy.stats.kstest(q, lambda t: scipy.stats.chi2.cdf(t, 3) / mass)
    assert result.pvalue > 0.005


def test_quadratic_form_memory_does_not_grow_with_draws():
    # F = 63 with 200k draws: one (draws, F) array would take 100 MB
    f_count, draws = 63, 200_000
    rng = stream(73, 17)
    a = rng.standard_normal((f_count, f_count))
    law = AsymptoticLaw(base_cov=np.eye(f_count), components=(
        LawComponent(rng.standard_normal((f_count, 80)), 80, chi2_quantile(0.2, 80)),))
    tracemalloc.start()
    try:
        q = quadratic_form_samples(law, None, a @ a.T + np.eye(f_count),
                                   stream(73, 18), draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.shape == (draws,)
    assert peak < 32 * 2 ** 20


def test_law_draws_are_bounded_before_sampling():
    law = AsymptoticLaw(base_cov=np.eye(2), components=())
    for draws in (0, CONTRAST_BUDGET_BYTES // 8 + 1):
        with pytest.raises(ValidationError, match="law draws"):
            quadratic_form_samples(law, None, np.eye(2), stream(73, 19), draws)


def test_quantile_thresholds_are_nested_and_scale_with_shape():
    coef = 0.7 * np.vstack([np.eye(3), np.zeros((0, 3))])
    law = AsymptoticLaw(base_cov=0.51 * np.eye(3), components=(
        LawComponent(coef, 3, chi2_quantile(0.25, 3)),))
    thr = quantile_thresholds(law, np.eye(3), np.eye(3), [0.2, 0.1, 0.05],
                              stream(73, 2), 50_000)
    assert thr[0] <= thr[1] <= thr[2]
    scaled = quantile_thresholds(law, np.eye(3), 2.0 * np.eye(3),
                                 [0.2, 0.1, 0.05], stream(73, 2), 50_000)
    np.testing.assert_allclose(scaled, thr / 2.0, rtol=1e-12)
    single = quantile_threshold(law, np.eye(3), np.eye(3), 0.1,
                                stream(73, 2), 50_000)
    assert single == pytest.approx(thr[1], rel=1e-12)


def test_quantile_thresholds_validate_alpha():
    law = AsymptoticLaw(base_cov=np.eye(2), components=())
    with pytest.raises(ValidationError):
        quantile_thresholds(law, np.eye(2), np.eye(2), [0.0],
                            stream(73, 3), 100)
    with pytest.raises(ValidationError):
        quantile_thresholds(law, np.eye(2), np.eye(2), [1.0],
                            stream(73, 3), 100)
