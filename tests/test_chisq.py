"""Scalar chi-square machinery against scipy oracles and its own contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from refac.chisq import (QUANTILE_TOL, chi2_cdf, chi2_quantile,
                         truncation_variance_factor)
from refac.errors import ValidationError

DFS = (1, 2, 3, 4, 5, 6, 8, 10, 20, 50, 100, 250)


def test_cdf_is_the_regularized_gamma_at_half_shape():
    # P(chi^2_df <= x) = P(df / 2, x / 2)
    for s in (0.5, 1.0, 1.5, 2.0, 5.0, 12.5, 50.0, 125.0):
        for x in np.linspace(1e-8, 6.0 * s, 40):
            assert chi2_cdf(2.0 * float(x), int(2 * s)) == pytest.approx(
                special.gammainc(s, x), abs=1e-13)


def test_cdf_matches_scipy_on_grid():
    worst = 0.0
    for df in DFS:
        xs = np.concatenate([np.linspace(1e-6, 5.0 * df, 60),
                             [df + 10.0 * math.sqrt(2.0 * df) + 20.0]])
        for x in xs:
            worst = max(worst, abs(chi2_cdf(float(x), df) - stats.chi2.cdf(x, df)))
    assert worst < 1e-12


def test_cdf_boundaries():
    assert chi2_cdf(0.0, 3) == 0.0
    assert chi2_cdf(-1.0, 3) == 0.0
    assert chi2_cdf(1e6, 3) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValidationError):
        chi2_cdf(1.0, 0)


def test_quantile_matches_scipy():
    for df in (1, 2, 3, 6, 10, 30, 100):
        for p in (1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 0.999999):
            assert chi2_quantile(p, df) == pytest.approx(
                stats.chi2.ppf(p, df), abs=1e-6)


def test_quantile_median_values():
    # the median of chi^2_2 is 2 ln 2; an early-exit bug in the bisection
    # once returned the initial bracket midpoint here
    assert chi2_quantile(0.5, 2) == pytest.approx(2.0 * math.log(2.0), abs=1e-8)
    assert chi2_quantile(0.5, 1) == pytest.approx(stats.chi2.ppf(0.5, 1), abs=1e-8)


def test_quantile_brackets_its_own_cdf():
    # bisection guarantee: the true quantile lies within QUANTILE_TOL
    for df in (1, 3, 6, 40):
        for p in (1e-5, 0.05, 0.5, 0.95, 0.99999):
            q = chi2_quantile(p, df)
            assert chi2_cdf(q + 2.0 * QUANTILE_TOL, df) >= p
            assert q <= 2.0 * QUANTILE_TOL or chi2_cdf(q - 2.0 * QUANTILE_TOL, df) <= p


def test_quantile_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        chi2_quantile(0.0, 3)
    with pytest.raises(ValidationError):
        chi2_quantile(1.0, 3)
    with pytest.raises(ValidationError):
        chi2_quantile(0.5, 0)


@settings(max_examples=60, deadline=None)
@given(df=st.integers(min_value=1, max_value=200),
       p=st.floats(min_value=1e-5, max_value=1.0 - 1e-5))
def test_quantile_round_trip_property(df, p):
    q = chi2_quantile(p, df)
    assert q > 0.0
    # df = 1 has unbounded density at the origin, where an absolute-x
    # bisection cannot pin the CDF much below the square root of the step
    tol = 1e-5 if df == 1 else 1e-8
    assert chi2_cdf(q, df) == pytest.approx(p, abs=tol)


@settings(max_examples=40, deadline=None)
@given(df=st.integers(min_value=1, max_value=120),
       p_lo=st.floats(min_value=0.01, max_value=0.49),
       p_hi=st.floats(min_value=0.51, max_value=0.99))
def test_quantile_monotone_in_probability(df, p_lo, p_hi):
    assert chi2_quantile(p_lo, df) < chi2_quantile(p_hi, df)


def test_variance_factor_matches_scipy_ratio():
    for df in (1, 2, 3, 6, 12, 40):
        for p in (0.001, 0.05, 0.5, 0.95):
            a = chi2_quantile(p, df)
            expected = stats.chi2.cdf(a, df + 2) / stats.chi2.cdf(a, df)
            assert truncation_variance_factor(df, a) == pytest.approx(
                expected, abs=1e-12)


def test_variance_factor_limits_and_monotonicity():
    assert truncation_variance_factor(5, None) == 1.0
    assert truncation_variance_factor(5, math.inf) == 1.0
    cuts = [chi2_quantile(p, 6) for p in (0.01, 0.1, 0.5, 0.9, 0.999)]
    vals = [truncation_variance_factor(6, a) for a in cuts]
    assert all(0.0 < v < 1.0 for v in vals)
    assert vals == sorted(vals)  # looser cutoff keeps more variance
    assert vals[-1] > 0.99


def test_variance_factor_rejects_bad_cutoffs():
    with pytest.raises(ValidationError):
        truncation_variance_factor(3, 0.0)
    with pytest.raises(ValidationError):
        truncation_variance_factor(3, -1.0)
    with pytest.raises(ValidationError):
        truncation_variance_factor(400, 1e-280)  # CDF underflows to zero
