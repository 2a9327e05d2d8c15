"""Scalar chi-square CDF and quantile primitives.

Thin validating wrappers over scipy's regularized incomplete gamma
function (``special.gammainc``) and its inverse (``special.gammaincinv``).
"""

from __future__ import annotations

import math

from scipy import special

from .errors import ValidationError

#: absolute accuracy guaranteed for :func:`chi2_quantile`
QUANTILE_TOL = 1e-10


def chi2_cdf(x: float, df: int) -> float:
    """P(chi^2_df <= x)."""
    if df < 1:
        raise ValidationError(f"chi-square df must be >= 1, got {df}")
    if x <= 0.0:
        return 0.0
    return float(special.gammainc(0.5 * df, 0.5 * x))


def chi2_quantile(p: float, df: int) -> float:
    """Quantile of the chi-square distribution, accurate to ``QUANTILE_TOL``
    absolute.  ``p`` must lie strictly inside (0, 1); degenerate endpoints
    have no finite quantile.
    """
    if df < 1:
        raise ValidationError(f"chi-square df must be >= 1, got {df}")
    if not 0.0 < p < 1.0:
        raise ValidationError(
            f"quantile probability must lie strictly inside (0, 1), got {p}")
    return float(2.0 * special.gammaincinv(0.5 * df, p))


def truncation_variance_factor(df: int, cutoff: float | None) -> float:
    """Per-coordinate variance of a standard Gaussian vector conditioned
    on its squared norm staying at or below ``cutoff``.

    Equals ``P(chi^2_{df+2} <= cutoff) / P(chi^2_df <= cutoff)``; lies in
    (0, 1) for finite cutoffs and tends to 1 as the cutoff grows.  A
    ``None`` (or infinite) cutoff means no truncation and returns 1.
    """
    if cutoff is None or math.isinf(cutoff):
        return 1.0
    if cutoff <= 0.0:
        raise ValidationError(f"truncation cutoff must be positive, got {cutoff}")
    denominator = chi2_cdf(cutoff, df)
    if denominator <= 0.0:
        raise ValidationError(
            f"truncation cutoff {cutoff} underflows the chi-square CDF for df={df}")
    return chi2_cdf(cutoff, df + 2) / denominator
