"""Confidence sets for factorial effects under rerandomized designs.

The set for a contrast C of the effects is the ellipsoid

    { v : (v - C tau_hat)' (C Vres C')^{-1} (v - C tau_hat) <= c },

with Vres the covariate-adjusted residual covariance estimate and c the
1-alpha quantile of the same quadratic form under the estimated asymptotic
law.  Thresholds are simulated, so the reported set carries its draw count;
with the plain-randomization criterion the construction collapses to the
usual Wald ellipsoid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotic import AsymptoticLaw, quantile_threshold, validate_contrast
from .balance import BalanceCriterion
from .design import FactorialStructure, GroupSizes
from .errors import ValidationError
from .estimate import (SampleMoments, effect_estimates, projection_coefficients,
                       residual_covariance_estimate, sample_moments)
from .linalg import sym_inverse
from .rerandomize import Assignment

#: default Monte Carlo draws for the threshold quantile
DEFAULT_LAW_DRAWS = 100_000


@dataclass(frozen=True)
class ConfidenceSet:
    """Ellipsoidal confidence set ``center + {u : u' shape^{-1} u <= threshold}``."""

    center: np.ndarray
    shape: np.ndarray
    threshold: float
    alpha: float
    draws: int

    def contains(self, point) -> bool:
        point = np.asarray(point, dtype=float)
        dev = point - self.center
        quad = dev @ sym_inverse(self.shape, name="confidence shape") @ dev
        return bool(quad <= self.threshold)

    def axis_intervals(self) -> np.ndarray:
        """(p, 2) per-coordinate projections of the ellipsoid."""
        half = np.sqrt(self.threshold * np.diag(self.shape))
        return np.column_stack([self.center - half, self.center + half])


def covariance_estimate(residual_cov: np.ndarray, components,
                        contrast: np.ndarray | None = None) -> np.ndarray:
    """Conservative covariance estimate of the contrasted effect estimator.

    Residual part plus, for each balance component, its truncation variance
    factor times the outer product of the estimated coefficient.  With no
    truncation this reduces to the classical covariate-ignoring estimate.
    """
    residual_cov = np.asarray(residual_cov, dtype=float)
    law = AsymptoticLaw(base_cov=residual_cov, components=tuple(components))
    total = law.covariance()
    if contrast is None:
        return total
    contrast = validate_contrast(contrast, total.shape[0])
    return contrast @ total @ contrast.T


def estimated_law(y_obs: np.ndarray, x: np.ndarray, assignment: Assignment,
                  structure: FactorialStructure, sizes: GroupSizes,
                  criterion: BalanceCriterion,
                  moments: SampleMoments | None = None) -> AsymptoticLaw:
    """Plug-in estimate of the asymptotic law of ``tau_hat - tau``."""
    if moments is None:
        moments = sample_moments(y_obs, x, assignment)
    base = residual_covariance_estimate(moments, structure)
    components = projection_coefficients(y_obs, x, assignment, structure, sizes,
                                         criterion, moments=moments)
    return AsymptoticLaw(base_cov=base, components=tuple(components))


def confidence_set(y_obs: np.ndarray, x: np.ndarray, assignment: Assignment,
                   structure: FactorialStructure, sizes: GroupSizes,
                   criterion: BalanceCriterion, *,
                   contrast: np.ndarray | None = None, alpha: float = 0.05,
                   rng: np.random.Generator,
                   draws: int = DEFAULT_LAW_DRAWS,
                   law: AsymptoticLaw | None = None) -> ConfidenceSet:
    """Simulated-threshold confidence set for C tau.

    Deterministic given the generator state; pass a dedicated stream when
    reproducibility matters.  ``law`` is the :func:`estimated_law` of the
    same data, built here when omitted.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    if contrast is None:
        contrast = np.eye(structure.f_count)
    contrast = validate_contrast(contrast, structure.f_count)
    if law is None:
        law = estimated_law(y_obs, x, assignment, structure, sizes, criterion)
    tau_hat = effect_estimates(y_obs, assignment, structure)
    shape = contrast @ law.base_cov @ contrast.T
    threshold = quantile_threshold(law, contrast, shape, alpha, rng, draws)
    return ConfidenceSet(center=contrast @ tau_hat, shape=shape,
                         threshold=threshold, alpha=alpha, draws=draws)
