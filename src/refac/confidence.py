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

from .asymptotic import AsymptoticLaw, quantile_threshold, validate_contrast, validate_law_draws
from .balance import BalanceCriterion
from .design import FactorialStructure, GroupSizes
from .estimate import (effect_estimates, projection_coefficients,
                       residual_covariance_estimate, sample_moments)
from .linalg import sym_inverse
from .rerandomize import Assignment

#: default Monte Carlo draws for the threshold quantile
DEFAULT_LAW_DRAWS = 100_000

#: default 1 - coverage of a confidence set
DEFAULT_ALPHA = 0.05


@dataclass(frozen=True)
class ConfidenceSet:
    """Ellipsoidal confidence set ``center + {u : u' shape^{-1} u <= threshold}``
    and the estimated ``law`` whose quantile set the threshold."""

    center: np.ndarray
    shape: np.ndarray
    threshold: float
    alpha: float
    draws: int
    law: AsymptoticLaw

    def contains(self, point) -> bool:
        point = np.asarray(point, dtype=float)
        dev = point - self.center
        quad = dev @ sym_inverse(self.shape, name="confidence shape") @ dev
        return bool(quad <= self.threshold)

    def axis_intervals(self) -> np.ndarray:
        """(p, 2) per-coordinate projections of the ellipsoid."""
        half = np.sqrt(self.threshold * np.diag(self.shape))
        return np.column_stack([self.center - half, self.center + half])


def estimated_law(y_obs: np.ndarray, x: np.ndarray, assignment: Assignment,
                  structure: FactorialStructure, sizes: GroupSizes,
                  criterion: BalanceCriterion) -> AsymptoticLaw:
    """Plug-in estimate of the asymptotic law of ``tau_hat - tau``."""
    moments = sample_moments(y_obs, x, assignment)
    base = residual_covariance_estimate(moments, structure)
    components = projection_coefficients(y_obs, x, assignment, structure, sizes,
                                         criterion, moments=moments)
    return AsymptoticLaw(base_cov=base, components=tuple(components))


def confidence_set(y_obs: np.ndarray, x: np.ndarray, assignment: Assignment,
                   structure: FactorialStructure, sizes: GroupSizes,
                   criterion: BalanceCriterion, *,
                   contrast: np.ndarray | None = None, alpha: float = DEFAULT_ALPHA,
                   rng: np.random.Generator,
                   draws: int = DEFAULT_LAW_DRAWS) -> ConfidenceSet:
    """Simulated-threshold confidence set for C tau.

    Deterministic given the generator state; pass a dedicated stream when
    reproducibility matters.  The set carries the :func:`estimated_law` it
    was calibrated on.
    """
    validate_law_draws(draws)
    if contrast is not None:
        contrast = validate_contrast(contrast, structure.f_count)
    law = estimated_law(y_obs, x, assignment, structure, sizes, criterion)
    center = effect_estimates(y_obs, assignment, structure)
    shape = law.base_cov.copy()
    if contrast is not None:  # None is the identity, never multiplied
        center, shape = contrast @ center, contrast @ shape @ contrast.T
    threshold = quantile_threshold(law, contrast, shape, alpha, rng, draws)
    return ConfidenceSet(center=center, shape=shape, threshold=threshold,
                         alpha=alpha, draws=draws, law=law)
