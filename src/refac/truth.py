"""Ground-truth sampling moments from complete potential-outcome tables.

Only a simulation can see every potential outcome; these helpers exist so
the simulation lab and the test suite can compare estimators and
asymptotic predictions against exact finite-population quantities.
Experiments on real data use :mod:`refac.estimate` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotic import AsymptoticLaw, CorrelationProfile
from .balance import BalanceCriterion, _as_columns, criterion_plan, stacked_cross
from .design import FactorialStructure, GroupSizes, coefficient_gram
from .errors import ValidationError
from .linalg import KroneckerPSD, population_covariance, sym_inverse


def _check_tables(x: np.ndarray, potential: np.ndarray,
                  structure: FactorialStructure, sizes: GroupSizes) -> tuple[np.ndarray, np.ndarray]:
    x = _as_columns(x)
    potential = np.asarray(potential, dtype=float)
    sizes.validate_for(structure)
    if potential.ndim != 2 or potential.shape[1] != structure.q_count:
        raise ValidationError(
            f"potential outcomes must be n x {structure.q_count}, got {potential.shape}")
    if potential.shape[0] != x.shape[0]:
        raise ValidationError("covariates and potential outcomes must align")
    if potential.shape[0] != sizes.n:
        raise ValidationError(
            f"population has {potential.shape[0]} units but group sizes sum to {sizes.n}")
    return x, potential


def _effect_cov_from_potentials(potential: np.ndarray, structure: FactorialStructure,
                                sizes: GroupSizes) -> np.ndarray:
    """Exact sampling covariance of the effect estimator for one potential table."""
    g = structure.contrasts
    syy = population_covariance(potential)
    s_tau = structure.scale ** 2 * (g @ syy @ g.T)
    return coefficient_gram(structure, sizes, np.diag(syy)) - s_tau / sizes.n


@dataclass(frozen=True)
class PopulationTruth:
    """Exact finite-population quantities for one potential-outcome table."""

    structure: FactorialStructure
    sizes: GroupSizes
    tau: np.ndarray
    total_cov: np.ndarray
    explained_cov: np.ndarray
    residual_cov: np.ndarray
    cross_cov: np.ndarray          # (F, F * L) stacked, effect-major
    gram: np.ndarray               # effect-side Kronecker factor
    covariate_cov: np.ndarray      # finite-population S_xx
    r_squared: np.ndarray

    @property
    def covariate_count(self) -> int:
        return self.covariate_cov.shape[0]

    def imbalance(self) -> KroneckerPSD:
        return KroneckerPSD(self.gram, self.covariate_cov,
                            name="imbalance covariance")


def population_truth(x: np.ndarray, potential: np.ndarray,
                     structure: FactorialStructure,
                     sizes: GroupSizes) -> PopulationTruth:
    """Exact effect, covariance, and covariate-projection quantities.

    The explained covariance is computed from the projected potential
    outcomes (unit-level linear fits on the covariates); the identity with
    the cross-covariance route is exercised in the tests rather than
    assumed here.
    """
    x, potential = _check_tables(x, potential, structure, sizes)
    g = structure.contrasts
    tau = structure.scale * g @ potential.mean(axis=0)
    total = _effect_cov_from_potentials(potential, structure, sizes)

    sxx = population_covariance(x)
    sqx = population_covariance(potential, x)          # (Q, L)
    cross = stacked_cross(structure, sizes.counts, g, sqx).reshape(structure.f_count, -1)

    centered_x = x - x.mean(axis=0)
    projected = potential.mean(axis=0) + centered_x @ sym_inverse(
        sxx, name="covariate covariance") @ sqx.T
    explained = _effect_cov_from_potentials(projected, structure, sizes)
    residual = _effect_cov_from_potentials(potential - projected, structure, sizes)

    diag = np.diag(total)
    if np.any(diag <= 0.0):
        raise ValidationError("degenerate design: an effect has zero sampling variance")
    return PopulationTruth(
        structure=structure, sizes=sizes, tau=tau, total_cov=total,
        explained_cov=explained, residual_cov=residual, cross_cov=cross,
        gram=coefficient_gram(structure, sizes), covariate_cov=sxx,
        r_squared=np.diag(explained) / diag)


# ---------------------------------------------------------------------------
# profiles and exact asymptotic laws


def criterion_profile(x: np.ndarray, potential: np.ndarray,
                      structure: FactorialStructure, sizes: GroupSizes,
                      criterion: BalanceCriterion) -> CorrelationProfile:
    """Correlation profile with one component per balance statistic."""
    truth = population_truth(x, potential, structure, sizes)
    law = law_from_truth(x, potential, structure, sizes, criterion, truth=truth)
    return law.profile(truth.total_cov)


def law_from_truth(x: np.ndarray, potential: np.ndarray,
                   structure: FactorialStructure, sizes: GroupSizes,
                   criterion: BalanceCriterion,
                   truth: PopulationTruth | None = None) -> AsymptoticLaw:
    """Exact asymptotic law of the centered effect estimator.

    The criterion plan's law builder gets the population cross-covariances
    of the outcomes with the plan's whitened covariates
    (:meth:`~refac.balance.CriterionPlan.whiten`), so each component's
    coefficients are cross covariances in the whitened metric; the
    simulated law does not depend on that choice of root.  ``truth`` is the
    :func:`population_truth` of the same tables, computed when omitted.
    """
    x, potential = _check_tables(x, potential, structure, sizes)
    if truth is None:
        truth = population_truth(x, potential, structure, sizes)
    plan = criterion_plan(criterion, structure, sizes, x.shape[1])
    components = plan.law_components(
        sizes.counts, population_covariance(potential, plan.whiten(x)))
    return AsymptoticLaw(base_cov=truth.residual_cov, components=tuple(components))
