"""Point estimates and sample-moment covariance estimators.

Everything here sees only one realized assignment and the observed
outcomes.  Group moments use the n_q - 1 divisor; the residual variance of
each group subtracts the within-group least-squares fit on the covariates
and is the conservative core of every covariance estimate downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotic import LawComponent
from .balance import (BalanceCriterion, CompleteRandomization, EffectTierCriterion,
                      GridTierCriterion, MahalanobisCriterion, group_means)
from .design import FactorialStructure, GroupSizes, orthogonalize_covariates, orthogonalize_effects
from .errors import ValidationError
from .linalg import population_covariance, sym_inv_sqrt, sym_inverse, sym_sqrt
from .rerandomize import Assignment


@dataclass(frozen=True)
class EffectEstimate:
    """Estimated factorial effects, one entry per effect in structure order."""

    effects: np.ndarray
    names: tuple[str, ...]
    covariance: np.ndarray | None = None


@dataclass(frozen=True)
class SampleMoments:
    """Within-group sample moments of outcome and covariates.

    ``residual_variances[q]`` is the outcome variance in group q after
    removing the within-group linear fit on the covariates, floored at
    zero against round-off.
    """

    group_sizes: tuple[int, ...]
    means: np.ndarray
    variances: np.ndarray
    cross_cov: np.ndarray
    covariate_cov: np.ndarray
    residual_variances: np.ndarray

    @property
    def q_count(self) -> int:
        return len(self.group_sizes)


def effect_estimates(y_obs: np.ndarray, assignment: Assignment,
                     structure: FactorialStructure) -> np.ndarray:
    """Difference-in-means estimate of every factorial effect."""
    y = np.asarray(y_obs, dtype=float)
    if y.ndim != 1:
        raise ValidationError(f"outcomes must be a vector, got shape {y.shape}")
    if assignment.q_count != structure.q_count:
        raise ValidationError(
            f"assignment has {assignment.q_count} groups, design has {structure.q_count}")
    ybar = group_means(y, assignment.codes, structure.q_count)[:, 0]
    return structure.scale * structure.contrasts @ ybar


def sample_moments(y_obs: np.ndarray, x: np.ndarray,
                   assignment: Assignment) -> SampleMoments:
    """Per-group means, variances, and covariate (cross-)covariances.

    Requires every group to hold at least L + 2 units so the within-group
    covariate covariance can be inverted with a degree of freedom to spare.
    """
    y = np.asarray(y_obs, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if y.shape[0] != x.shape[0] or y.shape[0] != assignment.n:
        raise ValidationError("outcomes, covariates and assignment must align")
    q_count = assignment.q_count
    l_count = x.shape[1]
    sizes, means = [], np.empty(q_count)
    variances = np.empty(q_count)
    cross = np.empty((q_count, l_count))
    covs = np.empty((q_count, l_count, l_count))
    residual = np.empty(q_count)
    for q in range(q_count):
        mask = assignment.codes == q
        count = int(mask.sum())
        if count < l_count + 2:
            raise ValidationError(
                f"group {q + 1} has {count} units but needs at least "
                f"{l_count + 2} for within-group moments")
        sizes.append(count)
        yq, xq = y[mask], x[mask]
        means[q] = yq.mean()
        variances[q] = population_covariance(yq)[0, 0]
        cross[q] = population_covariance(yq, xq)[0]
        covs[q] = population_covariance(xq)
        fit = cross[q] @ sym_inverse(
            covs[q], name=f"group {q + 1} covariate covariance") @ cross[q]
        residual[q] = variances[q] - fit
        floor = -1e-10 * max(1.0, variances[q])
        if residual[q] < floor:
            raise ValidationError(
                f"group {q + 1} residual variance is {residual[q]:.3e}; "
                "within-group covariate covariance is numerically inconsistent")
        residual[q] = max(residual[q], 0.0)
    return SampleMoments(group_sizes=tuple(sizes), means=means,
                         variances=variances, cross_cov=cross,
                         covariate_cov=covs, residual_variances=residual)


def _weighted_outer(structure: FactorialStructure, sizes: tuple[int, ...],
                    per_group: np.ndarray) -> np.ndarray:
    # 4^{1-K} * sum_q per_group[q] / n_q * b_q b_q'
    g = structure.contrasts
    weights = np.asarray(per_group, dtype=float) / np.asarray(sizes, dtype=float)
    return 4.0 ** (1 - structure.k) * ((g * weights) @ g.T)


def neyman_covariance(moments: SampleMoments,
                      structure: FactorialStructure) -> np.ndarray:
    """Classical conservative covariance estimate ignoring covariates."""
    return _weighted_outer(structure, moments.group_sizes, moments.variances)


def residual_covariance_estimate(moments: SampleMoments,
                                 structure: FactorialStructure) -> np.ndarray:
    """Covariance estimate built from covariate-adjusted group variances.

    This is the Gaussian-base covariance of the estimated asymptotic law;
    it is conservative for the covariate-unexplained part of the effect
    covariance.
    """
    return _weighted_outer(structure, moments.group_sizes,
                           moments.residual_variances)


def _standardized_cross(cross: np.ndarray, within: np.ndarray,
                        target_cov: np.ndarray, *, label: str) -> np.ndarray:
    """Rows u_q = s_{q,x} s_xx(q)^{-1/2} S_xx^{1/2}: per-group cross moments
    standardized by the group and re-scaled to the population metric."""
    target_root = sym_sqrt(target_cov, name=f"{label} covariance")
    out = np.empty_like(cross)
    for q in range(cross.shape[0]):
        inv_root = sym_inv_sqrt(within[q], name=f"group {q + 1} {label} covariance")
        out[q] = cross[q] @ inv_root @ target_root
    return out


def _stacked_cross_covariance(structure: FactorialStructure,
                              sizes: tuple[int, ...], left_rows: np.ndarray,
                              std_cross: np.ndarray) -> np.ndarray:
    """4^{1-K} sum_q n_q^{-1} (b_q c_q') x u_q, flattened to (F, cols * L)."""
    g = structure.contrasts
    weights = 1.0 / np.asarray(sizes, dtype=float)
    blocks = np.einsum("fq,gq,ql->fgl", g * weights, left_rows, std_cross,
                       optimize=True)
    return 4.0 ** (1 - structure.k) * blocks.reshape(structure.f_count, -1)


def projection_coefficients(y_obs: np.ndarray, x: np.ndarray,
                            assignment: Assignment,
                            structure: FactorialStructure, sizes: GroupSizes,
                            criterion: BalanceCriterion,
                            moments: SampleMoments | None = None) -> list[LawComponent]:
    """Estimated coefficient matrices of the asymptotic law's components.

    One component per balance statistic (a single untruncated one for
    complete randomization), each scaled so its zeta vector is a standard
    truncated Gaussian.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    sizes.validate_for(structure)
    from .balance import criterion_cutoffs  # local import keeps module load light

    if isinstance(criterion, (CompleteRandomization, MahalanobisCriterion)):
        if moments is None:
            moments = sample_moments(y_obs, x, assignment)
        target = population_covariance(x)
        std = _standardized_cross(moments.cross_cov, moments.covariate_cov,
                                  target, label="covariate")
        stacked = _stacked_cross_covariance(structure, moments.group_sizes,
                                            structure.contrasts, std)
        from .balance import imbalance_covariance
        kron = imbalance_covariance(structure, sizes, target)
        coef = stacked @ kron.inv_sqrt_dense()
        cutoff = None if isinstance(criterion, CompleteRandomization) else criterion.threshold
        return [LawComponent(coef=coef, dim=coef.shape[1], cutoff=cutoff)]

    if isinstance(criterion, EffectTierCriterion):
        if moments is None:
            moments = sample_moments(y_obs, x, assignment)
        tiered = orthogonalize_effects(structure, sizes, criterion.partition)
        target = population_covariance(x)
        std = _standardized_cross(moments.cross_cov, moments.covariate_cov,
                                  target, label="covariate")
        right_isqrt = sym_inv_sqrt(target, name="covariate covariance")
        components = []
        for h, (block, s) in enumerate(zip(tiered.gram_blocks, tiered.block_slices)):
            stacked = _stacked_cross_covariance(structure, moments.group_sizes,
                                                tiered.coeffs[s], std)
            left_isqrt = sym_inv_sqrt(block, name=f"tier {h + 1} Gram block")
            coef = stacked @ np.kron(left_isqrt, right_isqrt)
            components.append(LawComponent(coef=coef, dim=coef.shape[1],
                                           cutoff=criterion.thresholds[h]))
        return components

    if isinstance(criterion, GridTierCriterion):
        e = orthogonalize_covariates(x, criterion.covariate_partition)
        moments_e = sample_moments(y_obs, e, assignment)
        tiered = orthogonalize_effects(structure, sizes, criterion.effect_partition)
        cov_tiers = criterion.covariate_partition.tiers
        # per covariate tier: standardized cross moments and population isqrt
        std_by_tier, isqrt_by_tier = {}, {}
        for t, idx in enumerate(cov_tiers):
            idx = list(idx)
            target = population_covariance(e[:, idx])
            within = moments_e.covariate_cov[:, :, idx][:, idx, :]
            std_by_tier[t] = _standardized_cross(moments_e.cross_cov[:, idx],
                                                 within, target,
                                                 label=f"covariate tier {t + 1}")
            isqrt_by_tier[t] = sym_inv_sqrt(target,
                                            name=f"covariate tier {t + 1} covariance")
        left_isqrts = [sym_inv_sqrt(b, name=f"tier {h + 1} Gram block")
                       for h, b in enumerate(tiered.gram_blocks)]
        components = []
        for j, cell in enumerate(criterion.grid.cells):
            pieces = []
            for (t, h) in cell:
                s = tiered.block_slices[h]
                stacked = _stacked_cross_covariance(
                    structure, moments_e.group_sizes, tiered.coeffs[s], std_by_tier[t])
                pieces.append(stacked @ np.kron(left_isqrts[h], isqrt_by_tier[t]))
            coef = np.hstack(pieces)
            components.append(LawComponent(coef=coef, dim=coef.shape[1],
                                           cutoff=criterion_cutoffs(criterion)[j]))
        return components

    raise ValidationError(f"unknown criterion {criterion!r}")
