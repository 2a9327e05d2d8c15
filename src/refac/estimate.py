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
from .balance import (BalanceCriterion, _as_columns, _group_sums, criterion_plan,
                      group_means)
from .design import FactorialStructure, GroupSizes, coefficient_gram
from .errors import ValidationError
from .linalg import guarded_eigh
from .rerandomize import Assignment


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
    y, x = np.asarray(y_obs, dtype=float), _as_columns(x)
    if y.shape[0] != x.shape[0] or y.shape[0] != assignment.n:
        raise ValidationError("outcomes, covariates and assignment must align")
    q_count, l_count = assignment.q_count, x.shape[1]
    codes = assignment.codes[None, :]
    counts = assignment.counts()
    short = np.flatnonzero(counts < l_count + 2)
    if short.size:
        raise ValidationError(
            f"group {short[0] + 1} has {counts[short[0]]} units but needs at least "
            f"{l_count + 2} for within-group moments")
    z = np.column_stack([y, x])
    means = _group_sums(z, codes, q_count)[0] / counts[:, None]
    z -= means[assignment.codes]
    cov = np.stack([_group_sums(z * column[:, None], codes, q_count)[0]
                    for column in z.T], axis=1) / (counts - 1.0)[:, None, None]
    variances, cross, covs = cov[:, 0, 0], cov[:, 0, 1:], cov[:, 1:, 1:]
    w, u = guarded_eigh(covs, name="group {} covariate covariance")
    residual = variances - (np.einsum("ql,qlm->qm", cross, u) ** 2 / w).sum(axis=1)
    floor = -1e-10 * np.maximum(1.0, variances)
    bad = np.flatnonzero(residual < floor)
    if bad.size:
        raise ValidationError(
            f"group {bad[0] + 1} residual variance is {residual[bad[0]]:.3e}; "
            "within-group covariate covariance is numerically inconsistent")
    residual = np.maximum(residual, 0.0)
    return SampleMoments(group_sizes=tuple(counts.tolist()), means=means[:, 0],
                         variances=variances, cross_cov=cross,
                         covariate_cov=covs, residual_variances=residual)


def neyman_covariance(moments: SampleMoments,
                      structure: FactorialStructure) -> np.ndarray:
    """Classical conservative covariance estimate ignoring covariates."""
    return coefficient_gram(structure, GroupSizes(moments.group_sizes), moments.variances)


def residual_covariance_estimate(moments: SampleMoments,
                                 structure: FactorialStructure) -> np.ndarray:
    """Covariance estimate built from covariate-adjusted group variances.

    This is the Gaussian-base covariance of the estimated asymptotic law;
    it is conservative for the covariate-unexplained part of the effect
    covariance.
    """
    return coefficient_gram(structure, GroupSizes(moments.group_sizes),
                            moments.residual_variances)


def projection_coefficients(y_obs: np.ndarray, x: np.ndarray,
                            assignment: Assignment,
                            structure: FactorialStructure, sizes: GroupSizes,
                            criterion: BalanceCriterion,
                            moments: SampleMoments | None = None) -> list[LawComponent]:
    """Estimated coefficient matrices of the asymptotic law's components.

    One component per balance statistic (a single untruncated one for
    complete randomization), each scaled so its zeta vector is a standard
    truncated Gaussian.  The criterion plan's law builder gets the per-group
    cross moments s_{q,e} s_ee(q)^{-1/2} of each covariate tier, which
    estimate those with the whitened covariates; they are taken from the
    unwhitened moments, since per-group roots do not commute with whitening.
    ``moments`` are the :func:`sample_moments` of ``x``, computed here when
    omitted; when the criterion splits the covariates into several tiers,
    the moments of the residualized tiers are computed here instead.
    """
    x = _as_columns(x)
    sizes.validate_for(structure)
    plan = criterion_plan(criterion, structure, sizes, x.shape[1])
    if moments is None or len(plan.covariate_partition) > 1:
        moments = sample_moments(y_obs, plan.covariates(x), assignment)
    cross = []
    for t, idx in enumerate(map(list, plan.covariate_partition.tiers)):
        w, u = guarded_eigh(moments.covariate_cov[:, idx][:, :, idx],
                            name=f"group {{}} {plan.covariate_label(t)} covariance")
        standardized = np.einsum("ql,qlm->qm", moments.cross_cov[:, idx], u) / np.sqrt(w)
        cross.append(np.einsum("qm,qlm->ql", standardized, u))
    return plan.law_components(moments.group_sizes, np.hstack(cross))
