"""Reference implementations the tests hold the engine and the laws against:
dense difference-in-means vectors, Kronecker quadratic forms and regression
shares, independent of the criterion plan's whitened kernel."""

from __future__ import annotations

import numpy as np

from refac.asymptotic import CorrelationProfile, correlation_profile
from refac.balance import group_means
from refac.design import (FactorialStructure, GroupSizes, TieredCoefficients,
                          coefficient_gram)
from refac.linalg import KroneckerPSD, sym_inverse
from refac.truth import PopulationTruth


def covariate_diff_in_means(x: np.ndarray, codes: np.ndarray,
                            structure: FactorialStructure) -> np.ndarray:
    """Stacked difference-in-means vector of the covariates.

    Entry block f (length L) is the estimated "effect" of the design on
    each covariate, stacked effect by effect in the structure's order.
    """
    xbar = group_means(x, codes, structure.q_count)
    return (structure.scale * structure.contrasts @ xbar).reshape(-1)


def orthogonalized_diff_in_means(x: np.ndarray, codes: np.ndarray,
                                 structure: FactorialStructure,
                                 tiered: TieredCoefficients) -> np.ndarray:
    """Stacked difference-in-means built from tier-orthogonalized coefficients.

    Blocks follow the tier order of ``tiered``; with equal group sizes this
    is just a row reordering of :func:`covariate_diff_in_means`.
    """
    xbar = group_means(x, codes, structure.q_count)
    return (structure.scale * tiered.coeffs @ xbar).reshape(-1)


def imbalance_covariance(structure: FactorialStructure, sizes: GroupSizes,
                         covariate_cov: np.ndarray) -> KroneckerPSD:
    """Sampling covariance of the stacked difference-in-means vector.

    Kronecker product of the coefficient Gram matrix (effect side) and the
    finite-population covariate covariance; kept in factored form so the
    inverse and inverse square root never touch the stacked dimension.
    """
    return KroneckerPSD(coefficient_gram(structure, sizes),
                        np.asarray(covariate_cov, dtype=float),
                        name="imbalance covariance")


def mahalanobis_overall(diffs: np.ndarray, imbalance: KroneckerPSD) -> float:
    """Overall Mahalanobis imbalance statistic."""
    return float(imbalance.inv_quadform(diffs))


def mahalanobis_effect_tiers(theta: np.ndarray, tiered: TieredCoefficients,
                             covariate_cov: np.ndarray) -> np.ndarray:
    """Per-tier Mahalanobis statistics from orthogonalized differences.

    ``theta`` is the output of :func:`orthogonalized_diff_in_means`.  The
    statistics are exactly uncorrelated across tiers by construction of the
    orthogonalized coefficients.
    """
    cov = np.asarray(covariate_cov, dtype=float)
    l_count = cov.shape[0]
    stats = np.empty(tiered.tier_count)
    for h, (block, s) in enumerate(zip(tiered.gram_blocks, tiered.block_slices)):
        piece = np.asarray(theta)[s.start * l_count:s.stop * l_count]
        stats[h] = KroneckerPSD(block, cov, name=f"tier {h + 1} imbalance covariance"
                                ).inv_quadform(piece)
    return stats


def pairwise_explained(truth: PopulationTruth) -> np.ndarray:
    """Squared multiple correlation of each effect with each effect's
    covariate difference-in-means block: entry (f, k) regresses effect f on
    the k-th block of the stacked covariate contrasts."""
    f_count = truth.structure.f_count
    l_count = truth.covariate_count
    sxx_inv = sym_inverse(truth.covariate_cov, name="covariate covariance")
    out = np.empty((f_count, f_count))
    diag = np.diag(truth.total_cov)
    for k in range(f_count):
        block = truth.cross_cov[:, k * l_count:(k + 1) * l_count]
        quad = np.einsum("fl,lm,fm->f", block, sxx_inv, block)
        out[:, k] = quad / (truth.gram[k, k] * diag)
    return out


def overall_profile(truth: PopulationTruth) -> CorrelationProfile:
    return correlation_profile(truth.total_cov, [truth.explained_cov])
