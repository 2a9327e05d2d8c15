"""Covariate imbalance statistics and Mahalanobis balance criteria.

Three acceptance rules are supported, plus plain complete randomization:

* :class:`MahalanobisCriterion` - one Mahalanobis statistic over the whole
  stacked difference-in-means vector, accepted below a single cutoff.
* :class:`EffectTierCriterion` - effects are split into ordered tiers;
  each tier gets its own statistic (computed from blockwise-orthogonalized
  coefficients so the statistics are exactly uncorrelated) and cutoff.
* :class:`GridTierCriterion` - both covariates and effects are tiered; the
  per-cell statistics are grouped along the tier grid and each group's sum
  gets a cutoff.

All statistics are quadratic forms whose kernels factor as Kronecker
products, which is how they are computed: no stacked-dimension inverse is
ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import chisq
from .design import (CovariateTierPartition, EffectTierPartition, FactorialStructure,
                     GroupSizes, TieredCoefficients, TierGrid, coefficient_gram,
                     orthogonalize_covariates, orthogonalize_effects)
from .errors import ValidationError
from .linalg import KroneckerPSD, population_covariance, sym_inverse


@dataclass(frozen=True)
class CompleteRandomization:
    """No balance restriction: every assignment is accepted."""


@dataclass(frozen=True)
class MahalanobisCriterion:
    """Accept when the overall imbalance statistic is at most ``threshold``."""

    threshold: float

    def __post_init__(self):
        _check_threshold(self.threshold, "threshold")


@dataclass(frozen=True)
class EffectTierCriterion:
    """Accept when every effect tier's statistic is at most its threshold."""

    partition: EffectTierPartition
    thresholds: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "thresholds", tuple(float(a) for a in self.thresholds))
        if len(self.thresholds) != len(self.partition):
            raise ValidationError(
                f"{len(self.partition)} effect tiers need {len(self.partition)} "
                f"thresholds, got {len(self.thresholds)}")
        for a in self.thresholds:
            _check_threshold(a, "threshold")


@dataclass(frozen=True)
class GridTierCriterion:
    """Accept when every grid group's summed statistic is at most its threshold."""

    effect_partition: EffectTierPartition
    covariate_partition: CovariateTierPartition
    grid: TierGrid
    thresholds: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "thresholds", tuple(float(a) for a in self.thresholds))
        if len(self.thresholds) != len(self.grid):
            raise ValidationError(
                f"{len(self.grid)} grid groups need {len(self.grid)} thresholds, "
                f"got {len(self.thresholds)}")
        for a in self.thresholds:
            _check_threshold(a, "threshold")
        self.grid.validate(len(self.covariate_partition), len(self.effect_partition))


BalanceCriterion = Union[CompleteRandomization, MahalanobisCriterion,
                         EffectTierCriterion, GridTierCriterion]


def _check_threshold(a, label: str) -> None:
    a = float(a)
    if not math.isfinite(a) or a <= 0.0:
        raise ValidationError(f"{label} must be positive and finite, got {a}")


def criterion_dimensions(criterion: BalanceCriterion, structure: FactorialStructure,
                         covariate_count: int) -> np.ndarray:
    """Chi-square dimension of each statistic the criterion thresholds."""
    if covariate_count < 1:
        raise ValidationError(f"covariate count must be >= 1, got {covariate_count}")
    if isinstance(criterion, CompleteRandomization):
        return np.empty(0)
    if isinstance(criterion, MahalanobisCriterion):
        return np.array([covariate_count * structure.f_count], dtype=float)
    if isinstance(criterion, EffectTierCriterion):
        criterion.partition.validate(structure.f_count)
        return covariate_count * np.asarray(criterion.partition.sizes(), dtype=float)
    if isinstance(criterion, GridTierCriterion):
        criterion.effect_partition.validate(structure.f_count)
        criterion.covariate_partition.validate(covariate_count)
        return criterion.grid.dims(criterion.covariate_partition,
                                   criterion.effect_partition)
    raise ValidationError(f"unknown criterion {criterion!r}")


def criterion_cutoffs(criterion: BalanceCriterion) -> np.ndarray:
    if isinstance(criterion, CompleteRandomization):
        return np.empty(0)
    if isinstance(criterion, MahalanobisCriterion):
        return np.array([criterion.threshold], dtype=float)
    return np.asarray(criterion.thresholds, dtype=float)


def thresholds_from_probability(dims, probs) -> np.ndarray:
    """Cutoffs whose chi-square CDF values equal the given probabilities.

    Tier acceptance events are asymptotically independent, so the overall
    acceptance probability is the product of the entries of ``probs``.
    """
    dims = np.atleast_1d(np.asarray(dims, dtype=float))
    probs = np.atleast_1d(np.asarray(probs, dtype=float))
    if dims.shape != probs.shape:
        raise ValidationError(
            f"dims and probs must align, got {dims.shape} vs {probs.shape}")
    out = np.empty_like(probs)
    for i, (dim, p) in enumerate(zip(dims, probs)):
        if not float(dim).is_integer() or dim < 1:
            raise ValidationError(f"dimension #{i + 1} must be a positive integer, got {dim}")
        if not 0.0 < p < 1.0:
            raise ValidationError(
                f"acceptance probability #{i + 1} must lie strictly inside (0, 1), "
                f"got {p}; use complete randomization instead of p = 1")
        out[i] = chisq.chi2_quantile(float(p), int(dim))
    return out


# ---------------------------------------------------------------------------
# difference-in-means statistics


def _as_columns(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return values[:, None] if values.ndim == 1 else values


def _group_sums(values: np.ndarray, codes: np.ndarray, q_count: int) -> np.ndarray:
    """(B, Q, d) per-group column sums of ``values`` (n, d) under each row of
    ``codes`` (B, n).

    One ``bincount`` per column over the keys ``codes + Q * row`` does every
    group of every row in a single pass.
    """
    b_count = codes.shape[0]
    keys = (codes + q_count * np.arange(b_count)[:, None]).ravel()
    out = np.empty((b_count * q_count, values.shape[1]))
    for j, column in enumerate(values.T):
        out[:, j] = np.bincount(keys, weights=np.tile(column, b_count),
                                minlength=b_count * q_count)
    return out.reshape(b_count, q_count, -1)


def group_means(values: np.ndarray, codes: np.ndarray, q_count: int) -> np.ndarray:
    """Per-group means of ``values`` (n x d) under 0-based assignment codes."""
    values = _as_columns(values)
    codes = np.asarray(codes)
    if codes.shape != values.shape[:1]:
        raise ValidationError(f"{codes.size} assignment codes for {values.shape[0]} rows")
    if codes.size and (codes.min() < 0 or codes.max() >= q_count):
        raise ValidationError(f"assignment codes must lie in [0, {q_count - 1}]")
    counts = np.bincount(codes, minlength=q_count)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise ValidationError(f"assignment leaves group {empty[0] + 1} empty")
    return _group_sums(values, codes[None, :], q_count)[0] / counts[:, None]


def batch_group_means(values: np.ndarray, codes: np.ndarray,
                      sizes: GroupSizes) -> np.ndarray:
    """Group means for a whole batch of assignments.

    ``values`` is (n, d), ``codes`` is (B, n) with the fixed group counts of
    ``sizes``; returns (B, Q, d).
    """
    sums = _group_sums(_as_columns(values), np.asarray(codes), sizes.q_count)
    return sums / np.asarray(sizes.counts, dtype=float)[:, None]


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


def mahalanobis_grid(e: np.ndarray, codes: np.ndarray,
                     structure: FactorialStructure, sizes: GroupSizes,
                     tiered: TieredCoefficients,
                     covariate_partition: CovariateTierPartition,
                     grid: TierGrid) -> tuple[np.ndarray, np.ndarray]:
    """Cell statistics and grouped sums for the grid criterion.

    ``e`` must already be orthogonalized across covariate tiers.  Returns
    ``(cells, sums)`` where ``cells[t, h]`` is the statistic of covariate
    tier t against effect tier h and ``sums[j]`` adds the cells of grid
    group j.
    """
    engine = CriterionEngine(
        e, structure, sizes,
        GridTierCriterion(effect_partition=tiered.partition,
                          covariate_partition=covariate_partition,
                          grid=grid,
                          thresholds=(1.0,) * len(grid)),
        _covariates_preorthogonalized=True)
    cells = engine.grid_cells(np.asarray(codes)[None, :])[0]
    sums = np.array([sum(cells[t, h] for (t, h) in cell) for cell in grid.cells])
    return cells, sums


# ---------------------------------------------------------------------------
# batched evaluation


@dataclass(frozen=True)
class BalanceReport:
    """Balance statistics of one assignment against one criterion.

    ``values`` holds every computed statistic; ``limits`` holds the cutoff
    for each statistic that is actually thresholded (grid cells, for
    example, appear in ``values`` only).
    """

    values: dict[str, float]
    limits: dict[str, float]
    passed: bool
    acceptance_probability: float


class CriterionEngine:
    """Precomputed machinery to evaluate one criterion on assignment batches.

    Construction does all covariance and orthogonalization work once; the
    per-batch cost is one group-sum pass and a few small matmuls.  Used by the
    rerandomization loop and the simulation lab.
    """

    def __init__(self, x: np.ndarray, structure: FactorialStructure,
                 sizes: GroupSizes, criterion: BalanceCriterion, *,
                 _covariates_preorthogonalized: bool = False):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        sizes.validate_for(structure)
        if x.shape[0] != sizes.n:
            raise ValidationError(
                f"covariate rows ({x.shape[0]}) must equal the total group size "
                f"({sizes.n})")
        self.structure = structure
        self.sizes = sizes
        self.criterion = criterion
        self.covariate_count = x.shape[1]
        self._dims = criterion_dimensions(criterion, structure, x.shape[1])
        self._cutoffs = criterion_cutoffs(criterion)
        self._kind = type(criterion).__name__

        scale = structure.scale
        if isinstance(criterion, CompleteRandomization):
            self._x = x  # kept only so diff diagnostics stay possible
            self._proj = None
        elif isinstance(criterion, MahalanobisCriterion):
            self._x = x
            self._proj = scale * structure.contrasts
            self._left_inv = (sym_inverse(coefficient_gram(structure, sizes),
                                          name="coefficient Gram matrix"),)
            self._right_inv = (sym_inverse(population_covariance(x),
                                           name="covariate covariance"),)
            self._row_slices = (slice(0, structure.f_count),)
            self._col_indices = (tuple(range(x.shape[1])),)
            self._stat_cells = ((0,),)  # statistic j sums cell j only
        elif isinstance(criterion, EffectTierCriterion):
            tiered = orthogonalize_effects(structure, sizes, criterion.partition)
            self.tiered = tiered
            self._x = x
            self._proj = scale * tiered.coeffs
            self._left_inv = tuple(
                sym_inverse(b, name=f"tier {h + 1} Gram block")
                for h, b in enumerate(tiered.gram_blocks))
            self._right_inv = (sym_inverse(population_covariance(x),
                                           name="covariate covariance"),) * len(tiered.gram_blocks)
            self._row_slices = tiered.block_slices
            self._col_indices = (tuple(range(x.shape[1])),) * len(tiered.gram_blocks)
            self._stat_cells = tuple((h,) for h in range(len(tiered.gram_blocks)))
        elif isinstance(criterion, GridTierCriterion):
            criterion.covariate_partition.validate(x.shape[1])
            tiered = orthogonalize_effects(structure, sizes, criterion.effect_partition)
            self.tiered = tiered
            e = x if _covariates_preorthogonalized else orthogonalize_covariates(
                x, criterion.covariate_partition)
            self._x = e
            self._proj = scale * tiered.coeffs
            cov_tiers = criterion.covariate_partition.tiers
            tier_inv = [sym_inverse(population_covariance(e[:, list(idx)]),
                                    name=f"covariate tier {t + 1} covariance")
                        for t, idx in enumerate(cov_tiers)]
            left_inv, right_inv, rows, cols = [], [], [], []
            self._cell_pairs = []
            for t, idx in enumerate(cov_tiers):
                for h in range(len(tiered.gram_blocks)):
                    left_inv.append(sym_inverse(tiered.gram_blocks[h],
                                                name=f"tier {h + 1} Gram block"))
                    right_inv.append(tier_inv[t])
                    rows.append(tiered.block_slices[h])
                    cols.append(tuple(idx))
                    self._cell_pairs.append((t, h))
            self._left_inv = tuple(left_inv)
            self._right_inv = tuple(right_inv)
            self._row_slices = tuple(rows)
            self._col_indices = tuple(cols)
            cell_index = {pair: i for i, pair in enumerate(self._cell_pairs)}
            self._stat_cells = tuple(
                tuple(cell_index[pair] for pair in cell) for cell in criterion.grid.cells)
        else:
            raise ValidationError(f"unknown criterion {criterion!r}")

    @property
    def acceptance_probability(self) -> float:
        p = 1.0
        for dim, a in zip(self._dims, self._cutoffs):
            p *= chisq.chi2_cdf(float(a), int(dim))
        return p

    def _cell_stats(self, codes: np.ndarray) -> np.ndarray:
        """(B, n_cells) raw quadratic forms, one per (rows, cols) cell."""
        if self._proj is None:
            return np.empty((codes.shape[0], 0))
        xbar = batch_group_means(self._x, codes, self.sizes)
        # matmuls, not optimize=True einsums: those plan their contraction
        # path on every call, which costs more than small batches' arithmetic
        proj = self._proj @ xbar
        out = np.empty((codes.shape[0], len(self._row_slices)))
        for i, (li, ri, rows, cols) in enumerate(zip(
                self._left_inv, self._right_inv, self._row_slices, self._col_indices)):
            block = proj[:, rows, :]
            if len(cols) != block.shape[2]:
                block = block[:, :, list(cols)]
            out[:, i] = np.einsum("bfl,bfl->b", li @ block @ ri, block)
        return out

    def grid_cells(self, codes: np.ndarray) -> np.ndarray:
        """(B, T, H) per-cell statistics; grid criterion only."""
        if not isinstance(self.criterion, GridTierCriterion):
            raise ValidationError("grid_cells is only defined for the grid criterion")
        raw = self._cell_stats(codes)
        t_count = len(self.criterion.covariate_partition)
        h_count = len(self.criterion.effect_partition)
        cells = np.empty((codes.shape[0], t_count, h_count))
        for i, (t, h) in enumerate(self._cell_pairs):
            cells[:, t, h] = raw[:, i]
        return cells

    def statistics(self, codes: np.ndarray) -> np.ndarray:
        """(B, n_statistics) thresholded statistics for each assignment row."""
        raw = self._cell_stats(codes)
        if isinstance(self.criterion, CompleteRandomization):
            return raw
        out = np.empty((codes.shape[0], len(self._stat_cells)))
        for j, cell_ids in enumerate(self._stat_cells):
            out[:, j] = raw[:, list(cell_ids)].sum(axis=1)
        return out

    def accept(self, stats: np.ndarray) -> np.ndarray:
        """Boolean acceptance per batch row from :meth:`statistics` output."""
        if stats.shape[1] == 0:
            return np.ones(stats.shape[0], dtype=bool)
        return np.all(stats <= self._cutoffs, axis=1)

    def worst_ratio(self, stats: np.ndarray) -> np.ndarray:
        """Max statistic-to-cutoff ratio per row; 0 when nothing is thresholded."""
        if stats.shape[1] == 0:
            return np.zeros(stats.shape[0])
        return (stats / self._cutoffs).max(axis=1)

    def report(self, codes: np.ndarray) -> BalanceReport:
        """Full balance report for a single assignment."""
        codes = np.asarray(codes)
        batch = codes[None, :]
        values: dict[str, float] = {}
        limits: dict[str, float] = {}
        stats = self.statistics(batch)[0]
        if isinstance(self.criterion, CompleteRandomization):
            passed = True
        elif isinstance(self.criterion, MahalanobisCriterion):
            values["overall"] = float(stats[0])
            limits["overall"] = float(self._cutoffs[0])
            passed = stats[0] <= self._cutoffs[0]
        elif isinstance(self.criterion, EffectTierCriterion):
            for h, value in enumerate(stats):
                values[f"tier_{h + 1}"] = float(value)
                limits[f"tier_{h + 1}"] = float(self._cutoffs[h])
            passed = bool(np.all(stats <= self._cutoffs))
        else:
            cells = self.grid_cells(batch)[0]
            for (t, h) in self._cell_pairs:
                values[f"cell_{t + 1}_{h + 1}"] = float(cells[t, h])
            for j, value in enumerate(stats):
                values[f"group_{j + 1}"] = float(value)
                limits[f"group_{j + 1}"] = float(self._cutoffs[j])
            passed = bool(np.all(stats <= self._cutoffs))
        return BalanceReport(values=values, limits=limits, passed=bool(passed),
                             acceptance_probability=self.acceptance_probability)
