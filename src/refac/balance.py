"""Covariate imbalance statistics and Mahalanobis balance criteria.

Every criterion is a grid of (covariate tier, effect tier) cells.  Effects
and covariates are split into ordered tiers, most important first; effect
tiers are orthogonalized blockwise (:func:`orthogonalize_effects`) and
covariate tiers residualized on the earlier ones
(:func:`orthogonalize_covariates`), so each cell (t, h) has its own
Mahalanobis statistic and the cell statistics are asymptotically
independent.  A criterion groups the cells, sums the statistics of each
group and puts a cutoff on each sum; each group adds one truncated-Gaussian
component to the asymptotic law.

* :class:`CompleteRandomization` - the 1 x 1 grid, with no cutoff.
* :class:`MahalanobisCriterion` - the 1 x 1 grid: one tier of all effects in
  structure order against one tier of all covariates, under one cutoff.
* :class:`EffectTierCriterion` - the 1 x H grid, one cutoff per effect tier.
* :class:`GridTierCriterion` - the T x H grid, grouped by a :class:`TierGrid`
  with one cutoff per group; its T x 1 case is Morgan & Rubin's (2015, JASA,
  "Rerandomization to balance tiers of covariates") tiers of covariates.

:func:`criterion_plan` compiles a criterion into this grid once; the
batched engine, the two asymptotic-law builders (:mod:`refac.truth` and
:mod:`refac.estimate`) and the theory profiles read the plan.  The plan
also owns the metric: it whitens each covariate tier by its covariance and
each effect tier's rows by its Gram block, so a cell statistic is a squared
norm and a law component a cross covariance; no stacked-dimension matrix is
ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import chisq
from .asymptotic import LawComponent
from .design import (CovariateTierPartition, EffectTierPartition, FactorialStructure,
                     GroupSizes, TieredCoefficients, TierGrid, orthogonalize_covariates,
                     orthogonalize_effects)
from .errors import ValidationError
from .linalg import population_covariance, sym_inv_sqrt


@dataclass(frozen=True)
class CompleteRandomization:
    """No balance restriction: every assignment is accepted."""

    thresholds = ()


@dataclass(frozen=True)
class MahalanobisCriterion:
    """Accept when the overall imbalance statistic is at most ``threshold``."""

    threshold: float

    def __post_init__(self):
        _check_threshold(self.threshold, "threshold")

    @property
    def thresholds(self) -> tuple[float, ...]:
        return (float(self.threshold),)


@dataclass(frozen=True)
class EffectTierCriterion:
    """Accept when every effect tier's statistic is at most its threshold."""

    partition: EffectTierPartition
    thresholds: tuple[float, ...]

    def __post_init__(self):
        _set_thresholds(self, len(self.partition), "effect tiers")


@dataclass(frozen=True)
class GridTierCriterion:
    """Accept when every grid group's summed statistic is at most its threshold."""

    effect_partition: EffectTierPartition
    covariate_partition: CovariateTierPartition
    grid: TierGrid
    thresholds: tuple[float, ...]

    def __post_init__(self):
        _set_thresholds(self, len(self.grid), "grid groups")
        self.grid.validate(len(self.covariate_partition), len(self.effect_partition))


BalanceCriterion = Union[CompleteRandomization, MahalanobisCriterion,
                         EffectTierCriterion, GridTierCriterion]


def _check_threshold(a, label: str) -> None:
    a = float(a)
    if not math.isfinite(a) or a <= 0.0:
        raise ValidationError(f"{label} must be positive and finite, got {a}")


def _set_thresholds(criterion, count: int, what: str) -> None:
    """Store ``criterion.thresholds`` as floats: one per each of ``count``
    ``what``, each positive and finite."""
    thresholds = tuple(float(a) for a in criterion.thresholds)
    if len(thresholds) != count:
        raise ValidationError(f"{count} {what} need {count} thresholds, got {len(thresholds)}")
    for a in thresholds:
        _check_threshold(a, "threshold")
    object.__setattr__(criterion, "thresholds", thresholds)


# ---------------------------------------------------------------------------
# the criterion plan


@dataclass(frozen=True, eq=False)
class CriterionPlan:
    """A balance criterion compiled into its grid of tier cells.

    ``cells`` lists every (covariate tier t, effect tier h) pair, t major.
    ``groups[j]`` holds the indices into ``cells`` whose statistics add up
    to statistic j, which is also component j of the asymptotic law:
    ``cutoffs[j]`` is its threshold (``None`` leaves it untruncated) and
    ``dims[j]`` its chi-square dimension.  ``labels`` name the thresholded
    statistics in balance reports and ``cell_labels`` the reported cells.
    """

    structure: FactorialStructure
    sizes: GroupSizes | None
    effect_partition: EffectTierPartition
    covariate_partition: CovariateTierPartition
    cells: tuple[tuple[int, int], ...]
    groups: tuple[tuple[int, ...], ...]
    cutoffs: tuple[float | None, ...]
    dims: tuple[int, ...]
    labels: tuple[str, ...]
    cell_labels: tuple[str, ...]

    @property
    def tiered(self) -> TieredCoefficients:
        """The orthogonalized effect tiers; needs the group sizes.  Like
        :attr:`whitened_rows`, it is built on each read, so an engine's plan
        keeps no F x Q copy."""
        if self.sizes is None:
            raise ValidationError("effect tiers need the group sizes")
        return orthogonalize_effects(self.structure, self.sizes, self.effect_partition)

    @property
    def limits(self) -> np.ndarray:
        """Cutoff of each thresholded statistic."""
        return np.array([a for a in self.cutoffs if a is not None], dtype=float)

    @property
    def limit_dims(self) -> np.ndarray:
        """Chi-square dimension of each thresholded statistic."""
        return np.array([d for d, a in zip(self.dims, self.cutoffs) if a is not None],
                        dtype=float)

    def covariate_label(self, t: int) -> str:
        return "covariate" if len(self.covariate_partition) == 1 else \
            f"covariate tier {t + 1}"

    def covariates(self, x: np.ndarray) -> np.ndarray:
        """``x`` with each covariate tier residualized on the earlier ones."""
        return orthogonalize_covariates(_as_columns(x), self.covariate_partition)

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """:meth:`covariates` with its columns in tier order, each tier
        multiplied by the inverse square root of its own covariance."""
        e = self.covariates(x)
        blocks = [e[:, list(idx)] for idx in self.covariate_partition.tiers]
        return np.hstack([
            block @ sym_inv_sqrt(population_covariance(block),
                                 name=f"{self.covariate_label(t)} covariance")
            for t, block in enumerate(blocks)])

    @property
    def whitened_rows(self) -> np.ndarray:
        """``tiered.coeffs`` with each effect tier's rows multiplied by the
        inverse square root of its Gram block."""
        tiered = self.tiered
        return np.vstack([
            sym_inv_sqrt(block, name=f"tier {h + 1} Gram block") @ tiered.coeffs[rows]
            for h, (block, rows) in enumerate(zip(tiered.gram_blocks, tiered.block_slices))])

    def law_components(self, group_sizes, cross_rows) -> list[LawComponent]:
        """One asymptotic-law component per group of cells.

        ``cross_rows`` (Q x L) holds the per-group cross moments of the
        outcome with the covariates in the whitened metric, columns in the
        tier order of :meth:`whiten`.  Cell (t, h) contributes the stacked
        cross covariance of effect tier h's :attr:`whitened_rows` with the
        columns of covariate tier t.
        """
        cross = stacked_cross(self.structure, group_sizes, self.whitened_rows, cross_rows)
        rows, cols = self.effect_partition.slices(), self.covariate_partition.slices()
        pieces = [cross[:, rows[h], cols[t]].reshape(cross.shape[0], -1)
                  for t, h in self.cells]
        components = []
        for group, cutoff in zip(self.groups, self.cutoffs):
            coef = np.hstack([pieces[i] for i in group])
            components.append(LawComponent(coef=coef, dim=coef.shape[1], cutoff=cutoff))
        return components


def criterion_plan(criterion: BalanceCriterion, structure: FactorialStructure,
                   sizes: GroupSizes | None, covariate_count: int) -> CriterionPlan:
    """Compile ``criterion`` into its grid of (covariate tier, effect tier) cells.

    This is the one place that tells the criterion kinds apart.  Without
    ``sizes`` the plan has no effect orthogonalization, which its
    dimensions, cutoffs, labels and covariates do not need.
    """
    if covariate_count < 1:
        raise ValidationError(f"covariate count must be >= 1, got {covariate_count}")
    effects = EffectTierPartition((tuple(range(structure.f_count)),))
    covariates = CovariateTierPartition((tuple(range(covariate_count)),))
    report_cells = False
    if isinstance(criterion, CompleteRandomization):
        groups, labels = (((0, 0),),), ()
    elif isinstance(criterion, MahalanobisCriterion):
        groups, labels = (((0, 0),),), ("overall",)
    elif isinstance(criterion, EffectTierCriterion):
        effects = criterion.partition
        groups = tuple(((0, h),) for h in range(len(effects)))
        labels = tuple(f"tier_{h + 1}" for h in range(len(effects)))
    elif isinstance(criterion, GridTierCriterion):
        effects, covariates = criterion.effect_partition, criterion.covariate_partition
        groups = criterion.grid.cells
        labels = tuple(f"group_{j + 1}" for j in range(len(groups)))
        report_cells = True
    else:
        raise ValidationError(f"unknown criterion {criterion!r}")
    effects.validate(structure.f_count)
    covariates.validate(covariate_count)
    cells = tuple((t, h) for t in range(len(covariates)) for h in range(len(effects)))
    index = {cell: i for i, cell in enumerate(cells)}
    return CriterionPlan(
        structure=structure, sizes=sizes, effect_partition=effects,
        covariate_partition=covariates, cells=cells,
        groups=tuple(tuple(index[cell] for cell in group) for group in groups),
        cutoffs=criterion.thresholds or (None,),
        dims=tuple(int(d) for d in TierGrid(groups).dims(covariates, effects)),
        labels=labels,
        cell_labels=tuple(f"cell_{t + 1}_{h + 1}" for t, h in cells) if report_cells else ())


def criterion_dimensions(criterion: BalanceCriterion, structure: FactorialStructure,
                         covariate_count: int) -> np.ndarray:
    """Chi-square dimension of each statistic the criterion thresholds."""
    return criterion_plan(criterion, structure, None, covariate_count).limit_dims


def criterion_cutoffs(criterion: BalanceCriterion) -> np.ndarray:
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
            hint = "; use complete randomization instead of p = 1" if p >= 1.0 else ""
            raise ValidationError(
                f"acceptance probability #{i + 1} must lie strictly inside (0, 1), "
                f"got {p}{hint}")
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


def stacked_cross(structure: FactorialStructure, group_sizes, left_rows: np.ndarray,
                  cross_rows: np.ndarray) -> np.ndarray:
    """(F, rows, L) covariances of the effect estimates with the
    difference-in-means of the covariates under the coefficient rows
    ``left_rows``: 4^{1-K} sum_q n_q^{-1} b_q (left_rows[:, q] x cross_rows[q]),
    where ``cross_rows`` (Q x L) holds per-group outcome-covariate cross
    moments."""
    weights = 1.0 / np.asarray(group_sizes, dtype=float)
    rows = (left_rows.T[:, :, None] * cross_rows[:, None, :]).reshape(weights.size, -1)
    blocks = (structure.contrasts * weights) @ rows
    return 4.0 ** (1 - structure.k) * blocks.reshape(blocks.shape[0], left_rows.shape[0], -1)


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

    Construction does all covariance and orthogonalization work once, from
    the criterion's plan; the per-batch cost is one group-sum pass and one
    matmul in the whitened metric, then a sum of squares per grid cell.
    Used by the rerandomization loop and the simulation lab.
    """

    def __init__(self, x: np.ndarray, structure: FactorialStructure,
                 sizes: GroupSizes, criterion: BalanceCriterion):
        x = _as_columns(x)
        sizes.validate_for(structure)
        if x.shape[0] != sizes.n:
            raise ValidationError(
                f"covariate rows ({x.shape[0]}) must equal the total group size "
                f"({sizes.n})")
        self.structure = structure
        self.sizes = sizes
        self.criterion = criterion
        self.plan = plan = criterion_plan(criterion, structure, sizes, x.shape[1])
        self._dims = plan.limit_dims
        self._cutoffs = plan.limits
        self._groups = [list(cells) for cells, cutoff in zip(plan.groups, plan.cutoffs)
                        if cutoff is not None]
        if not self._groups:  # complete randomization thresholds nothing
            self._proj = None
            return
        self._z = plan.whiten(x)
        self._proj = structure.scale * plan.whitened_rows
        self._row_starts = [rows.start for rows in plan.effect_partition.slices()]
        self._col_starts = [cols.start for cols in plan.covariate_partition.slices()]

    @property
    def acceptance_probability(self) -> float:
        p = 1.0
        for dim, a in zip(self._dims, self._cutoffs):
            p *= chisq.chi2_cdf(float(a), int(dim))
        return p

    def _cell_stats(self, codes: np.ndarray) -> np.ndarray:
        """(B, n_cells) sums of squared whitened projections over each cell."""
        if self._proj is None:
            return np.empty((codes.shape[0], 0))
        proj = self._proj @ batch_group_means(self._z, codes, self.sizes)
        by_rows = np.add.reduceat(proj * proj, self._row_starts, axis=1)
        cells = np.add.reduceat(by_rows, self._col_starts, axis=2)
        return cells.transpose(0, 2, 1).reshape(codes.shape[0], -1)

    def _sum_groups(self, raw: np.ndarray) -> np.ndarray:
        """(B, n_statistics) sums of the cell statistics over each thresholded group."""
        out = np.empty((raw.shape[0], len(self._groups)))
        for j, cell_ids in enumerate(self._groups):
            out[:, j] = raw[:, cell_ids].sum(axis=1)
        return out

    def grid_cells(self, codes: np.ndarray) -> np.ndarray:
        """(B, T, H) per-cell statistics; complete randomization has none."""
        if self._proj is None:
            raise ValidationError("complete randomization computes no cell statistics")
        return self._cell_stats(codes).reshape(
            codes.shape[0], len(self.plan.covariate_partition),
            len(self.plan.effect_partition))

    def statistics(self, codes: np.ndarray) -> np.ndarray:
        """(B, n_statistics) thresholded statistics for each assignment row."""
        return self._sum_groups(self._cell_stats(codes))

    def accept(self, stats: np.ndarray) -> np.ndarray:
        """Boolean acceptance per batch row from :meth:`statistics` output."""
        return np.all(stats <= self._cutoffs, axis=1)

    def worst_ratio(self, stats: np.ndarray) -> np.ndarray:
        """Max statistic-to-cutoff ratio per row; 0 when nothing is thresholded."""
        return (stats / self._cutoffs).max(axis=1, initial=0.0)  # statistics are >= 0

    def report(self, codes: np.ndarray) -> BalanceReport:
        """Full balance report for a single assignment."""
        raw = self._cell_stats(np.asarray(codes)[None, :])
        stats = self._sum_groups(raw)[0]
        values = dict(zip(self.plan.cell_labels, map(float, raw[0])))
        values.update(zip(self.plan.labels, map(float, stats)))
        return BalanceReport(values=values,
                             limits=dict(zip(self.plan.labels, map(float, self._cutoffs))),
                             passed=bool(np.all(stats <= self._cutoffs)),
                             acceptance_probability=self.acceptance_probability)
