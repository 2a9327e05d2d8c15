"""Contrast algebra for two-level factorial designs.

Builds the +/-1 contrast matrix of a 2^K design, the inverse-size-weighted
Gram matrix that drives every covariance formula downstream, tier
partitions over effects and covariates, and the block Gram-Schmidt
orthogonalizations used by the tiered balance criteria.

Conventions
-----------
* Treatment combinations are numbered with factor 1 most significant and
  level -1 before +1, so combination 1 has every factor at -1.
* Factorial effects are ordered by interaction order, lexicographically
  within an order: all main effects first, then two-way interactions, and
  so on.  Effect indices in this API are 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import population_covariance, sym_inverse

#: memory allowed for the dense (2^K - 1) x 2^K float contrast matrix; the
#: F x F coefficient Gram matrix and its inverses downstream are as large
CONTRAST_BUDGET_BYTES = 256 * 2 ** 20

#: hard upper bound on the number of factors: the largest K whose contrast
#: matrix fits the budget (K = 12 takes 134 MB, K = 13 would take 537 MB)
MAX_FACTORS = max(k for k in range(1, 32)
                  if 8 * (2 ** k - 1) * 2 ** k <= CONTRAST_BUDGET_BYTES)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FactorialStructure:
    """Contrast algebra of a 2^K factorial design.

    ``contrasts`` has one +/-1 row per factorial effect and one column per
    treatment combination; row f is the generating vector of effect f, and
    column q is the coefficient vector through which combination q enters
    every effect.  Rows are orthogonal with squared norm 2^K.
    """

    k: int
    contrasts: np.ndarray
    effect_labels: tuple[tuple[int, ...], ...]

    @property
    def q_count(self) -> int:
        return self.contrasts.shape[1]

    @property
    def f_count(self) -> int:
        return self.contrasts.shape[0]

    @property
    def scale(self) -> float:
        """The 2^-(K-1) factor applied to every contrast of group means."""
        return 2.0 ** (1 - self.k)

    def effect_names(self) -> tuple[str, ...]:
        """Readable effect names: "1", "2", "1:2", "1:2:3", ..."""
        return tuple(":".join(str(f) for f in label) for label in self.effect_labels)


def build_structure(k: int) -> FactorialStructure:
    """Construct the contrast matrix and effect labels of a 2^k design."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValidationError(f"factor count must be an integer, got {k!r}")
    if not 1 <= k <= MAX_FACTORS:
        raise ValidationError(
            f"factor count must lie in [1, {MAX_FACTORS}], got {k}")
    q_count = 2 ** k
    levels = np.empty((k, q_count), dtype=float)
    for j in range(k):  # factor j+1; factor 1 is the most significant digit
        half = 2 ** (k - 1 - j)
        levels[j] = np.tile(np.repeat([-1.0, 1.0], half), 2 ** j)
    labels: list[tuple[int, ...]] = []
    for order in range(1, k + 1):
        labels.extend(itertools.combinations(range(1, k + 1), order))
    rows = [levels[[f - 1 for f in label]].prod(axis=0) for label in labels]
    contrasts = _readonly(np.asarray(rows, dtype=float))
    return FactorialStructure(k=int(k), contrasts=contrasts,
                              effect_labels=tuple(labels))


@dataclass(frozen=True)
class GroupSizes:
    """Units assigned to each treatment combination, in combination order."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) == 0:
            raise ValidationError("group sizes must be nonempty")
        cleaned = []
        for i, c in enumerate(self.counts):
            if not isinstance(c, (int, np.integer)) or isinstance(c, bool):
                raise ValidationError(f"group size #{i + 1} must be an integer, got {c!r}")
            if c < 2:
                raise ValidationError(
                    f"every group needs at least 2 units for within-group "
                    f"variances; group #{i + 1} has {c}")
            cleaned.append(int(c))
        object.__setattr__(self, "counts", tuple(cleaned))

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def q_count(self) -> int:
        return len(self.counts)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float)

    def validate_for(self, structure: FactorialStructure) -> None:
        if len(self.counts) != structure.q_count:
            raise ValidationError(
                f"expected {structure.q_count} group sizes for a 2^{structure.k} "
                f"design, got {len(self.counts)}")

    @classmethod
    def equal(cls, q_count: int, total: int) -> "GroupSizes":
        if total % q_count != 0:
            raise ValidationError(
                f"total {total} is not divisible into {q_count} equal groups")
        return cls(counts=(total // q_count,) * q_count)


def coefficient_gram(structure: FactorialStructure, sizes: GroupSizes) -> np.ndarray:
    """Inverse-size-weighted Gram matrix of the coefficient columns.

    This F x F matrix is the effect-side factor of every imbalance
    covariance: the sampling covariance of the difference-in-means vector
    of a single covariate with unit population variance.  With equal group
    sizes it reduces to (4/n) I.
    """
    sizes.validate_for(structure)
    g = structure.contrasts
    weights = 1.0 / sizes.as_array()
    return 4.0 ** (1 - structure.k) * ((g * weights) @ g.T)


class _IndexPartition:
    """Shared validation for ordered partitions of an index range."""

    KIND = "index"

    def __init__(self, tiers):
        cleaned = []
        seen: set[int] = set()
        for t, tier in enumerate(tiers):
            tier = tuple(int(i) for i in tier)
            if not tier:
                raise ValidationError(f"{self.KIND} tier #{t + 1} is empty")
            for i in tier:
                if i < 0:
                    raise ValidationError(
                        f"{self.KIND} indices are 0-based and nonnegative, got {i}")
                if i in seen:
                    raise ValidationError(
                        f"{self.KIND} index {i} appears in more than one tier")
                seen.add(i)
            cleaned.append(tier)
        if not cleaned:
            raise ValidationError(f"{self.KIND} partition needs at least one tier")
        self.tiers: tuple[tuple[int, ...], ...] = tuple(cleaned)

    def __len__(self) -> int:
        return len(self.tiers)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.tiers == other.tiers

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.tiers))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(map(list, self.tiers))})"

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(t) for t in self.tiers)

    def order(self) -> list[int]:
        """All indices, concatenated tier by tier."""
        return [i for tier in self.tiers for i in tier]

    def validate(self, count: int) -> None:
        """Check that the tiers exactly cover range(count)."""
        flat = sorted(self.order())
        if flat != list(range(count)):
            raise ValidationError(
                f"{self.KIND} tiers must partition all {count} indices "
                f"0..{count - 1}; got {flat}")


class EffectTierPartition(_IndexPartition):
    """Ordered partition of the factorial effects, most important tier first."""

    KIND = "effect"


class CovariateTierPartition(_IndexPartition):
    """Ordered partition of the covariate columns, most important tier first."""

    KIND = "covariate"


def partition_by_order(structure: FactorialStructure,
                       max_lead_order: int = 1) -> EffectTierPartition:
    """Two-tier partition: effects of order <= max_lead_order lead, rest follow.

    The common case is max_lead_order=1 (main effects first, interactions
    second).  Requires both tiers to be nonempty, so k must exceed the lead
    order.
    """
    lead = tuple(f for f, label in enumerate(structure.effect_labels)
                 if len(label) <= max_lead_order)
    tail = tuple(f for f, label in enumerate(structure.effect_labels)
                 if len(label) > max_lead_order)
    if not lead or not tail:
        raise ValidationError(
            f"splitting at interaction order {max_lead_order} leaves an empty "
            f"tier in a 2^{structure.k} design")
    return EffectTierPartition((lead, tail))


@dataclass(frozen=True)
class TieredCoefficients:
    """Blockwise Gram-Schmidt of the coefficient columns across effect tiers.

    Rows of ``coeffs`` are grouped tier by tier (``block_slices`` gives the
    row range of each tier); column q is the orthogonalized coefficient
    vector of combination q.  ``transform`` maps back to the original
    contrasts: ``structure.contrasts[order] == transform_in_tier_order``;
    concretely ``contrasts[:, q] = transform @ coeffs[:, q]`` for every q.
    ``gram`` is the inverse-size-weighted Gram matrix of the orthogonalized
    columns and is block diagonal by construction; ``gram_blocks`` holds
    its diagonal blocks with the numerical off-block dust discarded.
    """

    partition: EffectTierPartition
    order: tuple[int, ...]
    coeffs: np.ndarray
    transform: np.ndarray
    gram: np.ndarray
    gram_blocks: tuple[np.ndarray, ...]
    block_slices: tuple[slice, ...]

    @property
    def tier_count(self) -> int:
        return len(self.gram_blocks)


def orthogonalize_effects(structure: FactorialStructure, sizes: GroupSizes,
                          partition: EffectTierPartition) -> TieredCoefficients:
    """Orthogonalize coefficient blocks across effect tiers.

    Tier 1 keeps its raw coefficients; each later tier is residualized on
    everything before it under the inverse-size-weighted inner product, so
    the tierwise imbalance statistics become exactly uncorrelated.  With
    equal group sizes the Gram matrix is already diagonal and the
    coefficients come back unchanged (up to row reordering).
    """
    partition.validate(structure.f_count)
    gram_b = coefficient_gram(structure, sizes)
    order = partition.order()
    f_count = structure.f_count
    g_tier = structure.contrasts[order]
    b_tier = gram_b[np.ix_(order, order)]

    bounds = np.cumsum([0, *partition.sizes()])
    slices = tuple(slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]))

    lower = np.eye(f_count)
    for h in range(1, len(slices)):
        blk = slices[h]
        prev = slice(0, blk.start)
        head = sym_inverse(b_tier[prev, prev], name=f"leading Gram block (tiers 1..{h})")
        lower[blk, prev] = -b_tier[blk, prev] @ head

    coeffs = lower @ g_tier
    gram_c = lower @ b_tier @ lower.T
    gram_c = 0.5 * (gram_c + gram_c.T)
    blocks = tuple(_readonly(0.5 * (gram_c[s, s] + gram_c[s, s].T)) for s in slices)

    # contrasts[order] = inv(lower) @ coeffs; undo the reordering on the left
    perm = np.eye(f_count)[order]
    transform = perm.T @ np.linalg.solve(lower, np.eye(f_count))

    return TieredCoefficients(
        partition=partition,
        order=tuple(order),
        coeffs=_readonly(coeffs),
        transform=_readonly(transform),
        gram=_readonly(gram_c),
        gram_blocks=blocks,
        block_slices=slices,
    )


def orthogonalize_covariates(x: np.ndarray,
                             partition: CovariateTierPartition) -> np.ndarray:
    """Blockwise Gram-Schmidt of covariate columns across covariate tiers.

    Returns an array of the same shape as ``x`` in which each tier's
    columns have been residualized (finite-population least squares) on
    all original columns of earlier tiers.  Columns stay in their original
    positions; tier 1 is returned untouched.  Cross-tier finite-population
    covariances of the result are zero.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValidationError(f"covariate matrix must be 2-D, got shape {x.shape}")
    partition.validate(x.shape[1])
    cov = population_covariance(x)
    out = x.copy()
    prev: list[int] = list(partition.tiers[0])
    for t in range(1, len(partition)):
        cur = list(partition.tiers[t])
        head = sym_inverse(cov[np.ix_(prev, prev)], name="degenerate covariates: leading tier covariance")
        slope = cov[np.ix_(cur, prev)] @ head
        out[:, cur] = x[:, cur] - x[:, prev] @ slope.T
        prev.extend(cur)
    return out


@dataclass(frozen=True)
class TierGrid:
    """Grouping of (covariate tier, effect tier) cells into threshold groups.

    ``cells[j]`` lists the 0-based (t, h) pairs sharing the j-th threshold.
    The grouping must be coherent with the natural partial order: a cell
    that is weakly deeper in both coordinates can never sit in an earlier
    group.
    """

    cells: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        cleaned = []
        seen: set[tuple[int, int]] = set()
        for j, cell in enumerate(self.cells):
            pairs = tuple((int(t), int(h)) for t, h in cell)
            if not pairs:
                raise ValidationError(f"grid group #{j + 1} is empty")
            for pair in pairs:
                if pair in seen:
                    raise ValidationError(f"grid cell {pair} appears twice")
                if pair[0] < 0 or pair[1] < 0:
                    raise ValidationError(f"grid cells are 0-based, got {pair}")
                seen.add(pair)
            cleaned.append(pairs)
        object.__setattr__(self, "cells", tuple(cleaned))

    def __len__(self) -> int:
        return len(self.cells)

    def validate(self, t_count: int, h_count: int) -> None:
        covered = {pair for cell in self.cells for pair in cell}
        wanted = {(t, h) for t in range(t_count) for h in range(h_count)}
        if covered != wanted:
            raise ValidationError(
                f"grid must cover every (covariate tier, effect tier) cell of a "
                f"{t_count} x {h_count} layout exactly once")
        for j, cell in enumerate(self.cells):
            for jj in range(j):
                for (t, h) in cell:
                    for (t0, h0) in self.cells[jj]:
                        if t0 >= t and h0 >= h:
                            raise ValidationError(
                                "grid groups must respect the tier partial order: "
                                f"cell ({t0}, {h0}) in group {jj + 1} dominates "
                                f"({t, h}) in later group {j + 1}")

    def dims(self, covariate_partition: CovariateTierPartition,
             effect_partition: EffectTierPartition,
             covariate_tier_sizes: tuple[int, ...] | None = None) -> np.ndarray:
        """Chi-square dimension of each group: sum of L_t * F_h over its cells."""
        l_sizes = covariate_tier_sizes or covariate_partition.sizes()
        f_sizes = effect_partition.sizes()
        return np.array([
            sum(l_sizes[t] * f_sizes[h] for (t, h) in cell) for cell in self.cells
        ], dtype=float)

    @staticmethod
    def triangular(t_count: int, h_count: int) -> "TierGrid":
        """Anti-diagonal grouping: group j collects cells with t + h = j
        (0-based), and the last group sweeps up everything deeper.

        With T = H = 1 this is the single-cell grid.
        """
        if t_count < 1 or h_count < 1:
            raise ValidationError("tier counts must be at least 1")
        j_count = min(t_count, h_count)
        cells: list[list[tuple[int, int]]] = [[] for _ in range(j_count)]
        for t in range(t_count):
            for h in range(h_count):
                group = t + h if t + h < j_count - 1 else j_count - 1
                cells[group].append((t, h))
        return TierGrid(cells=tuple(tuple(sorted(cell)) for cell in cells))
