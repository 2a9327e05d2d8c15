"""Assignment drawing and the acceptance-rejection loop.

Assignments are drawn by shuffling a fixed pool of group labels (a
Fisher-Yates shuffle of a label multiset), which makes every assignment
with the prescribed group counts equally likely.  Rerandomization keeps
drawing until the balance criterion accepts, so the accepted assignment is
distributed as complete randomization conditioned on acceptance.

The draw stream is a contract: a batch of B rows is exactly what B
successive shuffles of the label pool give, so the accepted assignment
for a seed does not depend on how the loop splits its draws into batches.
Batches are sized from the acceptance probability alone
(:func:`_batch_size`), to balance per-call overhead against the draws
scored after the accepted one.

The pool is shuffled as ``int64`` because numpy's ``Generator.permuted``
has a faster Fisher-Yates path for 8-byte items; it makes the same
``random_interval`` calls as for ``int32`` labels, so rows and generator
state are identical.  :class:`Assignment` still stores ``int32`` codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balance import BalanceCriterion, BalanceReport, CriterionEngine
from .design import FactorialStructure, GroupSizes
from .errors import RefacError, ValidationError

#: hard cap on the default draw budget
MAX_DRAW_CAP = 10_000_000


@dataclass(frozen=True)
class Assignment:
    """One realized assignment: 0-based group codes for each unit in order."""

    codes: np.ndarray
    q_count: int

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int32)
        if codes.ndim != 1:
            raise ValidationError(f"assignment codes must be a vector, got shape {codes.shape}")
        if codes.size and (codes.min() < 0 or codes.max() >= self.q_count):
            raise ValidationError(
                f"assignment codes must lie in [0, {self.q_count - 1}]")
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    def counts(self) -> np.ndarray:
        return np.bincount(self.codes, minlength=self.q_count)

    def labels(self) -> np.ndarray:
        """1-based group labels, the on-disk representation."""
        return self.codes + 1

    @classmethod
    def from_labels(cls, labels, q_count: int) -> "Assignment":
        labels = np.asarray(labels)
        return cls(codes=labels.astype(np.int64) - 1, q_count=q_count)


def _label_pool(sizes: GroupSizes) -> np.ndarray:
    # int64 takes numpy's 8-byte shuffle path; the draw stream is unchanged
    return np.repeat(np.arange(sizes.q_count, dtype=np.int64), sizes.counts)


def draw_assignment_batch(sizes: GroupSizes, rng: np.random.Generator,
                          size: int) -> np.ndarray:
    """(size, n) matrix of independent uniform assignments with fixed counts."""
    pool = np.tile(_label_pool(sizes), (size, 1))
    return rng.permuted(pool, axis=1)


def draw_assignment(sizes: GroupSizes, rng: np.random.Generator) -> Assignment:
    """One uniform draw over all assignments with the prescribed counts."""
    return Assignment(codes=rng.permutation(_label_pool(sizes)),
                      q_count=sizes.q_count)


@dataclass(frozen=True)
class RerandomizationOutcome:
    """Accepted assignment plus the audit trail of the loop that found it."""

    assignment: Assignment
    draws_attempted: int
    report: BalanceReport


class MaxDrawsExceeded(RefacError):
    """The draw budget ran out before any assignment passed.

    Carries the best (smallest worst statistic-to-cutoff ratio) assignment
    seen, so callers can inspect how near the loop got.
    """

    def __init__(self, max_draws: int, best_assignment: Assignment,
                 best_report: BalanceReport, best_ratio: float):
        super().__init__(
            f"no assignment passed within {max_draws} draws; raise max_draws "
            f"or loosen the thresholds")
        self.max_draws = max_draws
        self.best_assignment = best_assignment
        self.best_report = best_report
        self.best_ratio = best_ratio


def default_max_draws(acceptance_prob: float) -> int:
    """Draw budget: about fifty times the expected draws per acceptance."""
    if not 0.0 < acceptance_prob <= 1.0:
        raise ValidationError(
            f"acceptance probability must lie in (0, 1], got {acceptance_prob}")
    return min(math.ceil(50.0 / acceptance_prob), MAX_DRAW_CAP)


def acceptance_probability(criterion: BalanceCriterion, structure: FactorialStructure,
                           covariate_count: int) -> float:
    """Asymptotic acceptance probability of a criterion.

    Product of the chi-square CDFs at the cutoffs; 1 for complete
    randomization.
    """
    from . import chisq
    from .balance import criterion_cutoffs, criterion_dimensions
    dims = criterion_dimensions(criterion, structure, covariate_count)
    cutoffs = criterion_cutoffs(criterion)
    p = 1.0
    for dim, a in zip(dims, cutoffs):
        p *= chisq.chi2_cdf(float(a), int(dim))
    return p


def _batch_size(acceptance_prob: float, remaining: int) -> int:
    """Draws per batch of the rejection loop, from the acceptance probability.

    A batch of size B scores about B/2 draws past the accepted one, which
    are thrown away, and every batch pays a fixed cost worth about 2.5
    scored draws (one draw call and one statistic call, ~50 us against
    ~20 us per draw).  The waste per acceptance, B/2 + 2.5/(pB), is least
    at B = sqrt(5/p): 71 at p = 0.001, 8 at p = 0.1.  The cap of 256 keeps
    the (B, n) code matrix cache-sized.  The accepted draw is the same for
    every batch size.
    """
    if acceptance_prob >= 1.0:
        return 1
    guess = math.ceil(math.sqrt(5.0 / max(acceptance_prob, 1e-7)))
    return max(1, min(guess, 256, remaining))


def rerandomize(x: np.ndarray, structure: FactorialStructure, sizes: GroupSizes,
                criterion: BalanceCriterion, rng: np.random.Generator,
                max_draws: int | None = None,
                engine: CriterionEngine | None = None) -> RerandomizationOutcome:
    """Draw assignments until the balance criterion accepts one.

    Draws are generated in batches for speed; the accepted assignment is
    the first passing draw in stream order, so the assignment and
    ``draws_attempted`` for a given seed do not depend on the batch size.
    The generator's state afterwards does: the rest of the last batch has
    been drawn.  Raises :class:`MaxDrawsExceeded` with near-miss
    diagnostics if the budget runs out.
    """
    if engine is None:
        engine = CriterionEngine(x, structure, sizes, criterion)
    p_accept = engine.acceptance_probability
    if max_draws is None:
        max_draws = default_max_draws(p_accept)
    if max_draws < 1:
        raise ValidationError(f"max_draws must be at least 1, got {max_draws}")

    attempted = 0
    best_ratio = math.inf
    best_codes: np.ndarray | None = None
    while attempted < max_draws:
        size = _batch_size(p_accept, max_draws - attempted)
        codes = draw_assignment_batch(sizes, rng, size)
        stats = engine.statistics(codes)
        ok = engine.accept(stats)
        if ok.any():
            first = int(np.argmax(ok))
            assignment = Assignment(codes=codes[first], q_count=sizes.q_count)
            return RerandomizationOutcome(
                assignment=assignment,
                draws_attempted=attempted + first + 1,
                report=engine.report(assignment.codes))
        ratios = engine.worst_ratio(stats)
        batch_best = int(np.argmin(ratios))
        if ratios[batch_best] < best_ratio:
            best_ratio = float(ratios[batch_best])
            best_codes = codes[batch_best].copy()
        attempted += size

    assert best_codes is not None
    best_assignment = Assignment(codes=best_codes, q_count=sizes.q_count)
    raise MaxDrawsExceeded(max_draws, best_assignment,
                           engine.report(best_codes), best_ratio)
