"""Assignment drawing and the acceptance-rejection loop."""

import importlib
import math

import numpy as np
import pytest

from refac.balance import (CompleteRandomization, CriterionEngine,
                           MahalanobisCriterion)
from refac.design import GroupSizes, build_structure
from refac.errors import ValidationError
from refac.rerandomize import (MAX_DRAW_CAP, Assignment, MaxDrawsExceeded,
                               acceptance_probability, default_max_draws,
                               draw_assignment, draw_assignment_batch,
                               rerandomize)
from refac.rng import stream


# ---------------------------------------------------------------------------
# Assignment


def test_assignment_round_trips_through_labels():
    a = Assignment(codes=np.array([0, 3, 1, 2, 0]), q_count=4)
    np.testing.assert_array_equal(a.labels(), [1, 4, 2, 3, 1])
    back = Assignment.from_labels(a.labels(), q_count=4)
    np.testing.assert_array_equal(back.codes, a.codes)
    np.testing.assert_array_equal(a.counts(), [2, 1, 1, 1])
    assert a.n == 5


def test_assignment_codes_are_frozen():
    a = Assignment(codes=np.array([0, 1]), q_count=2)
    with pytest.raises(ValueError):
        a.codes[0] = 1


@pytest.mark.parametrize("codes", [np.zeros((2, 2)), np.array([0, 4]),
                                   np.array([-1, 0])])
def test_assignment_validates_codes(codes):
    with pytest.raises(ValidationError):
        Assignment(codes=codes, q_count=4)


# ---------------------------------------------------------------------------
# uniform draws


def test_draws_respect_group_counts():
    rng = stream(51, 0)
    sizes = GroupSizes((3, 4, 5, 2))
    batch = draw_assignment_batch(sizes, rng, 32)
    assert batch.shape == (32, sizes.n)
    for row in batch:
        np.testing.assert_array_equal(np.bincount(row, minlength=4),
                                      [3, 4, 5, 2])
    single = draw_assignment(sizes, rng)
    np.testing.assert_array_equal(single.counts(), [3, 4, 5, 2])


def test_batched_rows_match_sequential_draws():
    # The loop promises that the accepted assignment is the first passing
    # draw in stream order regardless of batch size; that only holds because
    # a (B, n) draw emits exactly the rows B consecutive single draws would.
    sizes = GroupSizes((3, 4, 5, 2))
    whole = draw_assignment_batch(sizes, stream(51, 1), 8)
    rng = stream(51, 1)
    rows = np.vstack([draw_assignment_batch(sizes, rng, 1) for _ in range(8)])
    np.testing.assert_array_equal(whole, rows)


@pytest.mark.parametrize("counts", [(3, 4, 5, 2), (856, 216, 208, 118), (8,) * 128])
@pytest.mark.parametrize("batch", [1, 1024])
def test_draw_batch_is_the_int32_permuted_stream(counts, batch):
    # The stream definition: B rows of numpy's row-wise Fisher-Yates shuffle
    # of the int32 label pool, leaving the generator where that shuffle does.
    sizes = GroupSizes(counts)
    pool = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    rng, reference = stream(51, 4), stream(51, 4)
    drawn = draw_assignment_batch(sizes, rng, batch)
    expected = reference.permuted(np.tile(pool, (batch, 1)), axis=1)
    np.testing.assert_array_equal(drawn, expected)
    np.testing.assert_equal(rng.bit_generator.state, reference.bit_generator.state)


def test_small_design_draws_are_uniform():
    # 4 units into two groups of 2: six equally likely assignments.
    rng = stream(51, 2)
    sizes = GroupSizes((2, 2))
    batch = draw_assignment_batch(sizes, rng, 3000)
    keys = (batch * (2 ** np.arange(4))[None, :]).sum(axis=1)
    _, counts = np.unique(keys, return_counts=True)
    assert len(counts) == 6
    p = 1.0 / 6.0
    se = math.sqrt(p * (1 - p) / 3000)
    np.testing.assert_allclose(counts / 3000, p, atol=4.5 * se)


# ---------------------------------------------------------------------------
# budgets and acceptance probability


def test_default_max_draws():
    assert default_max_draws(1.0) == 50
    assert default_max_draws(0.001) == 50_000
    assert default_max_draws(1e-9) == MAX_DRAW_CAP
    with pytest.raises(ValidationError):
        default_max_draws(0.0)
    with pytest.raises(ValidationError):
        default_max_draws(1.5)


def test_acceptance_probability_matches_engine():
    rng = stream(51, 3)
    s = build_structure(2)
    sizes = GroupSizes.equal(4, 40)
    x = rng.standard_normal((40, 2))
    crit = MahalanobisCriterion(3.0)
    engine = CriterionEngine(x, s, sizes, crit)
    assert acceptance_probability(crit, s, 2) == pytest.approx(
        engine.acceptance_probability, abs=1e-15)
    assert acceptance_probability(CompleteRandomization(), s, 2) == 1.0


# ---------------------------------------------------------------------------
# the rejection loop


def _loop_setup(seed, threshold):
    rng = stream(seed, 0)
    s = build_structure(2)
    sizes = GroupSizes.equal(4, 40)
    x = rng.standard_normal((40, 3))
    return s, sizes, x, MahalanobisCriterion(threshold)


def test_rerandomize_accepted_assignment_passes():
    s, sizes, x, crit = _loop_setup(52, 4.0)
    outcome = rerandomize(x, s, sizes, crit, stream(52, 1))
    assert outcome.report.passed
    assert outcome.report.values["overall"] <= 4.0
    assert outcome.draws_attempted >= 1
    np.testing.assert_array_equal(outcome.assignment.counts(), [10] * 4)
    # the report matches an independent engine evaluation
    engine = CriterionEngine(x, s, sizes, crit)
    stat = engine.statistics(outcome.assignment.codes[None, :])[0, 0]
    assert outcome.report.values["overall"] == pytest.approx(stat, rel=1e-12)


def test_rerandomize_is_deterministic_for_a_fixed_stream():
    s, sizes, x, crit = _loop_setup(53, 2.0)
    first = rerandomize(x, s, sizes, crit, stream(53, 1))
    second = rerandomize(x, s, sizes, crit, stream(53, 1))
    np.testing.assert_array_equal(first.assignment.codes,
                                  second.assignment.codes)
    assert first.draws_attempted == second.draws_attempted
    assert first.report.values == second.report.values


def test_rerandomize_returns_first_passing_draw_in_stream_order():
    s, sizes, x, crit = _loop_setup(54, 3.0)
    outcome = rerandomize(x, s, sizes, crit, stream(54, 1))
    engine = CriterionEngine(x, s, sizes, crit)
    replay = draw_assignment_batch(sizes, stream(54, 1),
                                   outcome.draws_attempted)
    ok = engine.accept(engine.statistics(replay))
    assert not ok[:-1].any() and ok[-1]
    np.testing.assert_array_equal(replay[-1], outcome.assignment.codes)


@pytest.mark.parametrize("batch", [1, 1024])
def test_rerandomize_does_not_depend_on_batch_size(monkeypatch, batch):
    s, sizes, x, crit = _loop_setup(59, 2.0)
    default = rerandomize(x, s, sizes, crit, stream(59, 1))
    module = importlib.import_module("refac.rerandomize")
    monkeypatch.setattr(module, "_batch_size",
                        lambda p, remaining: min(batch, remaining))
    fixed = rerandomize(x, s, sizes, crit, stream(59, 1))
    assert fixed.draws_attempted == default.draws_attempted > 1
    np.testing.assert_array_equal(fixed.assignment.codes, default.assignment.codes)


def test_complete_randomization_accepts_the_first_draw():
    s, sizes, x, _ = _loop_setup(55, 1.0)
    outcome = rerandomize(x, s, sizes, CompleteRandomization(), stream(55, 1))
    assert outcome.draws_attempted == 1
    assert outcome.report.passed and outcome.report.values == {}


def test_budget_exhaustion_raises_with_near_miss_diagnostics():
    s, sizes, x, crit = _loop_setup(56, 1e-8)  # essentially impossible
    with pytest.raises(MaxDrawsExceeded) as info:
        rerandomize(x, s, sizes, crit, stream(56, 1), max_draws=64)
    err = info.value
    assert "within 64 draws" in str(err)
    assert err.max_draws == 64
    assert err.best_ratio > 1.0
    assert not err.best_report.passed
    np.testing.assert_array_equal(err.best_assignment.counts(), [10] * 4)
    # the carried assignment really is the best of the 64 attempts
    engine = CriterionEngine(x, s, sizes, crit)
    replay = draw_assignment_batch(sizes, stream(56, 1), 64)
    ratios = engine.worst_ratio(engine.statistics(replay))
    assert err.best_ratio == pytest.approx(ratios.min(), rel=1e-12)
    np.testing.assert_array_equal(err.best_assignment.codes,
                                  replay[np.argmin(ratios)])


def test_rerandomize_rejects_bad_budget():
    s, sizes, x, crit = _loop_setup(57, 4.0)
    with pytest.raises(ValidationError):
        rerandomize(x, s, sizes, crit, stream(57, 1), max_draws=0)


def test_rerandomize_accepts_prebuilt_engine():
    s, sizes, x, crit = _loop_setup(58, 4.0)
    engine = CriterionEngine(x, s, sizes, crit)
    a = rerandomize(x, s, sizes, crit, stream(58, 1))
    b = rerandomize(x, s, sizes, crit, stream(58, 1), engine=engine)
    np.testing.assert_array_equal(a.assignment.codes, b.assignment.codes)
