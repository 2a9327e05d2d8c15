"""Release acceptance gate.

Each test covers one release criterion, prints a visible PASS/FAIL line
(``pytest tests/test_acceptance.py`` shows them even with capture on), and
enforces the criterion's tolerance and runtime budget.  The checks use
independent oracles: hardcoded tables, exhaustive enumeration, closed-form
probabilities, and Monte Carlo error bars computed in the test itself.
"""

import contextlib
import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy import special, stats

from refac.asymptotic import (AsymptoticLaw, LawComponent,
                              quadratic_form_samples, simulate_law,
                              truncated_gaussian_sample)
from refac.balance import (EffectTierCriterion, GridTierCriterion,
                           MahalanobisCriterion, batch_group_means,
                           thresholds_from_probability)
from refac.chisq import chi2_quantile, truncation_variance_factor
from refac.cli import main as cli_main
from refac.design import (CovariateTierPartition, GroupSizes, TierGrid,
                          build_structure, coefficient_gram,
                          partition_by_order)
from refac.estimate import effect_estimates
from refac.linalg import population_covariance
from refac.rerandomize import Assignment, draw_assignment_batch
from refac.rng import stream
from refac.simlab import (OutcomeRecipe, PopulationSpec, _quantile_se,
                          education_like, generate_population, normal_column,
                          replicate, tradeoff_sweep)
from refac.truth import population_truth

SEED = 20260819


@contextlib.contextmanager
def _criterion(capsys, number, description, budget_seconds):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.1f}s, budget is "
            f"{budget_seconds:.0f}s")
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"criterion {number:02d} {status} - {description} "
                  f"[{elapsed:.2f}s]")


# ---------------------------------------------------------------------------
# 1. the 2^3 contrast table, entry for entry


def test_criterion_01_contrast_table_golden(capsys):
    with _criterion(capsys, 1, "2^3 contrast table matches the golden table",
                    1.0):
        # rows are the 8 treatment combinations, columns the effects
        # 1, 2, 3, 12, 13, 23, 123
        golden = np.array([
            [-1, -1, -1, +1, +1, +1, -1],
            [-1, -1, +1, +1, -1, -1, +1],
            [-1, +1, -1, -1, +1, -1, +1],
            [-1, +1, +1, -1, -1, +1, -1],
            [+1, -1, -1, -1, -1, +1, +1],
            [+1, -1, +1, -1, +1, -1, -1],
            [+1, +1, -1, +1, -1, -1, -1],
            [+1, +1, +1, +1, +1, +1, +1],
        ], dtype=float)
        s = build_structure(3)
        np.testing.assert_array_equal(s.contrasts, golden.T)
        assert tuple(s.effect_names()) == ("1", "2", "3", "1:2", "1:3",
                                           "2:3", "1:2:3")
        assert s.effect_labels == ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3),
                                   (1, 2, 3))
        assert s.scale == 0.25

        build_structure(3)  # warm the path before timing it
        runs = []
        for _ in range(5):
            t0 = time.perf_counter()
            build_structure(3)
            runs.append(time.perf_counter() - t0)
        assert min(runs) < 1e-3


# ---------------------------------------------------------------------------
# 2. the weighted-Gram inverse identity on random instances


def test_criterion_02_gram_inverse_identity(capsys):
    with _criterion(capsys, 2, "Gram inverse identity on 200 random designs",
                    1.0):
        rng = stream(SEED, 1)
        worst = 0.0
        for _ in range(200):
            k = int(rng.integers(1, 5))
            s = build_structure(k)
            counts = tuple(int(c) for c in rng.integers(2, 31, size=2 ** k))
            sizes = GroupSizes(counts)
            gram_inv = np.linalg.inv(coefficient_gram(s, sizes))
            b = s.contrasts  # column q holds b_q
            w = np.asarray(counts, dtype=float)
            lhs = 4.0 ** (1 - k) * (b.T @ gram_inv @ b) / np.outer(w, w)
            rhs = np.diag(1.0 / w) - 1.0 / sizes.n
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        assert worst < 1e-10


# ---------------------------------------------------------------------------
# 3. exhaustive enumeration: unbiasedness and the variance decomposition


def test_criterion_03_exhaustive_decomposition(capsys):
    with _criterion(capsys, 3, "all 2520 assignments: unbiased estimates and "
                    "exact variance split", 5.0):
        s = build_structure(2)
        sizes = GroupSizes((2, 2, 2, 2))
        rng = stream(SEED, 3)
        x = rng.standard_normal((8, 1))
        slopes = np.array([1.0, 1.6, 0.7, 1.2])
        intercepts = np.array([0.0, 0.8, 0.3, 1.5])
        potential = intercepts + x * slopes + 0.5 * rng.standard_normal((8, 4))
        truth = population_truth(x, potential, s, sizes)

        units = range(8)
        codes_rows = []
        for g1 in itertools.combinations(units, 2):
            r1 = [u for u in units if u not in g1]
            for g2 in itertools.combinations(r1, 2):
                r2 = [u for u in r1 if u not in g2]
                for g3 in itertools.combinations(r2, 2):
                    g4 = [u for u in r2 if u not in g3]
                    codes = np.empty(8, dtype=np.int32)
                    codes[list(g1)] = 0
                    codes[list(g2)] = 1
                    codes[list(g3)] = 2
                    codes[g4] = 3
                    codes_rows.append(codes)
        codes_all = np.asarray(codes_rows)
        assert codes_all.shape == (2520, 8)

        onehot = (codes_all[:, :, None] == np.arange(4)).astype(float)
        y_all = potential[np.arange(8)[None, :], codes_all]
        means_y = np.einsum("bi,biq->bq", y_all, onehot) / 2.0
        means_x = np.einsum("i,biq->bq", x[:, 0], onehot) / 2.0
        tau_hat = s.scale * means_y @ s.contrasts.T
        tau_x = s.scale * means_x @ s.contrasts.T

        # the vectorized estimator equals the public one
        for b in range(0, 2520, 251):
            a = Assignment(codes=codes_all[b], q_count=4)
            np.testing.assert_allclose(effect_estimates(y_all[b], a, s),
                                       tau_hat[b], rtol=1e-12, atol=1e-12)

        np.testing.assert_allclose(tau_hat.mean(axis=0), truth.tau,
                                   atol=1e-12)

        proj = tau_x @ truth.imbalance().inv_dense() @ truth.cross_cov.T
        resid = tau_hat - truth.tau - proj

        def cov0(a, b):
            a = a - a.mean(axis=0)
            b = b - b.mean(axis=0)
            return a.T @ b / len(a)

        np.testing.assert_allclose(cov0(proj, proj), truth.explained_cov,
                                   atol=1e-10)
        np.testing.assert_allclose(cov0(proj, resid), 0.0, atol=1e-10)
        np.testing.assert_allclose(cov0(tau_hat, tau_hat), truth.total_cov,
                                   atol=1e-10)
        np.testing.assert_allclose(cov0(resid, resid), truth.residual_cov,
                                   atol=1e-10)


# ---------------------------------------------------------------------------
# 4. chance imbalance under plain randomization


def test_criterion_04_imbalance_rate(capsys):
    with _criterion(capsys, 4, "P(some |standardized diff| > 1.96) is about "
                    "0.46 under plain randomization", 60.0):
        n, l_count = 1000, 4
        s = build_structure(2)
        sizes = GroupSizes.equal(4, n)
        x = stream(SEED, 4).standard_normal((n, l_count))
        denom = np.sqrt((4.0 / n) * np.diag(population_covariance(x)))

        rng = stream(SEED, 4, 1)
        hits = 0
        batches, batch = 20, 5000
        for _ in range(batches):
            codes = draw_assignment_batch(sizes, rng, batch)
            means = batch_group_means(x, codes, sizes)
            diffs = s.scale * np.einsum("fq,bql->bfl", s.contrasts, means)
            z = diffs / denom[None, None, :]
            hits += int((np.abs(z) > 1.96).any(axis=(1, 2)).sum())
        rate = hits / (batches * batch)
        # 12 nearly independent standard normal statistics:
        # 1 - 0.95^12 = 0.4596
        assert abs(rate - 0.460) <= 0.03


# ---------------------------------------------------------------------------
# 5. the truncated-Gaussian sampler: support, covariance, radius law


def test_criterion_05_truncated_sampler(capsys):
    with _criterion(capsys, 5, "truncated draws: support, covariance v*I, "
                    "radius distribution", 30.0):
        draws = 1_000_000
        for dim, p in ((3, 0.5), (6, 0.001)):
            a = chi2_quantile(p, dim)
            v = truncation_variance_factor(dim, a)
            z = truncated_gaussian_sample(dim, a, stream(SEED, 5, dim), draws)
            norms = (z ** 2).sum(axis=1)
            assert norms.max() <= a * (1.0 + 1e-12)

            for j in range(dim):
                for k in range(j, dim):
                    w = z[:, j] * z[:, k]
                    se = float(w.std(ddof=1)) / math.sqrt(draws)
                    target = v if j == k else 0.0
                    assert abs(float(w.mean()) - target) <= 3.0 * se

            half = 0.5 * dim
            mass = special.gammainc(half, 0.5 * a)
            result = stats.kstest(
                norms, lambda t: special.gammainc(half, 0.5 * t) / mass)
            assert result.pvalue > 0.01


# ---------------------------------------------------------------------------
# 6. empirical vs theoretical variance reduction, three designs


def _additive_population(n=1000):
    spec = PopulationSpec(
        n=n, k=2, columns=(normal_column(), normal_column()),
        outcome=OutcomeRecipe(intercepts=(0.0, 0.6, 1.0, 1.8),
                              slopes=np.array([1.0, 1.0]),
                              noise_scales=math.sqrt(2.0), additive=True))
    return generate_population(spec, stream(SEED, 6))


@pytest.mark.slow
def test_criterion_06_variance_reduction_tracks_theory(capsys):
    with _criterion(capsys, 6, "5000-replication variance reductions match "
                    "the closed form for all three designs", 900.0):
        pop = _additive_population()
        s = build_structure(2)
        sizes = GroupSizes.equal(4, pop.n)
        truth = population_truth(pop.x, pop.potential, s, sizes)
        assert np.all(truth.r_squared > 0.4) and np.all(truth.r_squared < 0.6)

        part = partition_by_order(s)
        cov_part = CovariateTierPartition(((0,), (1,)))
        grid = TierGrid.triangular(2, 2)
        overall = MahalanobisCriterion(
            float(thresholds_from_probability(6, 0.001)[0]))
        tiers = EffectTierCriterion(part, tuple(
            float(v) for v in thresholds_from_probability((4, 2),
                                                          (0.002, 0.5))))
        grid_crit = GridTierCriterion(part, cov_part, grid, tuple(
            float(v) for v in thresholds_from_probability(
                grid.dims(cov_part, part), (0.01, 0.5))))

        report = replicate(
            pop, s, sizes,
            [("overall", overall), ("tiers", tiers), ("grid", grid_crit)],
            reps=5000, seed=SEED, theory_draws=50_000)
        for res in report.designs:
            gap = np.abs(res.variance_reduction -
                         res.variance_reduction_theory)
            assert np.all(gap <= 3.0 * res.variance_reduction_se), res.name


# ---------------------------------------------------------------------------
# 7. threshold quantiles fall as covariates explain more


def test_criterion_07_threshold_monotonicity(capsys):
    with _criterion(capsys, 7, "95% quantile of the standardized form is "
                    "nonincreasing in the explained share", 30.0):
        a = chi2_quantile(0.2, 6)
        quantiles, errors = [], []
        for i, rho in enumerate((0.0, 0.225, 0.45, 0.675, 0.9)):
            coef = rho * np.hstack([np.eye(3), np.zeros((3, 3))])
            law = AsymptoticLaw(
                base_cov=(1.0 - rho ** 2) * np.eye(3),
                components=(LawComponent(coef=coef, dim=6, cutoff=a),))
            m = (simulate_law(law, stream(SEED, 7, i), 100_000) ** 2).sum(
                axis=1)
            quantiles.append(float(np.quantile(m, 0.95)))
            errors.append(_quantile_se(m, 0.95))
        for i in range(len(quantiles) - 1):
            slack = 2.0 * math.hypot(errors[i], errors[i + 1])
            assert quantiles[i + 1] <= quantiles[i] + slack
        assert quantiles[-1] < quantiles[0]


# ---------------------------------------------------------------------------
# 8. confidence-set coverage, exact and conservative regimes


@pytest.mark.slow
def test_criterion_08_coverage(capsys):
    with _criterion(capsys, 8, "95% sets cover: tight when unit effects are "
                    "constant, conservative otherwise", 600.0):
        s = build_structure(2)
        crit = MahalanobisCriterion(
            float(thresholds_from_probability(6, 0.1)[0]))
        se = math.sqrt(0.95 * 0.05 / 2000)

        nonadd = PopulationSpec(
            n=1000, k=2, columns=(normal_column(), normal_column()),
            outcome=OutcomeRecipe(
                intercepts=(0.0, 0.6, 1.0, 1.8),
                slopes=np.array([[1.0, 1.0], [1.3, 0.7],
                                 [0.8, 1.2], [1.1, 0.9]]),
                noise_scales=(1.2, 1.5, 1.3, 1.6)))
        cases = (
            ("additive", _additive_population(), 0.97),
            ("non-additive", generate_population(nonadd, stream(SEED, 8)),
             1.0),
        )
        for label, pop, upper in cases:
            sizes = GroupSizes.equal(4, pop.n)
            report = replicate(pop, s, sizes, [("balanced", crit)],
                               reps=2000, seed=SEED + 8, coverage=True,
                               alpha=0.05, law_draws=20_000,
                               theory_draws=1000)
            coverage = float(report.designs[0].coverage)
            assert coverage >= 0.95 - 3.0 * se, label
            assert coverage <= upper, label


# ---------------------------------------------------------------------------
# 9. restricted law is no less concentrated on centered ellipsoids


def test_criterion_09_peakedness(capsys):
    with _criterion(capsys, 9, "restricted law puts at least as much mass on "
                    "10 centered ellipsoids", 60.0):
        a = chi2_quantile(0.1, 6)
        coef = math.sqrt(0.5) * np.hstack([np.eye(3), np.zeros((3, 3))])
        plain = AsymptoticLaw(base_cov=np.eye(3), components=())
        restricted = AsymptoticLaw(
            base_cov=0.5 * np.eye(3),
            components=(LawComponent(coef=coef, dim=6, cutoff=a),))

        shapes_rng = stream(SEED, 9)
        draws = 1_000_000
        for j, level in enumerate(np.linspace(0.2, 0.9, 10)):
            w = shapes_rng.standard_normal((3, 3))
            shape = w @ w.T + 0.5 * np.eye(3)
            m_plain = quadratic_form_samples(plain, np.eye(3), shape,
                                             stream(SEED, 9, 2 * j), draws)
            m_restr = quadratic_form_samples(restricted, np.eye(3), shape,
                                             stream(SEED, 9, 2 * j + 1),
                                             draws)
            radius = float(np.quantile(m_plain, level))
            p_plain = float((m_plain <= radius).mean())
            p_restr = float((m_restr <= radius).mean())
            slack = 2.0 * math.hypot(
                math.sqrt(p_plain * (1 - p_plain) / draws),
                math.sqrt(p_restr * (1 - p_restr) / draws))
            assert p_restr >= p_plain - slack


# ---------------------------------------------------------------------------
# 10. the lead-tier/tail-tier tradeoff on the education-like population


def test_criterion_10_tradeoff_shape(capsys):
    with _criterion(capsys, 10, "tradeoff sweep: main-effect gains rise "
                    "monotonically, the interaction peaks inside", 60.0):
        spec, sizes = education_like()
        pop = generate_population(spec, stream(SEED, 2))
        s = build_structure(2)
        probs = [0.95, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01]
        curve = tradeoff_sweep(pop.x, pop.potential, s, sizes,
                               partition_by_order(s),
                               overall_probability=0.01,
                               lead_probabilities=probs)
        reductions = np.array([point.reduction for point in curve.points])
        mains = reductions[:, :2]
        assert np.all(np.diff(mains, axis=0) > 0.0)
        interaction = reductions[:, 2]
        peak = int(np.argmax(interaction))
        assert 0 < peak < len(probs) - 1
        assert interaction[0] < interaction[peak]
        assert interaction[-1] < interaction[peak]


# ---------------------------------------------------------------------------
# 11. simulation runs are reproducible byte for byte


def test_criterion_11_simulation_determinism(capsys, tmp_path):
    with _criterion(capsys, 11, "identical seeds give byte-identical "
                    "simulation CSVs", 60.0):
        pop_path = tmp_path / "pop.json"
        pop_path.write_text(json.dumps({
            "n": 80, "k": 2, "sizes": {"equal": 80},
            "columns": [{"kind": "normal"}, {"kind": "normal"}],
            "outcome": {"intercepts": [0.0, 0.5, 1.0, 1.5],
                        "slopes": [1.0, 0.5], "noise_scales": 0.8,
                        "additive": True},
        }), encoding="utf-8")
        designs_path = tmp_path / "designs.json"
        designs_path.write_text(json.dumps({
            "designs": [{"name": "balanced",
                         "criterion": {"type": "overall", "p": 0.3}}],
            "seed": 3, "theory_draws": 2000,
        }), encoding="utf-8")

        outputs = []
        for tag in ("first", "second"):
            out_csv = tmp_path / f"{tag}.csv"
            out_json = tmp_path / f"{tag}.json"
            code = cli_main([
                "simulate", "--population", str(pop_path),
                "--designs", str(designs_path), "--reps", "40",
                "--out-csv", str(out_csv), "--out-json", str(out_json)])
            assert code == 0
            outputs.append((out_csv.read_bytes(),
                            json.loads(out_json.read_text())))
        assert outputs[0][0] == outputs[1][0]
        first, second = outputs[0][1], outputs[1][1]
        first.pop("timing_seconds")
        second.pop("timing_seconds")
        assert first == second
