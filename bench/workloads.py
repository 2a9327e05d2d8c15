"""The three benchmark workloads.

A workload is built once from ``--seed`` (its set-up, timed as
``setup_s``), then runs whole rounds of identical shape: each round is
``OPS_PER_ROUND`` operations with fresh seeds derived from the run seed
and the round number.  Program calls inside a round run under ``clock``,
so ``ops_per_s`` counts program time only; the benchmark's own work
(writing data files, checking outputs) stays outside it.  ``check``
runs after the timed phase.

Program modules are reached through ``importlib`` and called through
their module attributes at call time, so the traced run's hooks see every
call (the package attribute ``refac.rerandomize`` is the function, which
shadows the submodule).
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import os

import numpy as np

import checks


def derived_seed(seed: int, *path: int) -> int:
    """Unsigned 64-bit seed for one use of the run seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


def _program(name: str):
    return importlib.import_module(f"refac.{name}")


class OperationFailed(Exception):
    """The program reported failure through an exit code."""


def _additive_spec(simlab, n: int = 1000):
    """The criterion-06 population: 2^2 design, two normal covariates."""
    return simlab.PopulationSpec(
        n=n, k=2, columns=(simlab.normal_column(), simlab.normal_column()),
        outcome=simlab.OutcomeRecipe(intercepts=(0.0, 0.6, 1.0, 1.8),
                                     slopes=np.array([1.0, 1.0]),
                                     noise_scales=math.sqrt(2.0), additive=True))


def _non_additive_spec(simlab, n: int = 1000):
    """The criterion-08 population with arm-specific slopes and noise."""
    return simlab.PopulationSpec(
        n=n, k=2, columns=(simlab.normal_column(), simlab.normal_column()),
        outcome=simlab.OutcomeRecipe(
            intercepts=(0.0, 0.6, 1.0, 1.8),
            slopes=np.array([[1.0, 1.0], [1.3, 0.7], [0.8, 1.2], [1.1, 0.9]]),
            noise_scales=(1.2, 1.5, 1.3, 1.6)))


class VarianceStudy:
    """``simlab.replicate`` on the criterion-06 population, coverage off.

    Designs: overall p = 0.001, effect tiers (0.002, 0.5) and the
    triangular 2 x 2 grid (0.01, 0.5), each against the built-in
    complete-randomization baseline.  One operation is one replication of
    one design.
    """

    REPS = 10
    THEORY_DRAWS = 50_000
    OPS_PER_ROUND = 4 * REPS

    def __init__(self, seed: int, workdir: str):
        design, balance, simlab = (_program(m) for m in ("design", "balance", "simlab"))
        self.seed = seed
        self.structure = design.build_structure(2)
        self.population = simlab.generate_population(
            _additive_spec(simlab), np.random.default_rng([seed, 6]))
        self.sizes = design.GroupSizes.equal(4, self.population.n)
        mains = design.partition_by_order(self.structure)
        cov_tiers = design.CovariateTierPartition(((0,), (1,)))
        grid = design.TierGrid.triangular(2, 2)
        cutoffs = balance.thresholds_from_probability
        self.designs = (
            ("overall", balance.MahalanobisCriterion(float(cutoffs(6, 0.001)[0]))),
            ("tiers", balance.EffectTierCriterion(
                mains, tuple(float(a) for a in cutoffs((4, 2), (0.002, 0.5))))),
            ("grid", balance.GridTierCriterion(
                mains, cov_tiers, grid, tuple(float(a) for a in cutoffs(
                    grid.dims(cov_tiers, mains), (0.01, 0.5))))),
        )
        self.reports = []

    def round(self, index: int, clock) -> None:
        with clock:
            report = _program("simlab").replicate(
                self.population, self.structure, self.sizes, self.designs,
                reps=self.REPS, seed=derived_seed(self.seed, 1, index),
                theory_draws=self.THEORY_DRAWS)
        self.reports.append(report)

    def _closed_forms(self) -> dict[str, np.ndarray]:
        """Closed-form reductions from R^2 shares and chi-square masses.

        Dimensions: overall 3 effects x 2 covariates; tiers 2 x (2 mains,
        1 interaction); grid groups {(x1, mains)} = 2 and the rest = 4.
        """
        x, potential = self.population.x, self.population.potential
        u = potential[:, 0]  # additive: every column is this plus a constant
        total = checks.explained_share(u, x)
        first = checks.explained_share(u, x[:, 0])
        tier = [len(name.split(":")) - 1 for name in self.structure.effect_names()]
        (_, overall), (_, tiers), (_, grid) = self.designs
        return {
            "overall": checks.closed_form_reduction(
                [total], tier, [[0, 0]], [6], [overall.threshold]),
            "tiers": checks.closed_form_reduction(
                [total], tier, [[0, 1]], [4, 2], tiers.thresholds),
            "grid": checks.closed_form_reduction(
                [first, total - first], tier, [[0, 1], [1, 1]], [2, 4],
                grid.thresholds),
        }

    def check(self) -> list[str]:
        """Mean errors near 0, and each design's pooled variance near
        (1 - closed-form reduction) x the exact complete-randomization
        variance, which is the empirical reduction against its closed form."""
        failures = []
        k, names = self.structure.k, self.structure.effect_names()
        potential = self.population.potential
        tau = 2.0 ** (1 - k) * checks.effect_signs(names, k) @ potential.mean(axis=0)
        for report in self.reports:
            if not np.allclose(report.tau, tau, rtol=1e-9, atol=1e-12):
                failures.append(f"true effects {report.tau} differ from {tau}")
        complete = checks.complete_randomization_variance(potential, names, k,
                                                          self.sizes.counts)
        reduction = dict(self._closed_forms(), complete=np.zeros(len(names)))
        df = len(self.reports) * (self.REPS - 1)
        for d, res in enumerate(self.reports[0].all_results()):
            errors = np.array([r.all_results()[d].mean_error for r in self.reports])
            ses = np.array([r.all_results()[d].mean_error_se for r in self.reports])
            failures += checks.mean_error(errors.mean(axis=0),
                                          np.sqrt((ses ** 2).sum(axis=0)) / len(ses),
                                          res.name)
            variance = np.mean([r.all_results()[d].variance for r in self.reports], axis=0)
            failures += checks.variance_ratio(
                variance, (1.0 - reduction[res.name]) * complete, df, res.name)
        failures += self._check_rerandomize()
        return failures

    def _check_rerandomize(self) -> list[str]:
        """Two fresh draws per criterion: group counts and statistic sums."""
        rerandomize, rng = _program("rerandomize"), _program("rng")
        failures = []
        x = self.population.x
        for d, (name, criterion) in enumerate(self.designs):
            for i in range(2):
                outcome = rerandomize.rerandomize(
                    x, self.structure, self.sizes, criterion,
                    rng.stream(derived_seed(self.seed, 7, d, i)))
                labels = outcome.assignment.codes + 1
                report = outcome.report
                failures += [f"{name}: {m}" for m in
                             checks.group_counts(labels, self.sizes.counts) +
                             checks.statistics_sum(report.values, report.limits,
                                                   x, labels)]
        return failures


class CoverageStudy:
    """``simlab.replicate`` with coverage on, as in criterion 08.

    The additive and non-additive populations each run the overall
    criterion at p = 0.1 against the baseline, with 20 000 law draws per
    confidence set.  One operation is one replication of one design.
    """

    REPS = 25
    ALPHA = 0.05
    LAW_DRAWS = 20_000
    OPS_PER_ROUND = 2 * 2 * REPS

    def __init__(self, seed: int, workdir: str):
        design, balance, simlab = (_program(m) for m in ("design", "balance", "simlab"))
        self.seed = seed
        self.structure = design.build_structure(2)
        self.populations = (
            ("additive", simlab.generate_population(
                _additive_spec(simlab), np.random.default_rng([seed, 6]))),
            ("non-additive", simlab.generate_population(
                _non_additive_spec(simlab), np.random.default_rng([seed, 8]))),
        )
        self.sizes = design.GroupSizes.equal(4, 1000)
        self.criterion = balance.MahalanobisCriterion(
            float(balance.thresholds_from_probability(6, 0.1)[0]))
        self.covered: dict[str, list[int]] = {}

    def round(self, index: int, clock) -> None:
        simlab = _program("simlab")
        for p, (label, population) in enumerate(self.populations):
            with clock:
                report = simlab.replicate(
                    population, self.structure, self.sizes,
                    [("balanced", self.criterion)], reps=self.REPS,
                    seed=derived_seed(self.seed, 1, p, index), coverage=True,
                    alpha=self.ALPHA, law_draws=self.LAW_DRAWS, theory_draws=1000)
            for res in report.all_results():
                tally = self.covered.setdefault(f"{label} {res.name}", [0, 0])
                tally[0] += round(res.coverage * res.reps)
                tally[1] += res.reps

    def check(self) -> list[str]:
        failures = []
        for label, (covered, reps) in self.covered.items():
            failures += checks.coverage_floor(covered, reps, self.ALPHA, label)
        return failures + self._check_peakedness()

    def _check_peakedness(self) -> list[str]:
        """Criterion and complete-randomization sets on one dataset."""
        balance, confidence = _program("balance"), _program("confidence")
        rerandomize, rng = _program("rerandomize"), _program("rng")
        population = self.populations[0][1]
        x = population.x
        outcome = rerandomize.rerandomize(x, self.structure, self.sizes, self.criterion,
                                          rng.stream(derived_seed(self.seed, 9)))
        y = population.potential[np.arange(population.n), outcome.assignment.codes]
        sets = [confidence.confidence_set(
            y, x, outcome.assignment, self.structure, self.sizes, criterion,
            alpha=self.ALPHA, rng=rng.stream(derived_seed(self.seed, 10)),
            draws=self.LAW_DRAWS)
            for criterion in (self.criterion, balance.CompleteRandomization())]
        return checks.peakedness(sets[0].threshold, sets[0].shape,
                                 sets[1].threshold, sets[1].shape)


class CliWide:
    """``refac design`` then ``refac analyze`` in process on a wide design.

    A 2^7 design (128 groups of 8, n = 1024) with 3 correlated covariates,
    effect tiers at p = 0.01 for the main effects and 0.5 for all
    interactions, and 5000 law draws in ``analyze``.  One operation is one
    design-then-analyze round trip on generated CSV and JSON files.
    """

    K = 7
    N = 1024
    OPS_PER_ROUND = 1
    SLOPES = np.array([1.0, 0.5, -0.5])

    @classmethod
    def prepare(cls, seed: int, workdir: str) -> None:
        """Write the covariate file and the two configs (before set-up)."""
        corr = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.4], [0.3, 0.4, 1.0]])
        x = np.random.default_rng([seed, 1]).standard_normal((cls.N, 3)) @ \
            np.linalg.cholesky(corr).T
        _write_rows(os.path.join(workdir, "covariates.csv"),
                    ["unit", "x1", "x2", "x3"],
                    ([f"u{i:04d}", *row] for i, row in enumerate(x.tolist())))
        f_count = 2 ** cls.K - 1
        config = {"k": cls.K, "sizes": {"equal": cls.N}, "alpha": 0.05, "draws": 5000,
                  "criterion": {"type": "effect-tiers",
                                "tiers": [list(range(1, cls.K + 1)),
                                          list(range(cls.K + 1, f_count + 1))],
                                "p": [0.01, 0.5]}}
        for name, criterion in (("design", config["criterion"]),
                                ("complete", {"type": "complete"})):
            with open(os.path.join(workdir, f"{name}.json"), "w", encoding="utf-8") as fh:
                json.dump(dict(config, criterion=criterion), fh)

    def __init__(self, seed: int, workdir: str):
        _program("cli")
        self.seed = seed
        self.files = {name: os.path.join(workdir, name) for name in (
            "covariates.csv", "design.json", "complete.json", "assignment.csv",
            "report.json", "data.csv", "analysis.json", "complete-analysis.json")}
        self.x = None
        self.failures: list[str] = []
        self.last_seed = None

    def _cli(self, *argv: str) -> None:
        code = _program("cli").main(list(argv))
        if code != 0:
            raise OperationFailed(f"refac {argv[0]} exited with {code}")

    def round(self, index: int, clock) -> None:
        f = self.files
        op_seed = str(derived_seed(self.seed, 2, index))
        with clock:
            self._cli("design", "--config", f["design.json"], "--covariates",
                      f["covariates.csv"], "--out", f["assignment.csv"],
                      "--report", f["report.json"], "--seed", op_seed)
        if self.x is None:
            self.x = np.loadtxt(f["covariates.csv"], delimiter=",", skiprows=1,
                                usecols=(1, 2, 3))
        labels = np.loadtxt(f["assignment.csv"], delimiter=",", skiprows=1,
                            usecols=1, dtype=int)
        noise = np.random.default_rng([self.seed, 3, index]).standard_normal(self.N)
        y = self.x @ self.SLOPES + 0.3 * (labels > 2 ** (self.K - 1)) + noise
        _write_rows(f["data.csv"], ["unit", "x1", "x2", "x3", "outcome", "assignment"],
                    ([f"u{i:04d}", *row, yi, int(label)] for i, (row, yi, label) in
                     enumerate(zip(self.x.tolist(), y.tolist(), labels.tolist()))))
        with clock:
            self._cli("analyze", "--config", f["design.json"], "--data", f["data.csv"],
                      "--out", f["analysis.json"], "--seed", op_seed)
        self.last_seed = op_seed
        self._check_round(labels, y)

    def _check_round(self, labels, y) -> None:
        with open(self.files["report.json"], encoding="utf-8") as fh:
            balance = json.load(fh)["balance"]
        with open(self.files["analysis.json"], encoding="utf-8") as fh:
            analysis = json.load(fh)
        effects = analysis["effects"]
        self.failures += (
            checks.group_counts(labels, [self.N // 2 ** self.K] * 2 ** self.K) +
            checks.statistics_sum(balance["values"], balance["limits"], self.x, labels) +
            checks.contrast_estimates(effects["names"], effects["estimates"], y,
                                      labels, self.K) +
            checks.symmetric_psd(analysis["covariance_estimate"], "covariance_estimate"))

    def check(self) -> list[str]:
        """Per-round failures plus peakedness on the last round's data."""
        f = self.files
        self._cli("analyze", "--config", f["complete.json"], "--data", f["data.csv"],
                  "--out", f["complete-analysis.json"], "--seed", self.last_seed)
        sets = []
        for name in ("analysis.json", "complete-analysis.json"):
            with open(f[name], encoding="utf-8") as fh:
                sets.append(json.load(fh)["confidence_set"])
        return self.failures + checks.peakedness(
            sets[0]["threshold"], sets[0]["shape"], sets[1]["threshold"], sets[1]["shape"])


def _write_rows(path: str, header, rows) -> None:
    """CSV with floats at 17 significant digits, so values round-trip."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else v
                             for v in row])


WORKLOADS = {
    "variance-study": VarianceStudy,
    "coverage-study": CoverageStudy,
    "cli-wide": CliWide,
}
