"""Synthetic populations and replication studies.

Everything here is driven by explicit seeds through :func:`refac.rng.stream`,
so a study is reproducible bit for bit: rerunning with the same seed -- on
any number of worker threads -- yields the identical report.  Wall-clock
timing is carried alongside the results but never enters the deterministic
content.

Substream layout (first path component is a namespace tag):

==========  =======================================================
(0, d, i)   replication i of design d (0 is the built-in baseline)
(1, d)      theoretical law simulation for design d
(2,)        population generation helper seed (CLI convenience)
(3, d, i)   confidence-set law draws of replication i of design d
==========  =======================================================
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
import sys
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np
from scipy import special

from .asymptotic import simulate_law, validate_law_draws, variance_reduction
from .balance import (BalanceCriterion, CompleteRandomization, CriterionEngine,
                      EffectTierCriterion)
from .chisq import chi2_quantile
from .confidence import DEFAULT_ALPHA, confidence_set
from .design import (CONTRAST_BUDGET_BYTES, EffectTierPartition, FactorialStructure,
                     GroupSizes)
from .errors import ValidationError
from .estimate import effect_estimates
from .rerandomize import rerandomize
from .rng import stream
from .truth import law_from_truth, population_truth

#: each column kind's parameters, in (a, b) order, with their defaults (None: required)
COLUMN_KINDS = {"normal": {"mean": 0.0, "sd": 1.0}, "binary": {"rate": None},
                "uniform": {"low": 0.0, "high": 1.0}}

#: name reserved for the built-in unrestricted-randomization baseline
BASELINE_NAME = "complete"

#: quantile defining the spread column of replication reports
RANGE_QUANTILE = 0.95

#: default law draws of each replication's confidence set, with coverage on
COVERAGE_LAW_DRAWS = 20_000

#: default draws of each design's theoretical law
THEORY_DRAWS = 200_000


# ---------------------------------------------------------------------------
# synthetic populations


def _is_number(value) -> bool:
    """A real number that a float can hold; a string, a boolean (JSON ``true``)
    or an integer past the float range is not one."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and not (isinstance(value, int) and abs(value) > sys.float_info.max))


def _floats(value, label: str, finite: bool = True) -> np.ndarray:
    """``value`` as a float array whose every entry is a number (see
    :func:`_is_number`), so a mapping or a ragged list is refused too; so is
    a NaN or an infinity unless ``finite`` is off."""
    cells = np.asarray(value, dtype=object)
    if not all(map(_is_number, cells.flat)):
        raise ValidationError(f"{label} must be numbers, got {value!r}")
    out = cells.astype(float)
    if finite and not np.isfinite(out).all():
        raise ValidationError(f"{label} must be finite, got {value!r}")
    return out


@dataclass(frozen=True)
class CovariateColumn:
    """One synthetic covariate column.

    kind "normal" uses (a, b) = (mean, sd); "binary" uses a = success rate;
    "uniform" uses (a, b) = (low, high).  A parameter left None takes its
    default from :data:`COLUMN_KINDS`.  All columns are carved out of a
    shared latent Gaussian vector, so cross-column correlation survives the
    marginal transforms (attenuated for the discrete kinds).
    """

    kind: str
    a: float | None = None
    b: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in COLUMN_KINDS:
            *most, last = COLUMN_KINDS
            raise ValidationError(
                f"unknown kind {self.kind!r}; expected {', '.join(most)}, or {last}")
        for attr, (name, default) in zip(("a", "b"), COLUMN_KINDS[self.kind].items()):
            value = getattr(self, attr)
            if value is None and default is None:
                raise ValidationError(f"{self.kind} column needs {name!r}")
            value = default if value is None else value
            label = f"{self.kind} column {name}"
            if not _is_number(value):
                raise ValidationError(f"{label} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValidationError(f"{label} must be finite, got {value}")
            object.__setattr__(self, attr, float(value))
        if self.kind == "normal" and not self.b > 0.0:
            raise ValidationError(f"normal column needs sd > 0, got {self.b}")
        if self.kind == "binary" and not 0.0 < self.a < 1.0:
            raise ValidationError(
                f"binary column needs a rate strictly inside (0, 1), got {self.a}")
        if self.kind == "uniform" and not self.b > self.a:
            raise ValidationError(
                f"uniform column needs high > low, got [{self.a}, {self.b}]")

    @classmethod
    def named(cls, kind, /, **params) -> CovariateColumn:
        """A ``kind`` column from its parameters by name."""
        names = COLUMN_KINDS.get(kind, {}) if isinstance(kind, str) else {}
        if names and set(params) - set(names):  # an unknown kind is refused below
            raise ValidationError(f"unknown keys {sorted(set(params) - set(names))}; "
                                  f"allowed: {sorted(['kind', *names])}")
        return cls(kind, *map(params.get, names))


def normal_column(mean: float | None = None, sd: float | None = None) -> CovariateColumn:
    return CovariateColumn("normal", mean, sd)


def binary_column(rate: float) -> CovariateColumn:
    return CovariateColumn("binary", rate)


def uniform_column(low: float | None = None, high: float | None = None) -> CovariateColumn:
    return CovariateColumn("uniform", low, high)


@dataclass(frozen=True, eq=False)
class OutcomeRecipe:
    """Linear-in-covariates potential outcomes with per-combination pieces.

    ``intercepts`` has one entry per treatment combination; ``slopes`` is
    either a shared (L,) vector or a (Q, L) table; ``noise_scales`` is a
    scalar or one scale per combination.  With ``additive=True`` a single
    noise draw is shared by all combinations, which forces constant unit
    effects -- the recipe then requires identical slopes and noise scales
    across combinations and forbids clamping. ``clamp`` truncates outcomes
    into [lo, hi] after noise.
    """

    intercepts: tuple[float, ...]
    slopes: np.ndarray
    noise_scales: tuple[float, ...] | float = 1.0
    additive: bool = False
    clamp: tuple[float, float] | None = None

    def __post_init__(self):
        if not isinstance(self.additive, bool):
            raise ValidationError(f"additive must be true or false, got {self.additive!r}")
        intercepts = _floats(self.intercepts, "intercepts")
        if intercepts.ndim != 1:
            raise ValidationError(f"intercepts must be a list, got {self.intercepts!r}")
        object.__setattr__(self, "intercepts", tuple(intercepts.tolist()))
        object.__setattr__(self, "slopes", _floats(self.slopes, "slopes"))
        if self.slopes.ndim not in (1, 2):
            raise ValidationError(
                f"slopes must be a vector or a (groups x covariates) table, "
                f"got shape {self.slopes.shape}")
        noise = _floats(self.noise_scales, "noise_scales")
        if noise.ndim > 1:
            raise ValidationError(
                f"noise scales must be a scalar or a list, got shape {noise.shape}")
        if (noise < 0.0).any():
            raise ValidationError("noise scales must be nonnegative")
        object.__setattr__(self, "noise_scales",
                           float(noise) if noise.ndim == 0 else tuple(noise.tolist()))
        if self.clamp is not None:
            bounds = _floats(self.clamp, "clamp", finite=False)  # one side may be open
            if bounds.shape != (2,):
                raise ValidationError(f"clamp must be [lo, hi], got {self.clamp!r}")
            lo, hi = bounds.tolist()
            if not lo < hi:
                raise ValidationError(f"clamp bounds must satisfy lo < hi, got {self.clamp}")
            object.__setattr__(self, "clamp", (lo, hi))

    def slope_table(self, q_count: int, l_count: int) -> np.ndarray:
        s = self.slopes
        if s.ndim == 1:
            if s.size != l_count:
                raise ValidationError(
                    f"shared slope vector has {s.size} entries for {l_count} covariates")
            s = np.tile(s, (q_count, 1))
        elif s.shape != (q_count, l_count):
            raise ValidationError(
                f"slope table has shape {s.shape}, expected ({q_count}, {l_count})")
        return s

    def noise_table(self, q_count: int) -> np.ndarray:
        out = np.asarray(self.noise_scales)
        if out.ndim == 0:
            return np.full(q_count, self.noise_scales)
        if out.shape != (q_count,):
            raise ValidationError(
                f"noise scales must be a scalar or one per combination "
                f"({q_count}), got shape {out.shape}")
        return out

    def check_additive(self, q_count: int, l_count: int) -> None:
        if not self.additive:
            return
        slopes = self.slope_table(q_count, l_count)
        if np.ptp(slopes, axis=0).max(initial=0.0) > 0.0:
            raise ValidationError(
                "additive outcomes require the same slopes in every combination")
        if np.ptp(self.noise_table(q_count)) > 0.0:
            raise ValidationError(
                "additive outcomes require the same noise scale in every combination")
        if self.clamp is not None:
            raise ValidationError("clamping would break additivity; drop one of the two")


@dataclass(frozen=True, eq=False)
class PopulationSpec:
    """Recipe for a synthetic finite population."""

    n: int
    k: int
    columns: tuple[CovariateColumn, ...]
    outcome: OutcomeRecipe
    correlation: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 4:
            raise ValidationError(f"population size must be at least 4, got {self.n}")
        if not self.columns:
            raise ValidationError("need at least one covariate column")
        object.__setattr__(self, "columns", tuple(self.columns))
        if self.correlation is not None:
            corr = _floats(self.correlation, "correlation")
            l_count = len(self.columns)
            if corr.shape != (l_count, l_count):
                raise ValidationError(
                    f"correlation must be ({l_count}, {l_count}), got {corr.shape}")
            if not np.allclose(corr, corr.T, atol=1e-12):
                raise ValidationError("correlation matrix must be symmetric")
            if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
                raise ValidationError("correlation matrix needs a unit diagonal")
            object.__setattr__(self, "correlation", corr)

    @property
    def covariate_count(self) -> int:
        return len(self.columns)


@dataclass(frozen=True, eq=False)
class Population:
    """Realized finite population: covariates plus full potential-outcome table."""

    x: np.ndarray          # (n, L)
    potential: np.ndarray  # (n, Q)
    k: int

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def covariate_count(self) -> int:
        return self.x.shape[1]

    @property
    def q_count(self) -> int:
        return self.potential.shape[1]


def generate_population(spec: PopulationSpec,
                        rng: np.random.Generator) -> Population:
    """Draw one finite population from a spec.

    Draw order is fixed (latent covariate Gaussians, then outcome noise),
    so a given generator state always produces the same population.
    """
    q_count = 2 ** spec.k
    l_count = spec.covariate_count
    latent = rng.standard_normal((spec.n, l_count))
    if spec.correlation is not None:
        try:
            chol = np.linalg.cholesky(spec.correlation)
        except np.linalg.LinAlgError:
            raise ValidationError("correlation matrix is not positive definite") from None
        latent = latent @ chol.T

    x = np.empty_like(latent)
    for j, col in enumerate(spec.columns):
        z = latent[:, j]
        if col.kind == "normal":
            x[:, j] = col.a + col.b * z
        elif col.kind == "binary":
            x[:, j] = (special.ndtr(z) < col.a).astype(float)
        else:
            x[:, j] = col.a + (col.b - col.a) * special.ndtr(z)

    recipe = spec.outcome
    if len(recipe.intercepts) != q_count:
        raise ValidationError(
            f"outcome recipe has {len(recipe.intercepts)} intercepts for a "
            f"2^{spec.k} design ({q_count} combinations)")
    recipe.check_additive(q_count, l_count)
    slopes = recipe.slope_table(q_count, l_count)
    noise = recipe.noise_table(q_count)
    potential = np.asarray(recipe.intercepts) + x @ slopes.T
    if recipe.additive:
        potential = potential + noise[0] * rng.standard_normal(spec.n)[:, None]
    else:
        potential = potential + noise * rng.standard_normal((spec.n, q_count))
    if recipe.clamp is not None:
        np.clip(potential, *recipe.clamp, out=potential)
    return Population(x=x, potential=potential, k=spec.k)


def education_like() -> tuple[PopulationSpec, GroupSizes]:
    """Semi-synthetic 2^2 study population modeled on a university records
    experiment: four treatment arms of very different sizes, five intake
    covariates, grade-point outcomes clamped to [0, 4].

    Constants are calibrated so that generated populations put the squared
    multiple correlation between effect estimates and covariate imbalance
    near 0.245 for every effect.
    """
    columns = (
        normal_column(77.0, 6.5),   # admission composite score
        binary_column(0.57),        # female
        normal_column(19.1, 0.9),   # age at entry
        binary_column(0.30),        # metropolitan home region
        binary_column(0.42),        # strong study-habits survey flag
    )
    corr = np.eye(5)
    corr[0, 4] = corr[4, 0] = 0.25
    corr[0, 2] = corr[2, 0] = -0.10
    corr[1, 4] = corr[4, 1] = 0.12
    base = np.array([0.0525, -0.06, -0.045, -0.075, 0.21])
    tilt = np.array([1.00, 1.06, 0.96, 1.09])  # arm-specific score emphasis
    slopes = np.tile(base, (4, 1))
    slopes[:, 0] *= tilt
    outcome = OutcomeRecipe(
        intercepts=(-1.62, -1.44, -1.50, -1.23),
        slopes=slopes,
        noise_scales=(0.633, 0.673, 0.653, 0.694),
        clamp=(0.0, 4.0),
    )
    spec = PopulationSpec(n=1398, k=2, columns=columns, outcome=outcome,
                          correlation=corr)
    return spec, GroupSizes((856, 216, 208, 118))


# ---------------------------------------------------------------------------
# Monte Carlo error helpers


def _variance_se(samples: np.ndarray) -> float:
    """Nonparametric standard error of the sample variance."""
    n = samples.size
    c = samples - samples.mean()
    s2 = c @ c / (n - 1)
    m4 = np.mean(c ** 4)
    return math.sqrt(max((m4 - s2 * s2 * (n - 3) / (n - 1)) / n, 0.0))

def _quantile_se(samples: np.ndarray, p: float) -> float:
    """Asymptotic SE of an empirical quantile, density estimated by a
    central difference of nearby quantiles."""
    n = samples.size
    delta = min((1.0 - p) / 2.0, max(0.005, 1.5 / math.sqrt(n)))
    hi, lo = np.quantile(samples, [p + delta, p - delta])
    slope = (hi - lo) / (2.0 * delta)  # ~ 1 / density at the quantile
    return math.sqrt(p * (1.0 - p) / n) * slope

def _ratio_reduction_se(a: float, se_a: float, b: float, se_b: float) -> float:
    """Delta-method SE of 1 - a/b for independent estimates a and b."""
    if a <= 0.0 or b <= 0.0:
        return math.nan
    return (a / b) * math.sqrt((se_a / a) ** 2 + (se_b / b) ** 2)


# ---------------------------------------------------------------------------
# replication study


@dataclass(frozen=True, eq=False)
class DesignResult:
    """Monte Carlo summaries for one design, every array indexed by effect."""

    name: str
    reps: int
    acceptance_rate: float
    acceptance_rate_se: float
    mean_draws: float
    mean_error: np.ndarray
    mean_error_se: np.ndarray
    variance: np.ndarray
    variance_se: np.ndarray
    variance_reduction: np.ndarray
    variance_reduction_se: np.ndarray
    variance_reduction_theory: np.ndarray
    quantile_range: np.ndarray
    quantile_range_se: np.ndarray
    quantile_range_reduction: np.ndarray
    quantile_range_reduction_se: np.ndarray
    quantile_range_reduction_theory: np.ndarray
    coverage: float
    coverage_se: float


@dataclass(frozen=True, eq=False)
class ReplicationReport:
    """Full output of :func:`replicate`.

    Everything except ``timing_seconds`` is a pure function of the inputs
    and the seed.
    """

    seed: int
    reps: int
    n: int
    k: int
    covariate_count: int
    effect_names: tuple[str, ...]
    tau: np.ndarray
    alpha: float | None
    law_draws: int | None
    theory_draws: int
    baseline: DesignResult
    designs: tuple[DesignResult, ...]
    timing_seconds: float = field(compare=False)

    def all_results(self) -> tuple[DesignResult, ...]:
        return (self.baseline,) + self.designs


def _run_tasks(task, count: int, threads: int) -> list:
    """``[task(0), ..., task(count - 1)]`` from the calling thread and
    ``min(threads, count) - 1`` helper threads, which take indices in order
    from one counter.  After a failure or an interrupt no index is taken;
    every lower index was taken earlier and runs out, so the error raised
    is that of the lowest failing index, as in a serial run, unless an
    interrupt came.  Every helper is joined before this returns or raises.
    """
    results, errors, stop = [None] * count, {}, threading.Event()
    indices, lock = itertools.count(), threading.Lock()

    def work():
        while not stop.is_set():
            with lock:
                i = next(indices)
            if i >= count:
                return
            try:
                results[i] = task(i)
            except BaseException as exc:  # an interrupt, too, stops the loop
                errors[i] = exc
                stop.set()

    helpers = [threading.Thread(target=work) for _ in range(min(threads, count) - 1)]
    try:
        for helper in helpers:
            helper.start()
        work()
    finally:
        stop.set()
        for helper in helpers:
            if helper.ident is not None:  # it was started
                helper.join()
    if errors:  # an interrupt first, else the error of the lowest failing index
        raise min(errors.items(), key=lambda e: (isinstance(e[1], Exception), e[0]))[1]
    return results


def _summarize(name, taus, draws, covers, tau, baseline=None,
               theory_var_red=None, theory_range_red=None) -> DesignResult:
    reps = taus.shape[0]
    f_count = taus.shape[1]
    errors = taus - tau
    mean_error = errors.mean(axis=0)
    mean_error_se = errors.std(axis=0, ddof=1) / math.sqrt(reps)
    variance = taus.var(axis=0, ddof=1)
    variance_se = np.array([_variance_se(taus[:, f]) for f in range(f_count)])
    abs_err = np.abs(errors)
    qrange = np.quantile(abs_err, RANGE_QUANTILE, axis=0)
    qrange_se = np.array([_quantile_se(col, RANGE_QUANTILE) for col in abs_err.T])

    nan_f = np.full(f_count, np.nan)
    if baseline is None:
        var_red = var_red_se = range_red = range_red_se = nan_f
        theory_var_red = theory_range_red = nan_f
    else:
        var_red = 1.0 - variance / baseline.variance
        var_red_se = np.array(list(map(_ratio_reduction_se, variance, variance_se,
                                       baseline.variance, baseline.variance_se)))
        range_red = 1.0 - qrange / baseline.quantile_range
        range_red_se = np.array(list(map(_ratio_reduction_se, qrange, qrange_se,
                                         baseline.quantile_range,
                                         baseline.quantile_range_se)))

    rate = reps / float(draws.sum())
    rate_se = rate * math.sqrt((1.0 - rate) / reps)
    if covers is None:
        cov = cov_se = math.nan
    else:
        cov = covers.mean()
        cov_se = math.sqrt(cov * (1.0 - cov) / reps)
    return DesignResult(
        name=name, reps=reps,
        acceptance_rate=rate, acceptance_rate_se=rate_se,
        mean_draws=float(draws.mean()),
        mean_error=mean_error, mean_error_se=mean_error_se,
        variance=variance, variance_se=variance_se,
        variance_reduction=var_red, variance_reduction_se=var_red_se,
        variance_reduction_theory=theory_var_red,
        quantile_range=qrange, quantile_range_se=qrange_se,
        quantile_range_reduction=range_red,
        quantile_range_reduction_se=range_red_se,
        quantile_range_reduction_theory=theory_range_red,
        coverage=float(cov), coverage_se=float(cov_se))


def replicate(population: Population, structure: FactorialStructure,
              sizes: GroupSizes, designs: Sequence[tuple[str, BalanceCriterion]],
              *, reps: int, seed: int, coverage: bool = False,
              alpha: float = DEFAULT_ALPHA, law_draws: int = COVERAGE_LAW_DRAWS,
              theory_draws: int = THEORY_DRAWS, max_draws: int | None = None,
              workers: int | None = None) -> ReplicationReport:
    """Monte Carlo comparison of balance criteria on a fixed population.

    Every named design is rerun ``reps`` times against an implicit
    unrestricted-randomization baseline; empirical variance and spread
    reductions are reported next to their theoretical (asymptotic-law)
    counterparts.  When ``coverage`` is set, each replication also builds a
    joint confidence set for all effects and checks it against the true
    effect vector.

    Replications run on the calling thread and helper threads, at most
    ``workers`` in all (default: the usable CPUs); reports do not depend on it.
    """
    started = time.perf_counter()
    # the task loop keeps reps effect-estimate vectors of F floats per design
    reps_cap = CONTRAST_BUDGET_BYTES // 8 // ((len(designs) + 1) * structure.f_count)
    if not 2 <= reps <= reps_cap:
        raise ValidationError(
            f"reps must lie in [2, {reps_cap}] for {len(designs) + 1} designs (the "
            f"baseline included) and {structure.f_count} effects, got {reps}")
    if workers is not None and workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    # simulate_law returns a (theory_draws, F) float array
    theory_cap = CONTRAST_BUDGET_BYTES // 8 // structure.f_count
    if not 1_000 <= theory_draws <= theory_cap:
        raise ValidationError(
            f"theory_draws must lie in [1000, {theory_cap}] for "
            f"{structure.f_count} effects, got {theory_draws}")
    if coverage:
        validate_law_draws(law_draws)
    if population.k != structure.k:
        raise ValidationError(
            f"population was generated for k={population.k}, structure has "
            f"k={structure.k}")
    names = [name for name, _ in designs]
    if BASELINE_NAME in names:
        raise ValidationError(
            f"design name {BASELINE_NAME!r} is reserved for the baseline")
    if len(set(names)) != len(names):
        raise ValidationError(f"design names must be unique, got {names}")

    x, potential = population.x, population.potential
    truth = population_truth(x, potential, structure, sizes)
    tau = truth.tau
    all_designs = [(BASELINE_NAME, CompleteRandomization())] + list(designs)

    # one engine per design, shared read-only by every replication
    engines = [CriterionEngine(x, structure, sizes, criterion)
               for _, criterion in all_designs]

    def replication(task: int):
        d, i = divmod(task, reps)
        engine = engines[d]
        outcome = rerandomize(x, structure, sizes, engine.criterion,
                              stream(seed, 0, d, i), max_draws=max_draws,
                              engine=engine)
        y = potential[np.arange(len(x)), outcome.assignment.codes]
        covered = coverage and confidence_set(
            y, x, outcome.assignment, structure, sizes, engine.criterion,
            alpha=alpha, rng=stream(seed, 3, d, i), draws=law_draws).contains(tau)
        return (effect_estimates(y, outcome.assignment, structure),
                outcome.draws_attempted, covered)

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)  # the CPUs this process may run on
    done = _run_tasks(replication, len(all_designs) * reps,
                      cpus if workers is None else min(workers, cpus))

    results: list[DesignResult] = []
    for d, (name, criterion) in enumerate(all_designs):
        taus, draws, covers = (np.array(v) for v in zip(*done[d * reps:(d + 1) * reps]))
        covers = covers if coverage else None
        law = law_from_truth(x, potential, structure, sizes, criterion, truth=truth)
        phi = simulate_law(law, stream(seed, 1, d), theory_draws)
        theory_range = np.quantile(np.abs(phi, out=phi), RANGE_QUANTILE, axis=0,
                                   overwrite_input=True)
        if d == 0:  # the baseline's theoretical spread scales every comparison
            base_range = theory_range
            results.append(_summarize(name, taus, draws, covers, tau))
            continue
        theory_var = variance_reduction(law.profile(truth.total_cov),
                                        [c.dim for c in law.components],
                                        [c.cutoff for c in law.components])
        results.append(_summarize(name, taus, draws, covers, tau,
                                  baseline=results[0],
                                  theory_var_red=theory_var,
                                  theory_range_red=1.0 - theory_range / base_range))

    return ReplicationReport(
        seed=seed, reps=reps, n=population.n, k=structure.k,
        covariate_count=population.covariate_count,
        effect_names=structure.effect_names(), tau=tau,
        alpha=alpha if coverage else None,
        law_draws=law_draws if coverage else None,
        theory_draws=theory_draws,
        baseline=results[0], designs=tuple(results[1:]),
        timing_seconds=time.perf_counter() - started)


def report_rows(report: ReplicationReport) -> list[dict]:
    """Flatten a report to one row per (design, effect) for tabular output.

    Deliberately excludes timing, so identical seeds give identical rows.
    """
    rows = []
    for res in report.all_results():
        for f, effect in enumerate(report.effect_names):
            row = {"design": res.name, "effect": effect, "reps": res.reps,
                   "true_effect": float(report.tau[f])}
            for item in fields(res)[2:]:  # every summary after name and reps
                value = getattr(res, item.name)
                row[item.name] = float(value[f]) if isinstance(value, np.ndarray) else value
            rows.append(row)
    return rows


def report_to_dict(report: ReplicationReport) -> dict:
    """JSON-ready dictionary form of a report, without its timing."""
    def plain(value):
        return value.tolist() if isinstance(value, np.ndarray) else value

    return {
        "seed": report.seed,
        "reps": report.reps,
        "n": report.n,
        "k": report.k,
        "covariate_count": report.covariate_count,
        "effect_names": list(report.effect_names),
        "true_effects": report.tau.tolist(),
        "alpha": report.alpha,
        "law_draws": report.law_draws,
        "theory_draws": report.theory_draws,
        "designs": [{item.name: plain(getattr(res, item.name)) for item in fields(res)}
                    for res in report.all_results()],
    }


# ---------------------------------------------------------------------------
# acceptance-probability tradeoff between two effect tiers


@dataclass(frozen=True, eq=False)
class TradeoffPoint:
    """One split of the overall acceptance probability across two tiers."""

    lead_probability: float
    tail_probability: float
    cutoffs: tuple[float | None, float | None]
    reduction: np.ndarray  # per-effect theoretical variance reduction


@dataclass(frozen=True, eq=False)
class TradeoffCurve:
    overall_probability: float
    effect_names: tuple[str, ...]
    points: tuple[TradeoffPoint, ...]


def tradeoff_sweep(x: np.ndarray, potential: np.ndarray,
                   structure: FactorialStructure, sizes: GroupSizes,
                   partition: EffectTierPartition, overall_probability: float,
                   lead_probabilities: Sequence[float]) -> TradeoffCurve:
    """Theoretical variance reduction as the acceptance budget moves between
    two effect tiers.

    For each lead-tier probability p1, the tail tier gets p2 = overall / p1
    so the product stays fixed.  A tier probability of 1 means that tier is
    left untruncated.  The asymptotic reduction needs only the correlation
    profile, so no assignments are drawn.
    """
    if len(partition) != 2:
        raise ValidationError(
            f"the tradeoff sweep is defined for exactly 2 effect tiers, "
            f"got {len(partition)}")
    if not 0.0 < overall_probability < 1.0:
        raise ValidationError(
            f"overall acceptance probability must lie strictly inside (0, 1), "
            f"got {overall_probability}")
    truth = population_truth(x, potential, structure, sizes)
    # the law's coefficients do not depend on the cutoffs, so any will do
    law = law_from_truth(x, potential, structure, sizes,
                         EffectTierCriterion(partition, (1.0, 1.0)), truth=truth)
    profile = law.profile(truth.total_cov)
    dims = [c.dim for c in law.components]

    points = []
    for p1 in lead_probabilities:
        p1 = float(p1)
        if not overall_probability <= p1 <= 1.0:
            raise ValidationError(
                f"lead probability {p1} must lie in [{overall_probability}, 1]")
        p2 = min(overall_probability / p1, 1.0)
        cutoffs = tuple(
            None if p >= 1.0 - 1e-12 else chi2_quantile(p, int(dim))
            for p, dim in zip((p1, p2), dims))
        red = variance_reduction(profile, dims, cutoffs)
        points.append(TradeoffPoint(lead_probability=p1, tail_probability=p2,
                                    cutoffs=cutoffs, reduction=red))
    return TradeoffCurve(overall_probability=overall_probability,
                         effect_names=structure.effect_names(),
                         points=tuple(points))
