"""Output checks for the benchmark workloads.

Every check recomputes what it compares against with numpy and scipy
alone, or tests a property the method must have; none compares against a
stored copy of earlier output.  Each returns a list of failure messages,
empty when the output passes, so a workload can report every problem at
once and the tests can feed deliberately corrupted outputs.
"""

from __future__ import annotations

import math

import numpy as np


def group_counts(labels, counts) -> list[str]:
    """1-based assignment labels must fill every group with its count."""
    labels = np.asarray(labels)
    q_count = len(counts)
    if labels.min() < 1 or labels.max() > q_count:
        return [f"assignment labels outside 1..{q_count}"]
    got = np.bincount(labels - 1, minlength=q_count)
    bad = np.flatnonzero(got != np.asarray(counts))
    return [f"group {q + 1} has {got[q]} units, expected {counts[q]}"
            for q in bad]


def whitened_overall_statistic(x, labels) -> float:
    """Overall Mahalanobis imbalance as sum_q ||sum_{i in q} z_i||^2 / n_q.

    ``z`` is ``x`` centred and whitened by its n - 1 covariance, so no
    contrast matrix or Gram inverse is involved.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    centred = x - x.mean(axis=0)
    w, u = np.linalg.eigh(np.atleast_2d(np.cov(x, rowvar=False, ddof=1)))
    z = centred @ (u / np.sqrt(w)) @ u.T
    q_count = int(labels.max())
    sums = np.zeros((q_count, x.shape[1]))
    np.add.at(sums, labels - 1, z)
    sizes = np.bincount(labels - 1, minlength=q_count)
    return float(((sums ** 2).sum(axis=1) / sizes).sum())


def statistics_sum(values: dict, limits: dict, x, labels,
                   rel_tol: float = 1e-9) -> list[str]:
    """Thresholded statistics add up to the overall one and pass their cutoffs.

    ``limits`` names the thresholded statistics; ``values`` may hold more
    (grid cells), which are ignored.
    """
    failures = []
    total = sum(values[name] for name in limits)
    overall = whitened_overall_statistic(x, labels)
    if not abs(total - overall) <= rel_tol * overall:
        failures.append(f"thresholded statistics sum to {total!r}, the "
                        f"whitened group sums give {overall!r}")
    for name, limit in limits.items():
        if not values[name] <= limit:
            failures.append(f"{name} = {values[name]!r} exceeds its cutoff {limit!r}")
    return failures


def effect_signs(names, k: int) -> np.ndarray:
    """(F, 2^k) +/-1 signs of each named effect in every combination.

    Combinations are numbered with factor 1 most significant and level -1
    before +1; effect names join 1-based factor numbers with ':'.
    """
    q = np.arange(2 ** k)
    levels = np.array([np.where((q >> (k - j)) & 1, 1.0, -1.0)
                       for j in range(1, k + 1)])
    return np.array([np.prod(levels[[int(f) - 1 for f in name.split(":")]], axis=0)
                     for name in names])


def contrast_estimates(names, estimates, y, labels, k: int,
                       tol: float = 1e-9) -> list[str]:
    """Effect estimates equal 2^{1-k} times signed contrasts of group means."""
    labels = np.asarray(labels)
    y = np.asarray(y, dtype=float)
    q_count = 2 ** k
    means = np.bincount(labels - 1, weights=y, minlength=q_count) / \
        np.bincount(labels - 1, minlength=q_count)
    expected = 2.0 ** (1 - k) * effect_signs(names, k) @ means
    gap = np.abs(np.asarray(estimates, dtype=float) - expected)
    scale = max(1.0, float(np.abs(expected).max()))
    return [f"effect {names[f]}: estimate {estimates[f]!r}, contrast of group "
            f"means {expected[f]!r}" for f in np.flatnonzero(gap > tol * scale)]


def symmetric_psd(matrix, label: str, tol: float = 1e-10) -> list[str]:
    """Symmetric and positive semidefinite up to round-off."""
    m = np.asarray(matrix, dtype=float)
    scale = float(np.abs(m).max())
    if not np.allclose(m, m.T, rtol=0.0, atol=tol * scale):
        return [f"{label} is not symmetric"]
    smallest = float(np.linalg.eigvalsh(m)[0])
    if smallest < -tol * scale:
        return [f"{label} has eigenvalue {smallest!r}"]
    return []


def peakedness(restricted_threshold: float, restricted_shape,
               complete_threshold: float, complete_shape) -> list[str]:
    """A balance criterion gives a threshold no larger than complete
    randomization on the same data, on the identical ellipsoid shape."""
    failures = []
    if not np.array_equal(np.asarray(restricted_shape), np.asarray(complete_shape)):
        failures.append("confidence-set shapes differ between the criterion "
                        "and complete randomization")
    if not restricted_threshold <= complete_threshold:
        failures.append(f"criterion threshold {restricted_threshold!r} exceeds "
                        f"the complete-randomization threshold "
                        f"{complete_threshold!r}")
    return failures


def coverage_floor(covered: int, reps: int, alpha: float, label: str,
                   z: float = 4.5) -> list[str]:
    """Coverage is at least 1 - alpha minus ``z`` binomial standard errors."""
    floor = 1.0 - alpha - z * math.sqrt(alpha * (1.0 - alpha) / reps)
    coverage = covered / reps
    if coverage < floor:
        return [f"{label}: coverage {coverage:.4f} over {reps} reps is below "
                f"{floor:.4f}"]
    return []


def truncation_factor(dim: int, cutoff: float) -> float:
    """Per-coordinate variance of a standard Gaussian given norm^2 <= cutoff."""
    from scipy import stats  # imported here so it stays out of the timed set-up
    return float(stats.chi2.cdf(cutoff, dim + 2) / stats.chi2.cdf(cutoff, dim))


def explained_share(u, x) -> float:
    """R^2 of the least-squares fit of ``u`` on ``x`` with an intercept."""
    u = np.asarray(u, dtype=float) - np.mean(u)
    xc = np.asarray(x, dtype=float)
    xc = (xc - xc.mean(axis=0)).reshape(len(u), -1)
    fit = xc @ np.linalg.lstsq(xc, u, rcond=None)[0]
    return float(fit @ fit / (u @ u))


def closed_form_reduction(shares, effect_tier, group_of, dims, cutoffs) -> np.ndarray:
    """Per-effect variance reduction sum_t (1 - v_j) R^2_t, j = group_of[t][h].

    ``shares[t]`` is the part of R^2 added by covariate tier t (each tier
    orthogonalized on the earlier ones), ``effect_tier[f]`` is effect f's
    tier h and ``group_of[t][h]`` the thresholded statistic of cell (t, h).
    Exact for additive outcomes with equal group sizes, where each effect
    correlates only with the covariate imbalance of its own tier.
    """
    v = [truncation_factor(int(d), float(a)) for d, a in zip(dims, cutoffs)]
    return np.array([sum((1.0 - v[group_of[t][h]]) * share
                         for t, share in enumerate(shares))
                     for h in effect_tier])


def complete_randomization_variance(potential, names, k: int, counts) -> np.ndarray:
    """Exact variance of each effect estimate under complete randomization.

    sum_q c_q^2 S_q^2 / n_q - S_tau^2 / n with c = 2^{1-k} x effect signs,
    S_q^2 the n - 1 variance of potential outcome q and S_tau^2 that of the
    unit-level effects.
    """
    potential = np.asarray(potential, dtype=float)
    coef = 2.0 ** (1 - k) * effect_signs(names, k)
    group_var = potential.var(axis=0, ddof=1)
    unit_effects = potential @ coef.T
    return (coef ** 2 * group_var / np.asarray(counts)).sum(axis=1) - \
        unit_effects.var(axis=0, ddof=1) / potential.shape[0]


def mean_error(errors, ses, label: str, z: float = 4.5) -> list[str]:
    """Each effect's mean error lies within ``z`` standard errors of 0."""
    errors, ses = np.asarray(errors), np.asarray(ses)
    return [f"{label}, effect {f + 1}: mean error {errors[f]!r} is more than "
            f"{z} SE ({ses[f]!r}) from 0"
            for f in np.flatnonzero(~(np.abs(errors) <= z * ses))]


def variance_ratio(variance, expected, df: int, label: str, z: float = 4.5) -> list[str]:
    """Pooled sample variances lie within ``z`` SE of their expected values.

    Compared on the log scale, where a sample variance with ``df`` degrees
    of freedom has SE sqrt(2 / df) for Gaussian estimates.  Estimates under
    rerandomization have lighter tails, so the SE is conservative there.
    """
    ratio = np.asarray(variance) / np.asarray(expected)
    se = math.sqrt(2.0 / df)
    return [f"{label}, effect {f + 1}: variance is {ratio[f]:.4f} x its closed "
            f"form, SE of the log ratio {se:.4f}"
            for f in np.flatnonzero(~(np.abs(np.log(ratio)) <= z * se))]
