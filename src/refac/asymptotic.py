"""Asymptotic sampling laws under rerandomized factorial designs.

The limiting law of the (centered) effect estimator is a Gaussian residual
plus one linearly-transformed truncated Gaussian per balance statistic:

    base^{1/2} eps  +  sum_i  coef_i  zeta_i,

where eps is standard Gaussian and zeta_i is a standard Gaussian vector of
dimension d_i conditioned on ||zeta_i||^2 <= cutoff_i (an untruncated
component stands in for plain randomization).

One sampler draws T phi in chunks, for T the identity (:func:`simulate_law`)
or a whitened contrast (:func:`quadratic_form_samples`).  Untruncated
components fold into the Gaussian part M = T (base + sum coef coef') T',
drawn as normals times the symmetric root of M.  The law of zeta_i is
invariant under rotations, so T coef_i zeta_i has the law of
R_i' zeta_i[:r_i], with R_i from the thin QR of (T coef_i)' and
r_i = min(F, d_i), and no d_i-vector is built: the scalar representation of
Li, Ding & Rubin (2018, PNAS, "Asymptotic theory of rerandomization in
treatment-control experiments").  Both factors are functions of the law,
not of an eigenbasis, so a round-off change in the law moves a fixed-seed
sample by round-off only.

A truncated vector is a radius times a uniform direction.  The first r
coordinates of the direction are g / sqrt(||g||^2 + chi^2_{d-r}), with g an
r-vector of standard normals.  The squared radius follows chi^2_d restricted
to [0, cutoff].  It is drawn exactly, by rejection from whichever proposal
accepts more often: the power envelope cutoff * U^{2/d}, kept with
probability exp(-t/2), or chi^2_d itself, kept below the cutoff.  When both
accept less often than :data:`MIN_REJECTION_RATE`, the inverse CDF is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from .chisq import truncation_variance_factor
from .design import CONTRAST_BUDGET_BYTES
from .errors import SingularMatrixError, ValidationError
from .linalg import PSD_EIG_FLOOR, sym_inv_sqrt

#: below this acceptance rate of both rejection proposals the squared radius
#: is drawn by the inverse CDF, which costs about as much as 20 proposals
MIN_REJECTION_RATE = 0.05

#: most proposals a rejection sampler draws at once, which bounds its memory
PROPOSAL_CHUNK = 1 << 16

#: bytes of one (rows, F') chunk of a law sample, small enough to stay in
#: cache: at F' = 127 it ran ~13% faster than 8 MiB (2-core Xeon)
QUANTILE_CHUNK_BYTES = 256 << 10


def _untruncated(cutoff: float | None) -> bool:
    return cutoff is None or math.isinf(cutoff)


def _radius_plan(dim: int, cutoff: float) -> tuple[str, float]:
    """How to draw chi^2_dim conditioned on <= cutoff, and its mass.

    ``"envelope"``, ``"chisquare"`` or ``"inverse"``, with the mass
    P(chi^2_dim <= cutoff).
    """
    if cutoff <= 0.0:
        raise ValidationError(f"cutoff must be positive, got {cutoff}")
    half = 0.5 * dim
    mass = float(special.gammainc(half, 0.5 * cutoff))
    if mass <= 0.0:
        raise ValidationError(
            f"cutoff {cutoff} underflows the chi-square CDF for dim={dim}")
    # the envelope's density is the target's divided by exp(-t/2), so its
    # acceptance rate is gamma(half, cutoff/2) * half * (2/cutoff)^half
    envelope = min(1.0, math.exp(math.log(mass) + special.gammaln(half + 1.0)
                                 + half * math.log(2.0 / cutoff)))
    if max(envelope, mass) < MIN_REJECTION_RATE:
        return "inverse", mass
    return ("envelope" if envelope >= mass else "chisquare"), mass


def _rejection_sample(propose, size: int) -> np.ndarray:
    """The first ``size`` accepted values of ``propose(n) -> (values, kept)``.

    Blocks of proposals are the missing count, then doubling multiples of
    it, up to :data:`PROPOSAL_CHUNK`.  They never read the acceptance rate,
    so a change of the cutoff moves only the proposals whose fate it flips.
    """
    out = np.empty(size)
    filled, multiple = 0, 1
    while filled < size:
        need = size - filled
        values, kept = propose(min(need * multiple, PROPOSAL_CHUNK))
        accepted = values[kept][:need]
        out[filled:filled + accepted.size] = accepted
        filled += accepted.size
        multiple *= 2
    return out


def _truncated_chi2_sample(dim: int, cutoff: float, rng: np.random.Generator,
                           size: int) -> np.ndarray:
    """``size`` exact draws of chi^2_dim conditioned on being <= cutoff."""
    method, mass = _radius_plan(dim, cutoff)
    if method == "inverse":
        radius_sq = 2.0 * special.gammaincinv(0.5 * dim, rng.random(size) * mass)
        return np.minimum(radius_sq, cutoff)  # shave inverse-CDF round-off
    if method == "envelope":
        def propose(n):
            t = cutoff * rng.random(n) ** (2.0 / dim)
            return t, rng.random(n) < np.exp(-0.5 * t)
    else:
        def propose(n):
            t = rng.chisquare(dim, n)
            return t, t <= cutoff
    return _rejection_sample(propose, size)


def truncated_gaussian_sample(dim: int, cutoff: float | None,
                              rng: np.random.Generator, size: int,
                              coords: int | None = None) -> np.ndarray:
    """(size, coords) leading coordinates of draws of a standard Gaussian
    ``dim``-vector conditioned on norm^2 <= cutoff.

    ``coords`` defaults to ``dim``, the whole vector, whose every row then
    satisfies the norm constraint exactly.  ``cutoff=None`` means no
    truncation.  The per-coordinate variance is
    :func:`truncation_variance_factor`(dim, cutoff).  The squared radius is
    drawn first, then the (size, coords) normals, then the chi^2_{dim-coords}
    remainder of the direction's norm when ``coords < dim``.
    """
    if dim < 1:
        raise ValidationError(f"dimension must be >= 1, got {dim}")
    coords = dim if coords is None else coords
    if not 0 <= coords <= dim:
        raise ValidationError(f"coords must lie in [0, {dim}], got {coords}")
    if _untruncated(cutoff):
        return rng.standard_normal((size, coords))
    radius_sq = _truncated_chi2_sample(dim, cutoff, rng, size)
    normals = rng.standard_normal((size, coords))
    norm_sq = np.einsum("ij,ij->i", normals, normals)
    if coords < dim:
        norm_sq += rng.chisquare(dim - coords, size)
    normals *= np.sqrt(radius_sq / norm_sq)[:, None]
    return normals


def _rank_factor(coef: np.ndarray) -> np.ndarray:
    """(F, min(F, d)) matrix R' with R' R = coef coef', from the thin QR of
    coef' with R's diagonal made nonnegative: a function of coef coef' alone
    (for d >= F, its Cholesky factor)."""
    r = np.linalg.qr(coef.T, mode="r")
    return (r * np.where(np.diag(r) < 0.0, -1.0, 1.0)[:, None]).T


@dataclass(frozen=True)
class LawComponent:
    """One truncated-Gaussian ingredient of an asymptotic law."""

    coef: np.ndarray
    dim: int
    cutoff: float | None

    def __post_init__(self):
        coef = np.asarray(self.coef, dtype=float)
        if coef.ndim != 2:
            raise ValidationError(f"component coefficient must be 2-D, got {coef.shape}")
        if coef.shape[1] != self.dim:
            raise ValidationError(
                f"coefficient has {coef.shape[1]} columns but dim={self.dim}")
        if not np.isfinite(coef).all():
            raise ValidationError("component coefficient has non-finite entries")
        if self.cutoff is not None and self.cutoff <= 0.0:
            raise ValidationError(f"cutoff must be positive, got {self.cutoff}")
        object.__setattr__(self, "coef", coef)

    @property
    def variance_factor(self) -> float:
        return truncation_variance_factor(self.dim, self.cutoff)


@dataclass(frozen=True)
class AsymptoticLaw:
    """Gaussian base plus independent truncated-Gaussian components."""

    base_cov: np.ndarray
    components: tuple[LawComponent, ...]

    def __post_init__(self):
        base = np.asarray(self.base_cov, dtype=float)
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise ValidationError(f"base covariance must be square, got {base.shape}")
        for comp in self.components:
            if comp.coef.shape[0] != base.shape[0]:
                raise ValidationError(
                    f"component coefficient rows ({comp.coef.shape[0]}) must match "
                    f"the base dimension ({base.shape[0]})")
        object.__setattr__(self, "base_cov", base)
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def dim(self) -> int:
        return self.base_cov.shape[0]

    def covariance(self) -> np.ndarray:
        """Exact covariance: base + sum of v * coef coef'."""
        total = self.base_cov.copy()
        for comp in self.components:
            total += comp.variance_factor * (comp.coef @ comp.coef.T)
        return total

    def profile(self, total_cov: np.ndarray) -> "CorrelationProfile":
        """Correlation profile whose part h is component h's coef coef'."""
        return correlation_profile(total_cov, [c.coef @ c.coef.T for c in self.components])


def _law_chunks(law: AsymptoticLaw, t: np.ndarray, rng: np.random.Generator,
                draws: int, peel: bool):
    """Yield (s, c): ``draws`` rows of T phi, less sqrt(s) times normals, in chunks.

    M = T (base + sum coef coef') T' folds in the untruncated components.
    With ``peel`` and M's least eigenvalue repeated more than twice to a
    relative sqrt(eps), which bounds M's round-off, s is that eigenvalue,
    else 0.  A chunk of :data:`QUANTILE_CHUNK_BYTES` / 8F' rows draws F'
    normals times the symmetric root of M - s I (none if that is 0), then
    each truncated component's rank-factor coordinates in order.
    """
    gauss = law.base_cov + sum(comp.coef @ comp.coef.T for comp in law.components
                               if _untruncated(comp.cutoff))
    if not np.isfinite(gauss).all():
        raise SingularMatrixError("law base covariance has non-finite entries")
    lam, vec = np.linalg.eigh(t @ gauss @ t.T)
    if lam[0] < PSD_EIG_FLOOR * max(lam[-1], 1.0):
        raise SingularMatrixError(
            f"law base covariance is not positive semidefinite (min eigenvalue {lam[0]:.3e})")
    tol = max(lam[-1], 0.0) * np.sqrt(np.finfo(float).eps)
    s = max(lam[0], 0.0) if peel and np.sum(lam - lam[0] <= tol) > 2 else 0.0
    keep = lam - s > tol
    root = vec[:, keep] * np.sqrt(lam[keep] - s)
    if keep.any():
        root = root @ vec[:, keep].T
    truncated = [(comp, _rank_factor(t @ comp.coef))
                 for comp in law.components if not _untruncated(comp.cutoff)]
    step = max(1, QUANTILE_CHUNK_BYTES // (8 * len(t)))
    for start in range(0, draws, step):
        rows = min(step, draws - start)
        c = rng.standard_normal((rows, root.shape[1])) @ root.T
        for comp, factor in truncated:
            c += truncated_gaussian_sample(comp.dim, comp.cutoff, rng, rows,
                                           coords=factor.shape[1]) @ factor.T
        yield s, c


def simulate_law(law: AsymptoticLaw, rng: np.random.Generator, draws: int) -> np.ndarray:
    """(draws, dim) Monte Carlo sample of the law: the law sampler's chunks,
    written into one array.  A fixed generator state reproduces it exactly,
    and no (draws, d) array is formed for a d-dimensional component.
    """
    if draws < 1:
        raise ValidationError(f"draws must be >= 1, got {draws}")
    out = np.empty((draws, law.dim))
    start = 0
    for _, c in _law_chunks(law, np.eye(law.dim), rng, draws, peel=False):
        out[start:start + len(c)] = c
        start += len(c)
    return out


# ---------------------------------------------------------------------------
# squared-correlation profiles and variance reduction


@dataclass(frozen=True)
class CorrelationProfile:
    """How much of each effect's sampling variance covariates explain.

    ``per_tier[h, f]`` is the share of effect f's variance explained by the
    h-th balance component; rows sum (over components) to ``r_squared``.
    ``canonical[h]`` holds the squared canonical correlations of component
    h, sorted descending.
    """

    r_squared: np.ndarray
    per_tier: np.ndarray
    canonical: np.ndarray

    @property
    def tier_count(self) -> int:
        return self.per_tier.shape[0]


def correlation_profile(total_cov: np.ndarray,
                        explained: Sequence[np.ndarray]) -> CorrelationProfile:
    """Profile from the total effect covariance and per-component explained parts."""
    total = np.asarray(total_cov, dtype=float)
    parts = [np.asarray(w, dtype=float) for w in explained]
    if not parts:
        raise ValidationError("at least one explained component is required")
    diag = np.diag(total)
    if np.any(diag <= 0.0):
        raise ValidationError("total covariance has nonpositive diagonal entries")
    per_tier = np.vstack([np.diag(w) / diag for w in parts])
    isqrt = sym_inv_sqrt(total, name="total effect covariance")
    canonical = np.vstack([
        np.sort(np.linalg.eigvalsh(isqrt @ w @ isqrt))[::-1] for w in parts])
    return CorrelationProfile(r_squared=per_tier.sum(axis=0),
                              per_tier=per_tier, canonical=canonical)


def variance_reduction(profile: CorrelationProfile, dims, cutoffs) -> np.ndarray:
    """Asymptotic per-effect variance reduction relative to plain randomization.

    ``sum_h (1 - v_h) * share_h`` with v the truncation variance factor of
    each component; entries lie in [0, 1) and grow with tighter cutoffs.
    """
    dims = np.atleast_1d(np.asarray(dims, dtype=float))
    cutoffs = list(np.atleast_1d(np.asarray(cutoffs, dtype=object)))
    if len(dims) != profile.tier_count or len(cutoffs) != profile.tier_count:
        raise ValidationError(
            f"profile has {profile.tier_count} components; got {len(dims)} dims "
            f"and {len(cutoffs)} cutoffs")
    out = np.zeros_like(profile.r_squared)
    for h, (dim, cutoff) in enumerate(zip(dims, cutoffs)):
        v = truncation_variance_factor(int(dim), None if cutoff is None else float(cutoff))
        out += (1.0 - v) * profile.per_tier[h]
    return out


# ---------------------------------------------------------------------------
# quantile thresholds


def validate_contrast(contrast: np.ndarray, dim: int) -> np.ndarray:
    contrast = np.atleast_2d(np.asarray(contrast, dtype=float))
    if contrast.shape[1] != dim:
        raise ValidationError(
            f"contrast has {contrast.shape[1]} columns, expected {dim}")
    if contrast.shape[0] > contrast.shape[1]:
        raise ValidationError("contrast must have at most as many rows as columns")
    singulars = np.linalg.svd(contrast, compute_uv=False)
    if singulars[-1] <= 1e-12 * singulars[0]:
        raise ValidationError("contrast rows must be linearly independent")
    return contrast


def validate_law_draws(draws: int) -> None:
    """Refuse a quadratic-form sample, 8 bytes a draw, beyond the budget."""
    if not 1 <= draws <= CONTRAST_BUDGET_BYTES // 8:
        raise ValidationError(f"law draws must lie in [1, {CONTRAST_BUDGET_BYTES // 8}], got {draws}")


def quadratic_form_samples(law: AsymptoticLaw, contrast: np.ndarray | None,
                           shape: np.ndarray, rng: np.random.Generator,
                           draws: int) -> np.ndarray:
    """Monte Carlo sample of q = (C phi)' shape^{-1} (C phi) under the law.

    ``contrast=None`` is the identity, never multiplied.  With
    T = shape^{-1/2} C (F' rows), q = ||T phi||^2.  The law sampler draws
    T phi as sqrt(s) eps' + c, where s is the least eigenvalue of the
    Gaussian part M if it repeats more than twice (M = I in a confidence set
    without untruncated components), else 0.  Then q is s times a noncentral
    chi^2_F' of noncentrality ||c||^2 / s, drawn after each chunk's c, or
    ||c||^2 if s = 0.  Only the scalars are kept.
    """
    validate_law_draws(draws)
    t = sym_inv_sqrt(shape, name="confidence shape")
    if contrast is not None:
        t = t @ validate_contrast(contrast, law.dim)
    out = []
    for s, c in _law_chunks(law, t, rng, draws, peel=True):
        norm_sq = np.einsum("ij,ij->i", c, c)
        out.append(s * rng.noncentral_chisquare(c.shape[1], norm_sq / s) if s > 0.0 else norm_sq)
    return np.concatenate(out)


def quantile_threshold(law: AsymptoticLaw, contrast: np.ndarray | None,
                       shape: np.ndarray, alpha: float,
                       rng: np.random.Generator, draws: int) -> float:
    """1-alpha quantile of the standardized quadratic form under the law."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    return float(np.quantile(quadratic_form_samples(law, contrast, shape, rng, draws),
                             1.0 - alpha))
