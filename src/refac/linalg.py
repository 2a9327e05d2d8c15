"""Dense symmetric-matrix helpers with explicit conditioning guards.

Inverses here refuse to regularize: when a matrix is singular past the
relative condition-number guard, a :class:`SingularMatrixError` names it
and the caller decides what to do.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

#: relative condition-number guard for symmetric inverses
COND_LIMIT = 1e12

#: most negative eigenvalue tolerated (as round-off) in a PSD square root
PSD_EIG_FLOOR = -1e-10


def population_covariance(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Finite-population covariance with the n - 1 divisor.

    With one argument, the covariance matrix of its columns; with two, the
    cross-covariance (columns of ``a`` against columns of ``b``).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float).T).T
    centered_a = a - a.mean(axis=0)
    if b is None:
        centered_b = centered_a
    else:
        b = np.atleast_2d(np.asarray(b, dtype=float).T).T
        centered_b = b - b.mean(axis=0)
    return centered_a.T @ centered_b / (a.shape[0] - 1)


def guarded_eigh(mat: np.ndarray, *, cond_limit: float = COND_LIMIT,
                 name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric positive-definite matrix, or of
    each matrix of a (..., L, L) stack.

    Fails loudly when a matrix has non-finite entries, is not PD or its
    relative condition number exceeds ``cond_limit``, rather than
    regularizing.  For a stack, ``name`` is formatted with the 1-based flat
    position of the first failing matrix.
    """
    mat = np.asarray(mat, dtype=float)
    finite = np.isfinite(mat).all(axis=(-2, -1))
    # eigh returns NaN or fails to converge on NaN or inf entries, and NaN
    # passes the guards below, so such matrices are decomposed as zeros
    eigvals, eigvecs = np.linalg.eigh(np.where(finite[..., None, None], mat, 0.0))
    smallest, largest = eigvals[..., 0], eigvals[..., -1]
    bad = np.flatnonzero(~finite | (smallest <= 0.0) | (largest > cond_limit * smallest))
    if bad.size:
        first = int(bad[0])
        label = name if mat.ndim == 2 else name.format(first + 1)
        if not finite.flat[first]:
            raise SingularMatrixError(f"{label} has non-finite entries")
        raise SingularMatrixError(
            f"{label} is singular or too ill-conditioned to invert (eigenvalue "
            f"range [{smallest.flat[first]:.3e}, {largest.flat[first]:.3e}])")
    return eigvals, eigvecs


def sym_inverse(mat: np.ndarray, *, name: str = "matrix") -> np.ndarray:
    w, u = guarded_eigh(mat, name=name)
    return (u / w) @ u.T


def sym_sqrt(mat: np.ndarray, *, name: str = "matrix") -> np.ndarray:
    w, u = guarded_eigh(mat, name=name)
    return (u * np.sqrt(w)) @ u.T


def sym_inv_sqrt(mat: np.ndarray, *, name: str = "matrix") -> np.ndarray:
    w, u = guarded_eigh(mat, name=name)
    return (u / np.sqrt(w)) @ u.T


def psd_sqrt(mat: np.ndarray, *, floor: float = PSD_EIG_FLOOR,
             name: str = "covariance") -> np.ndarray:
    """Symmetric square root tolerating tiny negative round-off eigenvalues.

    Eigenvalues in ``[floor, 0)`` are clamped to zero; anything below
    ``floor`` means the input is genuinely not PSD and raises, and so do
    non-finite entries.
    """
    mat = np.asarray(mat, dtype=float)
    if not np.isfinite(mat).all():
        raise SingularMatrixError(f"{name} has non-finite entries")
    w, u = np.linalg.eigh(mat)
    if w[0] < floor:
        raise SingularMatrixError(
            f"{name} is not positive semidefinite (min eigenvalue {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.T


class KroneckerPSD:
    """A positive-definite matrix stored as a Kronecker product.

    ``dense() == np.kron(left, right)``.  The inverse and inverse square
    root are computed factor-wise, never by decomposing the full product,
    and quadratic forms avoid materializing the product at all.  Stacked
    vectors are expected with the ``left`` index major and the ``right``
    index minor, matching ``np.kron``.
    """

    def __init__(self, left: np.ndarray, right: np.ndarray, *, name: str = "covariance"):
        self.left = np.asarray(left, dtype=float)
        self.right = np.asarray(right, dtype=float)
        self._wl, self._ul = guarded_eigh(self.left, name=f"{name} (left factor)")
        self._wr, self._ur = guarded_eigh(self.right, name=f"{name} (right factor)")

    @property
    def shape(self) -> tuple[int, int]:
        dim = self.left.shape[0] * self.right.shape[0]
        return (dim, dim)

    def dense(self) -> np.ndarray:
        return np.kron(self.left, self.right)

    def left_inverse(self) -> np.ndarray:
        return (self._ul / self._wl) @ self._ul.T

    def right_inverse(self) -> np.ndarray:
        return (self._ur / self._wr) @ self._ur.T

    def inv_dense(self) -> np.ndarray:
        return np.kron(self.left_inverse(), self.right_inverse())

    def inv_sqrt_dense(self) -> np.ndarray:
        left = (self._ul / np.sqrt(self._wl)) @ self._ul.T
        right = (self._ur / np.sqrt(self._wr)) @ self._ur.T
        return np.kron(left, right)

    def inv_quadform(self, stacked: np.ndarray) -> np.ndarray | float:
        """Quadratic form v' (left x right)^{-1} v.

        ``stacked`` holds vectors of length left_dim * right_dim along its
        last axis; any leading batch axes are preserved.
        """
        m = self.left.shape[0]
        l = self.right.shape[0]
        arr = np.asarray(stacked, dtype=float)
        lead = arr.shape[:-1]
        blocks = arr.reshape(*lead, m, l)
        out = np.einsum("fg,...fl,lm,...gm->...",
                        self.left_inverse(), blocks, self.right_inverse(), blocks,
                        optimize=True)
        return float(out) if out.ndim == 0 else out
