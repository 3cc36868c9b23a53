"""Closed-form resolvent, spectrum, and S-matrix of the limit operator.

At energy -kappa^2 (k = i kappa, kappa > 0) the resolvent kernel of the
limit coupling is a rank-one correction of the free (Kirchhoff) kernel

    Xi(x_i, y_j) = G(x_i, y_j) + Lambda_ij e^{-kappa (x_i + y_j)},

with

    G(x_i, y_j) = (1/2kappa) [delta_ij e^{-kappa|x-y|} + (2/n - delta_ij) e^{-kappa(x+y)}],
    Lambda_ij   = beta Pi_ij / (1 - kappa beta B).

Everything here is also computable by a dense solve against the boundary
matrices, Lambda = -(Amat - kappa Bmat)^{-1} Bmat - J/(kappa n) and, at real
k > 0, S(k) = -(Amat + ik Bmat)^{-1} (Amat - ik Bmat); the two routes
cross-check each other and are both exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AtPole, SingularSystem
from .graph import CouplingConstants

#: a rank-one denominator (1 - kappa beta B here, eps^3/lambda + <R0 V, V>
#: relative to the sum of its terms' sizes in ``epsilon.zeta``) this close
#: to zero is "at the pole"
TOL_POLE = 1e-12


@dataclass(frozen=True, eq=False)
class SMatrix:
    """On-shell scattering matrix at real momentum k > 0, or a stack of them, one per
    entry of a 1-d k, with the largest of their defects; compared by identity only."""

    k: float | np.ndarray
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if np.count_nonzero(np.less_equal(self.k, 0)):
            raise ValueError("scattering momentum must be positive")

    @property
    def n(self):
        return self.entries.shape[-1]

    def unitarity_defect(self):
        stack = self.entries.reshape(-1, self.n, self.n)
        return max(float(np.linalg.norm(s.conj().T @ s - np.eye(self.n))) for s in stack)

    def symmetry_defect(self):
        stack = self.entries.reshape(-1, self.n, self.n)
        return max(float(np.linalg.norm(s - s.T)) for s in stack)


def _check_edges(n, *edges):
    for e in edges:
        if not 1 <= e <= n:
            raise ValueError(f"edge index {e} outside 1..{n}")


def _positive(kappa):
    kappa = float(kappa)
    if not kappa > 0:
        raise ValueError("kernels are evaluated at k = i kappa with kappa > 0")
    return kappa


def _free_kernel_grid(kappa, i, j, xs, ys, n, rank_one=0.0):
    """Vectorized free kernel at k = i kappa on edge pair (i, j) over xs x ys.

    At k = i kappa the kernel is real, so the grid is a float64 array. The
    reflected term e^{-kappa(x+y)} is the outer product of the 1-d
    exponentials e^{-kappa x} and e^{-kappa y}; the direct term
    e^{-kappa|x-y|} is formed only on a diagonal pair (i == j). ``rank_one``
    is added to the reflected coefficient, which turns the free kernel into
    the limit kernel. Leading axes broadcast, each grid as a 1-d call's.
    """
    _check_edges(n, i, j)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))[..., :, None]
    ys = np.atleast_1d(np.asarray(ys, dtype=float))[..., None, :]
    pref = 0.5 / kappa
    delta = 1.0 if i == j else 0.0
    coeff = pref * (2.0 / n - delta) + rank_one
    grid = coeff * np.exp(-kappa * xs) * np.exp(-kappa * ys)
    if i == j:
        grid += pref * np.exp(-kappa * np.abs(xs - ys))
    return grid


class FreeKernel:
    """Resolvent kernel of the free Kirchhoff operator at energy -kappa^2."""

    def __init__(self, n, kappa):
        self.n = n
        self.kappa = _positive(kappa)

    def on_grid(self, i, j, xs, ys):
        return _free_kernel_grid(self.kappa, i, j, xs, ys, self.n)


class LimitKernel:
    """Limit-operator resolvent kernel at energy -kappa^2: free plus rank-one term."""

    def __init__(self, cc: CouplingConstants, kappa):
        self.n = cc.n
        self.kappa = _positive(kappa)
        self.lam = lambda_matrix(self.kappa, cc)

    def on_grid(self, i, j, xs, ys):
        _check_edges(self.n, i, j)
        rank_one = self.lam[i - 1, j - 1]
        return _free_kernel_grid(self.kappa, i, j, xs, ys, self.n, rank_one=rank_one)


def lambda_matrix(kappa, cc):
    """Rank-one resolvent correction beta Pi / (1 - kappa beta B) at energy -kappa^2."""
    denom = 1.0 - kappa * cc.beta * cc.B
    if abs(denom) <= TOL_POLE:
        raise AtPole(f"1 - kappa beta B = {denom:.3e} at kappa = {kappa}")
    # beta * (1/denom) rounds as numpy's complex quotient does, which the
    # stored benchmark references were recorded with
    return (cc.beta * (1.0 / denom)) * cc.Pi


def lambda_matrix_direct(kappa, bp):
    """The same correction computed from the boundary matrices by a dense solve.

    Solves (Amat - kappa Bmat) X = -Bmat and subtracts J/(kappa n); no closed
    form is used, so this is an independent cross-check of :func:`lambda_matrix`.
    """
    n = bp.n
    try:
        tilde = np.linalg.solve(bp.Amat - kappa * bp.Bmat, -bp.Bmat)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"Amat - kappa Bmat singular at kappa = {kappa}") from exc
    return tilde - np.ones((n, n)) / (kappa * n)


def limit_point_spectrum(cc):
    """The single negative eigenvalue -1/(beta B)^2 for beta < 0; None when
    beta >= 0 or B vanishes (the Kirchhoff limit)."""
    if cc.beta >= 0 or cc.B_vanishes:
        return None
    return -1.0 / (cc.beta * cc.B) ** 2


def limit_pole(cc):
    """Resolvent pole kappa = 1/(beta B) and its nature.

    Returns (kappa, "bound") for a true eigenvalue (kappa > 0) or
    (kappa, "antibound") for the resonance on the other half-axis; None
    when beta = 0 or B vanishes (the Kirchhoff limit).
    """
    if cc.beta == 0 or cc.B_vanishes:
        return None
    kappa = 1.0 / (cc.beta * cc.B)
    return kappa, ("bound" if kappa > 0 else "antibound")


def smatrix_limit(k, cc):
    """Closed-form on-shell S-matrix of the limit coupling at real k > 0."""
    if k <= 0:
        raise ValueError("scattering momentum must be positive")
    n = cc.n
    denom = 1.0 + 1j * k * cc.beta * cc.B
    entries = (2.0 / n) * np.ones((n, n), dtype=complex) - np.eye(n)
    entries -= (2j * k * cc.beta / denom) * cc.Pi
    return SMatrix(k=float(k), entries=entries)


def smatrix_direct(k, bp):
    """S-matrix from the boundary matrices: -(A + ikB)^{-1} (A - ikB)."""
    if k <= 0:
        raise ValueError("scattering momentum must be positive")
    lhs = bp.Amat + 1j * k * bp.Bmat
    rhs = bp.Amat - 1j * k * bp.Bmat
    try:
        entries = np.linalg.solve(lhs, -rhs.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"Amat + ik Bmat singular at k = {k}") from exc
    return SMatrix(k=float(k), entries=entries)
