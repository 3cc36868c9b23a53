"""Closed-form resolvent, spectrum, and S-matrix of the limit operator.

For momentum k (Im k > 0) the resolvent kernel of the limit coupling is a
rank-one correction of the free (Kirchhoff) kernel

    Xi_k(x_i, y_j) = G_k(x_i, y_j) + Lambda_ij(k^2) exp(ik(x_i + y_j)),

with

    G_k(x_i, y_j) = (i/2k) [delta_ij e^{ik|x-y|} + (2/n - delta_ij) e^{ik(x+y)}],
    Lambda_ij     = beta Pi_ij / (1 + ik beta B).

Everything here is also computable by a dense solve against the boundary
matrices, Lambda = -(Amat + ik Bmat)^{-1} Bmat - (i/kn) J and
S(k) = -(Amat + ik Bmat)^{-1} (Amat - ik Bmat); the two routes cross-check
each other and are both exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AtPole, SingularSystem, ZeroB
from .graph import CouplingConstants, EdgeCoordinate

#: evaluation closer than this to 1 + ik beta B = 0 counts as "at the pole"
TOL_POLE = 1e-12
#: |B| below this is treated as vanishing for spectral formulas
TOL_ZERO_B = 1e-12


@dataclass(frozen=True)
class Momentum:
    """Momentum restricted to one of the two supported regimes.

    resolvent:  Im k > 0 (kernel evaluations, k^2 in the resolvent set)
    scattering: k real and positive (on-shell S-matrices)
    """

    k: complex
    regime: str

    def __post_init__(self):
        k = complex(self.k)
        if k == 0:
            raise ValueError("momentum must be nonzero")
        if self.regime == "resolvent":
            if k.imag <= 0:
                raise ValueError("resolvent regime needs Im k > 0")
        elif self.regime == "scattering":
            if k.imag != 0 or k.real <= 0:
                raise ValueError("scattering regime needs real k > 0")
        else:
            raise ValueError(f"unknown momentum regime {self.regime!r}")
        object.__setattr__(self, "k", k)

    @classmethod
    def resolvent(cls, k):
        return cls(k=k, regime="resolvent")

    @classmethod
    def scattering(cls, k):
        return cls(k=k, regime="scattering")


@dataclass(frozen=True)
class SMatrix:
    """On-shell scattering matrix at real momentum k > 0."""

    k: float
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if self.k <= 0:
            raise ValueError("scattering momentum must be positive")

    @property
    def n(self):
        return self.entries.shape[0]

    def unitarity_defect(self):
        s = self.entries
        return float(np.linalg.norm(s.conj().T @ s - np.eye(self.n)))

    def symmetry_defect(self):
        return float(np.linalg.norm(self.entries - self.entries.T))


def _check_edges(n, *edges):
    for e in edges:
        if not 1 <= e <= n:
            raise ValueError(f"edge index {e} outside 1..{n}")


def _free_kernel_grid(kc, i, j, xs, ys, n, rank_one=0.0):
    """Vectorized free kernel on edge pair (i, j) over the grid xs x ys.

    The reflected term e^{ik(x+y)} is the outer product of the 1-d
    exponentials e^{ikx} and e^{iky}; the direct term e^{ik|x-y|} is formed
    only on a diagonal pair (i == j). ``rank_one`` is added to the reflected
    coefficient, which turns the free kernel into the limit kernel.
    """
    _check_edges(n, i, j)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    pref = 1j / (2.0 * kc)
    delta = 1.0 if i == j else 0.0
    coeff = pref * (2.0 / n - delta) + rank_one
    grid = np.outer(coeff * np.exp(1j * kc * xs), np.exp(1j * kc * ys))
    if i == j:
        grid += pref * np.exp(1j * kc * np.abs(xs[:, None] - ys[None, :]))
    return grid


class KernelEvaluator:
    """Callable resolvent kernel on the graph, indexed by edge coordinates.

    Subclasses provide ``on_grid`` (vectorized over coordinate arrays) and
    carry an ``operator`` tag saying which resolvent they represent.
    """

    operator = "abstract"

    def on_grid(self, i, j, xs, ys, k):
        raise NotImplementedError

    def __call__(self, p: EdgeCoordinate, q: EdgeCoordinate, k: Momentum):
        return complex(self.on_grid(p.edge, q.edge, np.array([p.x]), np.array([q.x]), k)[0, 0])


class FreeKernel(KernelEvaluator):
    """Resolvent kernel of the free Kirchhoff operator."""

    operator = "free"

    def __init__(self, n):
        self.n = n

    def on_grid(self, i, j, xs, ys, k):
        if k.regime != "resolvent":
            raise ValueError("free kernel is defined in the resolvent regime")
        return _free_kernel_grid(k.k, i, j, np.atleast_1d(xs), np.atleast_1d(ys), self.n)


class LimitKernel(KernelEvaluator):
    """Resolvent kernel of the limit operator (free part plus rank-one term)."""

    operator = "limit"

    def __init__(self, cc: CouplingConstants):
        self.cc = cc
        self.n = cc.n

    def on_grid(self, i, j, xs, ys, k):
        if k.regime != "resolvent":
            raise ValueError("limit kernel is defined in the resolvent regime")
        _check_edges(self.n, i, j)
        lam = lambda_matrix(k.k**2, self.cc)
        return _free_kernel_grid(k.k, i, j, xs, ys, self.n, rank_one=lam[i - 1, j - 1])


def free_kernel(n):
    """Evaluator for the free resolvent kernel."""
    return FreeKernel(n)


def resolvent_kernel_limit(cc):
    """Evaluator for the limit-operator resolvent kernel."""
    return LimitKernel(cc)


def _momentum_from_ksq(ksq):
    # resolvent-sheet branch: Im k >= 0, and k > 0 on the positive real axis
    k = np.sqrt(complex(ksq))
    if k.imag < 0 or (k.imag == 0 and k.real < 0):
        k = -k
    return k


def lambda_matrix(ksq, cc):
    """Rank-one resolvent correction beta Pi / (1 + ik beta B) at energy ksq.

    The momentum is the resolvent-sheet root of ksq (Im k >= 0).
    """
    k = _momentum_from_ksq(ksq)
    denom = 1.0 + 1j * k * cc.beta * cc.B
    if abs(denom) <= TOL_POLE:
        raise AtPole(f"1 + ik beta B = {denom:.3e} at k = {k}")
    return (cc.beta / denom) * cc.Pi.astype(complex)


def lambda_matrix_direct(k, bp):
    """The same correction computed from the boundary matrices by a dense solve.

    Solves (Amat + ik Bmat) X = -Bmat and subtracts (i/kn) J; no closed form
    is used, so this is an independent cross-check of :func:`lambda_matrix`.
    """
    kc = k.k
    n = bp.n
    lhs = bp.Amat + 1j * kc * bp.Bmat
    try:
        tilde = np.linalg.solve(lhs, -bp.Bmat.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"Amat + ik Bmat singular at k = {kc}") from exc
    return tilde - (1j / (kc * n)) * np.ones((n, n))


def limit_point_spectrum(cc):
    """The single negative eigenvalue -1/(beta B)^2 for beta < 0, else None."""
    if cc.beta >= 0:
        return None
    if abs(cc.B) <= TOL_ZERO_B:
        raise ZeroB("point spectrum formula needs B != 0")
    return -1.0 / (cc.beta * cc.B) ** 2


def limit_pole(cc):
    """Resolvent pole kappa = 1/(beta B) and its nature.

    Returns (kappa, "bound") for a true eigenvalue (kappa > 0) or
    (kappa, "antibound") for the resonance on the other half-axis; None
    when beta = 0.
    """
    if cc.beta == 0:
        return None
    if abs(cc.B) <= TOL_ZERO_B:
        raise ZeroB("pole formula needs B != 0")
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
