"""Stationary scattering for the finite-eps operator.

An incoming wave exp(-ikx) on edge i is scattered by the rank-one term;
the solution solves a Fredholm equation with a degenerate kernel,

    psi(x_j) = <psi, V_eps> W(x_j) + F(x_j),

so the single scalar unknown is <psi, V_eps> = N / (1 - D) with

    N = sum_j int_0^eps F V_eps,   D = sum_j int_0^eps W V_eps.

W is the rank-one factor of ``epsilon`` at real momentum and D its pairing
with the potential, so both come from the moment, pairing and factor
routines the finite-eps resolvent uses at k = i kappa:

    W(x; k) = -(lambda/eps^3) f(x; k),     D(k) = -(lambda/eps^3) P(k),
    N_i(k)  = -2i eps ( Im m_i(k) + (i/n) sum_j m_j(k) ).

Substituting the solution into the Kirchhoff conditions gives the
scattering amplitudes S_ij = (lambda <psi_i, V_eps>/(2ik eps^3)) N_j
+ 2/n - delta_ij. All integrals are evaluated exactly at finite eps after
rescaling to [0,1]; the small-eps forms of N and D serve only as test
predictors. The interior integrals are written with upper limit eps, which
equals the infinite upper limit because the scaled potential is supported
in [0, eps].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .epsilon import _edge_moments, _factor, _moment_sum, _pairing
from .errors import FredholmSingular
from .graph import EdgeCoordinate
from .limit import SMatrix
from .quadrature import converged_value, merge_breaks

#: relative floor for |1 - D| below which the solve is a resonance
TOL_FREDHOLM = 1e-12
#: smallest scattering momentum, the floor of kappa as well: far below it
#: the amplitude factor lambda/(2ik eps^3) overflows (from k ~ 1e-307 on)
#: and S comes out NaN
MOMENTUM_MIN = 1e-6


@dataclass(frozen=True)
class ScatteringSolution:
    """Scattering state for one incoming edge at momentum k."""

    op: object
    incoming: int
    k: float
    inner_v: complex
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


def assemble_F(i, k, x: EdgeCoordinate, n):
    """Inhomogeneity of the Fredholm equation at a graph point.

    F(x_j) = -2i delta_ij sin(k x_j) + (2/n) exp(i k x_j) for incoming edge i.
    """
    if not (1 <= i <= n and 1 <= x.edge <= n):
        raise ValueError(f"edge indices ({i}, {x.edge}) outside 1..{n}")
    delta = 1.0 if x.edge == i else 0.0
    return -2j * delta * np.sin(k * x.x) + (2.0 / n) * np.exp(1j * k * x.x)


def assemble_W(op, k, j, x):
    """Degenerate-kernel column W on edge j at arc length x in [0, eps].

    W(x_j) = (lambda(eps)/(2ik eps^3)) [ int_x^eps V_eps(y) e^{ik(y-x)} dy
             + int_0^x V_eps(y) e^{ik(x-y)} dy
             + sum_l (2/n - delta_lj) int_0^eps V_eps(y_l) e^{ik(x+y_l)} dy ],

    which is -(lambda/eps^3) times the rank-one factor f_j(x; k).
    """
    if not 1 <= j <= op.n:
        raise ValueError(f"edge index {j} outside 1..{op.n}")
    if not 0 <= x <= op.eps:
        raise ValueError("W is defined on [0, eps]")
    return -(op.lambda_value / op.eps**3) * _factor(op, k, [j], np.array([x]), op.quad)[0, 0]


def fredholm_D_direct(op, k):
    """The Fredholm denominator D = -(lambda/eps^3) P(k) of every solve, from
    the pairing P of ``epsilon``; k, a momentum or a 1-d array of them, may
    be complex with Im k >= 0 and |k| >= MOMENTUM_MIN.
    """
    if not np.all(np.abs(k) >= MOMENTUM_MIN):
        raise ValueError(f"|k| must be at least {MOMENTUM_MIN:g}")
    return -(op.lambda_value / op.eps**3) * _pairing(op, k, op.quad)


def fredholm(op, k):
    """The numerators N_i of every incoming edge i and the one denominator D.

    N_i = sum_j int_0^eps F V_eps from the verified edge moments and D =
    sum_j int_0^eps W V_eps from the verified pairing, a row of N and an entry
    of D per momentum of a 1-d k; the unknown is <psi_i, V_eps> = N_i/(1 - D).
    """
    if not np.all(np.asarray(k) >= MOMENTUM_MIN):
        raise ValueError(f"scattering momentum must be at least {MOMENTUM_MIN:g}")
    r = _edge_moments(op, k, op.quad)
    N = -2j * op.eps * (r.imag + (1j / op.n) * _moment_sum(op, r)[..., None])
    return N, fredholm_D_direct(op, k)


def _solve(N, D, k):
    denom = 1.0 - D
    singular = np.abs(denom) <= TOL_FREDHOLM * np.maximum(1.0, np.abs(D))
    if np.any(singular):
        first = np.argmax(singular)
        raise FredholmSingular(float(np.ravel(k)[first]), complex(np.ravel(denom)[first]))
    return N / denom


def _amplitudes(op, k, inner, N):
    # S_ij + delta_ij = (lambda <psi_i, V_eps>/(2ik eps^3)) N_j + 2/n, with k,
    # inner and N broadcast to the entries wanted
    return op.lambda_value * inner / (2j * k * op.eps**3) * N + 2.0 / op.n


def smatrix_eps(op, k):
    """On-shell S-matrix of the finite-eps operator from n Fredholm solves.

    Row i uses the exact amplitude formula

        S_ij = (lambda <psi_i, V_eps>/(k eps^3)) [ -int V_eps(y_j) sin k y_j dy
               + (1/(i n)) sum_l int V_eps(y_l) e^{i k y_l} dy ] + 2/n - delta_ij,

    whose bracket is N_j/2i; the O(eps) expansion of this formula is never
    used here. k may be a 1-d array of momenta, integrated as one batch and
    each checked on its own, for a stack of S-matrices; a number is a batch of one.
    """
    k = np.asarray(k, dtype=float)
    N, D = fredholm(op, k)
    inner = _solve(N, np.expand_dims(D, -1), k)[..., None]
    entries = _amplitudes(op, k[..., None, None], inner, N[..., None, :]) - np.eye(op.n)
    return SMatrix(k=k if k.ndim else float(k), entries=entries)


def scattering_solution(op, i, k):
    """Solve the scattering problem for one incoming edge."""
    N, D = fredholm(op, k)
    inner = _solve(N[i - 1], D, k)
    amplitudes = _amplitudes(op, k, inner, N) - np.eye(op.n)[i - 1]
    return ScatteringSolution(op=op, incoming=i, k=k, inner_v=inner, amplitudes=amplitudes)


def _interior_term(sol, x: EdgeCoordinate, trig):
    op = sol.op
    profile = op.potential.profiles[x.edge - 1]
    if profile.is_zero():
        return 0.0 + 0.0j
    lo, hi = profile.support
    u = x.x / op.eps
    if u >= hi:
        return 0.0 + 0.0j
    bp = merge_breaks(max(lo, u), hi, profile.breakpoints)
    # the floor scales with int |V| over the cells, which bounds the value:
    # at the vertex the value itself can cancel
    size = op.quad.integrate(lambda v: np.abs(profile.evaluate(v)), bp)
    return converged_value(
        lambda r: r.integrate(
            lambda v: profile.evaluate(v) * trig(sol.k * (x.x - op.eps * v)), bp
        ),
        op.quad,
        rtol=1e-10,
        atol=1e-10 * size,
        context="interior term",
    )


def _wave(sol, x, deriv):
    # d/dx takes e^{-+ikx} to -+ik e^{-+ikx} and the tail's sin k(x - eps v)/k
    # to cos k(x - eps v)
    op, k = sol.op, sol.k
    delta = 1.0 if x.edge == sol.incoming else 0.0
    d_in, d_out, per_k = (-1j * k, 1j * k, 1.0) if deriv else (1.0, 1.0, k)
    amplitude = sol.amplitudes[x.edge - 1]
    plane = d_in * delta * np.exp(-1j * k * x.x) + d_out * amplitude * np.exp(1j * k * x.x)
    tail = _interior_term(sol, x, np.cos if deriv else np.sin)
    return complex(plane - op.lambda_value * sol.inner_v / (per_k * op.eps**2) * tail)


def scattering_solution_eval(sol, x: EdgeCoordinate):
    """The scattering wave at a graph point (variation-of-constants form).

    Beyond the scaled support this is exactly the plane-wave combination
    delta_ij e^{-ikx} + S_ij e^{ikx}.
    """
    return _wave(sol, x, deriv=False)


def scattering_solution_deriv(sol, x: EdgeCoordinate):
    """Analytic x-derivative of the scattering wave (for vertex conditions)."""
    return _wave(sol, x, deriv=True)
