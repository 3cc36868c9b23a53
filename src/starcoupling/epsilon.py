"""Exact resolvent of the scaled rank-one family at finite eps.

The operator family is

    -d^2/dx^2 + (lambda(eps)/eps^3) V_eps <., V_eps>,   V_eps = V(./eps),

on Kirchhoff functions. Its resolvent at energy -kappa^2 is an explicit
rank-one correction of the free kernel,

    G_{i kappa}(x, y) - zeta_eps (R0 V_eps)(x) (R0 V_eps)(y),

    zeta_eps = (eps^3/lambda(eps) + <R0 V_eps, V_eps>)^{-1},

where R0 is the free resolvent; ``EpsKernel(op, kappa)`` evaluates this
kernel at the kappa it is built with. The resolvent (k = i kappa) and
stationary scattering (real k, see ``scattering``) share one rank-one
algebra of the complex momentum k, Im k >= 0, kept here as three verified
routines:

    m_j(k)   = int V_j e^{i k eps v} dv                       (edge moments)
    P(k)     = <R0(k) V_eps, V_eps>
             = (i eps^2/2k) [ sum_j II V_j V_j e^{i k eps |u-v|}
                              - sum_j m_j^2 + (2/n) (sum_j m_j)^2 ]
    f_i(x;k) = (R0(k) V_eps)_i(x)
             = (i eps/2k) [ int V_i e^{i k |x - eps v|} dv
                            + e^{ikx} sum_j (2/n - delta_ij) m_j ]

so that inner_RV_V(kappa) = P(i kappa) and rank_one_factor = f(.; i kappa).
Everything is computed from the exact finite-eps integrals after the
substitution x -> eps x, which maps all integrals onto [0,1]^2 and keeps the
quadrature nodes independent of eps. The small-eps expansions appear only
as predictors used to seed brackets and to cross-check rates, never as the
computation itself.

The same-edge part of P is integrated in the cancellation-free form
V(lo) V(hi) e^{-c(lo+hi)} expm1(2c lo), c = -ik eps, on the ordered nodes
lo <= hi of ``double_integral``. At real k it is the real product of sines
2 sin(theta lo) (sin(theta hi) - i cos(theta hi)), theta = k eps, with the hi
factors on hi's own row or column; any other c keeps the complex exp/expm1
form verbatim. That branch is pinned: the stored spectrum references hold
the pole search, which runs at real c, bit for bit, and a sinh form there
moves them; the branches can merge once those references are re-recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AtPole, QuadratureNotConverged
from .graph import ScalingFunction, StarPotential, coupling_constants
from .limit import TOL_POLE, _free_kernel_grid, _positive
from .quadrature import QuadratureRule, converged_value, merge_breaks
from .roots import brentq

#: smallest momentum considered by the pole search
TOL_KAPPA = 1e-6
#: bound on the pole-equation residual at a reported root
TOL_ROOT = 1e-10
#: intervals of the pole search's bracket, bisected for the sign change
POLE_SCAN_SAMPLES = 64


@dataclass(frozen=True)
class EpsOperator:
    """One member of the scaled family: potential, scaling, and eps."""

    potential: StarPotential
    scaling: ScalingFunction
    eps: float
    quad: QuadratureRule = field(default_factory=QuadratureRule)

    def __post_init__(self):
        if not 0 < self.eps <= 1:
            raise ValueError("eps must lie in (0, 1]")
        # lambda_value forms the constants, which validates the potential
        if self.lambda_value == 0:
            raise ValueError(f"lambda({self.eps}) vanishes")

    @property
    def n(self):
        return self.potential.n

    @cached_property
    def constants(self):
        return shared_constants(self.potential, self.scaling)

    @cached_property
    def lambda0(self):
        return self.scaling.resolve_lambda0(self.constants.A)

    @cached_property
    def lambda_value(self):
        return self.scaling.value(self.eps, A=self.constants.A)


def shared_constants(potential, scaling):
    """coupling_constants(potential, scaling), formed once per potential and
    scaling: a command and every member it builds on them share the result."""
    return potential.shared(
        ("coupling_constants", scaling), lambda: coupling_constants(potential, scaling)
    )


@dataclass(frozen=True)
class PoleResult:
    """A located resolvent pole kappa > 0 and the eigenvalue -kappa^2."""

    kappa: float
    eigenvalue: float
    residual: float

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("pole momentum must be positive")


def _decay_rate(k):
    # a = -ik, so that e^{ikx} = e^{-ax}; at k = +-i kappa it is real and the
    # resolvent side stays in real arithmetic
    a = -1j * k
    return a.real if not np.any(a.imag) else a


def _node_values(op, j):
    # profile j at an array of pairing or moment nodes, evaluated once per
    # node array for the potential: the nodes never depend on eps or momentum
    p = op.potential.profiles[j]
    return lambda x: op.potential.shared(
        ("nodes", j, x.shape, x.tobytes()), lambda: p.evaluate(x)
    )


def _cell_values(op, j, rule):
    # profile j at the node arrays of ``rule.cells`` on edge j, keyed by id:
    # the table keeps each array alive, so no other shares its id; nodes it
    # lacks (a cell rebuilt after leaving the cache) go the _node_values way
    V, breaks = _node_values(op, j), op.potential.profiles[j].breakpoints
    table = op.potential.shared(
        ("cells", j, rule),
        lambda: {id(x): (x, V(x)) for cell in rule.cells(breaks) for x in cell[:2]},
    )
    return lambda x: table[id(x)][1] if id(x) in table else V(x)


def _shared_in_c(op, integrals, a, rule):
    # integrals(op, c, rule) depends on a and eps only through c = a eps, so
    # the potential keeps it per exact c and rule: every member and momentum
    # meeting that c reuses it
    c = np.asarray(a * op.eps)
    key = (integrals, c.dtype.str, c.tobytes(), rule)
    return op.potential.shared(key, lambda: integrals(op, c, rule))


def _moment_residuals(op, c, rule):
    # int V_j (e^{-c v} - 1) dv per edge: the moment less its exact mean,
    # through expm1 so that it keeps full relative precision as c -> 0
    out = np.zeros(op.n, dtype=np.result_type(c, 1.0))
    for j, p in enumerate(op.potential.profiles):
        if not p.is_zero():
            V = _node_values(op, j)
            out[j] = rule.integrate(lambda v: V(v) * np.expm1(-c * v), p.breakpoints)
    return out


def _edge_moments(op, k, rule):
    """Edge moments m_j(k) = int V_j e^{ik eps v} dv, verified by doubling.

    Returned as the residuals r_j(k) = m_j(k) - int V_j, computed through
    expm1 and checked relative to themselves, never to a small moment: the
    moments are the exact edge means plus these, and sums or differences
    in which the means cancel are formed from the residuals alone.
    """
    a = _decay_rate(k)
    return converged_value(
        lambda r: _shared_in_c(op, _moment_residuals, a, r),
        rule,
        rtol=1e-10,
        context="edge moments",
    )


def _moment_sum(op, residuals):
    # sum_j m_j: the exact total mean plus the residuals, free of cancellation
    return sum(residuals) + sum(op.potential.edge_means)


def _pairing_raw(op, a, rule):
    # cancellation-free arrangement of the bracket: the same-edge difference
    # e^{-c|u-v|} - e^{-c(u+v)} is e^{-c(u+v)} expm1(2c min(u,v)), and the
    # moment sum is the exact total mean plus the expm1 residuals, so the
    # value keeps full relative precision down to c -> 0
    diag = _shared_in_c(op, _same_edge_integrals, a, rule)
    smoment = _moment_sum(op, _shared_in_c(op, _moment_residuals, a, rule))
    return (op.eps**2 / (2.0 * a)) * (diag + (2.0 / op.n) * smoment**2)


def _same_edge_integrand(c):
    """V(lo) V(hi) e^{-c(lo+hi)} expm1(2c lo) as g(Vlo, Vhi, lo, hi), from
    the nodes lo <= hi of ``double_integral`` and the profile values there.

    At real k, c = -i theta is purely imaginary and the product is
    2 sin(theta lo) (sin(theta hi) - i cos(theta hi)): a product of sines,
    free of cancellation, in real arithmetic, with theta hi on hi's own row
    or column, so an m x m cell takes m^2 + 2m trig values where the complex
    form takes a complex exp and expm1. Any other c (real on the resolvent
    side) keeps the complex form.
    """
    if np.iscomplexobj(c) and not np.any(c.real):
        theta = -c.imag

        def real_k(Vlo, Vhi, lo, hi):
            s = Vlo * Vhi * (2.0 * np.sin(theta * lo))
            out = np.empty(s.shape, dtype=complex)
            np.multiply(s, np.sin(theta * hi), out=out.real)
            np.multiply(s, np.negative(np.cos(theta * hi)), out=out.imag)
            return out

        return real_k
    return lambda Vlo, Vhi, lo, hi: Vlo * Vhi * np.exp(-c * (lo + hi)) * np.expm1(2.0 * c * lo)


def _same_edge_integrals(op, c, rule):
    diag = 0.0
    g = _same_edge_integrand(c)
    for j, p in enumerate(op.potential.profiles):
        if not p.is_zero():
            V = _cell_values(op, j, rule)
            diag += rule.double_integral(lambda lo, hi: g(V(lo), V(hi), lo, hi), p.breakpoints)
    return diag


def _pairing(op, k, rule):
    """The bilinear pairing P(k) = <R0(k) V_eps, V_eps>, verified by doubling."""
    a = _decay_rate(k)
    return converged_value(lambda r: _pairing_raw(op, a, r), rule, context="<R0 V, V>")


def _crease_cells(op, i, u, rule):
    # the cells of edge i's direct integrals at the scaled points u = x/eps,
    # the crease split at v = u: points whose split has the same number of
    # cells form one group, kept with its nodes, weights and profile values.
    # None of them depends on eps or the momentum, and on power-of-two
    # ladders u repeats bit for bit, so the potential keeps them per
    # (edge, rule, u)
    def build():
        profile = op.potential.profiles[i]
        lo, hi = profile.support
        breaks = [merge_breaks(lo, hi, profile.breakpoints, [t]) for t in u]
        sizes = np.array([b.size for b in breaks])
        groups = []
        for size in sorted(set(sizes.tolist())):
            rows = np.flatnonzero(sizes == size)
            edges = np.array([breaks[r] for r in rows]).T[..., None]
            v, w = rule.points(edges[:-1], edges[1:])
            group = (rows, v, w, profile.evaluate(v))
            for arr in group:
                arr.setflags(write=False)
            groups.append(group)
        return groups

    return op.potential.shared((_crease_cells, i, rule, u.tobytes()), build)


def _direct_raw(op, i, a, xs, rule):
    # int V_i e^{-a |x - eps v|} dv at each x over the crease-split cells,
    # each row summed cell by cell as rule.integrate sums its one-point call
    eps = op.eps
    out = np.empty(xs.shape, dtype=np.result_type(a, 1.0))
    for rows, v, w, V in _crease_cells(op, i, xs / eps, rule):
        terms = w * (V * np.exp(-a * np.abs(xs[rows, None] - eps * v)))
        total = 0.0
        for cell in np.sum(terms, axis=-1):
            total = total + cell
        out[rows] = total
    return out


def _far_field(op, k, rule, r):
    # b_i = m_i(-k) - m_i(k) + (2/n) sum_j m_j(k) per edge, from the moment
    # residuals r = m(k) - int V: beyond the scaled support f_i(x; k) is
    # exactly (i eps/2k) b_i e^{ikx}
    return _edge_moments(op, -k, rule) - r + (2.0 / op.n) * _moment_sum(op, r)


def _factor(op, k, edge, xs, rule):
    """The factor f_i(x; k) = (R0(k) V_eps)_i(x) on one edge at the points xs.

    The moments and the crease-split direct integrals are verified apart
    and only then summed, so no check is relative to their sum, which the
    zero total mean cancels at the vertex. Beyond the scaled support the
    direct integral is exactly e^{ikx} m_i(-k), and f_i = (i eps/2k) b_i e^{ikx}
    with the far-field b_i of ``_far_field``.
    """
    a = _decay_rate(k)
    eps = op.eps
    i = edge - 1
    profile = op.potential.profiles[i]
    r = _edge_moments(op, k, rule)
    shared = (2.0 / op.n) * _moment_sum(op, r)
    decay = np.exp(-a * xs)
    bracket = decay * (shared - op.potential.edge_means[i] - r[i])
    if not profile.is_zero():
        outside = xs >= eps * profile.support[1]
        if outside.any():
            bracket[outside] = _far_field(op, k, rule, r)[i] * decay[outside]
        inside = xs[~outside]
        if inside.size:
            bracket[~outside] += converged_value(
                lambda q: _direct_raw(op, i, a, inside, q),
                rule,
                rtol=1e-10,
                context=f"direct integrals of the factor on edge {edge}",
            )
    return (eps / (2.0 * a)) * bracket


def inner_RV_V(kappa, op):
    """The pairing <(free resolvent at -kappa^2) V_eps, V_eps> = P(i kappa).

    P is the module's formula, verified by order doubling in the
    cancellation-free arrangement of ``_pairing``.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return _pairing(op, 1j * kappa, op.quad)


def zeta(op, kappa):
    """The scalar strength of the rank-one resolvent correction.

    Raises AtPole when the denominator eps^3/lambda + P cancels to within
    TOL_POLE of the size of its two terms. The bound is relative: on a
    resonant ladder both terms scale like |V|^2 and the denominator, where
    1/lambda0 + P_1(0) cancels, like eps^4 |V|^2, so a bound in absolute
    units of eps^3 would fire on any small enough potential."""
    lead = op.eps**3 / op.lambda_value
    denom = pole_equation(op, kappa)
    if abs(denom) <= TOL_POLE * (abs(lead) + abs(denom - lead)):
        raise AtPole(f"zeta denominator {denom:.3e} at kappa = {kappa}")
    return 1.0 / denom


def rank_one_factor(op, kappa, edge, xs):
    """(R0 V_eps) on an edge at the points xs: the factor f(x; i kappa).

    Beyond the scaled support this is exactly (eps/2kappa) b_i e^{-kappa x},
    b_i the ``smeared_factor_coefficients``; inside it the |x - eps v|
    crease is split at v = x/eps.
    """
    if not 1 <= edge <= op.n:
        raise ValueError(f"edge index {edge} outside 1..{op.n}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return _factor(op, 1j * kappa, edge, xs, op.quad)


def smeared_factor_coefficients(op, kappa):
    """Per-edge numbers b_i with (R0 V_eps)(x) = (eps/2kappa) b_i e^{-kappa x}
    exactly for x beyond the scaled support:
    b_i = m_i(-i kappa) + sum_j (2/n - delta_ij) m_j(i kappa)."""
    return _far_field(op, 1j * kappa, op.quad, _edge_moments(op, 1j * kappa, op.quad))


class EpsKernel:
    """Resolvent kernel of the finite-eps operator at energy -kappa^2."""

    def __init__(self, op, kappa):
        self.op = op
        self.n = op.n
        self.kappa = _positive(kappa)
        self.zeta = zeta(op, self.kappa)
        self._factors = {}

    def _factor(self, edge, xs):
        # each edge's factor depends on its own grid only, so the edge pairs
        # of one grid share n factors
        key = (edge, xs.tobytes())
        if key not in self._factors:
            self._factors[key] = rank_one_factor(self.op, self.kappa, edge, xs)
        return self._factors[key]

    def on_grid(self, i, j, xs, ys):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        free = _free_kernel_grid(self.kappa, i, j, xs, ys, self.n)
        return free - self.zeta * np.outer(self._factor(i, xs), self._factor(j, ys))


def pole_equation(op, kappa):
    """eps^3/lambda(eps) + <R0 V_eps, V_eps>; the resolvent pole is its zero."""
    return op.eps**3 / op.lambda_value + inner_RV_V(kappa, op)


def pole_asymptotic(op):
    """Two-term predictor of the pole location, used to seed brackets.

    kappa_pred = (1/B) ((A - 1/lambda0)/eps + lambda1/lambda0^2); in the
    resonant case this collapses to 1/(beta B), the limit-operator pole.
    In the nonresonant case it is not the eps -> 0 asymptote. The pairing
    is eps^3 P_1(i eps kappa), P_1 the pairing at eps = 1, so the pole
    equation reads 1/lambda(eps) + P_1(i eps kappa) = 0 and eps kappa tends
    to the root C* of 1/lambda0 + P_1(iC) = 0 (C* = 0.0867 on
    vstar_nonresonant); (A - 1/lambda0)/B (0.0833 there) is only the
    first-order expansion of that root in C. None when B vanishes (see
    ``CouplingConstants.B_vanishes``) or the value is not finite.
    """
    cc = op.constants
    if cc.B_vanishes:
        return None
    lam0 = op.lambda0
    predicted = ((cc.A - 1.0 / lam0) / op.eps + op.scaling.lambda1 / lam0**2) / cc.B
    return predicted if math.isfinite(predicted) else None


def find_pole(op, bracket=None):
    """Bracketed search for the unique positive root of the pole equation.

    The pole equation g(kappa) = eps^3/lambda(eps) + P(i kappa) is strictly
    decreasing: P(i kappa) = int dmu(E)/(E + kappa^2), mu the spectral
    measure of V_eps under the free Laplacian H0 >= 0, and P(i kappa) is
    below ||V_eps||^2/kappa^2. So g has no root when lambda(eps) > 0 (None
    is returned without evaluating it) and otherwise at most one, below
    ``kappa_max``, where g < 0; it exists iff g(TOL_KAPPA) > 0.

    The bracket is split into POLE_SCAN_SAMPLES intervals, and the one on
    which g changes sign is found by bisecting the interval indices with
    scalar calls: both ends and log2(POLE_SCAN_SAMPLES) midpoints. brentq
    refines it, reading the ends' values already computed. When g does not
    change sign on the bracket, or evaluating it there raises
    QuadratureNotConverged (as it does for a pairing that is not finite),
    the signs of g at TOL_KAPPA and kappa_max decide, and brentq searches
    [TOL_KAPPA, lo] or [hi, kappa_max] (all of [TOL_KAPPA, kappa_max] after
    a raise); a raise at TOL_KAPPA or kappa_max propagates. The default
    bracket comes from the asymptotic predictor when that is positive,
    otherwise (negative, or None) it is [TOL_KAPPA, 10].
    """
    if bracket is None:
        predicted = pole_asymptotic(op)
        if predicted is not None and predicted > 0:
            bracket = (max(TOL_KAPPA, 0.5 * predicted), 2.0 * predicted + 1.0)
        else:
            bracket = (TOL_KAPPA, 10.0)
    lo, hi = bracket
    if lo <= 0 or hi <= lo:
        raise ValueError("bracket endpoints must be positive and increasing")
    if op.lambda_value > 0:
        return None
    values = {}

    def f(kappa):
        if kappa not in values:
            values[kappa] = pole_equation(op, kappa)
        return values[kappa]

    grid = np.linspace(lo, hi, POLE_SCAN_SAMPLES + 1)
    try:
        below, above = f(grid[0]) <= 0, f(grid[-1]) > 0
        a, b = 0, grid.size - 1
        while not (below or above) and b - a > 1:
            # g(grid[a]) > 0 >= g(grid[b])
            mid = (a + b) // 2
            a, b = (mid, b) if f(grid[mid]) > 0 else (a, mid)
        a, b = grid[a], grid[b]
    except QuadratureNotConverged:
        below = above = True
    if below or above:
        # no sign change on the bracket, or no verified value there
        top = kappa_max(op)
        if not f(TOL_KAPPA) > 0 > f(top):
            return None
        a, b = (TOL_KAPPA if below else hi), (top if above else lo)
    root = brentq(f, a, b, xtol=1e-14, rtol=8.9e-16)
    residual = f(root)
    return PoleResult(kappa=float(root), eigenvalue=-float(root) ** 2, residual=residual)


def kappa_max(op):
    """||V|| sqrt|lambda(eps)| / eps, above every root of the pole equation:
    there P(i kappa) < eps ||V||^2 / kappa^2 = eps^3/|lambda(eps)|. ||V||^2 is
    the exact sum of int V_j^2 over the edges."""
    norm2 = op.potential.shared(
        "squared_norm", lambda: sum(p.multiply(p).integral() for p in op.potential.profiles)
    )
    return math.sqrt(norm2 * abs(op.lambda_value)) / op.eps
