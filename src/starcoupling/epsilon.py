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
The moments and P's same-edge integrals depend on eps and k only through
c = -ik eps: the potential keeps per exact c and rule what a later reader
reads (the moments, and the same-edge integrals at complex c), so
``certify_ladder`` checks all of a ladder's c in one batch per kind.
Everything is computed from the exact finite-eps integrals after the
substitution x -> eps x, which maps all integrals onto [0,1]^2 and keeps the
quadrature nodes independent of eps. The small-eps expansions appear only
as predictors used to seed brackets and to cross-check rates, never as the
computation itself.

The same-edge part of P is integrated in the cancellation-free form
V(lo) V(hi) e^{-c(lo+hi)} expm1(2c lo), c = -ik eps, lo <= hi. At real k it
is 2 sin(theta lo) (sin(theta hi) - i cos(theta hi)), theta = k eps, a
function of hi times a function of lo, so ``_same_edge_sweep`` integrates
it as a running integral over each edge's cells: 2m trig values per cell
of m nodes, where the 2-d triangle rule of ``double_integral`` takes
m^2 + 2m. Any other c keeps that 2-d rule on the complex exp/expm1 form
verbatim. That branch is pinned: the stored spectrum references hold the
pole search, which runs at real c, bit for bit, and any other form there
moves them; once they are re-recorded, the real-c form
e^{-c hi} V e^{-c lo} expm1(2c lo) can be swept the same way. The pairing
is formed from the profiles times a power of two near the inverse of the
potential's size (``_scale``), so its order-doubling check never compares
subnormal values, and is scaled back after the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import AtPole, QuadratureNotConverged
from .graph import ScalingFunction, StarPotential, _size, coupling_constants
from .limit import TOL_POLE, _free_kernel_grid, _positive
from .quadrature import BREAK_MARGIN, QuadratureRule, _running01, converged_value, merge_breaks
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
    return a.real if not np.count_nonzero(a.imag) else a


def _scale(op):
    # 2^-e, e the binary exponent of the potential's size (``graph._size``),
    # |e| <= 511 so that the scale and its square are normal numbers: the
    # pairing is integrated from profile values times 2^-e and multiplied by
    # 2^{2e} after its check, so it does not underflow for a small
    # potential; a power of two scales every product exactly, so for a
    # potential in the normal range the bits do not change
    def build():
        e = math.frexp(_size(op.potential))[1]
        return 2.0 ** -min(max(e, -511), 511)

    return op.potential.shared("scale", build)


def _cell_values(op, j, rule):
    # profile j at the node arrays of ``rule.cells`` on edge j, keyed by id (the table keeps
    # each array alive, so no other shares its id); a node array it lacks (a cell rebuilt
    # after leaving the cache) is evaluated once: no node depends on eps or the momentum
    p = op.potential.profiles[j]
    V = lambda x: op.potential.shared(("nodes", j, x.shape, x.tobytes()), lambda: p.evaluate(x))
    table = op.potential.shared(
        ("cells", j, rule),
        lambda: {id(x): (x, V(x)) for cell in rule.cells(p.breakpoints) for x in cell[:2]},
    )
    return lambda x: table[id(x)][1] if id(x) in table else V(x)


def _shared_in_c(op, integrals, c, rule):
    # integrals(op, c, rule) takes a 1-d batch of c, each entry's result a function of it
    # alone: the potential keeps each per exact c (its bytes) and rule, and integrates only
    # the c no member met; a number c is a batch of one, its result reshaped back to a number
    c = np.asarray(c)
    table = op.potential.shared((integrals, c.dtype.str, rule), dict)
    raw, size = c.tobytes(), c.itemsize
    keys = [raw[i : i + size] for i in range(0, len(raw), size)]
    new = dict.fromkeys(key for key in keys if key not in table)
    if new:
        values = integrals(op, np.frombuffer(b"".join(new), c.dtype), rule)
        values.setflags(write=False)
        table.update(zip(new, values))
    if len(new) < len(keys):
        values = np.array([table[key] for key in keys])
    return values.reshape(c.shape + values.shape[1:])[()]


def _moment_residuals(op, c, rule):
    # int V_j (e^{-c v} - 1) dv per momentum and edge: the moment less its exact mean, through
    # expm1 for full relative precision as c -> 0; all edges in one ``rule.integrate`` call
    *_, V, _, edges = _cells(op, rule)
    out = np.zeros(c.shape + (op.n,), dtype=np.result_type(c, 1.0))
    if edges:
        breaks = [op.potential.profiles[j].breakpoints for j in edges]
        out[:, edges] = rule.integrate(lambda v: V.ravel() * np.expm1(-c[:, None] * v), breaks)
    return out


def _edge_moments(op, k, rule):
    """Edge moments m_j(k) = int V_j e^{ik eps v} dv, verified by doubling.

    Returned as the residuals r_j(k) = m_j(k) - int V_j, computed through
    expm1 and checked relative to themselves, never to a small moment: the
    moments are the exact edge means plus these, and sums or differences
    in which the means cancel are formed from the residuals alone. A 1-d k
    gives one row per momentum, each checked on its own and kept per exact
    c = -ik eps and rule (a failed check keeps none) for every later reader.
    """
    return _shared_in_c(op, _verified_moments, _decay_rate(k) * op.eps, rule)


def _verified_moments(op, c, rule):
    raw = partial(_shared_in_c, op, _moment_residuals, c)
    return converged_value(raw, rule, context="edge moments", batch=1)


def _moment_sum(op, residuals):
    # sum_j m_j over the last axis: the exact total mean plus the residuals, free of cancellation
    return sum(residuals.T) + sum(op.potential.edge_means)


def _pairing_raw(op, a, rule):
    # cancellation-free arrangement of the bracket: the same-edge difference
    # e^{-c|u-v|} - e^{-c(u+v)} is e^{-c(u+v)} expm1(2c min(u,v)), and the
    # moment sum is the exact total mean plus the expm1 residuals, so the
    # value keeps full relative precision down to c -> 0; both parts are
    # formed from the profiles times _scale, so the value is P times scale^2;
    # at real c (the pole search, an HS kernel) no second reader asks for the
    # same-edge integrals, so they are not kept
    c = np.asarray(a * op.eps)
    if np.iscomplexobj(c):
        diag = _shared_in_c(op, _same_edge_integrals, c, rule)
    else:
        diag = _same_edge_integrals(op, c.reshape(-1), rule).reshape(c.shape)[()]
    smoment = _moment_sum(op, _shared_in_c(op, _moment_residuals, c, rule)) * _scale(op)
    return (op.eps**2 / (2.0 * a)) * (diag + (2.0 / op.n) * smoment**2)


def _same_edge_integrand(c):
    """V(lo) V(hi) e^{-c(lo+hi)} expm1(2c lo) as g(Vlo, Vhi, lo, hi), from
    the nodes lo <= hi of ``double_integral`` and the profile values there:
    the same-edge integrand at any c that is not purely imaginary."""
    return lambda Vlo, Vhi, lo, hi: Vlo * Vhi * np.exp(-c * (lo + hi)) * np.expm1(2.0 * c * lo)


def _same_edge_integrals(op, c, rule):
    # sum_j II V_j V_j e^{-c(u+v)} expm1(2c min(u,v)) du dv times scale^2 per
    # momentum: by the running-integral sweep at real k, all at once; by the
    # 2-d rule of ``double_integral`` at any other c, one c at a time, with
    # V(hi) times scale^2, which scales each product of the integrand exactly
    if np.iscomplexobj(c) and not c.real.any():
        return _same_edge_sweep(op, -c.imag[:, None, None], rule)
    square, diag = _scale(op) ** 2, [0.0] * len(c)
    for q, g in enumerate(map(_same_edge_integrand, c)):
        for j, p in enumerate(op.potential.profiles):
            if not p.is_zero():
                V = _cell_values(op, j, rule)
                diag[q] += rule.double_integral(
                    lambda lo, hi: g(V(lo), V(hi) * square, lo, hi), p.breakpoints
                )
    return np.array(diag)


def _same_edge_sweep(op, theta, rule):
    """The same-edge integrals at real k, c = -i theta, as running integrals.

    There the integrand is 2 sin(theta lo) (sin(theta hi) - i cos(theta hi)),
    so each edge's integral is 2 int V(u) (sin(theta u) - i cos(theta u)) C(u) du
    with C(u) = int_{v<u} G, G = 2 V sin(theta v). Swept over an edge's cells
    from left to right, C at a cell's nodes is the integral of G over the
    cells before it plus h (Q @ G), Q the running-integral matrix of the
    rule's order: 2m trig values per cell of m nodes, where the 2-d rule
    takes m^2 + 2m on a diagonal cell and m^2 on every pair of cells. All
    cells of all edges are one array (``_cells``), behind theta's batch axis.
    """
    x, w, h, V, left, _ = _cells(op, rule)
    V = V * _scale(op)
    t = theta * x
    s, co = np.sin(t), np.cos(t)
    G = 2.0 * V * s
    C = left @ np.sum(w * G, axis=-1)[..., None] + h * (G @ _running01(rule.order).T)
    F, s, co = (arr.reshape(len(t), -1) for arr in (w * V * C, s, co))
    return 2.0 * np.array([complex(f @ sin, -(f @ cos)) for f, sin, cos in zip(F, s, co)])


def _cells(op, rule):
    # every supported edge's cells, one row each, in the order of ``rule.integrate`` over
    # their breaks: the nodes x, weights w and widths h of ``rule.cell_points``, the profile
    # V at x, left[i, l] = 1 where cell l lies left of cell i on the same edge, and the
    # supported edges; none of it depends on eps or the momentum
    def build():
        x, w, h, V, edge = [], [], [], [], []
        for j, p in enumerate(op.potential.profiles):
            if not p.is_zero():
                nodes, weights = rule.cell_points(p.breakpoints)
                x.extend(nodes)
                w.extend(weights)
                h.extend(np.diff(p.breakpoints))
                V.extend(p.evaluate(nodes))
                edge.extend([j] * len(nodes))
        edge, cell, m = np.array(edge), np.arange(len(edge)), rule.order
        left = (edge[:, None] == edge[None, :]) & (cell[None, :] < cell[:, None])
        rows = (np.reshape(x, (-1, m)), np.reshape(w, (-1, m)), np.reshape(h, (-1, 1)))
        cells = (*rows, np.reshape(V, (-1, m)), left.astype(float))
        for arr in cells:
            arr.setflags(write=False)
        return (*cells, sorted(set(edge.tolist())))

    return op.potential.shared((_cells, rule), build)


#: the most c that ``certify_ladder`` integrates in one batch, whose arrays grow with c x nodes
LADDER_BLOCK = 32


def certify_ladder(op, epsilons, momenta, kappa):
    """Integrate per kind, in batches of at most LADDER_BLOCK c, what the members at ``epsilons``
    on op's potential read per exact c for the S-matrices at ``momenta`` and the HS distance at
    ``kappa``: the checked moments at c = -ik eps and +-kappa eps and the real-k same-edge sums
    at both orders. No row depends on its batch; a failed batch keeps nothing (a member raises)."""
    momenta, rule = np.asarray(momenta, dtype=float), op.quad
    scattering = np.concatenate([_decay_rate(momenta) * eps for eps in epsilons])
    hs = _decay_rate(np.array([1j * kappa, -1j * kappa]))
    hs = np.concatenate([hs * eps for eps in epsilons])
    kinds = [(_verified_moments, scattering, rule), (_verified_moments, hs, rule)]
    kinds += [(_same_edge_integrals, scattering, q) for q in (rule, rule.doubled())]
    for integrals, c, q in kinds:
        for start in range(0, len(c), LADDER_BLOCK):
            try:
                _shared_in_c(op, integrals, c[start : start + LADDER_BLOCK], q)
            except QuadratureNotConverged:
                pass


def _pairing(op, k, rule):
    """The pairing P(k) = <R0(k) V_eps, V_eps>, verified by doubling (each k of an array alone).

    The check runs on the value formed from the profiles times _scale, where
    it cannot underflow; P is that value divided by scale^2, and raises
    QuadratureNotConverged when it is not finite.
    """
    a = _decay_rate(k)
    scale = _scale(op)
    raw = partial(_pairing_raw, op, a)
    value = converged_value(raw, rule, context="<R0 V, V>", batch=np.ndim(k))
    value = value / scale / scale
    if not np.isfinite(value).all():
        raise QuadratureNotConverged("<R0 V, V> is not finite at the potential's scale")
    return value


def _crease_cells(op, edges, u, rule):
    # the direct-integral cells of the edges (0-based, one breakpoint layout) at the scaled
    # points u = x/eps, split at v = u: nodes and weights (cell, point, node), profile values
    # (edge, cell, point, node). Each point's breaks are the profile's plus u where merge_breaks
    # adds it, else lo (an empty cell). Nothing depends on eps or k: kept per (edges, rule, u)
    def build():
        profiles = [op.potential.profiles[i] for i in edges]
        lo, hi = profiles[0].support
        base = merge_breaks(lo, hi, profiles[0].breakpoints)
        extra = np.where((lo + BREAK_MARGIN < u) & (u < hi - BREAK_MARGIN), u, lo)
        breaks = np.sort(np.column_stack([np.broadcast_to(base, (u.size, base.size)), extra]))
        ends = breaks.T[..., None]
        v, w = rule.points(ends[:-1], ends[1:])
        cells = (v, w, np.array([p.evaluate(v) for p in profiles]))
        for arr in cells:
            arr.setflags(write=False)
        return cells

    return op.potential.shared((_crease_cells, edges, rule, u.tobytes()), build)


def _direct_raw(op, edges, a, xs, rule):
    # int V_i e^{-a |x - eps v|} dv per edge i and point x, from one table of exponentials,
    # summed cell by cell as rule.integrate sums a one-point call; an empty cell adds +-0.0
    v, w, V = _crease_cells(op, edges, xs / op.eps, rule)
    total = 0.0
    for cell in np.sum(w * (V * np.exp(-a * np.abs(xs[:, None] - op.eps * v))), -1).swapaxes(0, 1):
        total = total + cell
    return total


def _far_field(op, k, rule):
    # r = m(k) - int V, shared = (2/n) sum m_j(k), b_i = m_i(-k) - m_i(k) + shared (f_i(x; k) =
    # (i eps/2k) b_i e^{ikx} off the support), k and -k one batch; kept per eps, k and rule
    def build():
        r, reverse = _edge_moments(op, np.array([k, -k]), rule)
        shared = (2.0 / op.n) * _moment_sum(op, r)
        return r, shared, reverse - r + shared

    return op.potential.shared((_far_field, op.eps, k, rule), build)


def _factor(op, k, edges, xs, rule):
    """The factors f_i(x; k) = (R0(k) V_eps)_i(x) of the edges i at the points xs, one row each.

    The moments and the crease-split direct integrals are verified apart
    and only then summed, so no check is relative to their sum, which the
    zero total mean cancels at the vertex. Beyond the scaled support the
    direct integral is exactly e^{ikx} m_i(-k), and f_i = (i eps/2k) b_i e^{ikx}
    with the far-field b_i of ``_far_field``. Edges with equal breakpoints share
    one table of exponentials and one check, each row checked on its own.
    """
    a = _decay_rate(k)
    i = np.subtract(edges, 1)
    r, shared, far = _far_field(op, k, rule)
    decay = np.exp(-a * xs)
    bracket = decay * (shared - np.take(op.potential.edge_means, i) - r[i])[:, None]
    groups = {}
    for row, j in enumerate(i):
        profile = op.potential.profiles[j]
        if not profile.is_zero():
            groups.setdefault(profile.breakpoints.tobytes(), (profile, []))[1].append(row)
    for profile, rows in groups.values():
        outside = xs >= op.eps * profile.support[1]
        bracket[np.ix_(rows, outside)] = far[i[rows], None] * decay[outside]
        inside = xs[~outside]
        if inside.size:
            bracket[np.ix_(rows, ~outside)] += converged_value(
                lambda q: _direct_raw(op, tuple(i[rows]), a, inside, q),
                rule,
                rtol=1e-10,
                context="direct integrals of the factor on edge "
                + ", ".join(map(str, i[rows] + 1)),
                batch=1,
            )
    return (op.eps / (2.0 * a)) * bracket


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
    """(R0 V_eps) on an edge at the points xs: the factor f(x; i kappa); a
    sequence of edges gives one row per edge, formed in one call.

    Beyond the scaled support this is exactly (eps/2kappa) b_i e^{-kappa x},
    b_i the ``smeared_factor_coefficients``; inside it the |x - eps v|
    crease is split at v = x/eps.
    """
    edges = np.atleast_1d(edge)
    if not np.all((1 <= edges) & (edges <= op.n)):
        raise ValueError(f"edge index {edge} outside 1..{op.n}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    values = _factor(op, 1j * kappa, edges, xs, op.quad)
    return values if np.ndim(edge) else values[0]


def smeared_factor_coefficients(op, kappa):
    """Per-edge numbers b_i with (R0 V_eps)(x) = (eps/2kappa) b_i e^{-kappa x}
    exactly for x beyond the scaled support:
    b_i = m_i(-i kappa) + sum_j (2/n - delta_ij) m_j(i kappa)."""
    return _far_field(op, 1j * kappa, op.quad)[2]


class EpsKernel:
    """Resolvent kernel of the finite-eps operator at energy -kappa^2."""

    def __init__(self, op, kappa):
        self.op = op
        self.n = op.n
        self.kappa = _positive(kappa)
        self.zeta = zeta(op, self.kappa)
        self._factors = {}

    def factor(self, edge, xs):
        # f(x; i kappa) on edge at xs, of xs's shape; the edge pairs of one grid share n factors,
        # and edges with edge's breakpoints (or zero with it) share its grids: one call
        key = (edge, xs.tobytes())
        if key not in self._factors:
            profiles = self.op.potential.profiles
            geometry = [None if p.is_zero() else p.breakpoints.tobytes() for p in profiles]
            edges = [e for e, g in enumerate(geometry, 1) if g == geometry[edge - 1]]
            rows = rank_one_factor(self.op, self.kappa, edges, xs.ravel())
            self._factors.update(((e, key[1]), row) for e, row in zip(edges, rows))
        return self._factors[key].reshape(xs.shape)

    def on_grid(self, i, j, xs, ys):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        free = _free_kernel_grid(self.kappa, i, j, xs, ys, self.n)
        fi, fj = self.factor(i, xs)[..., :, None], self.factor(j, ys)[..., None, :]
        return free - self.zeta * (fi * fj)


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
