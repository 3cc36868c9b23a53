"""Independent finite-difference oracle on a truncated star graph.

Second-order discretization of the scaled rank-one family, used as ground
truth against the analytic/quadrature routes. It is written once, in
weighted form, as S + z W + c m m^T:

* S is the symmetric arrow stiffness: a vertex row (the one-sided
  Kirchhoff stencil, normalized by the half-cell trapezoid weight) plus n
  tridiagonal edge blocks;
* W = diag(w) holds the trapezoid weights, m = W vbar is the weighted
  sampled potential, and c = lambda(eps)/eps^3;
* z is the spectral shift: kappa^2 for the resolvent, -k^2 for scattering.

The closures differ only in the last node of each edge:

============  ==========================  ============  =================
closure       nodes per edge              last weight   last diagonal of S
============  ==========================  ============  =================
Dirichlet     s = 1..m-1 (x = L dropped)  h             2/h
Robin (k)     s = 1..m (x = L unknown)    h/2           1/h - ik
============  ==========================  ============  =================

Bound states and resolvent columns use the Dirichlet closure (the
eigenfunctions decay like e^{-kappa x}). Scattering uses the outgoing Robin
closure psi' - ik psi = -2ik delta_ij e^{-ikL} at x = L, where the
potential has already vanished, so the plane-wave readoff is exact up to
the O(h^2) scheme error; its right-hand side is -2ik e^{-ikL} at the end
node of the incoming edge.

The secular function of the bound state is evaluated on the symmetrized
form T + c q q^T (similarity by W^{1/2}) rather than on S - mu W. The two
are the same function, but cond(S - mu W) reaches about 1e6 on the
spectrum grids, so the root is reproducible only to about 1e-10 relative
between the two arithmetic routes; the eigenvalues keep the symmetric one.

Each matrix is assembled once, in final form: S as CSC arrays, T by scaling
S's data in the product order of W^{-1/2} S W^{-1/2}, and each shift written
over the diagonal slots of one copy. The trapezoid weights are stated once,
in ``DiscreteStarGraph.weights``. The secular root factorizes T - mu I at
shifts mu <= -TAU_EIGEN < 0, all of one sparsity pattern: only at the shifts
whose value it reads, 8 to 16 per grid on the shipped spectrum ladders
(eps >= 2^-5) with a bound state. A sign that no value depends on comes from
``_secular_sign``: the sign of an O(N) arrow solve (``_arrow_form``) that
needs q = W^{1/2} vbar and the grid alone, since every Dirichlet edge block
of T is the same tridiagonal: one LAPACK ``dptsv`` with n + 1 right-hand
sides, then the vertex Schur complement. It is trusted only outside the
margin SIGN_RTOL (1 + |c q.x|): g(-TAU_EIGEN) > 0 means no bound state, and
the grid is then never assembled; g(lo) < 0 doubles the bracket end lo.
Only then is T assembled, from the potential the sign stage sampled. Every
value brentq reads, both bracket ends and any sign inside the margin come
from SuperLU, so the eigenvalues are those of SuperLU alone.
SuperLU's fill-reducing column order is computed once per grid, at the
first shift; T is then kept only as its symmetric permutation in that
order (inverted by scatter, q permuted once with it), and each later shift
is factorized in the natural order. Every factorization uses single-column
panels: SuperLU zero-fills a panel_size x N workspace, which at the default
of 10 set a grid's peak memory, and these
arrow matrices factor without fill, so wider panels bought no speed. The
pivots stay on the diagonal, so the root is bit for bit that of a fresh
default factorization at every shift (a solve of S + z W rounds its last
pivots, the vertex among them, by about an ulp differently from the default
panel). The root is not reproducible much beyond that, since g' is small in
the resonant family, and the stored benchmark references pin the
eigenvalues and the resolvent columns: any other secular route or column
solve needs those references re-recorded first.

SciPy is imported inside the functions that assemble, solve or factorize, so
importing the package (and every command but the oracle's) costs no SciPy
start-up; ``splu`` stays one module-level function, never rebound, so a
caller can wrap or count every factorization by patching it here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import GridTooCoarse, SingularSystem
from .limit import SMatrix
from .roots import brentq

if TYPE_CHECKING:
    import scipy.sparse as sp

#: maximal admissible step
MAX_STEP = 1e-2
#: largest admissible number of unknowns 1 + n m; the secular root (assembly,
#: symmetrization and its SuperLU factorizations) peaks at about 250 bytes
#: per unknown (1.17 M unknowns), so one grid stays near 0.5 GiB
MAX_UNKNOWNS = 2**21
#: minimal admissible truncation length
MIN_LENGTH = 2.0
#: discrete spectrum above -TAU_EIGEN counts as "no bound state"
TAU_EIGEN = 1e-3
#: the O(N) secular sign is trusted only where |g| > SIGN_RTOL (1 + |c q.x|);
#: it agreed with SuperLU's g to 1.7e-13 of that scale on shipped and drawn
#: spectrum grids, where |g| was at least 4.1e-4 of it
SIGN_RTOL = 1e-8
#: relative h vs h/2 eigenvalue mismatch tolerated by the Richardson guard
RICHARDSON_RTOL = 0.25


def splu(A, **options):
    """``scipy.sparse.linalg.splu``, imported at the first factorization."""
    from scipy.sparse import linalg

    return linalg.splu(A, **options)


def _diagonal_slots(A):
    """Positions in ``A.data`` of the diagonal of a CSC matrix that stores all
    of it, in A's index type: the secular root keeps them through every
    factorization, at half the size of numpy's intp."""
    columns = np.repeat(np.arange(A.shape[1], dtype=A.indices.dtype), np.diff(A.indptr))
    return np.flatnonzero(A.indices == columns).astype(A.indices.dtype)


def aligned_grid(eps, L, h):
    """Snap (L, h) so the scaled support endpoint lands on a grid node.

    Sampling a profile jump between nodes costs an O(h) term that ruins the
    clean h^2 Richardson behaviour; snapping h to an integer fraction of
    eps (never coarser than requested) restores it. L is then rounded up to
    the next multiple of the snapped step.
    """
    m = max(1, math.ceil(eps / h - 1e-9))
    h_eff = eps / m
    L_eff = h_eff * math.ceil(L / h_eff - 1e-9)
    return L_eff, h_eff


@dataclass(frozen=True)
class DiscreteStarGraph:
    """Uniform per-edge grids {h, 2h, ..., L} with one shared vertex node."""

    n: int
    L: float
    h: float

    def __post_init__(self):
        if self.h > MAX_STEP + 1e-12:
            raise GridTooCoarse(f"step h = {self.h} exceeds the admissible {MAX_STEP}")
        if self.L < MIN_LENGTH - 1e-12:
            raise GridTooCoarse(f"truncation L = {self.L} below {MIN_LENGTH}")
        m = round(self.L / self.h)
        if abs(m * self.h - self.L) > 1e-9:
            raise GridTooCoarse(f"L = {self.L} is not an integer multiple of h = {self.h}")
        if 1 + self.n * m > MAX_UNKNOWNS:
            raise GridTooCoarse(
                f"{1 + self.n * m} unknowns (n = {self.n}, L = {self.L}, h = {self.h})"
                f" exceed the budget of {MAX_UNKNOWNS}"
            )

    @property
    def m(self):
        return round(self.L / self.h)

    @property
    def vertex_weight(self):
        """The vertex's trapezoid weight n h/2: the half cells of its n edges."""
        return self.n * self.h / 2.0

    def weights(self, p):
        """The trapezoid weights of the vertex and of p nodes per edge, each a
        full cell h."""
        weights = np.full(1 + self.n * p, self.h)
        weights[0] = self.vertex_weight
        return weights


@dataclass(frozen=True)
class DiscreteOperator:
    """One closure of the discretization: stiffness + weights + rank-one data.

    Unknown layout: index 0 is the vertex, then p nodes per edge, edge-major,
    at x = s h for s = 1..p. The Dirichlet closure has p = m - 1 (x = L
    carries the Dirichlet condition and is eliminated); the Robin closure
    has p = m, so the node at x = L of edge j + 1 sits at index (j + 1) m.
    """

    grid: DiscreteStarGraph
    stiffness: sp.csc_matrix
    weights: np.ndarray
    values: np.ndarray
    strength: float

    @property
    def weighted_vector(self):
        return self.weights * self.values

    def symmetric_stiffness(self):
        """T = W^{-1/2} S W^{-1/2}, in CSC arrays of S's layout; the operator
        is T + strength q q^T, q = W^{1/2} values, symmetric."""
        import scipy.sparse as sp

        S = self.stiffness
        d_inv = 1.0 / np.sqrt(self.weights)
        # (d_inv[i] S_ij) d_inv[j], the product order of diag(d_inv) @ S @ diag(d_inv)
        data = d_inv[S.indices] * S.data
        data *= np.repeat(d_inv, np.diff(S.indptr))
        return sp.csc_matrix((data, S.indices, S.indptr), shape=S.shape)

    def dense_plain(self):
        """The operator in plain coordinates, W^{-1}(S + c m m^T), dense."""
        m = self.weighted_vector
        full = self.stiffness.toarray() + self.strength * np.outer(m, m)
        return full / self.weights[:, None]

    def solve(self, shift, rhs):
        """Solve (S + shift W + c m m^T) u = rhs for one or several columns.

        S + shift W is factorized once; the rank-one term is applied by
        Sherman-Morrison, unless m = 0 (the free operator).
        """
        K = self.stiffness.copy()
        K.data[_diagonal_slots(K)] += shift * self.weights
        try:
            lu = splu(K, panel_size=1)
        except RuntimeError as exc:
            raise SingularSystem(f"FD solve failed at shift = {shift}") from exc
        mvec = self.weighted_vector
        base = lu.solve(rhs)
        if not np.any(mvec):
            return base
        z = lu.solve(mvec)
        c = self.strength
        denom = 1.0 + c * (mvec @ z)
        if abs(denom) < 1e-14:
            raise SingularSystem(f"rank-one update singular at shift = {shift}")
        return base - np.multiply.outer(z, c * (mvec @ base) / denom)


def build_discrete_operator(op, L, h, k=None, values=None):
    """Assemble the discretization of the family with the Dirichlet closure,
    or with the outgoing Robin closure at momentum ``k`` when it is given.
    ``values`` is the ``_sampled_potential`` when the caller has it."""
    import scipy.sparse as sp

    grid = DiscreteStarGraph(op.n, float(L), float(h))
    n, m = grid.n, grid.m
    p = m if k is not None else m - 1
    size = 1 + n * p
    inv_h = 1.0 / h

    # CSC arrays, rows sorted: column 0 is (0, first nodes) and node column s
    # is (previous, s, next), the vertex before each first node and no next
    # after each last one, at (j + 1) p, so each edge fills 3p - 1 slots
    before = np.arange(size, dtype=np.int32)
    indptr = np.r_[0, n + 1 + 3 * before - before // p].astype(np.int32)
    node = before[1:].reshape(n, p)
    indices = np.zeros(indptr[-1], dtype=np.int32)
    data = np.full(indptr[-1], -inv_h, dtype=float if k is None else complex)
    data[0], indices[1 : n + 1] = n * inv_h, node[:, 0]
    edges = indices[n + 1 :].reshape(n, 3 * p - 1)
    edges[:, 1::3], edges[:, 2::3], edges[:, 3::3] = node, node[:, :-1] + 1, node[:, 1:] - 1
    diag = data[n + 1 :].reshape(n, 3 * p - 1)[:, 1::3]
    diag[:] = 2.0 * inv_h
    weights = grid.weights(p)
    if k is not None:
        diag[:, -1] = inv_h - 1j * k
        weights[p::p] = h / 2.0
    stiffness = sp.csc_matrix((data, indices, indptr), shape=(size, size))

    return DiscreteOperator(
        grid=grid,
        stiffness=stiffness,
        weights=weights,
        values=_sampled_potential(op, h, p) if values is None else values,
        strength=op.lambda_value / op.eps**3,
    )


def _sampled_potential(op, h, p):
    """The potential at the vertex and at x = h, ..., p h on each edge.

    Jumps are sampled with the one-sided mean so the trapezoid pairing stays
    second order. A profile is 0, and not evaluated, past its scaled support
    and the 1e-13 jump window of ``evaluate_symmetric`` (1e-12 for rounding)."""
    u = h * np.arange(1, p + 1) / op.eps
    values = np.zeros(1 + op.n * p)
    values[0] = sum(prof.evaluate_symmetric(0.0) / op.n for prof in op.potential.profiles)
    for j, prof in enumerate(op.potential.profiles):
        inside = u[: np.searchsorted(u, prof.support[1] + 1e-12, side="right")]
        values[1 + j * p : 1 + j * p + inside.size] = prof.evaluate_symmetric(inside)
    return values


def discrete_eigenvalue(op, L, h):
    """Smallest eigenvalue of the single-grid discretization below -TAU_EIGEN, or None.

    For negative coupling strength c the operator T + c q q^T has exactly
    one eigenvalue below min spec(T) >= 0; it is the root of the secular
    function g(mu) = 1 + c q.(T - mu)^{-1} q, which is monotone there. For
    c >= 0 there is none, and the grid is not assembled.

    Signs that no value depends on come from the O(N) ``_secular_sign``,
    which needs only q: g(-TAU_EIGEN) > 0 (no bound state) ends the search
    before any assembly, and g(lo) < 0 doubles the bracket end lo. Only then
    is T assembled, and every value brentq reads, both bracket ends and any
    sign inside ``_secular_sign``'s margin come from SuperLU.
    """
    c = op.lambda_value / op.eps**3
    if c >= 0:
        return None
    grid = DiscreteStarGraph(op.n, float(L), float(h))
    values = _sampled_potential(op, grid.h, grid.m - 1)
    # q = W^{1/2} vbar, as the operator is T + c q q^T
    q = np.sqrt(grid.weights(grid.m - 1)) * values
    if not np.any(q) or _secular_sign(grid, q, c, -TAU_EIGEN) > 0:
        return None
    lo = -max(1.0, 4.0 * TAU_EIGEN)
    while _secular_sign(grid, q, c, lo) < 0:
        lo = _doubled(lo)
    T = build_discrete_operator(op, L, h, values=values).symmetric_stiffness()
    del values
    slots = _diagonal_slots(T)
    d0 = T.data[slots]
    # g depends on mu only through the rounded diagonal of T - mu I, which
    # takes as many values as T's diagonal (a handful); brentq's last steps
    # fall below that resolution, so one matrix recurs at several shifts
    levels = np.unique(d0)
    order = perm = q_perm = None
    values = {}

    def solve(mu):
        # (T - mu)^{-1} q; the first shift fixes SuperLU's column order, and a
        # second one inverts it and permutes T and q into it; the order is
        # copied, since a view would keep the factors
        nonlocal T, order, perm, q_perm, slots, d0
        if order is None:
            T.data[slots] = d0 - mu
            lu = splu(T, panel_size=1)
            order = lu.perm_c.copy()
            return lu.solve(q)
        if perm is None:
            T, perm = _permuted(T, order)
            slots, d0, q_perm = _diagonal_slots(T), d0[perm], q[perm]
        T.data[slots] = d0 - mu
        # the factorization's workspace sets the grid's peak memory, so x is
        # allocated after it: only q_perm is kept alive through it
        solved = splu(T, permc_spec="NATURAL", panel_size=1).solve(q_perm)
        x = np.empty_like(q)
        x[perm] = solved
        return x

    def g(mu):
        key = (levels - mu).tobytes()
        if key not in values:
            try:
                x = solve(mu)
            except RuntimeError as exc:
                raise SingularSystem(f"secular solve failed at mu = {mu}") from exc
            values[key] = 1.0 + c * float(q @ x)
        return values[key]

    if g(-TAU_EIGEN) >= 0:
        return None
    while g(lo) <= 0:
        lo = _doubled(lo)
    return float(brentq(g, lo, -TAU_EIGEN, xtol=1e-13, rtol=4.0 * np.finfo(float).eps))


def _doubled(lo):
    """The next lower bracket end of the secular root."""
    if 2.0 * lo < -1e12:
        raise SingularSystem("secular function never changes sign")
    return 2.0 * lo


def _permuted(T, order):
    """(A, perm): A = T[perm][:, perm] with sorted indices, perm the inverse
    of ``order``, by scatter: one column gather, row r relabelled order[r]."""
    perm = np.empty_like(order)
    perm[order] = np.arange(order.size, dtype=order.dtype)
    A = T[:, perm]
    A.indices = order[A.indices]
    A.sort_indices()
    return A, perm


def _secular_sign(grid, q, c, mu):
    """Sign of g(mu) = 1 + c q.(T - mu)^{-1} q from ``_arrow_form``, or 0
    inside the margin SIGN_RTOL (1 + |c q.x|), where it is not trusted."""
    cqx = c * _arrow_form(grid, q, mu)
    g, margin = 1.0 + cqx, SIGN_RTOL * (1.0 + abs(cqx))
    return 1 if g > margin else -1 if g < -margin else 0


def _arrow_form(grid, q, mu):
    """q.(T - mu)^{-1} q in O(N), T the symmetrized Dirichlet stiffness on
    ``grid``, without assembling T; NaN if T - mu I is not positive definite.

    T - mu I (mu < 0) is an arrow: the vertex row and column, and one
    symmetric positive definite tridiagonal block B per edge, coupled to the
    vertex through its first node by t. Every edge node has the weight h, so
    B and t are the same on every edge, and one LAPACK ``dptsv`` with n + 1
    right-hand sides solves B for each edge's slice q_j of q and for e_1;
    the vertex unknown then follows from its scalar Schur complement
    s = T_00 - mu - n t^2 (B^{-1})_11:

        q.(T - mu)^{-1} q = sum q_j.B^{-1} q_j + r^2 / s,
        r = q_0 - sum t (B^{-1} q_j)_1.

    The entries are T's, formed in the product order (d_i S_ij) d_j,
    d = W^{-1/2}, of ``symmetric_stiffness``, with the edge weight h of
    ``DiscreteStarGraph.weights``. It rounds differently from SuperLU, so
    only its sign is ever used.
    """
    from scipy.linalg.lapack import dptsv

    n, h, p = grid.n, grid.h, grid.m - 1
    inv_h = 1.0 / h
    d_vertex, d_edge = 1.0 / math.sqrt(grid.vertex_weight), 1.0 / math.sqrt(h)
    t = d_edge * -inv_h * d_vertex
    rhs = np.zeros((p, n + 1), order="F")
    rhs[:, :n] = q[1:].reshape(n, p).T
    rhs[0, n] = 1.0
    diag = np.full(p, d_edge * (2.0 * inv_h) * d_edge - mu)
    off = np.full(p - 1, d_edge * -inv_h * d_edge)
    _, _, x, info = dptsv(diag, off, rhs, overwrite_d=1, overwrite_e=1, overwrite_b=1)
    if info:
        return math.nan
    quad, r, s = 0.0, q[0], d_vertex * (n * inv_h) * d_vertex - mu
    for j, q_j in enumerate(q[1:].reshape(n, p)):
        quad += q_j @ x[:, j]
        r -= t * x[0, j]
        s -= t * t * x[0, n]
    return float(quad + r * r / s) if s > 0 else math.nan


def oracle_eigenvalue(op, L, h):
    """Discrete ground-state energy, Richardson-guarded; None if spectrum >= -TAU_EIGEN.

    Solves on h and h/2, insists the pair agrees to RICHARDSON_RTOL
    relative, and returns the Richardson combination (4 e(h/2) - e(h))/3 of
    the verified second-order pair. The eigenfunction steepens like 1/eps
    inside the scaled support, which inflates the plain h^2 constant; the
    extrapolated pair keeps the advertised tolerances at the config's default
    oracle grid (L = 40, h = 5e-3).
    """
    coarse = discrete_eigenvalue(op, L, h)
    fine = discrete_eigenvalue(op, L, h / 2.0)
    if (coarse is None) != (fine is None):
        raise GridTooCoarse(
            f"bound-state detection flips between h = {h} and h/2 (got {coarse} vs {fine})"
        )
    if coarse is None:
        return None
    if abs(coarse - fine) > RICHARDSON_RTOL * max(1.0, abs(fine)):
        raise GridTooCoarse(
            f"Richardson check failed: e(h) = {coarse:.6e}, e(h/2) = {fine:.6e}"
        )
    return (4.0 * fine - coarse) / 3.0


@dataclass(frozen=True)
class OracleColumn:
    """Grid samples of one resolvent column: x runs over 0, h, ..., L."""

    x: np.ndarray
    values: np.ndarray  # shape (n, m+1); row j is the column on edge j+1


def oracle_resolvent_column(op, kappa, source, L, h):
    """Discrete resolvent column, Richardson-combined from the (h, h/2) pair.

    The source is snapped to the nearest h-grid node; samples of
    y -> kernel(source, y) are returned per edge on the h grid.
    """
    coarse = discrete_resolvent_column(op, kappa, source, L, h)
    fine = discrete_resolvent_column(op, kappa, source, L, h / 2.0)
    values = (4.0 * fine.values[:, ::2] - coarse.values) / 3.0
    return OracleColumn(x=coarse.x, values=values)


def discrete_resolvent_column(op, kappa, source, L, h):
    """Single-grid solve of (H + kappa^2) u = delta_source / weight."""
    disc = build_discrete_operator(op, L, h)
    n, m = disc.grid.n, disc.grid.m

    s = round(source.x / h)
    if not 0 <= s < m:
        raise ValueError("source must lie strictly inside the truncated edge")
    rhs = np.zeros(disc.weights.size)
    rhs[0 if s == 0 else 1 + (source.edge - 1) * (m - 1) + (s - 1)] = 1.0
    u = disc.solve(kappa**2, rhs)

    values = np.zeros((n, m + 1))
    values[:, 0] = u[0]
    values[:, 1:m] = u[1:].reshape(n, m - 1)
    return OracleColumn(x=h * np.arange(m + 1), values=values)


def oracle_smatrix(op, k, L, h):
    """Scattering matrix, Richardson-combined from the (h, h/2) solves."""
    coarse = discrete_smatrix(op, k, L, h)
    fine = discrete_smatrix(op, k, L, h / 2.0)
    return SMatrix(k=float(k), entries=(4.0 * fine.entries - coarse.entries) / 3.0)


def discrete_smatrix(op, k, L, h):
    """Single-grid S-matrix from the discrete scattering boundary-value problem.

    All n incoming edges are solved as the columns of one right-hand side;
    amplitudes are read off at x = L through the outgoing closure.
    """
    if k <= 0:
        raise ValueError("scattering momentum must be positive")
    disc = build_discrete_operator(op, L, h, k)
    n, m = disc.grid.n, disc.grid.m
    phase = np.exp(-1j * k * L)
    ends = m * np.arange(1, n + 1)
    rhs = np.zeros((disc.weights.size, n), dtype=complex)
    rhs[ends, np.arange(n)] = -2j * k * phase
    u = disc.solve(-(k**2), rhs)
    # column i holds the solution for incoming edge i; S_ij is read on edge j
    return SMatrix(k=float(k), entries=(u[ends].T - phase * np.eye(n)) * phase)
