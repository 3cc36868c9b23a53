"""Star graph data model and the derived coupling constants.

A star graph has n halfline edges glued at one vertex; functions on it are
n-tuples of halfline functions. The vertex-coupling family studied here is
generated by n compactly supported edge profiles V_i on [0,1] with zero
total mean and a scaling function lambda(eps). From them we derive

* theta_i  = int_0^inf x V_i(x) dx          (first moments),
* A        = -sum_i int int min(x,y) V_i(x) V_i(y) dx dy,
* B        = -|p|^2, p_i = theta_bar - theta_i   (always <= 0),
* Pi_ij    = p_i p_j                              (rank <= 1, PSD),
* beta     = 1/(lambda_1 A^2) in the resonant case, 0 otherwise,

and the boundary matrices of the limit vertex condition
``Amat psi(0) + Bmat psi'(0) = 0``. All of these are closed-form in the
piecewise-polynomial representation; no quadrature enters.

B vanishes exactly when every theta_i is equal: then Pi = 0 and the limit
coupling is plain Kirchhoff, with no eigenvalue and no pole. B counts as
vanishing when -B <= TOL_THETA_TIE^2 sum theta_i^2, a rule relative to the
moments' size that also covers an exact or underflowed zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateTheta,
    MeanViolation,
    ResonantWithZeroA,
    SupportViolation,
)
from .piecewise import PiecewisePolynomial, definite_integral

#: tolerance on the total mean, relative to the size in validate_potential
TOL_MEAN = 1e-12
#: two first moments closer than this, relative to the largest, count as tied
TOL_THETA_TIE = 1e-9
#: allowed asymmetry of Amat @ Bmat.T
TOL_SELFADJOINT = 1e-10
#: smallest singular value of (Amat|Bmat) certifying full rank
TOL_RANK = 1e-10


@dataclass(frozen=True)
class EdgeCoordinate:
    """A point on the graph: 1-based edge index plus arc length from the vertex."""

    edge: int
    x: float

    def __post_init__(self):
        if self.edge < 1:
            raise ValueError("edge indices are 1-based")
        if self.x < 0:
            raise ValueError("arc length must be nonnegative")


@dataclass(frozen=True)
class StarPotential:
    """n piecewise-polynomial edge profiles, degree <= 3, support in [0,1]."""

    profiles: tuple

    def __init__(self, profiles):
        profiles = tuple(profiles)
        if len(profiles) < 2:
            raise ValueError("a star graph needs at least two edges")
        for p in profiles:
            if not isinstance(p, PiecewisePolynomial):
                raise TypeError("profiles must be PiecewisePolynomial instances")
            if p.degree > 3:
                raise ValueError("profile pieces must have degree <= 3")
        object.__setattr__(self, "profiles", profiles)
        object.__setattr__(self, "_shared", {})

    @classmethod
    def from_constants(cls, values, support=(0.0, 1.0)):
        """Constant profiles, one value per edge (zeros allowed)."""
        return cls([PiecewisePolynomial.constant(v, support) for v in values])

    @property
    def n(self):
        return len(self.profiles)

    @cached_property
    def edge_means(self):
        """Exact per-edge means int V_i."""
        return tuple(p.integral() for p in self.profiles)

    def total_mean(self):
        return sum(self.edge_means)

    # the exact constants, computed once per potential
    theta = cached_property(lambda self: moments_theta(self))
    A = cached_property(lambda self: constant_A(self))

    def shared(self, key, compute):
        """compute(), once per key for this potential: work that depends on
        the potential alone is reused by every member built on it, at any eps.
        Every caller gets the same value, so arrays are made read-only."""
        if key not in self._shared:
            value = self._shared[key] = compute()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        return self._shared[key]


@dataclass(frozen=True)
class ScalingFunction:
    """Coupling strength lambda(eps) = lambda0 + lambda1*eps + higher terms.

    In the resonant regime lambda0 is pinned to 1/A and must not be given;
    declaring resonance as a flag avoids the untestable float equality
    lambda0 * A == 1.
    """

    lambda1: float
    resonant: bool = False
    lambda0: float | None = None
    higher: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.lambda1 == 0:
            raise ValueError("lambda1 must be nonzero")
        if self.resonant:
            if self.lambda0 is not None:
                raise ValueError("resonant scaling derives lambda0; do not set it")
        else:
            if self.lambda0 is None or self.lambda0 == 0:
                raise ValueError("non-resonant scaling needs a nonzero lambda0")
        object.__setattr__(self, "higher", tuple(float(c) for c in self.higher))

    def resolve_lambda0(self, A):
        if not self.resonant:
            return self.lambda0
        if A == 0:
            raise ResonantWithZeroA("cannot set lambda0 = 1/A with A = 0")
        return 1.0 / A

    def value(self, eps, A=None):
        """lambda(eps); the resonant branch needs A to resolve lambda0."""
        acc = self.resolve_lambda0(A) + self.lambda1 * eps
        for m, c in enumerate(self.higher):
            acc += c * eps ** (m + 2)
        return acc


@dataclass(frozen=True)
class CouplingConstants:
    """The derived scalars and matrices of the limit vertex coupling."""

    theta: np.ndarray
    A: float
    B: float
    Pi: np.ndarray
    beta: float

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        Pi = np.asarray(self.Pi, dtype=float)
        theta.setflags(write=False)
        Pi.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "Pi", Pi)

    @property
    def n(self):
        return self.theta.size

    @property
    def B_vanishes(self):
        """True when every theta_i is equal up to TOL_THETA_TIE: Pi is then
        negligible and the limit coupling is Kirchhoff, without a pole."""
        return -self.B <= TOL_THETA_TIE**2 * float(np.sum(self.theta**2))


@dataclass(frozen=True)
class BoundaryPair:
    """Matrices of the vertex condition Amat psi(0) + Bmat psi'(0) = 0."""

    Amat: np.ndarray
    Bmat: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.Amat, dtype=float)
        B = np.asarray(self.Bmat, dtype=float)
        if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("Amat and Bmat must be square and of equal shape")
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "Amat", A)
        object.__setattr__(self, "Bmat", B)

    @property
    def n(self):
        return self.Amat.shape[0]


def validate_potential(potential):
    """Reject profiles leaving [0,1] or a total mean that is not zero up to
    TOL_MEAN relative to the potential's size, which its rounding grows with.

    Raises SupportViolation or MeanViolation (with the residual).
    """
    for i, p in enumerate(potential.profiles):
        lo, hi = p.support
        if lo < -1e-14 or hi > 1.0 + 1e-14:
            raise SupportViolation(
                f"edge {i + 1} profile supported on [{lo}, {hi}], not within [0, 1]"
            )
    residual = potential.total_mean()
    if abs(residual) > TOL_MEAN * _size(potential):
        raise MeanViolation(residual)


def _size(potential):
    """sum |c_k| h^(k+1) / (k+1) over the pieces: a bound on sum_i int |V_i|,
    summed piece after piece across the edges."""
    size = 0.0
    for p in potential.profiles:
        for h, c in zip(np.diff(p.breakpoints).tolist(), p.coefficients):
            size += definite_integral([abs(x) for x in c.tolist()], h)
    return size


def moments_theta(potential):
    """First moments theta_i = int x V_i(x) dx, exactly."""
    return np.array([p.moment(1) for p in potential.profiles])


def constant_A(potential):
    """A = -sum_i of the min-kernel double integral of V_i, exactly."""
    return -sum(p.min_kernel_self_integral() for p in potential.profiles)


def constants_B_Pi(theta):
    """B = -|p|^2 and the rank-one matrix Pi = p p^T, p = theta_bar - theta:
    formed from p, B does not cancel when the moments nearly tie."""
    p = np.mean(theta) - np.asarray(theta, dtype=float)
    return -float(np.sum(p**2)), np.outer(p, p)


def coupling_beta(scaling, A):
    """Limit coupling strength: 1/(lambda1 A^2) when resonant, else 0."""
    if not scaling.resonant:
        return 0.0
    if A == 0:
        raise ResonantWithZeroA("resonant coupling undefined for A = 0")
    return 1.0 / (scaling.lambda1 * A * A)


def coupling_constants(potential, scaling):
    """All derived constants for a validated potential and scaling."""
    validate_potential(potential)
    theta, A = potential.theta, potential.A
    B, Pi = constants_B_Pi(theta)
    beta = coupling_beta(scaling, A)
    return CouplingConstants(theta=theta, A=A, B=B, Pi=Pi, beta=beta)


def boundary_matrices(theta, beta):
    """Vertex-condition matrices for pairwise distinct first moments.

    Amat has a zero first row; row j >= 2 carries 1/(theta_1 - theta_j) in
    column 1 and its negative in column j. Bmat has first row all -1 (also
    when beta = 0) and every later row equal to -beta * theta.
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    for i in range(n):
        for j in range(i + 1, n):
            if abs(theta[i] - theta[j]) <= TOL_THETA_TIE * np.max(np.abs(theta)):
                raise DegenerateTheta(
                    f"theta[{i + 1}] = {theta[i]} and theta[{j + 1}] = {theta[j]} are tied"
                )
    Amat = np.zeros((n, n))
    for j in range(1, n):
        Amat[j, 0] = 1.0 / (theta[0] - theta[j])
        Amat[j, j] = 1.0 / (theta[j] - theta[0])
    Bmat = np.zeros((n, n))
    Bmat[0, :] = -1.0
    Bmat[1:, :] = -beta * theta[None, :]
    return BoundaryPair(Amat=Amat, Bmat=Bmat)


def check_selfadjoint(bp):
    """True iff Amat Bmat^T is symmetric and (Amat|Bmat) has full rank,
    tested on the rows scaled to largest entry 1: that leaves the vertex
    condition as it is, so the scale of the potential cannot decide it."""
    rows = np.hstack([bp.Amat, bp.Bmat])
    size = np.max(np.abs(rows), axis=1, keepdims=True)
    rows = rows / np.where(size > 0.0, size, 1.0)
    n = bp.Amat.shape[0]
    product = rows[:, :n] @ rows[:, n:].T
    if np.linalg.norm(product - product.T) > TOL_SELFADJOINT:
        return False
    smallest = np.linalg.svd(rows, compute_uv=False)[-1]
    return bool(smallest > TOL_RANK)
