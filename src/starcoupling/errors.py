"""Exception hierarchy shared by all starcoupling modules."""


class StarCouplingError(Exception):
    """Base class for every error raised by this package.

    Each subclass sets ``exit_code``, the CLI's exit status for it: 2 for a
    configuration or validation error, 3 for a numerical failure.
    """


class ConfigError(StarCouplingError):
    """Experiment configuration is malformed or inadmissible."""

    exit_code = 2


class SupportViolation(StarCouplingError):
    """A potential profile extends beyond the unit interval."""

    exit_code = 2


class MeanViolation(StarCouplingError):
    """Total integral of the potential over the graph is not zero.

    Carries the offending residual in ``residual``.
    """

    exit_code = 2

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"potential has nonzero total mean: residual={residual:.3e}")


class ResonantWithZeroA(StarCouplingError):
    """Resonant scaling requested but the coupling integral A vanishes."""

    exit_code = 2


class DegenerateTheta(StarCouplingError):
    """Two first moments coincide; the boundary matrices are not defined."""

    exit_code = 2


class ZeroB(StarCouplingError):
    """Second-moment combination B vanishes while the coupling is nontrivial."""

    exit_code = 3


class AtPole(StarCouplingError):
    """Evaluation requested at (or too close to) a resolvent pole."""

    exit_code = 3


class SingularSystem(StarCouplingError):
    """A dense or sparse linear solve hit a numerically singular matrix."""

    exit_code = 3


class QuadratureNotConverged(StarCouplingError):
    """Doubling the quadrature order changed the result beyond tolerance."""

    exit_code = 3


class RootSearchFailed(StarCouplingError):
    """A bracketed root search met a NaN value or ran out of iterations."""

    exit_code = 3


class FredholmSingular(StarCouplingError):
    """The scattering Fredholm denominator 1 - D vanished (resonance).

    Carries the offending momentum in ``k``.
    """

    exit_code = 3

    def __init__(self, k: float, denominator: complex):
        self.k = k
        self.denominator = denominator
        super().__init__(
            f"Fredholm denominator 1-D = {denominator:.3e} too small at k={k}"
        )


class GridTooCoarse(StarCouplingError):
    """Finite-difference grid rejected (admissibility, size budget or Richardson guard)."""

    exit_code = 3
