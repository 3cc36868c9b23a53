"""Experiment configuration: a strict JSON document.

Top-level keys: n, potential, scaling, epsilons, momenta, kappa, and the
optional quadrature, oracle, tolerances, output. ``parse_config`` alone
decides admissibility: unknown keys anywhere are errors so that misspelled
experiment definitions cannot be silently ignored, and every number must be
finite. Piece coefficients are ascending powers of the global coordinate
x (degree <= 3); an empty piece list means a zero profile on that edge.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .graph import ScalingFunction, StarPotential, constants_B_Pi, coupling_beta
from .piecewise import PiecewisePolynomial
from .quadrature import QuadratureRule
from .scattering import MOMENTUM_MIN

#: largest admissible quadrature order: the batched pole scan holds
#: 65 (2 order)^2 values per temporary, about 0.4 GiB at order 256 and four
#: times that per doubling
MAX_QUAD_ORDER = 256
#: admissible kappa: far below 1e-6 the distances (~1/kappa) overflow; above
#: 1e2 the order-32 rule misses e^{-eps kappa v} at eps = 1 (exit 3)
KAPPA_MIN, KAPPA_MAX = 1e-6, 1e2
#: largest admissible scattering momentum (``momenta``, oracle ``smatrix_k``):
#: at eps = 1 the order-32 rule misses e^{i k eps v} from k = 35.7 on (exit 3);
#: the smallest is the scattering module's MOMENTUM_MIN
MOMENTUM_MAX = 20.0

_ORACLE_DEFAULTS = {
    "L": 40.0,
    "h": 5e-3,
    "L_scattering": 2.0,
    "epsilon_eigenvalue": 0.05,
    "epsilon_smatrix": 0.1,
    "smatrix_k": 1.0,
    "resolvent_source_edge": 1,
    "resolvent_source_x": 0.7,
    # kept away from the bound-state pole so the eps-column check is
    # well-conditioned; the free-column check uses the top-level kappa
    "resolvent_kappa": 2.0,
}

_TOLERANCE_DEFAULTS = {
    "oracle_eigenvalue_rel": 1e-2,
    "oracle_smatrix_abs": 1e-3,
    "oracle_free_column_sup": 5e-4,
    "oracle_eps_column_sup": 1e-3,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment definition, as parse_config builds it."""

    n: int
    potential_spec: tuple
    scaling_spec: dict
    epsilons: tuple
    momenta: tuple
    kappa: float
    quad_order: int = QuadratureRule.order
    oracle: dict = field(default_factory=lambda: dict(_ORACLE_DEFAULTS))
    tolerances: dict = field(default_factory=lambda: dict(_TOLERANCE_DEFAULTS))
    output_dir: str = "results"

    def __post_init__(self):
        # the one range check of the order, from the config or --quad-order
        if not 1 <= self.quad_order <= MAX_QUAD_ORDER:
            raise ConfigError(
                f"quadrature order {self.quad_order} outside 1..{MAX_QUAD_ORDER}"
            )

    def build_potential(self):
        profiles = []
        for edge in self.potential_spec:
            if not edge:
                profiles.append(PiecewisePolynomial.zero())
                continue
            pieces = [((p["interval"][0], p["interval"][1]), p["coeffs"]) for p in edge]
            profiles.append(PiecewisePolynomial.from_global_coeffs(pieces))
        return StarPotential(profiles)

    def build_scaling(self):
        spec = self.scaling_spec
        return ScalingFunction(
            lambda1=spec["lambda1"],
            resonant=spec["resonant"],
            lambda0=spec.get("lambda0"),
            higher=tuple(spec.get("higher", ())),
        )

    # built once, so that every member of a command shares them and their work
    potential = cached_property(build_potential)
    scaling = cached_property(build_scaling)


def _object(value, path, required=(), optional=()):
    """value, if it is an object with the required keys and no others
    than the optional ones."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object")
    for key in required:
        if key not in value:
            raise ConfigError(f"{path} lacks the required key {key!r}")
    for key in value:
        if key not in required and key not in optional:
            raise ConfigError(f"{path} has the unknown key {key!r}")
    return value


def _number(value, path):
    """value, if it is a finite number; true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{path} must be a number")
    # NaN fails the comparison, and so does an int beyond the float range
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path} must be finite")
    return value


def _numbers(value, path, lo=0, hi=math.inf):
    """value, if it is an array of lo..hi finite numbers."""
    if not isinstance(value, list) or not lo <= len(value) <= hi:
        raise ConfigError(f"{path} must be an array of {lo}..{hi} numbers")
    for i, item in enumerate(value):
        _number(item, f"{path}[{i}]")
    return value


def _integer(value, path, lo=-math.inf, hi=math.inf):
    """value as an int, if it is an integer in lo..hi; 3.0 counts as 3."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer")
    if not lo <= value <= hi:
        raise ConfigError(f"{path} must lie in {lo}..{hi}")
    return value


def parse_config(raw):
    """Check a parsed JSON document in one pass and fold in defaults.

    Each key, type and range is checked where its value is read, and the
    ConfigError names the first offending key; the potential and the
    scaling are then built once, so their constructors' rules count too.
    """
    required = ("n", "potential", "scaling", "epsilons", "momenta", "kappa")
    optional = ("quadrature", "oracle", "tolerances", "output")
    _object(raw, "config", required, optional)
    n = _integer(raw["n"], "n", lo=2)
    edges = raw["potential"]
    if not isinstance(edges, list) or len(edges) != n:
        raise ConfigError(f"potential must be an array of n = {n} edges")
    for e, edge in enumerate(edges):
        if not isinstance(edge, list):
            raise ConfigError(f"potential[{e}] must be an array of pieces")
        for p, piece in enumerate(edge):
            path = f"potential[{e}][{p}]"
            _object(piece, path, ("interval", "coeffs"))
            a, b = _numbers(piece["interval"], f"{path} interval", 2, 2)
            if not 0 <= a < b <= 1:
                raise ConfigError(f"{path} interval [{a}, {b}] not inside [0, 1]")
            _numbers(piece["coeffs"], f"{path} coeffs", 1, 4)

    scaling = _object(
        raw["scaling"], "scaling", ("resonant", "lambda1"), ("lambda0", "higher")
    )
    if not isinstance(scaling["resonant"], bool):
        raise ConfigError("scaling resonant must be true or false")
    _number(scaling["lambda1"], "scaling lambda1")
    if "lambda0" in scaling:
        _number(scaling["lambda0"], "scaling lambda0")
    _numbers(scaling.get("higher", []), "scaling higher")

    eps = [float(e) for e in _numbers(raw["epsilons"], "epsilons", 1)]
    if any(not 0 < e <= 1 for e in eps):
        raise ConfigError("epsilons must lie in (0, 1]")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigError("epsilons must be strictly decreasing")
    momenta = [float(k) for k in _numbers(raw["momenta"], "momenta", 1)]
    if any(not MOMENTUM_MIN <= k <= MOMENTUM_MAX for k in momenta):
        raise ConfigError(f"momenta must lie in [{MOMENTUM_MIN:g}, {MOMENTUM_MAX:g}]")
    if not KAPPA_MIN <= _number(raw["kappa"], "kappa") <= KAPPA_MAX:
        raise ConfigError(f"kappa must lie in [{KAPPA_MIN:g}, {KAPPA_MAX:g}]")

    settings = {}
    quadrature = _object(raw.get("quadrature", {}), "quadrature", optional=("order",))
    if "order" in quadrature:
        settings["quad_order"] = _integer(quadrature["order"], "quadrature order")
    output = _object(raw.get("output", {}), "output", optional=("dir",))
    if "dir" in output:
        if not isinstance(output["dir"], str):
            raise ConfigError("output dir must be a string")
        settings["output_dir"] = output["dir"]

    oracle = dict(_ORACLE_DEFAULTS)
    oracle.update(_object(raw.get("oracle", {}), "oracle", optional=_ORACLE_DEFAULTS))
    for key, value in oracle.items():
        _number(value, f"oracle {key}")
    oracle["resolvent_source_edge"] = _integer(
        oracle["resolvent_source_edge"], "oracle resolvent_source_edge", 1, n
    )
    for key in ("L", "h", "L_scattering", "smatrix_k", "resolvent_kappa"):
        if not oracle[key] > 0:
            raise ConfigError(f"oracle {key} must be positive")
    if not MOMENTUM_MIN <= oracle["smatrix_k"] <= MOMENTUM_MAX:
        raise ConfigError(
            f"oracle smatrix_k must lie in [{MOMENTUM_MIN:g}, {MOMENTUM_MAX:g}]"
        )
    for key in ("epsilon_eigenvalue", "epsilon_smatrix"):
        if not 0 < oracle[key] <= 1:
            raise ConfigError(f"oracle {key} must lie in (0, 1]")
    # the FD column snaps the source to the nearest node of the h grid
    x, L, h = oracle["resolvent_source_x"], oracle["L"], oracle["h"]
    if not L / h < math.inf:
        raise ConfigError("oracle h is too small for L: L / h overflows")
    if not (0 <= x < L and round(x / h) < round(L / h)):
        raise ConfigError(
            "oracle resolvent_source_x must lie in [0, L) and snap to a node below L"
        )
    tolerances = dict(_TOLERANCE_DEFAULTS)
    tolerances.update(
        _object(raw.get("tolerances", {}), "tolerances", optional=_TOLERANCE_DEFAULTS)
    )
    for key, value in tolerances.items():
        if not _number(value, f"tolerances {key}") > 0:
            raise ConfigError(f"tolerances {key} must be positive")

    config = ExperimentConfig(
        n=n,
        potential_spec=tuple(tuple(edge) for edge in edges),
        scaling_spec=dict(scaling),
        epsilons=tuple(eps),
        momenta=tuple(momenta),
        kappa=float(raw["kappa"]),
        oracle=oracle,
        tolerances=tolerances,
        **settings,
    )
    # the constructors' own rules: consecutive pieces, lambda1 and lambda0;
    # the objects they build are the ones every command then uses
    for key in ("potential", "scaling"):
        try:
            getattr(config, key)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    _check_derived(config)
    return config


def _check_derived(config):
    """Refuse derived constants that are not finite: theta, A, B, beta, lambda0,
    the predictor's 1/lambda0 and lambda1/lambda0^2, and, also nonzero, the
    limit eigenvalue and lambda(eps) at every ladder and oracle eps. They are
    formed in numpy floats, where overflow reads inf instead of raising."""
    scaling, oracle = config.scaling, config.oracle
    with np.errstate(all="ignore"):
        theta = config.potential.theta
        A, B = np.float64(config.potential.A), constants_B_Pi(theta)[0]
        if not all(math.isfinite(value) for value in (*theta, A, B)):
            raise ConfigError("potential: theta, A or B is not finite")
        beta = coupling_beta(scaling, A)
        lam0 = np.float64(scaling.resolve_lambda0(A))
        finite = {
            "beta = 1/(lambda1 A^2)": beta,
            "lambda0": lam0,
            "1/lambda0": 1.0 / lam0,
            "lambda0^2": lam0**2,
            "lambda1/lambda0^2": scaling.lambda1 / lam0**2,
        }
        nonzero = {}
        if beta < 0:
            nonzero["limit eigenvalue -1/(beta B)^2"] = -1.0 / (beta * B) ** 2
        ladder = (*config.epsilons, oracle["epsilon_eigenvalue"], oracle["epsilon_smatrix"])
        for eps in ladder:
            nonzero[f"lambda({eps:g})"] = scaling.value(eps, A=A)
    for name, value in {**finite, **nonzero}.items():
        if not math.isfinite(value):
            raise ConfigError(f"scaling: {name} is not finite")
        if name in nonzero and value == 0:
            raise ConfigError(f"scaling: {name} vanishes")


def load_config(path):
    """Read and validate a JSON experiment configuration file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)
