"""Experiment configuration: a strict JSON document.

Top-level keys: n, potential, scaling, epsilons, momenta, kappa, and the
optional quadrature, oracle, tolerances, output. Unknown keys anywhere are
errors so that misspelled experiment definitions cannot be silently
ignored. Piece coefficients are ascending powers of the global coordinate
x (degree <= 3); an empty piece list means a zero profile on that edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

from .errors import ConfigError
from .graph import ScalingFunction, StarPotential
from .piecewise import PiecewisePolynomial

#: largest admissible quadrature order: the batched pole scan holds
#: 65 (2 order)^2 values per temporary, about 0.4 GiB at order 256 and four
#: times that per doubling
MAX_QUAD_ORDER = 256

_NUMBER = {"type": "number"}

_PIECE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["interval", "coeffs"],
    "properties": {
        "interval": {
            "type": "array",
            "items": _NUMBER,
            "minItems": 2,
            "maxItems": 2,
        },
        "coeffs": {
            "type": "array",
            "items": _NUMBER,
            "minItems": 1,
            "maxItems": 4,
        },
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["n", "potential", "scaling", "epsilons", "momenta", "kappa"],
    "properties": {
        "n": {"type": "integer", "minimum": 2},
        "potential": {
            "type": "array",
            "items": {"type": "array", "items": _PIECE},
        },
        "scaling": {
            "type": "object",
            "additionalProperties": False,
            "required": ["resonant", "lambda1"],
            "properties": {
                "resonant": {"type": "boolean"},
                "lambda0": _NUMBER,
                "lambda1": _NUMBER,
                "higher": {"type": "array", "items": _NUMBER},
            },
        },
        "epsilons": {"type": "array", "items": _NUMBER, "minItems": 1},
        "momenta": {"type": "array", "items": _NUMBER, "minItems": 1},
        "kappa": _NUMBER,
        "quadrature": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "order": {"type": "integer", "minimum": 1, "maximum": MAX_QUAD_ORDER}
            },
        },
        "oracle": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "L": _NUMBER,
                "h": _NUMBER,
                "L_scattering": _NUMBER,
                "epsilon_eigenvalue": _NUMBER,
                "epsilon_smatrix": _NUMBER,
                "smatrix_k": _NUMBER,
                "resolvent_source_edge": {"type": "integer", "minimum": 1},
                "resolvent_source_x": _NUMBER,
                "resolvent_kappa": _NUMBER,
            },
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "oracle_eigenvalue_rel": _NUMBER,
                "oracle_smatrix_abs": _NUMBER,
                "oracle_free_column_sup": _NUMBER,
                "oracle_eps_column_sup": _NUMBER,
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"dir": {"type": "string"}},
        },
    },
}

# jsonschema.validate checks the meta-schema on every call; check it once
_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)
_VALIDATOR.check_schema(CONFIG_SCHEMA)

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
    """Validated experiment definition; see CONFIG_SCHEMA for the layout."""

    n: int
    potential_spec: tuple
    scaling_spec: dict
    epsilons: tuple
    momenta: tuple
    kappa: float
    quad_order: int = 32
    oracle: dict = field(default_factory=lambda: dict(_ORACLE_DEFAULTS))
    tolerances: dict = field(default_factory=lambda: dict(_TOLERANCE_DEFAULTS))
    output_dir: str = "results"

    def __post_init__(self):
        # also guards an order set after parse_config, as --quad-order does
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


def parse_config(raw):
    """Validate a parsed JSON document and fold in defaults."""
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
    if error is not None:
        raise ConfigError(f"config rejected: {error.message}") from error

    if len(raw["potential"]) != raw["n"]:
        raise ConfigError(
            f"potential lists {len(raw['potential'])} edges but n = {raw['n']}"
        )
    scaling = raw["scaling"]
    if scaling["resonant"] and "lambda0" in scaling:
        raise ConfigError("resonant scaling derives lambda0; remove it from the config")
    if not scaling["resonant"] and "lambda0" not in scaling:
        raise ConfigError("non-resonant scaling requires lambda0")

    eps = [float(e) for e in raw["epsilons"]]
    if any(not 0 < e <= 1 for e in eps):
        raise ConfigError("epsilons must lie in (0, 1]")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigError("epsilons must be strictly decreasing")
    momenta = [float(k) for k in raw["momenta"]]
    if any(k <= 0 for k in momenta):
        raise ConfigError("momenta must be positive")
    if raw["kappa"] <= 0:
        raise ConfigError("kappa must be positive")

    for e, edge in enumerate(raw["potential"]):
        for piece in edge:
            a, b = piece["interval"]
            if not (0 <= a < b <= 1):
                raise ConfigError(
                    f"edge {e + 1} piece interval [{a}, {b}] not inside [0, 1]"
                )

    oracle = dict(_ORACLE_DEFAULTS)
    oracle.update(raw.get("oracle", {}))
    for key in ("L", "h", "L_scattering", "smatrix_k", "resolvent_kappa"):
        if not oracle[key] > 0:
            raise ConfigError(f"oracle {key} must be positive")
    for key in ("epsilon_eigenvalue", "epsilon_smatrix"):
        if not 0 < oracle[key] <= 1:
            raise ConfigError(f"oracle {key} must lie in (0, 1]")
    if oracle["resolvent_source_edge"] > raw["n"]:
        raise ConfigError(f"oracle resolvent_source_edge exceeds n = {raw['n']}")
    # the FD column snaps the source to the nearest node of the h grid
    x, L, h = oracle["resolvent_source_x"], oracle["L"], oracle["h"]
    if not (0 <= x < L and round(x / h) < round(L / h)):
        raise ConfigError(
            "oracle resolvent_source_x must lie in [0, L) and snap to a node below L"
        )
    tolerances = dict(_TOLERANCE_DEFAULTS)
    tolerances.update(raw.get("tolerances", {}))

    return ExperimentConfig(
        n=int(raw["n"]),
        potential_spec=tuple(tuple(edge) for edge in raw["potential"]),
        scaling_spec=dict(scaling),
        epsilons=tuple(eps),
        momenta=tuple(momenta),
        kappa=float(raw["kappa"]),
        quad_order=int(raw.get("quadrature", {}).get("order", 32)),
        oracle=oracle,
        tolerances=tolerances,
        output_dir=raw.get("output", {}).get("dir", "results"),
    )


def load_config(path):
    """Read and validate a JSON experiment configuration file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)
