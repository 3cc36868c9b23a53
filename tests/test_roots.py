import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from starcoupling.errors import RootSearchFailed
from starcoupling.roots import RTOL, brentq


def _family(kind, c, r):
    """One bracketed test function with a root at (or near) r."""
    if kind == 0:  # cubic, monotone
        return lambda x: (x - r) * (1.0 + c[0] ** 2) + c[1] ** 2 * (x - r) ** 3
    if kind == 1:  # steep step with a small quadratic tilt
        return lambda x: math.tanh(5.0 * c[0] * (x - r)) + 1e-3 * c[1] * (x - r) ** 2
    if kind == 2:  # exponential
        return lambda x: math.exp(c[0] * x) - math.exp(c[0] * r)
    if kind == 3:  # values near the underflow threshold: the slope products vanish
        return lambda x: 1e-300 * (x - r) ** 3
    return lambda x: math.atan(x - r) + 0.1 * c[2] * math.sin(10.0 * (x - r)) * (x - r)


def _outcome(solver, f, a, b, **kwargs):
    try:
        return solver(f, a, b, **kwargs)
    except (RuntimeError, RootSearchFailed):
        return "no convergence"


def test_equals_scipy_on_random_brackets():
    rng = np.random.default_rng(20260418)
    checked = failures = 0
    while checked < 1200:
        kind = int(rng.integers(5))
        c = rng.normal(size=3)
        r = rng.uniform(-3.0, 3.0)
        a, b = r - rng.uniform(0.01, 5.0), r + rng.uniform(0.01, 5.0)
        f = _family(kind, c, r)
        if (f(a) < 0) == (f(b) < 0):
            continue
        kwargs = {
            "xtol": 10.0 ** rng.uniform(-15.0, -2.0),
            "rtol": RTOL * 10.0 ** rng.uniform(0.0, 8.0),
            # a short budget exercises the non-convergence exit as well
            "maxiter": 100 if checked % 4 else 6,
        }
        expected = _outcome(scipy_brentq, f, a, b, **kwargs)
        got = _outcome(brentq, f, a, b, **kwargs)
        assert got == expected, (kind, c, r, a, b, kwargs)
        assert type(got) is type(expected)
        failures += expected == "no convergence"
        checked += 1
    assert 0 < failures < checked


def test_default_tolerances_match_scipy():
    f = lambda x: x**3 - 2.0 * x - 5.0  # noqa: E731
    assert brentq(f, 2.0, 3.0) == scipy_brentq(f, 2.0, 3.0)


def test_root_at_an_endpoint_is_returned():
    assert brentq(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert brentq(lambda x: x - 2.0, 1.0, 2.0) == 2.0


def test_returns_a_float():
    root = brentq(lambda x: np.float64(x) - 0.5, np.float64(0.0), np.float64(1.0))
    assert type(root) is float


def test_same_sign_endpoints_raise():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_non_convergence_is_a_numerical_failure():
    f = lambda x: math.atan(x - 0.3)  # noqa: E731
    with pytest.raises(RuntimeError):
        scipy_brentq(f, -5.0, 5.0, maxiter=3)
    with pytest.raises(RootSearchFailed) as err:
        brentq(f, -5.0, 5.0, maxiter=3)
    assert err.value.exit_code == 3


@pytest.mark.parametrize("nan_at", ["endpoint", "interior"])
def test_nan_value_is_a_numerical_failure(nan_at):
    if nan_at == "endpoint":
        f = lambda x: math.nan if x < 0 else x - 0.5  # noqa: E731
    else:
        f = lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5  # noqa: E731
    with pytest.raises(RootSearchFailed, match="NaN") as err:
        brentq(f, -1.0, 2.0)
    assert err.value.exit_code == 3


@pytest.mark.parametrize("kwargs", [{"xtol": 0.0}, {"rtol": RTOL / 2}])
def test_tolerances_below_scipy_minimum_rejected(kwargs):
    with pytest.raises(ValueError, match="too small"):
        brentq(lambda x: x, -1.0, 1.0, **kwargs)
