from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcoupling import PiecewisePolynomial, StarPotential
from starcoupling.graph import _size


def riemann(f, a, b, n=1_000_000):
    x = a + (b - a) * (np.arange(n) + 0.5) / n
    return float(np.sum(f(x)) * (b - a) / n)


def test_constructor_rejects_bad_breakpoints():
    with pytest.raises(ValueError):
        PiecewisePolynomial([0.0, 0.0, 1.0], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        PiecewisePolynomial([0.0], [])
    with pytest.raises(ValueError):
        PiecewisePolynomial([0.0, 1.0], [[1.0], [2.0]])


def test_evaluate_inside_outside():
    p = PiecewisePolynomial([0.0, 0.5, 1.0], [[1.0], [0.0, 2.0]])
    assert p.evaluate(0.25) == 1.0
    assert p.evaluate(0.75) == pytest.approx(2.0 * 0.25)
    assert p.evaluate(-0.1) == 0.0
    assert p.evaluate(1.5) == 0.0
    # vectorized including 2-d input
    grid = np.array([[0.25, 0.75], [1.5, -1.0]])
    vals = p.evaluate(grid)
    assert vals.shape == (2, 2)
    assert vals[1, 0] == 0.0 and vals[1, 1] == 0.0


def test_is_zero_looks_at_every_piece():
    assert PiecewisePolynomial.zero().is_zero()
    assert PiecewisePolynomial([0.0, 0.3, 0.6, 1.0], [[0.0], [0.0, 0.0], [0.0]]).is_zero()
    # the only nonzero coefficient is the last one of the last piece
    last = PiecewisePolynomial([0.0, 0.3, 0.6, 1.0], [[0.0], [0.0, 0.0], [0.0, 0.0, 1e-300]])
    assert not last.is_zero()
    assert not last.antiderivative().is_zero()


def test_evaluate_symmetric_averages_jumps():
    p = PiecewisePolynomial([0.0, 0.5, 1.0], [[1.0], [3.0]])
    assert p.evaluate_symmetric(0.5) == pytest.approx(2.0)
    # support endpoint: averages against the zero outside
    assert p.evaluate_symmetric(1.0) == pytest.approx(1.5)
    # domain boundary at zero is not a jump
    assert p.evaluate_symmetric(0.0) == pytest.approx(1.0)
    # off the breakpoints it agrees with plain evaluation
    assert p.evaluate_symmetric(0.25) == p.evaluate(0.25)


def test_integral_and_moment_closed_forms():
    p = PiecewisePolynomial.from_global_coeffs([((0.0, 1.0), [-0.5, 1.0])])  # x - 1/2
    assert p.integral() == pytest.approx(0.0, abs=1e-15)
    assert p.moment(1) == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert p.moment(2) == pytest.approx(riemann(lambda x: x**2 * (x - 0.5), 0, 1), abs=1e-9)


def test_times_x_and_antiderivative():
    p = PiecewisePolynomial([0.0, 0.5, 1.0], [[1.0], [2.0]])
    xp = p.times_x()
    assert xp.evaluate(0.25) == pytest.approx(0.25)
    assert xp.evaluate(0.75) == pytest.approx(1.5)
    prim = p.antiderivative()
    assert prim.evaluate(0.5) == pytest.approx(0.5)
    assert prim.evaluate(1.0) == pytest.approx(0.5 + 2.0 * 0.5)


def test_multiply_requires_matching_cells():
    p = PiecewisePolynomial([0.0, 1.0], [[1.0, 1.0]])
    q = PiecewisePolynomial([0.0, 0.5, 1.0], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        p.multiply(q)
    prod = p.multiply(p)
    assert prod.evaluate(0.5) == pytest.approx(2.25)


def test_min_kernel_integral_against_riemann():
    # int int min(x,y) p(x) p(y) for p(x) = x - 1/2 on [0,1]
    p = PiecewisePolynomial.from_global_coeffs([((0.0, 1.0), [-0.5, 1.0])])
    n = 4000
    x = (np.arange(n) + 0.5) / n
    px = x - 0.5
    mins = np.minimum(x[:, None], x[None, :])
    brute = float(np.sum(mins * px[:, None] * px[None, :]) / n**2)
    assert p.min_kernel_self_integral() == pytest.approx(brute, abs=1e-7)


def test_min_kernel_integral_constant_profile():
    p = PiecewisePolynomial.constant(1.0)
    # int int min(x,y) dx dy = 1/3
    assert p.min_kernel_self_integral() == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_from_global_coeffs_shifts_correctly():
    p = PiecewisePolynomial.from_global_coeffs(
        [((0.0, 0.5), [0.0, 0.0, 1.0]), ((0.5, 1.0), [1.0])]
    )
    assert p.evaluate(0.3) == pytest.approx(0.09)
    assert p.evaluate(0.7) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        PiecewisePolynomial.from_global_coeffs(
            [((0.0, 0.4), [1.0]), ((0.5, 1.0), [1.0])]
        )


# -- the exact calculus against exact rational arithmetic ----------------
#
# The oracle repeats each closed form in fractions.Fraction on the exact
# values of the float inputs (global coefficients and breakpoints for
# from_global_coeffs, stored local coefficients for the rest), so it
# carries no rounding. A float result may miss it by a few roundings of the
# largest partial sum, which the same form on the absolute values bounds:
# every breakpoint is >= 0, so each of its terms is then the absolute value
# of a term of the signed form.

#: float results within ULPS units of 2^-52 times the sum of absolute terms
ULPS = 8


def _q_power(c, h, p=0):
    return sum((ck * h ** (k + p + 1) / (k + p + 1) for k, ck in enumerate(c)), Fraction(0))


def _q_pieces(p, absolute=False):
    """(a, h, local coefficients) per piece, as exact rationals."""
    bp = [Fraction(x) for x in p.breakpoints.tolist()]
    for a, b, c in zip(bp, bp[1:], p.coefficients):
        yield a, b - a, [Fraction(abs(x) if absolute else x) for x in c.tolist()]


def _q_shift(coeffs, a):
    c, n = [Fraction(x) for x in coeffs], len(coeffs)
    return [sum(comb(k, j) * Fraction(a) ** (k - j) * c[k] for k in range(j, n)) for j in range(n)]


def _q_times_x(a, c):
    return [a * ck + prev for ck, prev in zip([*c, 0], [0, *c])]


def _q_antiderivative(pieces):
    out, acc = [], Fraction(0)
    for _, h, c in pieces:
        out.append([acc, *(ck / (k + 1) for k, ck in enumerate(c))])
        acc += _q_power(c, h)
    return out


def _q_integral(p, absolute=False):
    return sum(_q_power(c, h) for _, h, c in _q_pieces(p, absolute))


def _q_moment1(p, absolute=False):
    return sum(a * _q_power(c, h) + _q_power(c, h, 1) for a, h, c in _q_pieces(p, absolute))


def _q_min_kernel(p, absolute=False):
    pieces = list(_q_pieces(p, absolute))
    cumulative = _q_antiderivative([(a, h, _q_times_x(a, c)) for a, h, c in pieces])
    return 2 * sum(
        ck * _q_power(f, h, k) for (_, h, c), f in zip(pieces, cumulative) for k, ck in enumerate(c)
    )


def _close(got, exact, size):
    assert abs(Fraction(got) - exact) <= ULPS * Fraction(2.0**-52) * size, (got, float(exact))


#: exact signed zeros, or magnitudes 1e-3..1e3 of either sign
exact_coefficient = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, s: s * m, st.floats(1e-3, 1e3), st.sampled_from([1.0, -1.0])),
)


@st.composite
def global_profiles(draw):
    """[(a, b), coeffs] pieces: 1-3 cubic pieces with interior breakpoints on
    a support [a, 1], a = 0 or above, or every coefficient zero."""
    pieces = draw(st.integers(1, 3))
    first = draw(st.sampled_from([0, 0, 1, 7, 10]))
    inner = draw(
        st.lists(
            st.integers(first + 1, 19), min_size=pieces - 1, max_size=pieces - 1, unique=True
        )
    )
    breaks = [first / 20.0, *sorted(m / 20.0 for m in inner), 1.0]
    zero = draw(st.booleans()) and draw(st.booleans())
    coeff = st.sampled_from([0.0, -0.0]) if zero else exact_coefficient
    return [
        ((a, b), draw(st.lists(coeff, min_size=1, max_size=4)))
        for a, b in zip(breaks, breaks[1:])
    ]


exact = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@exact
@given(pieces=global_profiles())
def test_exact_calculus_equals_rational_arithmetic(pieces):
    p = PiecewisePolynomial.from_global_coeffs(pieces)
    for ((a, _), coeffs), local in zip(pieces, p.coefficients):
        size = _q_shift([abs(x) for x in coeffs], a)
        for got, want, s in zip(local.tolist(), _q_shift(coeffs, a), size):
            _close(got, want, s)
    _close(p.integral(), _q_integral(p), _q_integral(p, True))
    _close(p.moment(1), _q_moment1(p), _q_moment1(p, True))
    _close(p.min_kernel_self_integral(), _q_min_kernel(p), _q_min_kernel(p, True))
    signed, absolute = list(_q_pieces(p)), list(_q_pieces(p, True))
    for got, (a, _, c), (_, _, size) in zip(p.times_x().coefficients, signed, absolute):
        for g, want, s in zip(got.tolist(), _q_times_x(a, c), _q_times_x(a, size)):
            _close(g, want, s)
    prim = p.antiderivative().coefficients
    for got, want, size in zip(prim, _q_antiderivative(signed), _q_antiderivative(absolute)):
        for g, w, s in zip(got.tolist(), want, size):
            _close(g, w, s)


@exact
@given(edges=st.lists(st.one_of(st.none(), global_profiles()), min_size=2, max_size=4))
def test_validation_size_equals_rational_arithmetic(edges):
    profiles = [
        PiecewisePolynomial.zero() if e is None else PiecewisePolynomial.from_global_coeffs(e)
        for e in edges
    ]
    # every term of the size is nonnegative, so the size is its own bound
    size = sum(_q_integral(p, absolute=True) for p in profiles)
    _close(_size(StarPotential(profiles)), size, size)


@pytest.mark.parametrize("support", [(0.0, 0.5), (0.25, 0.5)])
@pytest.mark.parametrize(
    "coeffs", [[1.0, np.inf], [np.inf], [2.0, -np.inf, 1.0], [0.0, 0.0, np.nan]]
)
def test_non_finite_coefficients_give_non_finite_results(support, coeffs):
    p = PiecewisePolynomial.from_global_coeffs([(support, coeffs)])
    results = [p.integral(), p.moment(1), p.min_kernel_self_integral()]
    results.append(_size(StarPotential([p, PiecewisePolynomial.zero()])))
    assert not any(np.isfinite(results)), results


# -- evaluate against the masked implementation it replaced ---------------


def _masked_evaluate(p, x):
    """The per-point oracle: clip each point inside the closed span to its
    piece, the last breakpoint to the last one, and leave zero elsewhere."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.size)
    bp = p.breakpoints
    for i, xi in enumerate(x.ravel().tolist()):
        if bp[0] <= xi <= bp[-1]:
            j = min(int(np.searchsorted(bp, xi, side="right")) - 1, bp.size - 2)
            out[i] = np.polynomial.polynomial.polyval(np.array([xi]) - bp[j], p.coefficients[j])[0]
    return out.reshape(x.shape)


def _probe_points(bp):
    # every breakpoint and its float neighbours, the midpoints, points outside
    # the span, and the special values
    points = [bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf), (bp[1:] + bp[:-1]) / 2]
    points.append([bp[0] - 1.0, bp[-1] + 1.0, np.nan, np.inf, -np.inf, 0.0, -0.0])
    return np.concatenate(points)


@exact
@given(pieces=global_profiles())
def test_evaluate_equals_the_masked_oracle_bit_for_bit(pieces):
    p = PiecewisePolynomial.from_global_coeffs(pieces)
    x = _probe_points(p.breakpoints)
    assert p.evaluate(x).tobytes() == _masked_evaluate(p, x).tobytes()
    # n-d input keeps its shape; a 0-d one gives a Python float
    grid = np.stack([x, x[::-1]]).reshape(2, 1, -1)
    got = p.evaluate(grid)
    assert got.shape == grid.shape and got.tobytes() == _masked_evaluate(p, grid).tobytes()
    for xi in x:
        value = p.evaluate(np.float64(xi))
        assert type(value) is float
        assert np.array(value).tobytes() == _masked_evaluate(p, xi).tobytes()


def test_evaluate_puts_the_last_breakpoint_in_the_last_piece():
    p = PiecewisePolynomial([0.0, 0.5, 1.0], [[1.0], [2.0, 4.0]])
    assert p.evaluate(1.0) == 4.0
    assert p.evaluate(np.nextafter(1.0, 2.0)) == 0.0
    assert p.evaluate([0.0, 0.5, 1.0]).tolist() == [1.0, 2.0, 4.0]
