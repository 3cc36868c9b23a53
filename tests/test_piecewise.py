import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from numpy.polynomial import polyutils as pu

from starcoupling import PiecewisePolynomial, StarPotential, piecewise
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


# -- the scalar calculus against numpy.polynomial, bit for bit ------------
#
# The references below are the numpy.polynomial forms the scalar routines
# replace; the stored benchmark references pin their bits, signed zeros
# included.


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _ref_local(coeffs, a):
    return np.polynomial.Polynomial(coeffs)(np.polynomial.Polynomial([a, 1.0])).coef


def _ref_integral(breaks, pieces):
    total = 0.0
    for h, c in zip(np.diff(breaks), pieces):
        total += npoly.polyval(h, npoly.polyint(c))
    return float(total)


def _ref_times_x(breaks, pieces):
    return [npoly.polymul([breaks[j], 1.0], c) for j, c in enumerate(pieces)]


def _ref_antiderivative(breaks, pieces):
    cumulative, acc = [], 0.0
    for h, c in zip(np.diff(breaks), pieces):
        prim = npoly.polyint(c)
        prim = np.concatenate(([acc], prim[1:])) if prim.size > 1 else np.array([acc])
        cumulative.append(prim)
        acc = npoly.polyval(h, prim)
    return cumulative


def _ref_min_kernel(breaks, pieces):
    cumulative = _ref_antiderivative(breaks, _ref_times_x(breaks, pieces))
    product = [npoly.polymul(a, b) for a, b in zip(pieces, cumulative)]
    return 2.0 * _ref_integral(breaks, product)


def _ref_size(profiles):
    return sum(
        npoly.polyval(h, npoly.polyint(np.abs(c)))
        for p in profiles
        for h, c in zip(np.diff(p.breakpoints), p.coefficients)
    )


#: exact signed zeros, or magnitudes 1e-3..1e3 of either sign
exact_coefficient = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, s: s * m, st.floats(1e-3, 1e3), st.sampled_from([1.0, -1.0])),
)


@st.composite
def global_profiles(draw):
    """[(a, b), coeffs] pieces: 1-3 cubic pieces with interior breakpoints,
    or every coefficient zero."""
    pieces = draw(st.integers(1, 3))
    inner = draw(
        st.lists(st.integers(1, 19), min_size=pieces - 1, max_size=pieces - 1, unique=True)
    )
    breaks = [0.0, *sorted(m / 20.0 for m in inner), 1.0]
    zero = draw(st.booleans()) and draw(st.booleans())
    coeff = st.sampled_from([0.0, -0.0]) if zero else exact_coefficient
    return [
        ((a, b), draw(st.lists(coeff, min_size=1, max_size=4)))
        for a, b in zip(breaks, breaks[1:])
    ]


exact = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@exact
@given(
    c=st.lists(exact_coefficient, min_size=1, max_size=7),
    a=st.one_of(st.integers(0, 20).map(lambda m: m / 20.0), st.just(-0.0)),
    x=st.floats(0.0, 1.0),
)
def test_scalar_helpers_equal_numpy_polynomial(c, a, x):
    assert _bits(piecewise._trim(c)) == _bits(pu.trimseq(np.array(c)))
    assert _bits(piecewise._times_line(c, a)) == _bits(npoly.polymul([a, 1.0], c))
    assert _bits(piecewise._shift(c, a)) == _bits(_ref_local(c, a))
    assert _bits(piecewise._polyval(x, c)) == _bits(npoly.polyval(np.float64(x), np.array(c)))
    assert _bits(piecewise._polyint(c)) == _bits(npoly.polyint(c))


@exact
@given(pieces=global_profiles())
def test_scalar_calculus_equals_numpy_polynomial(pieces):
    p = PiecewisePolynomial.from_global_coeffs(pieces)
    for ((a, _), coeffs), local in zip(pieces, p.coefficients):
        assert _bits(local) == _bits(_ref_local(coeffs, a))
    breaks, locals_ = p.breakpoints, p.coefficients
    assert _bits(p.integral()) == _bits(_ref_integral(breaks, locals_))
    assert _bits(p.moment(1)) == _bits(_ref_integral(breaks, _ref_times_x(breaks, locals_)))
    assert _bits(p.min_kernel_self_integral()) == _bits(_ref_min_kernel(breaks, locals_))
    for got, want in zip(p.times_x().coefficients, _ref_times_x(breaks, locals_)):
        assert _bits(got) == _bits(want)
    for got, want in zip(p.antiderivative().coefficients, _ref_antiderivative(breaks, locals_)):
        assert _bits(got) == _bits(want)


@exact
@given(edges=st.lists(st.one_of(st.none(), global_profiles()), min_size=2, max_size=4))
def test_validation_size_equals_numpy_polynomial(edges):
    profiles = [
        PiecewisePolynomial.zero() if e is None else PiecewisePolynomial.from_global_coeffs(e)
        for e in edges
    ]
    assert _bits(_size(StarPotential(profiles))) == _bits(_ref_size(profiles))


def test_non_finite_coefficients_propagate_as_in_numpy():
    # inf * 0 in polyint's constant term makes the whole integral NaN there
    for c in ([1.0, np.inf], [np.inf], [2.0, -np.inf, 1.0]):
        p = PiecewisePolynomial([0.0, 0.5], [c])
        with np.errstate(invalid="ignore"):
            assert _bits(piecewise._polyint(c)) == _bits(npoly.polyint(c))
            assert _bits(p.integral()) == _bits(_ref_integral(p.breakpoints, p.coefficients))


def test_two_negative_zero_products_sum_to_positive_zero():
    # numpy's dot starts each convolution sum at +0.0: (-0) * 1 + (-0) * 1
    # is +0.0 there, and the scalar product by (a + u) must give it too
    ref = npoly.polymul([0.0, 1.0], [-0.0, -0.0, 1.0])
    assert _bits(ref[:2]) == _bits([0.0, 0.0])
    assert _bits(piecewise._times_line([-0.0, -0.0, 1.0], 0.0)) == _bits(ref)
