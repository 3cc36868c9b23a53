import numpy as np
import pytest

from starcoupling import PiecewisePolynomial


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
