import numpy as np
import pytest

import starcoupling as sc
from starcoupling import (
    DegenerateTheta,
    EdgeCoordinate,
    MeanViolation,
    PiecewisePolynomial,
    QuadratureRule,
    ResonantWithZeroA,
    ScalingFunction,
    StarPotential,
    SupportViolation,
)
from conftest import distinct_theta


class TestEdgeCoordinate:
    def test_valid(self):
        p = EdgeCoordinate(2, 0.5)
        assert p.edge == 2 and p.x == 0.5

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EdgeCoordinate(0, 0.5)
        with pytest.raises(ValueError):
            EdgeCoordinate(1, -0.1)


class TestValidatePotential:
    def test_reference_is_valid(self, vstar):
        sc.validate_potential(vstar)

    def test_nonzero_mean_reports_residual(self):
        V = StarPotential.from_constants([1.0, 0.0])
        with pytest.raises(MeanViolation) as err:
            sc.validate_potential(V)
        assert err.value.residual == pytest.approx(1.0)

    def test_mean_is_checked_relative_to_the_size(self):
        # a mean that is zero up to rounding passes at any scale, though at
        # 1e50 its residual is far above TOL_MEAN in absolute terms; a mean
        # that is not zero fails at any scale, 1e-50 among them
        residuals = {}
        for scale in (1e-50, 1.0, 1e50, 1e250):
            p = PiecewisePolynomial.from_global_coeffs(
                [((0.0, 1.0), [scale * c for c in (0.37, -1.71, 2.93, 0.113)])]
            )
            q = PiecewisePolynomial.from_global_coeffs(
                [((0.0, 0.5), [-0.7 * scale, 0.2 * scale]), ((0.5, 1.0), [0.1 * scale])]
            )
            rest = [scale * c for c in (0.61, -0.29, 0.07)]
            mean = p.integral() + q.integral() + scale * (0.61 / 2 - 0.29 / 3 + 0.07 / 4)
            r = PiecewisePolynomial.from_global_coeffs([((0.0, 1.0), [-mean, *rest])])
            sc.validate_potential(StarPotential([p, q, r]))
            residuals[scale] = StarPotential([p, q, r]).total_mean()
            with pytest.raises(MeanViolation):
                sc.validate_potential(StarPotential([p, q, PiecewisePolynomial.zero()]))
        assert abs(residuals[1e50]) > 1e20 * sc.graph.TOL_MEAN

    def test_odd_profile_is_valid(self):
        odd = PiecewisePolynomial.from_global_coeffs([((0.0, 1.0), [-0.5, 1.0])])
        V = StarPotential([odd, PiecewisePolynomial.zero(), PiecewisePolynomial.zero()])
        sc.validate_potential(V)

    def test_support_violation(self):
        wide = PiecewisePolynomial.constant(1.0, support=(0.0, 1.5))
        V = StarPotential([wide, PiecewisePolynomial.constant(-1.5)])
        with pytest.raises(SupportViolation):
            sc.validate_potential(V)

    def test_zero_mean_closure_against_quadrature(self, vstar):
        sc.validate_potential(vstar)
        rule = QuadratureRule(order=64)
        total = sum(
            rule.integrate(p.evaluate, p.breakpoints) for p in vstar.profiles
        )
        assert abs(total - vstar.total_mean()) <= 1e-12


class TestMomentsTheta:
    def test_reference_values(self, vstar):
        theta = sc.moments_theta(vstar)
        np.testing.assert_allclose(theta, [0.5, -0.5, 0.0], atol=1e-15)

    def test_reference_against_riemann(self, vstar):
        n = 1_000_000
        x = (np.arange(n) + 0.5) / n
        for i, p in enumerate(vstar.profiles):
            brute = float(np.sum(x * p.evaluate(x)) / n)
            assert sc.moments_theta(vstar)[i] == pytest.approx(brute, abs=1e-9)

    def test_odd_profile(self):
        odd = PiecewisePolynomial.from_global_coeffs([((0.0, 1.0), [-0.5, 1.0])])
        V = StarPotential([odd, PiecewisePolynomial.zero(), PiecewisePolynomial.zero()])
        assert sc.moments_theta(V)[0] == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_zero_profiles_have_zero_moment(self, zero_potential):
        np.testing.assert_array_equal(sc.moments_theta(zero_potential), np.zeros(3))


class TestConstantA:
    def test_reference_value(self, vstar):
        assert sc.constant_A(vstar) == pytest.approx(-2.0 / 3.0, abs=1e-15)

    def test_reference_against_riemann(self, vstar):
        n = 4000
        x = (np.arange(n) + 0.5) / n
        mins = np.minimum(x[:, None], x[None, :])
        brute = 0.0
        for p in vstar.profiles:
            vals = p.evaluate(x)
            brute -= float(np.sum(mins * vals[:, None] * vals[None, :]) / n**2)
        assert sc.constant_A(vstar) == pytest.approx(brute, abs=1e-6)

    def test_zero_potential(self, zero_potential):
        assert sc.constant_A(zero_potential) == 0.0

    def test_edge_local_on_two_edges(self):
        V2 = StarPotential.from_constants([1.0, -1.0])
        assert sc.constant_A(V2) == pytest.approx(-2.0 / 3.0, abs=1e-15)


class TestConstantsBPi:
    def test_reference_values(self):
        B, Pi = sc.constants_B_Pi([0.5, -0.5, 0.0])
        assert B == pytest.approx(-0.5, abs=1e-15)
        expected = np.array([[0.25, -0.25, 0.0], [-0.25, 0.25, 0.0], [0.0, 0.0, 0.0]])
        np.testing.assert_allclose(Pi, expected, atol=1e-15)

    def test_equal_moments_vanish(self):
        B, Pi = sc.constants_B_Pi([0.7, 0.7, 0.7, 0.7])
        assert B == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(Pi, 0.0, atol=1e-15)

    def test_two_edge_values(self):
        B, Pi = sc.constants_B_Pi([1.0, 0.0])
        assert B == pytest.approx(-0.5, abs=1e-15)
        np.testing.assert_allclose(Pi, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_random_properties(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            theta = rng.uniform(-3, 3, n)
            B, Pi = sc.constants_B_Pi(theta)
            assert B <= 1e-12
            tied = np.abs(np.subtract.outer(theta, theta)).max() <= 1e-9
            assert (abs(B) <= 1e-9) == tied or not tied
            p = theta.mean() - theta
            np.testing.assert_allclose(Pi, np.outer(p, p), atol=1e-13)
            np.testing.assert_allclose(Pi, Pi.T, atol=0.0)
            np.testing.assert_allclose(Pi.sum(axis=0), 0.0, atol=1e-12)
            eigs = np.linalg.eigvalsh(Pi)
            assert eigs.min() >= -1e-12
            assert np.sum(eigs > 1e-12) <= 1


class TestCouplingBeta:
    def test_resonant_negative(self, vstar, lam_neg):
        assert sc.coupling_beta(lam_neg, sc.constant_A(vstar)) == pytest.approx(-2.25)

    def test_resonant_positive(self, vstar, lam_pos):
        assert sc.coupling_beta(lam_pos, sc.constant_A(vstar)) == pytest.approx(2.25)

    def test_non_resonant_is_zero(self):
        lam = ScalingFunction(lambda1=5.0, resonant=False, lambda0=2.0)
        assert sc.coupling_beta(lam, -2.0 / 3.0) == 0.0

    def test_zero_A_rejected(self, lam_neg):
        with pytest.raises(ResonantWithZeroA):
            sc.coupling_beta(lam_neg, 0.0)


class TestScalingFunction:
    def test_resonant_derives_lambda0(self, lam_neg):
        assert lam_neg.resolve_lambda0(-2.0 / 3.0) == pytest.approx(-1.5)
        assert lam_neg.value(0.1, A=-2.0 / 3.0) == pytest.approx(-1.6)

    def test_resonant_rejects_explicit_lambda0(self):
        with pytest.raises(ValueError):
            ScalingFunction(lambda1=1.0, resonant=True, lambda0=2.0)

    def test_non_resonant_requires_lambda0(self):
        with pytest.raises(ValueError):
            ScalingFunction(lambda1=1.0, resonant=False)

    def test_higher_coefficients(self):
        lam = ScalingFunction(lambda1=1.0, resonant=False, lambda0=1.0, higher=(2.0,))
        assert lam.value(0.5) == pytest.approx(1.0 + 0.5 + 2.0 * 0.25)


class TestBoundaryMatrices:
    def test_reference_kirchhoff_case(self):
        bp = sc.boundary_matrices([0.5, -0.5, 0.0], 0.0)
        np.testing.assert_allclose(bp.Bmat[0], [-1.0, -1.0, -1.0], atol=0.0)
        np.testing.assert_allclose(bp.Bmat[1:], 0.0, atol=0.0)
        np.testing.assert_allclose(bp.Amat[1], [1.0, -1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(bp.Amat[2], [2.0, 0.0, -2.0], atol=1e-15)
        np.testing.assert_allclose(bp.Amat[0], 0.0, atol=0.0)

    def test_random_admissible(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            theta = distinct_theta(rng, n)
            beta = rng.uniform(-3, 3)
            bp = sc.boundary_matrices(theta, beta)
            assert sc.check_selfadjoint(bp)

    def test_tied_moments_rejected(self):
        with pytest.raises(DegenerateTheta):
            sc.boundary_matrices([0.5, 0.5, 0.0], 1.0)
        with pytest.raises(DegenerateTheta):
            sc.boundary_matrices([0.1, 0.3, 0.3 + 1e-12], 1.0)

    def test_ties_are_relative_to_the_largest_moment(self):
        # the moments of a potential scaled by s scale by s: distinct ones
        # stay distinct at 1e-12 and tied ones stay tied at 1e6
        assert sc.check_selfadjoint(sc.boundary_matrices([1e-13, 3e-13, 2e-13], 1.0))
        with pytest.raises(DegenerateTheta):
            sc.boundary_matrices([1e5, 3e5, 3e5 + 1e-6], 1.0)


class TestCheckSelfadjoint:
    def test_reference_passes(self, cc_neg):
        bp = sc.boundary_matrices(cc_neg.theta, cc_neg.beta)
        assert sc.check_selfadjoint(bp)

    def test_zero_matrices_fail_rank(self):
        bp = sc.BoundaryPair(Amat=np.zeros((3, 3)), Bmat=np.zeros((3, 3)))
        assert not sc.check_selfadjoint(bp)

    def test_dirichlet_passes(self):
        bp = sc.BoundaryPair(Amat=np.eye(3), Bmat=np.zeros((3, 3)))
        assert sc.check_selfadjoint(bp)

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e50, 1e150])
    def test_independent_of_the_potential_scale(self, c):
        # (Amat|Bmat) has full rank for (c, -c, 0) at every c, but its rows
        # scale like 1/c and c^-3
        cc = sc.coupling_constants(
            StarPotential.from_constants([c, -c, 0.0]),
            ScalingFunction(lambda1=-1.0, resonant=True),
        )
        assert sc.check_selfadjoint(sc.boundary_matrices(cc.theta, cc.beta))

    @pytest.mark.parametrize("c", [1.0, 1e50])
    def test_scaled_duplicate_row_fails_rank(self, c):
        # A B^T = [[1, c], [c, c^2]] is symmetric; the second row is c times the first
        A = np.array([[1.0, 0.0], [c, 0.0]])
        bp = sc.BoundaryPair(Amat=A, Bmat=A)
        assert not sc.check_selfadjoint(bp)

    def test_asymmetric_product_fails(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[0.0, 1.0], [0.0, 0.0]])
        # A B^T = [[1,0],[1,0]] is not symmetric
        bp = sc.BoundaryPair(Amat=A, Bmat=B)
        assert not sc.check_selfadjoint(bp)


class TestCouplingConstants:
    def test_bundle_matches_parts(self, vstar, lam_neg):
        cc = sc.coupling_constants(vstar, lam_neg)
        assert cc.n == 3
        np.testing.assert_allclose(cc.theta, sc.moments_theta(vstar), atol=0.0)
        assert cc.A == sc.constant_A(vstar)
        assert cc.beta == pytest.approx(-2.25)

    def test_validates_first(self, lam_neg):
        bad = StarPotential.from_constants([1.0, 0.0])
        with pytest.raises(MeanViolation):
            sc.coupling_constants(bad, lam_neg)
