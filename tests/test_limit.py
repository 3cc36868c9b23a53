import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import starcoupling as sc
from starcoupling import AtPole, SingularSystem
from conftest import coefficient, distinct_theta


class TestFreeGreen:
    def test_vertex_value_two_edges(self):
        val = sc.FreeKernel(2, 1.0).on_grid(1, 2, [0.0], [0.0])[0, 0]
        assert val == pytest.approx(0.5)

    def test_two_edge_reduction_to_free_line(self):
        # across the vertex of a 2-star the kernel is the free-line kernel
        kc = 0.7j
        for x, y in [(0.3, 0.9), (1.2, 0.1)]:
            val = sc.FreeKernel(2, 0.7).on_grid(1, 2, [x], [y])[0, 0]
            line = 1j / (2 * kc) * np.exp(1j * kc * abs(x - (-y)))
            assert val == pytest.approx(line, abs=1e-15)

    def test_vertex_derivative_sum_vanishes(self):
        # sum over edges of the outward derivative at the vertex is zero
        n, ell, y = 3, 2, 0.8
        h = 1e-6
        kernel = sc.FreeKernel(n, 1.3)
        total = 0.0
        for j in range(1, n + 1):
            g0 = kernel.on_grid(j, ell, [0.0], [y])[0, 0]
            g1 = kernel.on_grid(j, ell, [h], [y])[0, 0]
            total += (g1 - g0) / h
        assert abs(total) < 1e-5


class TestLambdaMatrix:
    def test_zero_coupling_gives_zero(self, vstar, free_scaling):
        cc = sc.coupling_constants(vstar, free_scaling)
        lam = sc.lambda_matrix(1.0, cc)
        np.testing.assert_allclose(lam, 0.0, atol=0.0)

    def test_reference_value_at_unit_kappa(self, cc_pos):
        lam = sc.lambda_matrix(1.0, cc_pos)
        np.testing.assert_allclose(lam, (18.0 / 17.0) * cc_pos.Pi, atol=1e-14)

    def test_matches_direct_solve(self, cc_pos):
        bp = sc.boundary_matrices(cc_pos.theta, cc_pos.beta)
        for kappa in (0.1, 1.0, 10.0):
            closed = sc.lambda_matrix(kappa, cc_pos)
            direct = sc.lambda_matrix_direct(kappa, bp)
            np.testing.assert_allclose(closed, direct, atol=1e-10)

    def test_random_draws_match_direct(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            theta = distinct_theta(rng, n)
            beta = rng.uniform(-3, 3)
            B, Pi = sc.constants_B_Pi(theta)
            cc = sc.CouplingConstants(theta=theta, A=0.0, B=B, Pi=Pi, beta=beta)
            bp = sc.boundary_matrices(theta, beta)
            closed = sc.lambda_matrix(2.0, cc)
            direct = sc.lambda_matrix_direct(2.0, bp)
            np.testing.assert_allclose(closed, direct, atol=1e-10)

    def test_real_and_equal_to_complex_quotient(self):
        # the closed form is real at k = i kappa, and gives the bits of the
        # complex quotient beta Pi / (1 + ik beta B) with k the resolvent-sheet
        # root of -kappa^2
        rng = np.random.default_rng(8)
        for _ in range(500):
            n = int(rng.integers(2, 6))
            theta = distinct_theta(rng, n)
            beta = rng.uniform(-3, 3)
            B, Pi = sc.constants_B_Pi(theta)
            cc = sc.CouplingConstants(theta=theta, A=0.0, B=B, Pi=Pi, beta=beta)
            kappa = 10.0 ** rng.uniform(-6, 2)
            k = np.sqrt(complex(-(kappa**2)))
            denom = 1.0 + 1j * k * beta * B
            if abs(denom) <= 1e-10:
                continue
            quotient = (beta / denom) * Pi.astype(complex)
            lam = sc.lambda_matrix(kappa, cc)
            assert lam.dtype == np.float64
            assert np.all(quotient.imag == 0.0)
            assert np.array_equal(lam, quotient.real)

    def test_rank_at_most_one(self, cc_pos):
        lam = sc.lambda_matrix(1.5, cc_pos)
        s = np.linalg.svd(lam, compute_uv=False)
        assert np.sum(s > 1e-12) <= 1

    def test_pole_guard(self, cc_neg):
        kappa_pole = 1.0 / (cc_neg.beta * cc_neg.B)
        with pytest.raises(AtPole):
            sc.lambda_matrix(kappa_pole, cc_neg)

    def test_direct_singular_system(self):
        bp = sc.BoundaryPair(Amat=np.zeros((2, 2)), Bmat=np.zeros((2, 2)))
        with pytest.raises(SingularSystem):
            sc.lambda_matrix_direct(1.0, bp)


class TestLimitKernel:
    @pytest.mark.parametrize("kappa", [0.0, -1.0, float("nan")])
    def test_kernels_need_positive_kappa(self, cc_neg, kappa):
        with pytest.raises(ValueError):
            sc.FreeKernel(3, kappa)
        with pytest.raises(ValueError):
            sc.LimitKernel(cc_neg, kappa)

    def test_zero_coupling_reduces_to_free(self, vstar, free_scaling):
        cc = sc.coupling_constants(vstar, free_scaling)
        lk = sc.LimitKernel(cc, 1.3)
        fk = sc.FreeKernel(3, 1.3)
        for (i, x), (j, y) in [((1, 0.2), (2, 1.7)), ((3, 0.0), (3, 2.0))]:
            a = lk.on_grid(i, j, [x], [y])[0, 0]
            b = fk.on_grid(i, j, [x], [y])[0, 0]
            assert a == pytest.approx(b, abs=1e-15)

    def test_symmetric_under_argument_swap(self, cc_neg):
        lk = sc.LimitKernel(cc_neg, 2.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            i, j = rng.integers(1, 4, 2)
            x, y = rng.uniform(0, 3, 2)
            a = lk.on_grid(int(i), int(j), [x], [y])[0, 0]
            b = lk.on_grid(int(j), int(i), [y], [x])[0, 0]
            assert a == pytest.approx(b, abs=1e-14)

    def test_vertex_condition_residual(self, cc_neg):
        # the kernel column solves the vertex condition Amat psi(0) + Bmat psi'(0) = 0;
        # traces come from the closed form: psi_i(0) = (i/(kn) + Lambda_ij) e^{iky},
        # psi_i'(0) = (delta_ij - 1/n + ik Lambda_ij) e^{iky}
        bp = sc.boundary_matrices(cc_neg.theta, cc_neg.beta)
        n = cc_neg.n
        for kappa in (0.5, 2.0):
            kc = 1j * kappa
            lam = sc.lambda_matrix(kappa, cc_neg)
            for j in range(1, n + 1):
                for y in (0.4, 1.9):
                    phase = np.exp(1j * kc * y)
                    psi0 = (1j / (kc * n) + lam[:, j - 1]) * phase
                    dpsi0 = (
                        (np.arange(n) == j - 1).astype(float)
                        - 1.0 / n
                        + 1j * kc * lam[:, j - 1]
                    ) * phase
                    residual = np.linalg.norm(bp.Amat @ psi0 + bp.Bmat @ dpsi0)
                    assert residual <= 1e-8


class TestLimitSpectrum:
    def test_negative_coupling_eigenvalue(self, cc_neg):
        assert sc.limit_point_spectrum(cc_neg) == pytest.approx(-64.0 / 81.0, abs=1e-15)

    def test_positive_coupling_empty(self, cc_pos):
        assert sc.limit_point_spectrum(cc_pos) is None

    def test_zero_coupling_empty(self, vstar, free_scaling):
        cc = sc.coupling_constants(vstar, free_scaling)
        assert sc.limit_point_spectrum(cc) is None

    def test_vanishing_B_is_the_kirchhoff_limit(self):
        # equal first moments: Pi = 0 and the coupling is Kirchhoff, without
        # an eigenvalue or a pole, however small the moments are
        for scale in (1.0, 2.0**-600):
            theta = np.array([1.0, 1.0]) * scale
            B, Pi = sc.constants_B_Pi(theta)
            cc = sc.CouplingConstants(theta=theta, A=-1.0, B=B, Pi=Pi, beta=-1.0)
            assert B == 0.0 and cc.B_vanishes
            assert sc.limit_point_spectrum(cc) is None
            assert sc.limit_pole(cc) is None

    def test_vanishing_rule_is_relative_to_the_moments(self, cc_neg):
        # B scales like theta^2, so the rule reads the same at any scale
        for scale in (2.0**-40, 1.0, 2.0**40):
            theta = cc_neg.theta * scale
            B, Pi = sc.constants_B_Pi(theta)
            cc = sc.CouplingConstants(theta=theta, A=cc_neg.A, B=B, Pi=Pi, beta=cc_neg.beta)
            assert not cc.B_vanishes
        # a relative split of 1e-12 is a tie, one of 1e-8 is not
        for split, vanishes in ((1e-12, True), (1e-8, False)):
            theta = np.array([0.5, 0.5 * (1.0 + split), 0.5])
            B, Pi = sc.constants_B_Pi(theta)
            assert B < 0.0
            cc = sc.CouplingConstants(theta=theta, A=-1.0, B=B, Pi=Pi, beta=-1.0)
            assert cc.B_vanishes == vanishes


class TestLimitPole:
    def test_bound_state_pole(self, cc_neg):
        kappa, kind = sc.limit_pole(cc_neg)
        assert kappa == pytest.approx(8.0 / 9.0, abs=1e-15)
        assert kind == "bound"

    def test_antibound_pole(self, cc_pos):
        kappa, kind = sc.limit_pole(cc_pos)
        assert kappa == pytest.approx(-8.0 / 9.0, abs=1e-15)
        assert kind == "antibound"

    def test_no_pole_without_coupling(self, vstar, free_scaling):
        assert sc.limit_pole(sc.coupling_constants(vstar, free_scaling)) is None

    def test_pole_consistent_with_spectrum(self, cc_neg):
        kappa, kind = sc.limit_pole(cc_neg)
        assert kind == "bound"
        assert sc.limit_point_spectrum(cc_neg) == pytest.approx(-(kappa**2))


class TestSMatrixLimit:
    def test_kirchhoff_for_zero_coupling(self, vstar, free_scaling):
        cc = sc.coupling_constants(vstar, free_scaling)
        s = sc.smatrix_limit(1.0, cc)
        expected = (2.0 / 3.0) * np.ones((3, 3)) - np.eye(3)
        np.testing.assert_allclose(s.entries, expected, atol=1e-15)

    def test_low_energy_limit_is_kirchhoff(self, cc_neg):
        s = sc.smatrix_limit(1e-8, cc_neg)
        expected = (2.0 / 3.0) * np.ones((3, 3)) - np.eye(3)
        np.testing.assert_allclose(s.entries, expected, atol=1e-6)

    def test_two_edge_high_energy_opacity(self):
        theta = np.array([0.5, -0.5])
        B, Pi = sc.constants_B_Pi(theta)
        cc = sc.CouplingConstants(theta=theta, A=-2.0 / 3.0, B=B, Pi=Pi, beta=-2.25)
        s = sc.smatrix_limit(1e4, cc)
        assert np.linalg.norm(s.entries - np.eye(2), 2) <= 1e-3

    def test_unitary_and_symmetric(self, cc_neg):
        for k in (0.1, 1.0, 10.0):
            s = sc.smatrix_limit(k, cc_neg)
            assert s.unitarity_defect() <= 1e-10
            assert s.symmetry_defect() <= 1e-10

    def test_matches_direct_solve(self, cc_neg):
        bp = sc.boundary_matrices(cc_neg.theta, cc_neg.beta)
        for k in (0.1, 1.0, 10.0):
            closed = sc.smatrix_limit(k, cc_neg)
            direct = sc.smatrix_direct(k, bp)
            np.testing.assert_allclose(closed.entries, direct.entries, atol=1e-10)

    def test_direct_kirchhoff(self):
        bp = sc.boundary_matrices([0.5, -0.5, 0.0], 0.0)
        s = sc.smatrix_direct(1.0, bp)
        expected = (2.0 / 3.0) * np.ones((3, 3)) - np.eye(3)
        np.testing.assert_allclose(s.entries, expected, atol=1e-12)

    def test_direct_unitarity(self, cc_pos):
        bp = sc.boundary_matrices(cc_pos.theta, cc_pos.beta)
        for k in (0.1, 1.0, 10.0):
            assert sc.smatrix_direct(k, bp).unitarity_defect() <= 1e-10

    def test_random_draws_match_direct(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            theta = distinct_theta(rng, n)
            beta = rng.uniform(-3, 3)
            B, Pi = sc.constants_B_Pi(theta)
            cc = sc.CouplingConstants(theta=theta, A=0.0, B=B, Pi=Pi, beta=beta)
            bp = sc.boundary_matrices(theta, beta)
            k = float(rng.uniform(0.05, 10.0))
            np.testing.assert_allclose(
                sc.smatrix_limit(k, cc).entries,
                sc.smatrix_direct(k, bp).entries,
                atol=1e-10,
            )

    def test_rejects_nonpositive_momentum(self, cc_neg):
        with pytest.raises(ValueError):
            sc.smatrix_limit(-1.0, cc_neg)


@st.composite
def line_potentials(draw):
    # n = 2: edge 1 two cubic pieces split at a drawn breakpoint, edge 2 one
    # cubic whose constant term sets the total mean to zero
    cut = draw(st.integers(1, 19)) / 20.0
    first = [draw(st.lists(coefficient, min_size=4, max_size=4)) for _ in range(2)]
    second = draw(st.lists(coefficient, min_size=4, max_size=4))
    edge_1 = sc.PiecewisePolynomial([0.0, cut, 1.0], first)
    second[0] -= edge_1.integral() + sc.PiecewisePolynomial([0.0, 1.0], [second]).integral()
    potential = sc.StarPotential([edge_1, sc.PiecewisePolynomial([0.0, 1.0], [second])])
    assume(potential.A != 0.0)
    return potential


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    potential=line_potentials(),
    lambda1=st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-2.0, 2.0)).map(
        lambda t: t[0] * 10.0 ** t[1]
    ),
    k=st.floats(1e-3, 20.0),
)
def test_two_edges_give_the_delta_prime_line(potential, lambda1, k):
    # on the line the limit coupling is delta' of strength
    # b = beta (theta_1 - theta_2)^2 (Albeverio et al., Solvable Models in
    # Quantum Mechanics, ch. I.4): S_11 = S_22 = -(ikb/2)/(1 - ikb/2),
    # S_12 = S_21 = 1/(1 - ikb/2), and -4/b^2 is an eigenvalue iff b < 0
    cc = sc.coupling_constants(potential, sc.ScalingFunction(lambda1=lambda1, resonant=True))
    theta_1, theta_2 = cc.theta
    b = cc.beta * (theta_1 - theta_2) ** 2
    half = 0.5j * k * b
    expected = np.array([[-half, 1.0], [1.0, -half]]) / (1.0 - half)
    # B = -|theta_bar - theta|^2 does not cancel near a tie
    tol = 1e-14
    assert np.max(np.abs(sc.smatrix_limit(k, cc).entries - expected)) <= tol
    eigenvalue = sc.limit_point_spectrum(cc)
    if b < 0:
        assert abs(eigenvalue + 4.0 / b**2) <= tol * 4.0 / b**2
    else:
        assert eigenvalue is None
