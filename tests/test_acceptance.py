"""Acceptance suite: ten criteria, one test and one PASS/FAIL line each.

Each criterion carries a runtime budget that is asserted alongside the
numerical checks. Expected values marked as derived were computed from
closed-form integration and cross-checked against the Riemann oracles that
live inside the tests themselves.
"""

import time

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, trapezoid

import starcoupling as sc
from starcoupling import EdgeCoordinate
from conftest import distinct_theta


def announce(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def vstar_module():
    return sc.StarPotential.from_constants([1.0, -1.0, 0.0])


@pytest.fixture(scope="module")
def lam_neg_module():
    return sc.ScalingFunction(lambda1=-1.0, resonant=True)


def test_criterion_1_constants_reproduction(vstar_module):
    start = time.perf_counter()
    theta = sc.moments_theta(vstar_module)
    A = sc.constant_A(vstar_module)
    B, Pi = sc.constants_B_Pi(theta)

    exact_theta = np.array([0.5, -0.5, 0.0])
    closed_ok = (
        np.max(np.abs(theta - exact_theta)) <= 1e-12
        and abs(A - (-2.0 / 3.0)) <= 1e-12
        and abs(B - (-0.5)) <= 1e-12
        and np.max(np.abs(Pi - np.outer(exact_theta, exact_theta))) <= 1e-12
    )

    # million-point Riemann confirmation of the same constants
    n = 1_000_000
    xm = (np.arange(n) + 0.5) / n
    theta_r = np.array(
        [float(np.sum(xm * p.evaluate(xm)) / n) for p in vstar_module.profiles]
    )
    xg = np.linspace(0.0, 1.0, n + 1)
    A_r = 0.0
    for p in vstar_module.profiles:
        vals = p.evaluate(xg)
        cum = cumulative_trapezoid(xg * vals, xg, initial=0.0)
        A_r -= 2.0 * float(trapezoid(vals * cum, xg))
    riemann_ok = (
        np.max(np.abs(theta_r - exact_theta)) <= 1e-8 and abs(A_r - A) <= 1e-8
    )

    elapsed = time.perf_counter() - start
    ok = closed_ok and riemann_ok and elapsed < 1.0
    assert announce(
        "criterion 1 (constants reproduction)",
        ok,
        f"closed-form residual <= 1e-12: {closed_ok}, Riemann confirmation: "
        f"{riemann_ok}, runtime {elapsed:.2f}s < 1s",
    )


def test_criterion_2_boundary_admissibility():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_asym = 0.0
    worst_rank = np.inf
    for _ in range(200):
        n = int(rng.integers(2, 7))
        theta = distinct_theta(rng, n)
        beta = float(rng.uniform(-4.0, 4.0))
        bp = sc.boundary_matrices(theta, beta)
        prod = bp.Amat @ bp.Bmat.T
        worst_asym = max(worst_asym, float(np.linalg.norm(prod - prod.T)))
        stacked = np.hstack([bp.Amat, bp.Bmat])
        worst_rank = min(worst_rank, float(np.linalg.svd(stacked, compute_uv=False)[-1]))
    elapsed = time.perf_counter() - start
    ok = worst_asym <= 1e-10 and worst_rank > 1e-10 and elapsed < 5.0
    assert announce(
        "criterion 2 (boundary-matrix admissibility)",
        ok,
        f"max asymmetry {worst_asym:.2e} <= 1e-10, min singular value "
        f"{worst_rank:.2e} > 1e-10, runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_3_closed_form_vs_linear_solve():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_lambda = 0.0
    worst_s = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        theta = distinct_theta(rng, n)
        beta = float(rng.uniform(-4.0, 4.0))
        B, Pi = sc.constants_B_Pi(theta)
        cc = sc.CouplingConstants(theta=theta, A=0.0, B=B, Pi=Pi, beta=beta)
        bp = sc.boundary_matrices(theta, beta)
        for k in (0.1, 1.0, 10.0):
            lam_closed = sc.lambda_matrix(k, cc)
            lam_direct = sc.lambda_matrix_direct(k, bp)
            worst_lambda = max(worst_lambda, float(np.max(np.abs(lam_closed - lam_direct))))
            s_closed = sc.smatrix_limit(k, cc)
            s_direct = sc.smatrix_direct(k, bp)
            worst_s = max(worst_s, float(np.max(np.abs(s_closed.entries - s_direct.entries))))
    elapsed = time.perf_counter() - start
    ok = worst_lambda <= 1e-10 and worst_s <= 1e-10 and elapsed < 10.0
    assert announce(
        "criterion 3 (closed form vs linear solve)",
        ok,
        f"max Lambda deviation {worst_lambda:.2e}, max S deviation {worst_s:.2e}, "
        f"both <= 1e-10, runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_4_smatrix_physicality(vstar_module, lam_neg_module):
    start = time.perf_counter()
    cc = sc.coupling_constants(vstar_module, lam_neg_module)
    rng = np.random.default_rng(404)
    worst_unitary = 0.0
    worst_sym = 0.0
    for k in (0.1, 1.0, 10.0):
        s = sc.smatrix_limit(k, cc)
        worst_unitary = max(worst_unitary, s.unitarity_defect())
        worst_sym = max(worst_sym, s.symmetry_defect())
    for _ in range(50):
        n = int(rng.integers(2, 6))
        theta = distinct_theta(rng, n)
        beta = float(rng.uniform(-4.0, 4.0))
        B, Pi = sc.constants_B_Pi(theta)
        c = sc.CouplingConstants(theta=theta, A=0.0, B=B, Pi=Pi, beta=beta)
        s = sc.smatrix_limit(float(rng.uniform(0.05, 20.0)), c)
        worst_unitary = max(worst_unitary, s.unitarity_defect())
        worst_sym = max(worst_sym, s.symmetry_defect())

    kirchhoff = (2.0 / 3.0) * np.ones((3, 3)) - np.eye(3)
    low = float(np.max(np.abs(sc.smatrix_limit(1e-8, cc).entries - kirchhoff)))

    theta2 = np.array([0.5, -0.5])
    B2, Pi2 = sc.constants_B_Pi(theta2)
    cc2 = sc.CouplingConstants(theta=theta2, A=-2.0 / 3.0, B=B2, Pi=Pi2, beta=-2.25)
    high = float(np.linalg.norm(sc.smatrix_limit(1e4, cc2).entries - np.eye(2), 2))

    elapsed = time.perf_counter() - start
    ok = (
        worst_unitary <= 1e-10
        and worst_sym <= 1e-10
        and low <= 1e-6
        and high <= 1e-3
        and elapsed < 5.0
    )
    assert announce(
        "criterion 4 (S-matrix physicality)",
        ok,
        f"unitarity {worst_unitary:.2e} <= 1e-10, symmetry {worst_sym:.2e} <= 1e-10, "
        f"low-k Kirchhoff deviation {low:.2e} <= 1e-6, two-edge high-k opacity "
        f"{high:.2e} <= 1e-3, runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_5_bound_state_convergence(vstar_module, lam_neg_module):
    start = time.perf_counter()
    limit_ev = -64.0 / 81.0
    errors = []
    for eps in (2**-3, 2**-4, 2**-5, 2**-6, 2**-7):
        op = sc.EpsOperator(potential=vstar_module, scaling=lam_neg_module, eps=eps)
        pole = sc.find_pole(op)
        errors.append(abs(pole.eigenvalue - limit_ev))
    ratios = [e2 / e1 for e1, e2 in zip(errors, errors[1:])]
    elapsed = time.perf_counter() - start
    ok = all(0.35 <= r <= 0.65 for r in ratios) and elapsed < 30.0
    assert announce(
        "criterion 5 (bound-state eigenvalue convergence)",
        ok,
        f"error ratios per halving {['%.3f' % r for r in ratios]} all in "
        f"[0.35, 0.65], runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_6_smatrix_convergence(vstar_module, lam_neg_module):
    start = time.perf_counter()
    epss = [2**-3, 2**-4, 2**-5, 2**-6, 2**-7]
    cc = sc.coupling_constants(vstar_module, lam_neg_module)
    details = []
    ok = True
    for k in (0.5, 1.0, 5.0):
        errors = []
        for eps in epss:
            op = sc.EpsOperator(potential=vstar_module, scaling=lam_neg_module, eps=eps)
            s_eps = sc.smatrix_eps(op, k)
            s_lim = sc.smatrix_limit(k, cc)
            errors.append(float(np.linalg.norm(s_eps.entries - s_lim.entries, 2)))
        fit = sc.fit_rate(f"smatrix_k_{k}", epss, errors)
        details.append(f"k={k}: slope {fit.slope:.3f}, R^2 {fit.r_squared:.4f}")
        ok = ok and 0.8 <= fit.slope <= 1.2 and fit.r_squared >= 0.98
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    assert announce(
        "criterion 6 (S-matrix convergence rate)",
        ok,
        "; ".join(details) + f"; slopes in [0.8, 1.2], R^2 >= 0.98, "
        f"runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_7_norm_resolvent_convergence(vstar_module, lam_neg_module):
    # The limit kernel jumps at the vertex (value 1/(n kappa) + Lambda_ij)
    # while every finite-eps kernel is Kirchhoff-continuous there, so an O(1)
    # mismatch survives on a boundary layer of width eps: the squared
    # Hilbert-Schmidt distance is O(eps) and the distance itself has slope 1/2.
    # Off every scaled support both kernels are exact multiples of
    # e^{-kappa(x+y)}, and there the difference converges linearly.
    start = time.perf_counter()
    kappa = 1.0
    epss = [2**-3, 2**-4, 2**-5, 2**-6, 2**-7]
    cc = sc.coupling_constants(vstar_module, lam_neg_module)
    lim_kernel = sc.LimitKernel(cc, kappa)
    edges = range(1, cc.n + 1)
    lam = sc.lambda_matrix(kappa, cc)
    # the profiles are constant with zero total mean, so the rank-one factor
    # vanishes at the vertex: G_eps(1,1,0,0) = 1/(n kappa) and the mismatch
    # there is |Lambda_11|, 4.5 for this potential
    vertex_closed = abs(lam[0, 0])
    # to leading order the layer difference is -Lambda_ij (1 - h(x/eps) h(y/eps))
    # e^{-kappa(x+y)} with h(t) = 2t - t^2 on [0, 1] and 1 beyond, so
    # HS^2/eps -> ||Lambda||_F^2 / (5 kappa); gated at half of that
    layer_floor = 0.5 * float(np.sum(lam**2)) / (5.0 * kappa)
    values, tails, off_support, vertex_gaps = [], [], [], []
    for eps in epss:
        op = sc.EpsOperator(potential=vstar_module, scaling=lam_neg_module, eps=eps)
        value, tail = sc.hs_distance(op, kappa)
        values.append(value)
        tails.append(tail)
        eps_kernel = sc.EpsKernel(op, kappa)

        def diff(i, j, x, eps_kernel=eps_kernel):
            gap = eps_kernel.on_grid(i, j, [x], [x]) - lim_kernel.on_grid(i, j, [x], [x])
            return gap[0, 0]

        off = [[diff(i, j, 0.5) for j in edges] for i in edges]
        off_support.append(float(np.linalg.norm(off)))
        vertex_gaps.append(abs(diff(1, 1, 0.0)))
    fit = sc.fit_rate("hs_distance", epss, values)
    off_fit = sc.fit_rate("kernel_off_support", epss, off_support)
    monotone = all(b < a for a, b in zip(values, values[1:]))
    tail_ok = max(tails) <= 1e-8
    hs_ok = 0.4 <= fit.slope <= 0.6 and fit.r_squared >= 0.98
    off_ok = 0.8 <= off_fit.slope <= 1.2 and off_fit.r_squared >= 0.98
    vertex_ok = all(abs(g - vertex_closed) <= 1e-8 for g in vertex_gaps)
    layer = min(v**2 / eps for v, eps in zip(values, epss))
    layer_ok = layer >= layer_floor
    elapsed = time.perf_counter() - start
    ok = (
        monotone
        and tail_ok
        and hs_ok
        and off_ok
        and vertex_ok
        and layer_ok
        and elapsed < 300.0
    )
    assert announce(
        "criterion 7 (norm-resolvent convergence)",
        ok,
        f"monotone decrease: {monotone}, max tail bound {max(tails):.2e} <= 1e-8: "
        f"{tail_ok}, HS slope {fit.slope:.3f} in [0.4, 0.6] with R^2 "
        f"{fit.r_squared:.4f} >= 0.98: {hs_ok}, off-support (x = y = 0.5) slope "
        f"{off_fit.slope:.3f} in [0.8, 1.2] with R^2 {off_fit.r_squared:.4f} "
        f">= 0.98: {off_ok}, vertex mismatch {max(vertex_gaps):.6f} = "
        f"|Lambda_11| {vertex_closed:.6f}: {vertex_ok}, min HS^2/eps {layer:.2f} "
        f">= {layer_floor:.2f}: {layer_ok}, runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_8_zeta_and_kernel_asymptotics(vstar_module, lam_neg_module):
    start = time.perf_counter()
    eps = 1e-3
    kappa = 1.0
    op = sc.EpsOperator(potential=vstar_module, scaling=lam_neg_module, eps=eps)
    cc = op.constants
    z = sc.zeta(op, kappa)
    zeta_dev = abs(z * eps**4 * (1.0 - kappa * cc.beta * cc.B) / (-cc.beta) - 1.0)
    x, y = 2.0, 3.0
    f1 = sc.rank_one_factor(op, kappa, 1, np.array([x]))[0]
    f2 = sc.rank_one_factor(op, kappa, 2, np.array([y]))[0]
    factor_dev = abs(
        (f1 * f2) / (eps**4 * np.exp(-kappa * (x + y)) * cc.Pi[0, 1]) - 1.0
    )
    elapsed = time.perf_counter() - start
    ok = zeta_dev <= 10 * eps and factor_dev <= 10 * eps and elapsed < 10.0
    assert announce(
        "criterion 8 (zeta and rank-one factor asymptotics)",
        ok,
        f"zeta ratio deviation {zeta_dev:.2e} <= {10 * eps:.0e}, factor ratio "
        f"deviation {factor_dev:.2e} <= {10 * eps:.0e}, runtime {elapsed:.1f}s < 10s",
    )


def test_criterion_9_oracle_cross_validation(vstar_module, lam_neg_module):
    start = time.perf_counter()

    op_eig = sc.EpsOperator(potential=vstar_module, scaling=lam_neg_module, eps=0.05)
    pole = sc.find_pole(op_eig)
    fd_ev = sc.oracle_eigenvalue(op_eig, L=40.0, h=5e-3)
    ev_rel = abs(fd_ev - pole.eigenvalue) / abs(pole.eigenvalue)

    op_s = sc.EpsOperator(potential=vstar_module, scaling=lam_neg_module, eps=0.1)
    s_fd = sc.oracle_smatrix(op_s, 1.0, L=2.0, h=5e-3)
    s_an = sc.smatrix_eps(op_s, 1.0)
    s_err = float(np.max(np.abs(s_fd.entries - s_an.entries)))

    zero = sc.StarPotential([sc.PiecewisePolynomial.zero() for _ in range(3)])
    op_free = sc.EpsOperator(
        potential=zero,
        scaling=sc.ScalingFunction(lambda1=1.0, resonant=False, lambda0=1.0),
        eps=0.1,
    )
    col = sc.oracle_resolvent_column(op_free, 1.0, EdgeCoordinate(1, 0.7), L=40.0, h=5e-3)
    kernel = sc.FreeKernel(3, 1.0)
    col_err = 0.0
    for j in (1, 2, 3):
        exact = kernel.on_grid(1, j, np.array([0.7]), col.x)[0].real
        col_err = max(col_err, float(np.max(np.abs(col.values[j - 1] - exact))))

    elapsed = time.perf_counter() - start
    ok = ev_rel <= 1e-2 and s_err <= 1e-3 and col_err <= 5e-4 and elapsed < 120.0
    assert announce(
        "criterion 9 (finite-difference oracle cross-validation)",
        ok,
        f"eigenvalue relative error {ev_rel:.2e} <= 1e-2, S-matrix max entry error "
        f"{s_err:.2e} <= 1e-3, free-column sup error {col_err:.2e} <= 5e-4, "
        f"runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_10_escaping_eigenvalue(vstar_module):
    start = time.perf_counter()
    # non-resonant, beta = 0, with (A - 1/lambda0)/B > 0 so the pole escapes
    lam = sc.ScalingFunction(lambda1=0.1, resonant=False, lambda0=-1.6)
    deviations = []
    for eps in (2**-4, 2**-5, 2**-6, 2**-7):
        op = sc.EpsOperator(potential=vstar_module, scaling=lam, eps=eps)
        cc = op.constants
        assert (cc.A - 1.0 / op.lambda0) / cc.B > 0
        pole = sc.find_pole(op)
        ratio = pole.kappa * eps * cc.B / (cc.A - 1.0 / op.lambda0)
        deviations.append((eps, abs(ratio - 1.0)))
    elapsed = time.perf_counter() - start
    ok = all(dev <= 10 * eps for eps, dev in deviations) and elapsed < 30.0
    assert announce(
        "criterion 10 (escaping eigenvalue, Kirchhoff limit)",
        ok,
        "deviations "
        + ", ".join(f"{dev:.3f} (<= {10 * eps:.3f})" for eps, dev in deviations)
        + f", runtime {elapsed:.1f}s < 30s",
    )
