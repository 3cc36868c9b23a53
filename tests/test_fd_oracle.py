import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.sparse.linalg import splu

import starcoupling as sc
import starcoupling.fdoracle as fd_mod
from conftest import coefficient
from starcoupling import EdgeCoordinate, GridTooCoarse
from starcoupling.fdoracle import (
    aligned_grid,
    build_discrete_operator,
    discrete_eigenvalue,
    discrete_resolvent_column,
    discrete_smatrix,
)

BUNDLE_DIR = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = ["vstar_resonant_neg", "vstar_resonant_pos", "vstar_nonresonant"]


#: scalings with c < 0: a bound state, none (resonant, lambda1 > 0), and
#: the nonresonant escaping one
SIGN_SCALINGS = {
    "neg": sc.ScalingFunction(lambda1=-1.0, resonant=True),
    "pos": sc.ScalingFunction(lambda1=1.0, resonant=True),
    "nonresonant": sc.ScalingFunction(lambda1=1.0, resonant=False, lambda0=-1.0),
}
sign_examples = settings(derandomize=True, database=None, max_examples=30, deadline=None)


@st.composite
def drawn_potentials(draw):
    # n = 3..4 edges, one cubic each on [0, 1] with coefficients on a grid
    # of 1e-3, the first constant term shifted to total mean zero
    n = draw(st.integers(3, 4))
    coeffs = [draw(st.lists(coefficient, min_size=4, max_size=4)) for _ in range(n)]
    total = sum(sc.PiecewisePolynomial([0.0, 1.0], [c]).integral() for c in coeffs)
    coeffs[0][0] -= total
    profiles = [sc.PiecewisePolynomial([0.0, 1.0], [c]) for c in coeffs]
    assume(not all(p.is_zero() for p in profiles))
    return sc.StarPotential(profiles)


@pytest.fixture
def op_eig(vstar, lam_neg):
    return sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=0.05)


@pytest.fixture
def op_scatter(vstar, lam_neg):
    return sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=0.1)


@pytest.fixture
def op_free(zero_potential, free_scaling):
    return sc.EpsOperator(potential=zero_potential, scaling=free_scaling, eps=0.1)


class TestGridAdmissibility:
    def test_coarse_step_rejected(self):
        with pytest.raises(GridTooCoarse):
            sc.DiscreteStarGraph(3, 40.0, 0.1)

    def test_short_truncation_rejected(self):
        with pytest.raises(GridTooCoarse):
            sc.DiscreteStarGraph(3, 1.0, 5e-3)

    def test_non_integral_ratio_rejected(self):
        with pytest.raises(GridTooCoarse):
            sc.DiscreteStarGraph(3, 2.0, 3e-3)

    def test_size_budget_rejected_before_assembly(self):
        with pytest.raises(GridTooCoarse, match="budget"):
            sc.DiscreteStarGraph(3, 40.0, 1e-5)

    def test_valid_grid(self):
        grid = sc.DiscreteStarGraph(3, 2.0, 5e-3)
        assert grid.m == 400

    def test_oracle_eigenvalue_propagates_guard(self, op_eig):
        with pytest.raises(GridTooCoarse):
            sc.oracle_eigenvalue(op_eig, L=40.0, h=0.1)


class TestDiscreteOperator:
    @pytest.mark.parametrize("k", [None, 1.0])
    def test_weighted_symmetry_to_rounding(self, op_scatter, k):
        # Dirichlet closure, and the Robin closure whose stiffness is
        # complex symmetric (not Hermitian)
        disc = build_discrete_operator(op_scatter, L=2.0, h=1e-2, k=k)
        dense = disc.dense_plain()
        weighted = disc.weights[:, None] * dense
        assert np.max(np.abs(weighted - weighted.T)) <= 1e-12 * np.max(np.abs(weighted))

    def test_symmetrized_form_matches_plain(self, op_scatter):
        disc = build_discrete_operator(op_scatter, L=2.0, h=1e-2)
        T, q = disc.symmetric_stiffness(), np.sqrt(disc.weights) * disc.values
        root = np.sqrt(disc.weights)
        sym = T.toarray() + disc.strength * np.outer(q, q)
        plain = np.diag(root) @ disc.dense_plain() @ np.diag(1.0 / root)
        np.testing.assert_allclose(sym, plain, atol=1e-9)


def _drawn_cubic_potential(n, seed=7):
    # one cubic per edge, coefficients uniform in [-1, 1], mean shifted to zero
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 4))
    coeffs[:, 0] -= np.sum(coeffs @ (1.0 / np.arange(1, 5))) / n
    cubic = sc.PiecewisePolynomial.from_global_coeffs
    return sc.StarPotential([cubic([((0.0, 1.0), list(c))]) for c in coeffs])


def _coo_stiffness(n, L, h, k=None):
    # the stiffness as first assembled: COO triplets converted to CSC
    m = round(L / h)
    p = m if k is not None else m - 1
    size = 1 + n * p
    inv_h = 1.0 / h
    diag = np.full(size, 2.0 * inv_h, dtype=float if k is None else complex)
    diag[0] = n * inv_h
    chain = np.arange(1, size - 1)
    chain = chain[chain % p != 0]
    first = 1 + p * np.arange(n)
    if k is not None:
        diag[p::p] = inv_h - 1j * k
    idx = np.arange(size)
    rows = np.concatenate([idx, chain, chain + 1, np.zeros(n, int), first])
    cols = np.concatenate([idx, chain + 1, chain, first, np.zeros(n, int)])
    data = np.concatenate([diag, np.full(2 * (chain.size + n), -inv_h)])
    return sp.csc_matrix((data, (rows, cols)), shape=(size, size))


def _assert_same_csc(actual, expected):
    for name in ("data", "indices", "indptr"):
        a, e = getattr(actual, name), getattr(expected, name)
        assert a.dtype == e.dtype and np.array_equal(a, e), name


class TestAssemblyBitIdentity:
    @pytest.mark.parametrize("k", [None, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("kind", ["vstar", "cubic"])
    def test_direct_csc_equals_coo_assembly(self, kind, n, k, lam_neg):
        if kind == "vstar":
            potential = sc.StarPotential.from_constants([1.0, -1.0] + [0.0] * (n - 2))
        else:
            potential = _drawn_cubic_potential(n)
        op = sc.EpsOperator(potential=potential, scaling=lam_neg, eps=0.1)
        disc = build_discrete_operator(op, L=2.0, h=1e-2, k=k)
        expected = _coo_stiffness(n, 2.0, 1e-2, k)
        _assert_same_csc(disc.stiffness, expected)
        d_inv = sp.diags(1.0 / np.sqrt(disc.weights))
        _assert_same_csc(disc.symmetric_stiffness(), (d_inv @ expected @ d_inv).tocsc())

    @pytest.mark.parametrize("shift", [4.0, -1.0])
    def test_solve_factorizes_the_assembled_shift(self, op_eig, shift, monkeypatch):
        # the matrix handed to SuperLU is S + shift W as sparse arithmetic
        # forms it; single-column panels round the last pivots of SuperLU's
        # order (the vertex among them) differently from the default panel
        # of 10, so the solve holds bit for bit to a single-column solve of
        # that matrix and to a few ulps of a default-panel one
        disc = build_discrete_operator(op_eig, L=2.0, h=1e-2)
        rhs = np.zeros((disc.weights.size, 2))
        rhs[0, 0] = rhs[7, 1] = 1.0
        K = (_coo_stiffness(3, 2.0, 1e-2) + shift * sp.diags(disc.weights)).tocsc()
        factorized = []

        def recording_splu(A, **kwargs):
            # a copy: solve writes S's diagonal back over A once SuperLU returns
            factorized.append(A.copy())
            return splu(A, **kwargs)

        monkeypatch.setattr(fd_mod, "splu", recording_splu)
        u = disc.solve(shift, rhs)
        (A,) = factorized
        _assert_same_csc(A, K)
        mvec, c = disc.weighted_vector, disc.strength
        for options, exact in (({"panel_size": 1}, True), ({}, False)):
            lu = splu(K, **options)
            base, z = lu.solve(rhs), lu.solve(mvec)
            rank_one = c * (mvec @ base) / (1.0 + c * (mvec @ z))
            expected = base - np.multiply.outer(z, rank_one)
            if exact:
                assert np.array_equal(u, expected)
            else:
                np.testing.assert_allclose(u, expected, rtol=0, atol=1e-14 * np.abs(u).max())

    @pytest.mark.parametrize("k", [None, 1.0])
    def test_solve_restores_the_borrowed_diagonal(self, op_eig, k):
        # the shift is written over S's diagonal for the factorization only:
        # the real Dirichlet and the complex Robin stiffness come back bit
        # for bit
        disc = build_discrete_operator(op_eig, L=2.0, h=1e-2, k=k)
        before = disc.stiffness.copy()
        rhs = np.zeros(disc.weights.size)
        rhs[7] = 1.0
        disc.solve(4.0 if k is None else -(k**2), rhs)
        _assert_same_csc(disc.stiffness, before)

    @pytest.mark.parametrize("k", [None, 1.0])
    def test_failed_factorization_restores_the_borrowed_diagonal(self, op_eig, k, monkeypatch):
        disc = build_discrete_operator(op_eig, L=2.0, h=1e-2, k=k)
        before = disc.stiffness.copy()

        def failing_splu(A, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(fd_mod, "splu", failing_splu)
        with pytest.raises(sc.SingularSystem, match="FD solve failed"):
            disc.solve(4.0, np.ones(disc.weights.size))
        _assert_same_csc(disc.stiffness, before)


class TestResolventColumnMemory:
    def test_numpy_peak_per_unknown(self):
        # tracemalloc sees numpy's arrays but not SuperLU's own workspace: on
        # the 47,998-unknown grid the column's arrays peak near 116 bytes per
        # unknown; a copy of the stiffness per solve would lift it to 144
        config = sc.load_config(BUNDLE_DIR / "vstar_resonant_neg.json")
        op = sc.EpsOperator(
            potential=config.build_potential(), scaling=config.build_scaling(), eps=0.05
        )
        tracemalloc.start()
        try:
            col = discrete_resolvent_column(op, 2.0, EdgeCoordinate(1, 0.7), L=40.0, h=2.5e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        unknowns = 1 + op.n * (col.x.size - 2)
        assert unknowns == 47_998
        assert peak / unknowns <= 125.0


class TestSecularRootMemory:
    def test_peak_rss_rise_on_the_spectrum_grid(self):
        # the 145,918-unknown h/2 grid of vstar_resonant_neg at eps = 2^-5:
        # single-column panels hold the rise near 37 MiB; SuperLU's default
        # panel of 10 columns in the first factorization lifts it to about
        # 71 MiB, and the COO assembly with that panel to about 77 MiB
        script = f"""
import resource
import scipy.sparse.linalg
import starcoupling as sc
from starcoupling.fdoracle import aligned_grid, discrete_eigenvalue

config = sc.load_config({str(BUNDLE_DIR / "vstar_resonant_neg.json")!r})
eps = 2.0**-5
op = sc.EpsOperator(
    potential=config.build_potential(), scaling=config.build_scaling(), eps=eps
)
L, h = aligned_grid(eps, 40.0, min(5e-3, eps / 10.0, 0.3 * eps**1.5))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert discrete_eigenvalue(op, L, h / 2.0) is not None
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024.0)
"""
        env = dict(os.environ)
        paths = [str(BUNDLE_DIR.parent / "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        # exec keeps the peak RSS of the process it replaces, so the measuring
        # interpreter is started from a bare one, not from this test process
        launcher = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", launcher, sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert float(done.stdout) <= 55.0


class TestOracleEigenvalue:
    def test_free_operator_has_none(self, op_free):
        assert sc.oracle_eigenvalue(op_free, L=10.0, h=1e-2) is None

    def test_resonant_matches_pole(self, op_eig):
        pole = sc.find_pole(op_eig)
        ev = sc.oracle_eigenvalue(op_eig, L=40.0, h=5e-3)
        assert ev is not None
        assert abs(ev - pole.eigenvalue) / abs(pole.eigenvalue) <= 1e-2

    def test_positive_coupling_has_none(self, vstar, lam_pos):
        op = sc.EpsOperator(potential=vstar, scaling=lam_pos, eps=0.05)
        assert sc.oracle_eigenvalue(op, L=40.0, h=5e-3) is None

    def test_richardson_second_order(self, op_eig):
        # steps chosen so the support endpoint eps = 0.05 sits on every grid
        e1 = discrete_eigenvalue(op_eig, L=20.0, h=1e-2)
        e2 = discrete_eigenvalue(op_eig, L=20.0, h=5e-3)
        e3 = discrete_eigenvalue(op_eig, L=20.0, h=2.5e-3)
        ratio = (e1 - e2) / (e2 - e3)
        assert 3.0 <= ratio <= 5.0

    def test_aligned_grid_snaps_support(self):
        from starcoupling.fdoracle import aligned_grid

        L, h = aligned_grid(0.0625, 40.0, 5e-3)
        assert h <= 5e-3
        assert abs(round(0.0625 / h) * h - 0.0625) < 1e-12
        assert abs(round(L / h) * h - L) < 1e-9

    def test_truncation_insensitivity(self, op_eig):
        e_short = discrete_eigenvalue(op_eig, L=20.0, h=1e-2)
        e_long = discrete_eigenvalue(op_eig, L=40.0, h=1e-2)
        # kappa ~ 0.88, so doubling L moves the eigenvalue by e^{-2 kappa L} scale
        assert abs(e_long - e_short) <= 1e-10

    @pytest.mark.parametrize("halve", [False, True])
    @pytest.mark.parametrize("eps", [2**-3, 2**-4])
    @pytest.mark.parametrize("name", ["vstar_resonant_neg", "vstar_nonresonant", "cubic"])
    def test_secular_root_matches_fresh_factorizations(self, name, eps, halve, lam_neg):
        # the reused column order must give the root of a fresh default
        # SuperLU factorization at every shift, to the last bit
        if name == "cubic":
            op = sc.EpsOperator(potential=_cubic_potential(), scaling=lam_neg, eps=eps)
        else:
            config = sc.load_config(BUNDLE_DIR / f"{name}.json")
            op = sc.EpsOperator(
                potential=config.build_potential(),
                scaling=config.build_scaling(),
                eps=eps,
            )
        L, h = aligned_grid(eps, 10.0, min(5e-3, eps / 10.0, 0.3 * eps**1.5))
        h = h / 2.0 if halve else h
        expected = _fresh_factorization_root(op, L, h)
        assert expected is not None
        assert discrete_eigenvalue(op, L, h) == expected

    def test_no_bound_state_factorizes_nothing(self, monkeypatch):
        # the O(N) sign shows g(-TAU_EIGEN) > 0 from q alone, so the grid is
        # never assembled, T never factorized, and its diagonal never located
        config = sc.load_config(BUNDLE_DIR / "vstar_resonant_pos.json")
        op = sc.EpsOperator(
            potential=config.build_potential(), scaling=config.build_scaling(), eps=2**-3
        )
        assert op.lambda_value / op.eps**3 < 0
        calls = []

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)

            monkeypatch.setattr(fd_mod, name, wrapper)

        for name in ("build_discrete_operator", "splu", "_diagonal_slots"):
            counting(name, getattr(fd_mod, name))
        L, h = aligned_grid(op.eps, 10.0, min(5e-3, op.eps / 10.0, 0.3 * op.eps**1.5))
        assert discrete_eigenvalue(op, L, h) is None
        assert discrete_eigenvalue(op, L, h / 2.0) is None
        assert calls == []

    def test_bound_state_grid_samples_the_potential_once(self, op_eig, monkeypatch):
        # the sign stage's sample is the one the grid is assembled with
        sampled = []
        sample = fd_mod._sampled_potential

        def counting(*args):
            sampled.append(args)
            return sample(*args)

        monkeypatch.setattr(fd_mod, "_sampled_potential", counting)
        assert discrete_eigenvalue(op_eig, L=10.0, h=1e-2) is not None
        assert len(sampled) == 1

    def test_unbounded_secular_bracket_raises(self, op_eig, monkeypatch):
        # a sign that stays negative doubles lo from -1 while 2 lo >= -1e12,
        # that is to -2^39, and the next doubling raises, before any assembly
        shifts, built = [], []

        def negative(grid, q, c, mu):
            shifts.append(mu)
            return -1

        monkeypatch.setattr(fd_mod, "_secular_sign", negative)
        monkeypatch.setattr(fd_mod, "build_discrete_operator", lambda *args: built.append(args))
        with pytest.raises(sc.SingularSystem, match="never changes sign"):
            discrete_eigenvalue(op_eig, L=10.0, h=1e-2)
        assert shifts == [-fd_mod.TAU_EIGEN] + [-(2.0**k) for k in range(40)]
        assert built == []

    def test_bracket_doubling_factorizes_only_its_last_end(self, monkeypatch):
        # the eigenvalue -1.62 lies below lo = -1: the O(N) sign doubles lo
        # to -2 without a factorization, and brentq reads g(-2) from SuperLU
        config = sc.load_config(BUNDLE_DIR / "vstar_nonresonant.json")
        op = sc.EpsOperator(
            potential=config.build_potential(), scaling=config.build_scaling(), eps=2**-4
        )
        L, h = aligned_grid(op.eps, 10.0, min(5e-3, op.eps / 10.0, 0.3 * op.eps**1.5))
        top = build_discrete_operator(op, L, h).symmetric_stiffness().diagonal().max()
        shifts = []

        def recording_splu(A, **kwargs):
            shifts.append(top - A.diagonal().max())
            return splu(A, **kwargs)

        monkeypatch.setattr(fd_mod, "splu", recording_splu)
        assert discrete_eigenvalue(op, L, h) == _fresh_factorization_root(op, L, h)
        assert shifts[0] == pytest.approx(-fd_mod.TAU_EIGEN, abs=1e-9)
        assert any(abs(mu + 2.0) < 1e-9 for mu in shifts)
        assert not any(abs(mu + 1.0) < 1e-9 for mu in shifts)

    @pytest.mark.parametrize("scaling", ["neg", "pos", "nonresonant"])
    def test_ambiguous_sign_falls_back_to_superlu(self, vstar, scaling, monkeypatch):
        # with an infinite margin no sign is trusted: every decision is
        # SuperLU's, as before the O(N) sign existed
        op = sc.EpsOperator(potential=vstar, scaling=SIGN_SCALINGS[scaling], eps=2**-4)
        L, h = aligned_grid(op.eps, 10.0, min(5e-3, op.eps / 10.0, 0.3 * op.eps**1.5))
        trusted = discrete_eigenvalue(op, L, h)
        calls = []

        def counting_splu(A, **kwargs):
            calls.append(kwargs.get("permc_spec"))
            return splu(A, **kwargs)

        monkeypatch.setattr(fd_mod, "SIGN_RTOL", math.inf)
        monkeypatch.setattr(fd_mod, "splu", counting_splu)
        disc = build_discrete_operator(op, L, h)
        q = np.sqrt(disc.weights) * disc.values
        assert fd_mod._secular_sign(disc.grid, q, op.lambda_value / op.eps**3, -1.0) == 0
        assert discrete_eigenvalue(op, L, h) == trusted == _fresh_factorization_root(op, L, h)
        assert calls[0] is None
        if trusted is None:
            assert calls == [None]

    @sign_examples
    @given(potential=drawn_potentials(), scaling=st.sampled_from(sorted(SIGN_SCALINGS)))
    def test_trusted_secular_sign_is_superlus(self, potential, scaling):
        _check_secular_signs(sc.EpsOperator(potential, SIGN_SCALINGS[scaling], eps=2**-3))

    @pytest.mark.parametrize("eps", [2**-3, 2**-4])
    @pytest.mark.parametrize("name", [*SHIPPED, "cubic"])
    def test_trusted_secular_sign_on_fixed_potentials(self, name, eps, lam_neg):
        if name == "cubic":
            op = sc.EpsOperator(potential=_cubic_potential(), scaling=lam_neg, eps=eps)
        else:
            config = sc.load_config(BUNDLE_DIR / f"{name}.json")
            op = sc.EpsOperator(
                potential=config.build_potential(), scaling=config.build_scaling(), eps=eps
            )
        _check_secular_signs(op)

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_permuted_matrix_is_scipys(self, op_eig, seed):
        # the matrix SuperLU sees from the second shift on is T[perm][:, perm]
        # with sorted indices, array for array, in SuperLU's column order or
        # any other
        T = build_discrete_operator(op_eig, 10.0, 1e-2).symmetric_stiffness()
        if seed is None:
            order = splu(T, panel_size=1).perm_c.copy()
        else:
            order = np.random.default_rng(seed).permutation(T.shape[0]).astype(np.int32)
        A, perm = fd_mod._permuted(T.copy(), order)
        np.testing.assert_array_equal(perm, order.argsort())
        expected = T[perm][:, perm]
        expected.sort_indices()
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(A, name), getattr(expected, name))

    def test_secular_root_factorizes_each_matrix_once(self, op_eig, monkeypatch):
        # per grid: one default-order factorization, and no matrix T - mu I
        # twice (its off-diagonal part is fixed, so the sorted diagonal
        # identifies it in either ordering)
        calls = []

        def counting_splu(A, **kwargs):
            diagonal = np.sort(A.diagonal()).tobytes()
            calls.append((A.shape[0], diagonal, kwargs.get("permc_spec")))
            return splu(A, **kwargs)

        monkeypatch.setattr(fd_mod, "splu", counting_splu)
        assert sc.oracle_eigenvalue(op_eig, L=10.0, h=5e-3) is not None
        sizes = {size for size, _, _ in calls}
        assert len(sizes) == 2
        assert sorted(size for size, _, spec in calls if spec is None) == sorted(sizes)
        assert len({(size, diagonal) for size, diagonal, _ in calls}) == len(calls)


def _cubic_potential():
    # three cubics on [0, 1]; the last constant term zeroes the total mean
    cubic = sc.PiecewisePolynomial.from_global_coeffs
    first = cubic([((0.0, 1.0), [1.0, 0.5, -1.0, 0.3])])
    second = cubic([((0.0, 1.0), [-1.0, 0.2, 0.6, -0.4])])
    rest = -(first.integral() + second.integral() - 0.5 / 2 + 0.8 / 3 - 0.3 / 4)
    third = cubic([((0.0, 1.0), [rest, -0.5, 0.8, -0.3])])
    return sc.StarPotential([first, second, third])


def _check_secular_signs(op):
    # the O(N) arrow form gives SuperLU's c q.x far inside the sign margin;
    # where the O(N) sign is trusted it is the sign of SuperLU's g, and
    # where |g| is far outside the margin, it is trusted
    c = op.lambda_value / op.eps**3
    if c >= 0:
        return
    L, h = aligned_grid(op.eps, 10.0, min(5e-3, op.eps / 10.0, 0.3 * op.eps**1.5))
    disc = build_discrete_operator(op, L, h)
    T, q = disc.symmetric_stiffness(), np.sqrt(disc.weights) * disc.values
    eye = sp.identity(T.shape[0], format="csc")
    for mu in [-fd_mod.TAU_EIGEN, -1.0, -2.0, -4.0, -8.0, -16.0]:
        cqx = c * float(q @ splu((T - mu * eye).tocsc()).solve(q))
        fast = c * fd_mod._arrow_form(disc.grid, q, mu)
        assert abs(fast - cqx) <= 1e-11 * (1.0 + abs(cqx)), (mu, fast, cqx)
        g = 1.0 + cqx
        sign = fd_mod._secular_sign(disc.grid, q, c, mu)
        assert sign in (0, np.sign(g)), (mu, g)
        if abs(g) > 1e-6 * (1.0 + abs(g - 1.0)):
            assert sign == np.sign(g), (mu, g)


def _fresh_factorization_root(op, L, h, tau_e=fd_mod.TAU_EIGEN):
    # the secular root with a fresh default SuperLU factorization per shift
    disc = build_discrete_operator(op, L, h)
    T, q = disc.symmetric_stiffness(), np.sqrt(disc.weights) * disc.values
    c = op.lambda_value / op.eps**3
    if c >= 0 or not np.any(q):
        return None
    eye = sp.identity(T.shape[0], format="csc")

    def g(mu):
        return 1.0 + c * float(q @ splu((T - mu * eye).tocsc()).solve(q))

    if g(-tau_e) >= 0:
        return None
    lo = -max(1.0, 4.0 * tau_e)
    while g(lo) <= 0:
        lo *= 2.0
    return float(brentq(g, lo, -tau_e, xtol=1e-13, rtol=4.0 * np.finfo(float).eps))


class TestOracleResolventColumn:
    def test_free_column_matches_kernel(self, op_free):
        col = sc.oracle_resolvent_column(op_free, 1.0, EdgeCoordinate(1, 0.7), L=20.0, h=5e-3)
        kernel = sc.FreeKernel(3, 1.0)
        worst = 0.0
        for j in (1, 2, 3):
            exact = kernel.on_grid(1, j, np.array([0.7]), col.x)[0].real
            worst = max(worst, float(np.max(np.abs(col.values[j - 1] - exact))))
        assert worst <= 5e-4

    def test_eps_column_matches_kernel_off_diagonal(self, op_scatter):
        kappa = 2.0
        col = sc.oracle_resolvent_column(
            op_scatter, kappa, EdgeCoordinate(1, 0.7), L=20.0, h=5e-3
        )
        ek = sc.EpsKernel(op_scatter, kappa)
        worst = 0.0
        for j in (1, 2, 3):
            exact = ek.on_grid(1, j, np.array([0.7]), col.x)[0].real
            diff = np.abs(col.values[j - 1] - exact)
            if j == 1:
                diff = diff[np.abs(col.x - 0.7) >= 0.1]
            worst = max(worst, float(np.max(diff)))
        assert worst <= 1e-3

    def test_source_observer_symmetry(self, op_scatter):
        h = 5e-3
        a = sc.oracle_resolvent_column(op_scatter, 1.0, EdgeCoordinate(1, 0.5), L=20.0, h=h)
        b = sc.oracle_resolvent_column(op_scatter, 1.0, EdgeCoordinate(2, 0.8), L=20.0, h=h)
        ia, ib = round(0.5 / h), round(0.8 / h)
        assert a.values[1][ib] == pytest.approx(b.values[0][ia], abs=1e-10)

    def test_source_snaps_to_grid(self, op_free):
        col = sc.oracle_resolvent_column(
            op_free, 1.0, EdgeCoordinate(1, 0.7004), L=20.0, h=5e-3
        )
        assert col.x[140] == pytest.approx(0.7)


class TestOracleSMatrix:
    def test_free_is_kirchhoff(self, op_free):
        s = sc.oracle_smatrix(op_free, 1.0, L=2.0, h=5e-3)
        expected = (2.0 / 3.0) * np.ones((3, 3)) - np.eye(3)
        assert np.max(np.abs(s.entries - expected)) <= 1e-6

    def test_matches_fredholm_route(self, op_scatter):
        s_fd = sc.oracle_smatrix(op_scatter, 1.0, L=2.0, h=5e-3)
        s_an = sc.smatrix_eps(op_scatter, 1.0)
        assert np.max(np.abs(s_fd.entries - s_an.entries)) <= 1e-3

    @pytest.mark.parametrize("h", [5e-3, 2.5e-3])
    @pytest.mark.parametrize("k", [0.5, 1.0, 5.0])
    @pytest.mark.parametrize("eps", [0.1, 0.05])
    @pytest.mark.parametrize("name", SHIPPED)
    def test_single_grid_reciprocity_and_unitarity(self, name, eps, k, h):
        # the discrete problem is complex symmetric with a real potential,
        # so its S-matrix is symmetric and unitary up to solver rounding
        config = sc.load_config(BUNDLE_DIR / f"{name}.json")
        op = sc.EpsOperator(
            potential=config.build_potential(), scaling=config.build_scaling(), eps=eps
        )
        s = discrete_smatrix(op, k, 2.0, h).entries
        assert np.max(np.abs(s - s.T)) <= 1e-13
        assert np.max(np.abs(s.conj().T @ s - np.eye(op.n))) <= 1e-12

    def test_rejects_nonpositive_momentum(self, op_scatter):
        with pytest.raises(ValueError):
            sc.oracle_smatrix(op_scatter, -1.0, L=2.0, h=5e-3)
