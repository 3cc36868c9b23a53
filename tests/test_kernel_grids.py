"""Resolvent kernel grids and the Hilbert-Schmidt distance built from them."""

import math
import tracemalloc

import numpy as np
import pytest

import starcoupling as sc
import starcoupling.epsilon as eps_mod
import starcoupling.experiments as ex
from starcoupling import EpsKernel, FreeKernel, LimitKernel, PiecewisePolynomial, StarPotential
from starcoupling.quadrature import QuadratureRule

EPS = 2**-3


def _drawn_constants(n, seed=7):
    # n constant profiles uniform in [-1, 1], shifted to zero total mean
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    return StarPotential.from_constants(list(values - values.mean()))


def _drawn_cubics(n, seed=11):
    # n cubics on [0, 1], coefficients uniform in [-1, 1], the constant terms
    # shifted equally so that the total mean is zero
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 4))
    coeffs[:, 0] -= np.sum(coeffs @ (1.0 / np.arange(1, 5))) / n
    return StarPotential(
        [PiecewisePolynomial.from_global_coeffs([((0.0, 1.0), list(c))]) for c in coeffs]
    )


def _grid(kc, xs, ys):
    return np.exp(1j * kc * (xs[:, None] + ys[None, :]))


def _free_terms(kc, i, j, xs, ys, n):
    # the free kernel's direct and reflected terms as full 2-d exponentials
    delta = 1.0 if i == j else 0.0
    pref = 1j / (2.0 * kc)
    direct = pref * delta * np.exp(1j * kc * np.abs(xs[:, None] - ys[None, :]))
    return [direct, pref * (2.0 / n - delta) * _grid(kc, xs, ys)]


XS = np.concatenate([EPS * np.linspace(0.0, 1.0, 9), np.linspace(0.2, 4.0, 15)])
YS = np.concatenate([EPS * np.linspace(0.05, 0.95, 7), np.linspace(0.0, 6.0, 11)])


@pytest.fixture(params=[2, 3, 5], scope="module")
def op(request):
    return sc.EpsOperator(
        potential=_drawn_constants(request.param),
        scaling=sc.ScalingFunction(lambda1=-1.0, resonant=True),
        eps=EPS,
    )


def _kernels(op, kappa):
    return FreeKernel(op.n, kappa), LimitKernel(op.constants, kappa), EpsKernel(op, kappa)


def _reference_terms(op, kernel, kappa, i, j, xs, ys):
    kc = 1j * kappa
    terms = _free_terms(kc, i, j, xs, ys, op.n)
    if isinstance(kernel, LimitKernel):
        lam = sc.lambda_matrix(kappa, op.constants)
        terms.append(lam[i - 1, j - 1] * _grid(kc, xs, ys))
    elif isinstance(kernel, EpsKernel):
        z = sc.zeta(op, kappa)
        fi = sc.rank_one_factor(op, kappa, i, xs)
        fj = sc.rank_one_factor(op, kappa, j, ys)
        terms.append(-z * np.outer(fi, fj))
    return terms


class TestKernelGrids:
    @pytest.mark.parametrize("kappa", [0.3, 1.0, 5.0])
    def test_outer_product_grids_match_2d_exponentials(self, op, kappa):
        # relative to the size of the terms both forms round: where the limit
        # kernel's reflected and rank-one terms nearly cancel (n = 2 at
        # kappa = 5, n = 5 at kappa = 0.3) the 2-d form itself is 1.3e-14
        # from the exact value, relative to the result, and the folded
        # coefficient 4e-15
        for kernel in _kernels(op, kappa):
            for i in range(1, op.n + 1):
                for j in range(1, op.n + 1):
                    terms = _reference_terms(op, kernel, kappa, i, j, XS, YS)
                    gap = kernel.on_grid(i, j, XS, YS) - sum(terms)
                    assert np.max(np.abs(gap)) <= 1e-14 * np.max(sum(map(np.abs, terms)))

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_grids_are_real_float64(self, op, seed):
        # at k = i kappa every kernel is real: no complex array on any pair
        rng = np.random.default_rng(seed)
        kappa = rng.uniform(0.1, 10.0)
        xs, ys = rng.uniform(0.0, 4.0, 9), rng.uniform(0.0, 4.0, 6)
        xs[:3] = EPS * rng.uniform(0.0, 1.0, 3)
        for kernel in _kernels(op, kappa):
            for i in range(1, op.n + 1):
                for j in range(1, op.n + 1):
                    grid = kernel.on_grid(i, j, xs, ys)
                    assert grid.dtype == np.float64
                    assert grid.shape == (xs.size, ys.size)

    @pytest.mark.parametrize("kappa", [0.3, 1.0, 5.0])
    def test_swap_symmetry(self, op, kappa):
        # K_ij(x, y) = K_ji(y, x): hs_distance folds the pairs i > j onto i < j
        for kernel in _kernels(op, kappa):
            for i in range(1, op.n + 1):
                for j in range(i, op.n + 1):
                    a = kernel.on_grid(i, j, XS, YS)
                    b = kernel.on_grid(j, i, YS, XS).T
                    assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(a))

    def test_stacked_grids_equal_1d_calls(self, op):
        # leading axes broadcast: each grid of a stacked call is the 1-d call's, bit for bit
        rng = np.random.default_rng(9)
        xs, ys = rng.uniform(0.0, 4.0, (3, 9)), rng.uniform(0.0, 4.0, (3, 6))
        xs[:, :4] = EPS * rng.uniform(0.0, 1.0, (3, 4))
        for stacked, single in zip(_kernels(op, 1.7), _kernels(op, 1.7)):
            for i in range(1, op.n + 1):
                for j in range(1, op.n + 1):
                    grids = stacked.on_grid(i, j, xs, ys)
                    assert grids.shape == (3, 9, 6)
                    for m in range(3):
                        assert np.array_equal(grids[m], single.on_grid(i, j, xs[m], ys[m]))

    def test_limit_kernel_rejects_bad_edge(self, op):
        with pytest.raises(ValueError):
            LimitKernel(op.constants, 1.0).on_grid(op.n + 1, 1, XS, YS)


def _unit_panel_breaks(profile, eps, L):
    # unit panels over the whole window [0, L], split at eps and at the
    # scaled breakpoints: no use of the far-field form of the difference
    pts = [0.0, min(eps, L), 1.0] + [float(t) for t in range(2, math.ceil(L))] + [L]
    pts += [eps * t for t in profile.breakpoints if 0.0 < eps * t < L]
    return np.array(sorted({p for p in pts if 0.0 <= p <= L}))


def _hs_all_pairs(op, kappa):
    # every one of the n^2 edge pairs on unit panels over all of [0, L]^2
    eps_kernel = EpsKernel(op, kappa)
    lim_kernel = LimitKernel(op.constants, kappa)
    L = 1.0 + 8.0 / kappa
    rule = QuadratureRule(order=ex.HS_PANEL_ORDER)
    grids = []
    for profile in op.potential.profiles:
        breaks = _unit_panel_breaks(profile, op.eps, L)
        cells = [rule.points(a, b) for a, b in zip(breaks[:-1], breaks[1:])]
        grids.append(tuple(np.concatenate(part) for part in zip(*cells)))
    total = 0.0
    for i, (xi, wi) in enumerate(grids, start=1):
        for j, (yj, wj) in enumerate(grids, start=1):
            diff = eps_kernel.on_grid(i, j, xi, yj) - lim_kernel.on_grid(i, j, xi, yj)
            total += float(np.sum(wi[:, None] * wj[None, :] * np.abs(diff) ** 2))
    return math.sqrt(total)


def _tail_with_own_zeta(op, kappa):
    b = eps_mod.smeared_factor_coefficients(op, kappa)
    z = sc.zeta(op, kappa)
    lam = sc.lambda_matrix(kappa, op.constants)
    E = z * (op.eps / (2.0 * kappa)) ** 2 * np.outer(b, b) + lam
    L = 1.0 + 8.0 / kappa
    tail_sq = float(np.sum(E**2)) * math.exp(-2.0 * kappa * L) / (2.0 * kappa**2)
    return tail_sq * 1.001


@pytest.fixture(params=["vstar", "bumpy_potential", "drawn_n5"])
def hs_potential(request):
    if request.param == "drawn_n5":
        return _drawn_cubics(5)
    return request.getfixturevalue(request.param)


class TestHSDistance:
    @pytest.mark.parametrize("eps", [2**-3, 2**-5])
    def test_pair_fold_equals_all_pairs(self, hs_potential, lam_neg, eps):
        op = sc.EpsOperator(potential=hs_potential, scaling=lam_neg, eps=eps)
        value, tail = sc.hs_distance(op, 1.0)
        full = _hs_all_pairs(op, 1.0)
        assert abs(value - full) <= 1e-13 * full
        assert tail == _tail_with_own_zeta(op, 1.0)

    def test_grid_size_independent_of_kappa(self, vstar, lam_neg, monkeypatch):
        op = sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=EPS)
        sizes, factor_calls = {}, []
        on_grid = LimitKernel.on_grid
        factor = eps_mod.rank_one_factor

        def spy_factor(*args, **kwargs):
            factor_calls.append(args)
            return factor(*args, **kwargs)

        monkeypatch.setattr(eps_mod, "rank_one_factor", spy_factor)
        for kappa in (1e-3, 1.0, 30.0):
            grids = sizes.setdefault(kappa, [])

            def spy_grid(self, i, j, xs, ys, grids=grids):
                grids.append((np.size(xs), np.size(ys)))
                return on_grid(self, i, j, xs, ys)

            monkeypatch.setattr(LimitKernel, "on_grid", spy_grid)
            factor_calls.clear()
            value, _ = sc.hs_distance(op, kappa)
            assert math.isfinite(value)
            # one call per pair i <= j, and the pairs share one factor per edge:
            # one call for the two edges on [0, 1], one for the zero edge
            assert len(grids) == op.n * (op.n + 1) // 2
            assert [list(call[2]) for call in factor_calls] == [[1, 2], [3]]
        # 16 Gauss nodes plus the anchor on each supported edge, the anchor
        # alone on the zero edge, at every kappa
        assert sizes[1e-3] == sizes[1.0] == sizes[30.0]
        assert sizes[1.0] == [(17, 17), (17, 17), (17, 1), (17, 17), (17, 1), (1, 1)]

    def test_ladder_of_a_tiny_end_piece_equals_single_members(self, lam_neg):
        # a piece of width 1e-11 at the support's end is a panel of its own at every eps, also
        # where its scaled width is below BREAK_MARGIN (eps = 2^-12): the breakpoints are merged
        # unscaled, so the ladder's grids keep one size, and its one stacked pass returns each
        # member's values in ladder order
        def potential():
            pieces = [((0.0, 1.0 - 1e-11), [1.0]), ((1.0 - 1e-11, 1.0), [2.0])]
            profiles = [PiecewisePolynomial.from_global_coeffs(pieces)]
            profiles.append(PiecewisePolynomial.from_global_coeffs([((0.0, 1.0), [-1.0 - 1e-11])]))
            return StarPotential(profiles + [PiecewisePolynomial.zero()])

        ladder = [0.5, 2**-12, 0.3, 2**-13]
        shared = potential()
        sizes = [ex._hs_grid(shared.profiles[0], eps, 1.0, 9.0)[0].size for eps in ladder]
        assert sizes == [33, 33, 33, 33]
        members = [sc.EpsOperator(shared, lam_neg, eps) for eps in ladder]
        single = [sc.hs_distance(sc.EpsOperator(potential(), lam_neg, eps), 1.0) for eps in ladder]
        assert np.array_equal(sc.hs_distance(members, 1.0), single)

    def test_ladder_builds_one_limit_kernel(self, vstar, lam_neg, monkeypatch):
        # the limit kernel does not depend on eps: one per call, and one on_grid call per
        # edge pair i <= j covers every rung
        built, grids = [], []

        class Spy(LimitKernel):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

            def on_grid(self, i, j, xs, ys):
                grids.append(np.shape(xs))
                return super().on_grid(i, j, xs, ys)

        monkeypatch.setattr(ex, "LimitKernel", Spy)
        ladder = [2**-3, 2**-4, 2**-5, 2**-6]
        sc.hs_distance([sc.EpsOperator(vstar, lam_neg, eps) for eps in ladder], 1.0)
        assert len(built) == 1
        assert len(grids) == vstar.n * (vstar.n + 1) // 2
        assert all(shape[0] == len(ladder) for shape in grids)

    def test_memory_bounded_at_small_kappa(self, vstar, lam_neg):
        # the grids cover the scaled support only, whatever L = 1 + 8/kappa
        op = sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=EPS)
        tracemalloc.start()
        try:
            value, _ = sc.hs_distance(op, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(value)
        assert peak <= 2**20
