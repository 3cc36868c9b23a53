"""Experiment orchestration: constants, spectra, convergence rates, oracle.

Each command produces a uniform row set (columns quantity, epsilon, k,
kappa, value, error, tail_bound; unused fields empty) plus a JSON-able
summary. Identical configurations produce bit-identical output: quadrature
orders and solver sequences are fixed and nothing here draws random
numbers.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .epsilon import (
    EpsKernel,
    EpsOperator,
    certify_ladder,
    find_pole,
    pole_asymptotic,
    shared_constants,
    smeared_factor_coefficients,
)
from .errors import ConfigError
from .fdoracle import (
    aligned_grid,
    oracle_eigenvalue,
    oracle_resolvent_column,
    oracle_smatrix,
)
from .graph import (
    EdgeCoordinate,
    ScalingFunction,
    StarPotential,
    boundary_matrices,
    check_selfadjoint,
    coupling_constants,
)
from .limit import (
    FreeKernel,
    LimitKernel,
    lambda_matrix,  # unused here, but perfbench traces this binding
    limit_point_spectrum,
    smatrix_limit,
)
from .piecewise import PiecewisePolynomial
from .quadrature import QuadratureRule, merge_breaks
from .scattering import smatrix_eps

CSV_COLUMNS = ("quantity", "epsilon", "k", "kappa", "value", "error", "tail_bound")


def ProcessPoolExecutor(max_workers):
    """``concurrent.futures.ProcessPoolExecutor``, imported by the first parallel sweep."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(error) against log(eps)."""

    quantity: str
    pairs: tuple
    slope: float
    intercept: float
    r_squared: float


def fit_rate(quantity, eps_values, errors):
    """Fit error ~ C * eps^slope by least squares in log-log coordinates."""
    if len(eps_values) < 4:
        raise ValueError("rate fits need at least 4 points")
    if any(e <= 0 for e in errors):
        raise ValueError("rate fits need positive errors")
    x = np.log(np.asarray(eps_values, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(
        quantity=quantity,
        pairs=tuple(zip(map(float, eps_values), map(float, errors))),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
    )


@dataclass
class Report:
    """Result bundle of one command: uniform rows plus a JSON summary."""

    command: str
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    passed: bool = True


def _row(quantity, epsilon=None, k=None, kappa=None, value=None, error=None, tail=None):
    return dict(zip(CSV_COLUMNS, (quantity, epsilon, k, kappa, value, error, tail)))


def _fmt(cell):
    if cell is None:
        return ""
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)


def write_report(report, out_dir):
    """Write <command>.csv and <command>_summary.json under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{report.command}.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
    json_path = out / f"{report.command}_summary.json"
    json_path.write_text(json.dumps(report.summary, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path


# ---------------------------------------------------------------------------
# Hilbert-Schmidt distance between the finite-eps and limit resolvents
# ---------------------------------------------------------------------------

#: Gauss-Legendre order per panel of the Hilbert-Schmidt grid
HS_PANEL_ORDER = 16


def _hs_grid(profile, eps, kappa, L):
    """One edge's nodes and weights: Gauss panels on the scaled support
    [0, a], split at the scaled breakpoints (none for a zero profile, a = 0),
    and an anchor node at a weighted by the integral of e^{-2 kappa (x - a)}
    over [a, L]."""
    a = 0.0 if profile.is_zero() else eps * profile.support[1]
    breaks = merge_breaks(0.0, a, eps * profile.breakpoints)[:, None]
    x, w = QuadratureRule(order=HS_PANEL_ORDER).points(breaks[:-1], breaks[1:])
    anchor = -math.expm1(-2.0 * kappa * (L - a)) / (2.0 * kappa)
    return np.append(x.ravel(), a), np.append(w.ravel(), anchor)


def hs_distance(op, kappa):
    """Truncated Hilbert-Schmidt distance between the two resolvent kernels.

    Integrates |difference|^2 over [0, L]^2 per edge pair, L = 1 + 8/kappa,
    and returns the closed-form bound on the omitted remainder of the
    squared integral alongside the distance. Beyond the scaled support
    [0, a_i] of edge i the free parts cancel and the rank-one parts are
    exact multiples of e^{-kappa x}, so diff(x, y) = e^{-kappa (x - a_i)}
    diff(a_i, y): each edge's grid is Gauss panels on [0, a_i] plus one
    anchor node at a_i carrying [a_i, L] exactly, its size independent of
    kappa. Both kernels satisfy K_ij(x, y) = K_ji(y, x), so only the pairs
    i <= j are integrated and each off-diagonal one counts twice.

    The distance scales like sqrt(eps), not eps: the limit kernel jumps at
    the vertex while the finite-eps kernel is continuous there, so an O(1)
    mismatch survives on a boundary layer of width eps and the squared
    integral is O(eps). Off the scaled support the difference is
    E_ij e^{-kappa(x+y)} with a coefficient matrix E that is O(eps).
    """
    eps_kernel = EpsKernel(op, kappa)
    key = (LimitKernel, op.scaling, kappa)  # it does not depend on eps: one per command
    lim_kernel = op.potential.shared(key, lambda: LimitKernel(op.constants, kappa))
    L = 1.0 + 8.0 / kappa
    grids = [_hs_grid(p, op.eps, kappa, L) for p in op.potential.profiles]

    total = 0.0
    for i, (x, wx) in enumerate(grids, start=1):
        for j, (y, wy) in enumerate(grids[i - 1 :], start=i):
            diff = eps_kernel.on_grid(i, j, x, y) - lim_kernel.on_grid(i, j, x, y)
            pair = float(np.sum(wx[:, None] * wy[None, :] * diff**2))
            total += pair if i == j else 2.0 * pair

    # far-field coefficients are exact: diff = E_ij e^{-kappa(x+y)} there
    b = smeared_factor_coefficients(op, kappa)
    E = eps_kernel.zeta * (op.eps / (2.0 * kappa)) ** 2 * np.outer(b, b) + lim_kernel.lam
    tail_sq = float(np.sum(E**2)) * math.exp(-2.0 * kappa * L) / (2.0 * kappa**2)
    tail_sq *= 1.001  # headroom over the 1e-10-certified quadrature factors
    return math.sqrt(total), tail_sq


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_constants(config):
    """Derived constants, boundary matrices, and the self-adjointness verdict.

    The rows flatten the summary: theta_i, A, B, beta, Pi_i_j, then
    boundary_A_i_j and boundary_B_i_j per (i, j), then selfadjoint.
    """
    cc = coupling_constants(config.potential, config.scaling)
    bp = boundary_matrices(cc.theta, cc.beta)
    summary = {
        "n": cc.n,
        "theta": [float(t) for t in cc.theta],
        "A": cc.A,
        "B": cc.B,
        "beta": cc.beta,
        "Pi": cc.Pi.tolist(),
        "boundary_A": bp.Amat.tolist(),
        "boundary_B": bp.Bmat.tolist(),
        "selfadjoint": check_selfadjoint(bp),
    }
    pairs = list(itertools.product(range(cc.n), repeat=2))
    rows = [_row(f"theta_{i}", value=t) for i, t in enumerate(summary["theta"], start=1)]
    rows += [_row(name, value=summary[name]) for name in ("A", "B", "beta")]
    rows += [_row(f"Pi_{i + 1}_{j + 1}", value=summary["Pi"][i][j]) for i, j in pairs]
    rows += [
        _row(f"{name}_{i + 1}_{j + 1}", value=summary[name][i][j])
        for i, j in pairs
        for name in ("boundary_A", "boundary_B")
    ]
    rows.append(_row("selfadjoint", value=float(summary["selfadjoint"])))
    return Report(command="constants", rows=rows, summary=summary)


def _member(config, eps, free=False):
    """The family member at eps with the configured quadrature order, on the
    config's one potential and scaling; with ``free``, the zero potential at
    unit non-resonant scaling instead."""
    if free:
        potential = StarPotential([PiecewisePolynomial.zero() for _ in range(config.n)])
        scaling = ScalingFunction(lambda1=1.0, resonant=False, lambda0=1.0)
    else:
        potential, scaling = config.potential, config.scaling
    return EpsOperator(potential, scaling, eps, QuadratureRule(order=config.quad_order))


def _sweep(one_eps, config, parallel):
    """one_eps(config, eps) for every eps of the ladder, in ladder order;
    with ``parallel`` > 1 in worker processes, at most one per eps."""
    if parallel > 1:
        workers = min(parallel, len(config.epsilons))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one_eps, itertools.repeat(config), config.epsilons))
    return [one_eps(config, eps) for eps in config.epsilons]


def _spectrum_one_eps(config, eps):
    op = _member(config, eps)
    predictor = pole_asymptotic(op)
    pole = find_pole(op)
    # the discrete oracle must resolve the scaled support (>= 10 cells) and
    # track the eps^3-amplified stiffness of the rank-one term: the
    # eigenvalue error constant scales like h^2/eps^3, so h ~ eps^(3/2)
    # keeps the (h, h/2) pair inside the Richardson regime on the ladder
    h_target = min(config.oracle["h"], eps / 10.0, 0.3 * eps**1.5)
    L_fd, h_fd = aligned_grid(eps, config.oracle["L"], h_target)
    fd = oracle_eigenvalue(op, L=L_fd, h=h_fd)
    return predictor, pole, fd


def cmd_spectrum(config, parallel=1):
    """Limit eigenvalue, per-eps root-found pole, predictor, and FD oracle."""
    cc = shared_constants(config.potential, config.scaling)
    limit_ev = limit_point_spectrum(cc)
    results = _sweep(_spectrum_one_eps, config, parallel)

    report = Report(command="spectrum")
    report.rows.append(_row("eigenvalue_limit", value=limit_ev))
    entries = []
    for eps, (predictor, pole, fd) in zip(config.epsilons, results):
        kappa = ev = err = fd_err = None
        if pole is not None:
            kappa, ev = pole.kappa, pole.eigenvalue
            if limit_ev is not None:
                err = abs(ev - limit_ev)
            if fd is not None:
                fd_err = abs(fd - ev)
        rows = [
            _row("kappa_predictor", epsilon=eps, value=predictor),
            _row("kappa_root", epsilon=eps, kappa=kappa, value=kappa),
            _row("eigenvalue", epsilon=eps, kappa=kappa, value=ev, error=err),
            _row("eigenvalue_fd", epsilon=eps, value=fd, error=fd_err),
        ]
        report.rows += rows
        entries.append(
            {
                "epsilon": eps,
                **{r["quantity"]: r["value"] for r in rows},
                # whether the pole search and the FD oracle agree that a
                # bound state exists at this eps
                "bound_state_agrees": (pole is None) == (fd is None),
            }
        )
    report.summary = {
        "eigenvalue_limit": limit_ev,
        "note": "no eigenvalue" if limit_ev is None else "bound state present",
        "per_epsilon": entries,
    }
    return report


def _converge_one_eps(config, eps):
    op = _member(config, eps)
    distance, tail = hs_distance(op, config.kappa)
    hs = dict(epsilon=eps, kappa=config.kappa, value=distance, error=distance, tail=tail)
    rows = [_row("hs_distance", **hs)]
    # all momenta in one scattering call, and their 2-norms in one more: the gufunc takes
    # each matrix of the stack as it takes a single one; the potential keeps the limit stack
    key = (smatrix_limit, op.scaling, config.momenta)
    limit = op.potential.shared(
        key, lambda: np.stack([smatrix_limit(k, op.constants).entries for k in config.momenta])
    )
    errors = np.linalg.norm(smatrix_eps(op, np.array(config.momenta)).entries - limit, 2, (1, 2))
    for k, err in zip(config.momenta, errors.tolist()):
        rows.append(_row("smatrix_error", epsilon=eps, k=k, value=err, error=err))
    return rows


def cmd_converge(config, parallel=1):
    """Distances to the limit objects per eps plus log-log rate fits. Serially, every
    rung's c-only integrals are checked first, one batch per kind (``certify_ladder``)."""
    if len(config.epsilons) < 4:
        raise ConfigError("convergence study needs at least 4 eps values")
    report = Report(command="converge")
    if parallel <= 1:
        op = _member(config, config.epsilons[0])
        certify_ladder(op, config.epsilons, config.momenta, config.kappa)
    for chunk in _sweep(_converge_one_eps, config, parallel):
        report.rows.extend(chunk)

    fits = []
    quantities = [("hs_distance", None)] + [
        (f"smatrix_error_k_{k}", k) for k in config.momenta
    ]
    for name, k in quantities:
        base = "hs_distance" if k is None else "smatrix_error"
        pairs = [
            (r["epsilon"], r["error"])
            for r in report.rows
            if r["quantity"] == base and (k is None or r["k"] == k)
        ]
        errors = [p[1] for p in pairs]
        if min(errors) <= 1e-14:
            # identically vanishing distances (e.g. zero potential): no rate
            fits.append({"quantity": name, "degenerate": True, "max_error": max(errors)})
        else:
            fits.append(asdict(fit_rate(name, [p[0] for p in pairs], errors)))
    report.summary = {
        "kappa": config.kappa,
        "momenta": list(config.momenta),
        "epsilons": list(config.epsilons),
        "rate_fits": fits,
        "max_tail_bound": max(
            r["tail_bound"] for r in report.rows if r["tail_bound"] is not None
        ),
    }
    return report


#: the oracle's checks in report order: name, CSV quantity, tolerance key
_ORACLE_CHECKS = (
    ("eigenvalue", "oracle_eigenvalue_rel_error", "oracle_eigenvalue_rel"),
    ("free_column", "oracle_free_column_sup_error", "oracle_free_column_sup"),
    ("eps_column", "oracle_eps_column_sup_error", "oracle_eps_column_sup"),
    ("smatrix", "oracle_smatrix_max_error", "oracle_smatrix_abs"),
)


def _column_error(col, kernel, source, cutoff):
    """Largest deviation of an FD resolvent column from the exact kernel,
    leaving out the points of the source edge within ``cutoff`` of the source."""
    err = 0.0
    for j in range(1, len(col.values) + 1):
        exact = kernel.on_grid(source.edge, j, np.array([source.x]), col.x)[0]
        diff = np.abs(col.values[j - 1] - exact)
        if j == source.edge:
            diff = diff[np.abs(col.x - source.x) >= cutoff]
        err = max(err, float(np.max(diff)))
    return err


def cmd_oracle(config):
    """Cross-validate analytic routes against the finite-difference oracle."""
    oracle = config.oracle
    eps_eig, eps_s = oracle["epsilon_eigenvalue"], oracle["epsilon_smatrix"]
    L, h = oracle["L"], oracle["h"]
    source = EdgeCoordinate(oracle["resolvent_source_edge"], oracle["resolvent_source_x"])

    # the FD columns vanish at x = L, where the free column's error is the
    # exact kernel itself: when that exceeds its tolerance, L is too short
    # for kappa and no grid can pass the check
    kernel = FreeKernel(config.n, config.kappa)
    at_L = abs(kernel.on_grid(source.edge, source.edge, [source.x], [L])[0, 0])
    tol = config.tolerances["oracle_free_column_sup"]
    if at_L > tol:
        raise ConfigError(
            f"oracle L = {L:g} is too short for kappa = {config.kappa:g}: the free "
            f"column's exact value at x = L is {at_L:.4g}, above "
            f"oracle_free_column_sup = {tol:g}"
        )

    # bound-state eigenvalue; no pole and no discrete bound state agree
    op_eig = _member(config, eps_eig)
    pole = find_pole(op_eig)
    L_eig, h_eig = aligned_grid(eps_eig, L, h)
    fd_ev = oracle_eigenvalue(op_eig, L=L_eig, h=h_eig)
    agree = (pole is None) == (fd_ev is None)
    eig_err = None
    if pole is not None and fd_ev is not None:
        eig_err = abs(fd_ev - pole.eigenvalue) / abs(pole.eigenvalue)

    # free resolvent column against the closed-form kernel
    op_free = _member(config, eps_s, free=True)
    col = oracle_resolvent_column(op_free, config.kappa, source, L=L, h=h)
    free_err = _column_error(col, kernel, source, cutoff=0.0)

    # finite-eps resolvent column (kappa away from the bound-state pole)
    col_kappa = oracle["resolvent_kappa"]
    op_s = _member(config, eps_s)
    col = oracle_resolvent_column(op_s, col_kappa, source, L=L, h=h)
    eps_err = _column_error(col, EpsKernel(op_s, col_kappa), source, cutoff=0.1)

    # scattering matrix
    k = oracle["smatrix_k"]
    s_fd = oracle_smatrix(op_s, k, L=oracle["L_scattering"], h=h)
    s_an = smatrix_eps(op_s, k)
    s_err = float(np.max(np.abs(s_fd.entries - s_an.entries)))

    measured = (
        (eig_err, {"epsilon": eps_eig}),
        (free_err, {"kappa": config.kappa}),
        (eps_err, {"epsilon": eps_s, "kappa": col_kappa}),
        (s_err, {"epsilon": eps_s, "k": k}),
    )
    report = Report(command="oracle")
    checks = []
    for (check, quantity, tol_key), (err, cells) in zip(_ORACLE_CHECKS, measured):
        tol = config.tolerances[tol_key]
        report.rows.append(_row(quantity, value=err, error=tol, **cells))
        passed = agree if err is None else err <= tol
        checks.append({"check": check, "error": err, "passed": passed})
    report.passed = all(c["passed"] for c in checks)
    report.summary = {"checks": checks, "passed": report.passed}
    return report
