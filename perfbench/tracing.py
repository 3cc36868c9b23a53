"""In-memory spans around calls into each starcoupling module.

A span records name, start, end, parent span, item id, the item's eps
(taken from the first argument that carries one, else from the parent)
and the exception type if the call raised. Every wrapper replaces the
binding its caller looks up: a module global at the call site (for
example ``starcoupling.experiments.find_pole``) or a class attribute (for
example ``QuadratureRule.integrate``). Nothing in ``src/`` changes.

``metrics()`` turns the spans into the per-layer metrics; self time is a
span's duration minus the durations of its direct children, which nest
inside it because calls are serial.
"""

from __future__ import annotations

import gzip
import math
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "config",
    "graph",
    "piecewise",
    "quadrature",
    "limit",
    "epsilon",
    "scattering",
    "fdoracle",
    "experiments",
    "cli",
)

#: top-level FD entry points; an exception escaping one counts as an FD error
FD_ENTRIES = (
    "fdoracle.oracle_eigenvalue",
    "fdoracle.oracle_resolvent_column",
    "fdoracle.oracle_smatrix",
)


#: dimensionless per-layer metrics; every other name ending in ``s`` is a
#: time in seconds, ``.bytes`` a size, and the rest counts
DIMENSIONLESS = {
    "epsilon.pole_evals_per_search": "ratio",
    "fdoracle.splu_per_eigenvalue": "ratio",
    "fdoracle.eig_rel_gap.max": "ratio",
    "failed_frac": "ratio",
    "scattering.unitarity_defect.max": "1",
    "epsilon.pole_residual.max": "1",
}


def unit(name):
    if name in DIMENSIONLESS:
        return DIMENSIONLESS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def _eps_of(args):
    for a in args[:2]:
        eps = getattr(a, "eps", None)
        if isinstance(eps, float):
            return eps
    return None


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, item id, eps, error type]
        self.spans = []
        self._stack = []
        self._patches = []
        # id of the item being run; spans before the first item are set-up
        self.item = "setup"
        self.exits = Counter()
        self.maxima = defaultdict(float)
        self.sums = Counter()
        self._poles = {}

    # -- recording -----------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            eps = _eps_of(args)
            if eps is None and parent >= 0:
                eps = spans[parent][5]
            span = [name, 0.0, 0.0, parent, self.item, eps, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(span, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr, name, after=None):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, after))

    def install(self):
        from starcoupling import (
            cli,
            epsilon,
            experiments,
            fdoracle,
            limit,
            piecewise,
            quadrature,
            scattering,
        )

        ex = experiments
        self.patch(cli, "run", "cli.run", self._after_run)
        self.patch(cli, "load_config", "config.load_config")
        self.patch(cli, "write_report", "experiments.write_report", self._after_write)
        self.patch(piecewise.PiecewisePolynomial, "evaluate", "piecewise.evaluate")
        self.patch(quadrature.QuadratureRule, "integrate", "quadrature.integrate")
        rule = quadrature.QuadratureRule
        self.patch(rule, "double_integral", "quadrature.double_integral")
        for module in (epsilon, scattering):
            self.patch(module, "converged_value", "quadrature.converged_value")
        for module in (ex, epsilon):
            self.patch(module, "coupling_constants", "graph.coupling_constants")
        self.patch(ex, "smatrix_eps", "scattering.smatrix_eps", self._after_smatrix)
        self.patch(ex, "hs_distance", "experiments.hs_distance")
        self.patch(ex, "find_pole", "epsilon.find_pole", self._after_pole)
        self.patch(epsilon.EpsKernel, "on_grid", "epsilon.EpsKernel.on_grid")
        self.patch(epsilon, "rank_one_factor", "epsilon.rank_one_factor", self._after_r1)
        self.patch(epsilon, "inner_RV_V", "epsilon.inner_RV_V")
        self.patch(epsilon, "pole_equation", "epsilon.pole_equation")
        self.patch(ex, "smatrix_limit", "limit.smatrix_limit")
        self.patch(ex, "lambda_matrix", "limit.lambda_matrix")
        self.patch(ex, "limit_point_spectrum", "limit.limit_point_spectrum")
        self.patch(limit.LimitKernel, "on_grid", "limit.LimitKernel.on_grid")
        self.patch(
            ex, "oracle_eigenvalue", "fdoracle.oracle_eigenvalue", self._after_fd_eig
        )
        self.patch(ex, "oracle_resolvent_column", "fdoracle.oracle_resolvent_column")
        self.patch(ex, "oracle_smatrix", "fdoracle.oracle_smatrix")
        self.patch(
            fdoracle,
            "build_discrete_operator",
            "fdoracle.build_discrete_operator",
            self._after_assembly,
        )
        self.patch(
            fdoracle, "discrete_smatrix", "fdoracle.discrete_smatrix", self._after_fd_s
        )
        self.patch(fdoracle, "splu", "fdoracle.splu")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- hooks run after a span closes, outside its timing -------------

    def _after_run(self, span, args, code):
        self.exits[code] += 1

    def _after_write(self, span, args, paths):
        self.sums["experiments.write_report.bytes"] += sum(
            p.stat().st_size for p in paths
        )

    def _after_smatrix(self, span, args, s):
        key = "scattering.unitarity_defect.max"
        self.maxima[key] = max(self.maxima[key], float(s.unitarity_defect()))

    def _after_pole(self, span, args, pole):
        self._poles[(span[4], span[5])] = None if pole is None else pole.eigenvalue
        if pole is not None:
            key = "epsilon.pole_residual.max"
            self.maxima[key] = max(self.maxima[key], abs(float(pole.residual)))

    def _after_r1(self, span, args, values):
        self.sums["epsilon.rank_one_factor.points"] += len(values)

    def _after_fd_eig(self, span, args, fd):
        pole = self._poles.get((span[4], span[5]))
        if fd is not None and pole:
            key = "fdoracle.eig_rel_gap.max"
            self.maxima[key] = max(self.maxima[key], abs(fd - pole) / abs(pole))

    def _unknowns(self, size):
        self.maxima["fdoracle.unknowns.max"] = max(
            self.maxima["fdoracle.unknowns.max"], size
        )
        self.sums["fdoracle.unknowns.sum"] += size

    def _after_assembly(self, span, args, disc):
        self._unknowns(disc.weights.size)

    def _after_fd_s(self, span, args, smat):
        op, _, L, h = args[:4]
        self._unknowns(1 + op.n * round(L / h))

    # -- derived metrics -----------------------------------------------

    def per_span(self):
        """name -> (calls, inclusive seconds, self seconds, calls that raised)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {}
        for idx, (name, start, end, _, _, _, error) in enumerate(self.spans):
            calls, incl, own, raised = table.get(name, (0, 0.0, 0.0, 0))
            dur = end - start
            table[name] = (
                calls + 1,
                incl + dur,
                own + dur - child[idx],
                raised + (error is not None),
            )
        return table

    def _count_under(self, name, ancestor):
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count

    def metrics(self):
        table = self.per_span()

        def calls(name):
            return table.get(name, (0, 0.0, 0.0, 0))[0]

        def incl(name):
            return table.get(name, (0, 0.0, 0.0, 0))[1]

        def own(name):
            return table.get(name, (0, 0.0, 0.0, 0))[2]

        out = {}
        for name in (
            "piecewise.evaluate",
            "quadrature.integrate",
            "quadrature.double_integral",
        ):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = own(name)
        out["quadrature.converged_value.calls"] = calls("quadrature.converged_value")
        out["quadrature.not_converged"] = sum(
            1
            for span in self.spans
            if span[0] == "quadrature.converged_value"
            and span[6] == "QuadratureNotConverged"
        )
        for name in ("scattering.smatrix_eps", "experiments.hs_distance"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = incl(name)
            out[f"{name}.self_s"] = own(name)
        out["scattering.unitarity_defect.max"] = self.maxima[
            "scattering.unitarity_defect.max"
        ]
        out["epsilon.rank_one_factor.calls"] = calls("epsilon.rank_one_factor")
        out["epsilon.rank_one_factor.points"] = self.sums["epsilon.rank_one_factor.points"]
        out["epsilon.rank_one_factor.s"] = incl("epsilon.rank_one_factor")
        for name in ("epsilon.inner_RV_V", "epsilon.find_pole"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = incl(name)
        searches = calls("epsilon.find_pole")
        out["epsilon.pole_evals_per_search"] = (
            calls("epsilon.pole_equation") / searches if searches else 0.0
        )
        out["epsilon.pole_residual.max"] = self.maxima["epsilon.pole_residual.max"]
        for name in ("fdoracle.build_discrete_operator", "fdoracle.splu"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = incl(name)
        eigen = calls("fdoracle.oracle_eigenvalue")
        out["fdoracle.splu_per_eigenvalue"] = (
            self._count_under("fdoracle.splu", "fdoracle.oracle_eigenvalue") / eigen
            if eigen
            else 0.0
        )
        out["fdoracle.unknowns.max"] = self.maxima["fdoracle.unknowns.max"]
        out["fdoracle.unknowns.sum"] = self.sums["fdoracle.unknowns.sum"]
        for name in (
            "fdoracle.oracle_eigenvalue",
            "fdoracle.oracle_resolvent_column",
            "fdoracle.discrete_smatrix",
        ):
            out[f"{name}.s"] = incl(name)
        out["fdoracle.errors"] = sum(table.get(n, (0, 0, 0, 0))[3] for n in FD_ENTRIES)
        out["fdoracle.eig_rel_gap.max"] = self.maxima["fdoracle.eig_rel_gap.max"]
        out["graph.coupling_constants.s"] = incl("graph.coupling_constants")
        out["config.load_config.s"] = incl("config.load_config")
        out["experiments.write_report.s"] = incl("experiments.write_report")
        out["experiments.write_report.bytes"] = self.sums["experiments.write_report.bytes"]
        for code in (2, 3, 4):
            out[f"cli.exit.{code}"] = self.exits[code]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = math.fsum(
                v[2] for k, v in table.items() if k.split(".", 1)[0] == layer
            )
        out["fired"] = sorted(table)
        return out

    def write_spans(self, path):
        """Spans as gzip-compressed tab-separated rows, one per call."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\titem\teps\terror\n")
            for name, start, end, parent, item, eps, error in self.spans:
                eps_cell = "" if eps is None or math.isnan(eps) else repr(eps)
                fh.write(
                    f"{name}\t{start!r}\t{end!r}\t{parent}\t{item}\t{eps_cell}\t"
                    f"{error or ''}\n"
                )

