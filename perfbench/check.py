"""Output checks: stored reference CSVs and the tolerances they are held to.

A reference-potential item passes when its CSV is byte-identical to the
stored reference. Otherwise every row must match in its key cells
(quantity, epsilon, k, kappa) and every numeric cell must lie within the
tolerance the Tier-1 tests use for that quantity:

* closed-form constants (``eigenvalue_limit``, ``kappa_predictor``):
  1e-12, as criterion 1 holds A, B, theta and Pi;
* quadrature-certified values (``hs_distance``, ``kappa_root``,
  ``eigenvalue``): relative 1e-10, the order-doubling gate of
  ``converged_value`` and ``rank_one_factor``;
* S-matrix differences (``smatrix_error``, ``oracle_smatrix_max_error``):
  absolute 1e-10, as criteria 3 and 4 hold S-matrix entries;
* FD values (``eigenvalue_fd`` and the other ``oracle_*`` rows): relative
  1e-10, the same certification level, since the grids are fixed.

The criterion-7 HS slope is not gated here (it is a summary fit, not a CSV
cell); the ``hs_distance`` values it is fitted to are.
"""

from __future__ import annotations

import csv
import io
import math

KEY_COLUMNS = ("quantity", "epsilon", "k", "kappa")
VALUE_COLUMNS = ("value", "error", "tail_bound")

#: quantity -> (relative tolerance, absolute tolerance)
TOLERANCES = {
    "eigenvalue_limit": (1e-12, 1e-12),
    "kappa_predictor": (1e-12, 1e-12),
    "hs_distance": (1e-10, 0.0),
    "kappa_root": (1e-10, 0.0),
    "eigenvalue": (1e-10, 0.0),
    "smatrix_error": (0.0, 1e-10),
    "oracle_smatrix_max_error": (0.0, 1e-10),
    "eigenvalue_fd": (1e-10, 0.0),
    "oracle_eigenvalue_rel_error": (1e-10, 1e-14),
    "oracle_free_column_sup_error": (1e-10, 1e-14),
    "oracle_eps_column_sup_error": (1e-10, 1e-14),
}


def _rows(data):
    return list(csv.DictReader(io.StringIO(data.decode())))


def _close(got, ref, rtol, atol):
    if got == ref:
        return True
    if got == "" or ref == "":
        return False
    a, b = float(got), float(ref)
    if math.isnan(a) or math.isnan(b):
        return False
    return abs(a - b) <= atol + rtol * abs(b)


def compare_csv(got, ref):
    """Return ("identical" | "within_tolerance" | "mismatch", detail)."""
    if got == ref:
        return "identical", ""
    if got is None:
        return "mismatch", "no CSV written"
    rows, refs = _rows(got), _rows(ref)
    if len(rows) != len(refs):
        return "mismatch", f"{len(rows)} rows against {len(refs)} in the reference"
    for n, (row, want) in enumerate(zip(rows, refs), start=2):
        if any(row[c] != want[c] for c in KEY_COLUMNS):
            return "mismatch", f"line {n}: key cells differ"
        if want["quantity"] not in TOLERANCES:
            return "mismatch", f"line {n}: no tolerance for {want['quantity']}"
        rtol, atol = TOLERANCES[want["quantity"]]
        for col in VALUE_COLUMNS:
            if not _close(row[col], want[col], rtol, atol):
                return "mismatch", (
                    f"line {n} {want['quantity']} {col}: {row[col]} against {want[col]}"
                )
    return "within_tolerance", ""
