#!/usr/bin/env python3
"""Finite-difference ground truth vs the quadrature/closed-form routes.

An independent second-order discretization of the operator family on a
truncated star (shared vertex unknown, Kirchhoff stencil, trapezoid-paired
rank-one term) reproduces the bound-state eigenvalue, a free resolvent
column, and the scattering matrix. Nothing here shares code with the
quadrature path beyond the operator definition itself.
"""

import numpy as np

import starcoupling as sc

V = sc.StarPotential.from_constants([1.0, -1.0, 0.0])
scaling = sc.ScalingFunction(lambda1=-1.0, resonant=True)

print("=" * 70)
print("Bound-state eigenvalue, eps = 0.05 (grid h = 5e-3, L = 40)")
print("=" * 70)
op = sc.EpsOperator(potential=V, scaling=scaling, eps=0.05)
pole = sc.find_pole(op)
fd = sc.oracle_eigenvalue(op, L=40.0, h=5e-3)
print(f"root-found   : {pole.eigenvalue:+.8f}")
print(f"grid oracle  : {fd:+.8f}")
print(f"relative gap : {abs(fd - pole.eigenvalue) / abs(pole.eigenvalue):.2e}")

op_pos = sc.EpsOperator(
    potential=V, scaling=sc.ScalingFunction(lambda1=1.0, resonant=True), eps=0.05
)
print(f"opposite branch (no bound state): oracle -> "
      f"{sc.oracle_eigenvalue(op_pos, L=40.0, h=5e-3)}")

print()
print("=" * 70)
print("Free resolvent column at kappa = 1, source (edge 1, x = 0.7)")
print("=" * 70)
zero = sc.StarPotential([sc.PiecewisePolynomial.zero() for _ in range(3)])
op_free = sc.EpsOperator(
    potential=zero,
    scaling=sc.ScalingFunction(lambda1=1.0, resonant=False, lambda0=1.0),
    eps=0.1,
)
col = sc.oracle_resolvent_column(op_free, 1.0, sc.EdgeCoordinate(1, 0.7), L=20.0, h=5e-3)
kernel = sc.FreeKernel(3, 1.0)
for j in (1, 2, 3):
    exact = kernel.on_grid(1, j, np.array([0.7]), col.x)[0].real
    sup = float(np.max(np.abs(col.values[j - 1] - exact)))
    print(f"edge {j}: sup |grid - closed form| = {sup:.2e}")

print()
print("=" * 70)
print("Scattering matrix at k = 1, eps = 0.1 (closure at L = 2)")
print("=" * 70)
op_s = sc.EpsOperator(potential=V, scaling=scaling, eps=0.1)
s_fd = sc.oracle_smatrix(op_s, 1.0, L=2.0, h=5e-3)
s_an = sc.smatrix_eps(op_s, 1.0)
print(f"grid oracle S =\n{np.round(s_fd.entries, 6)}")
print(f"max entry gap to the Fredholm route: "
      f"{np.max(np.abs(s_fd.entries - s_an.entries)):.2e}")
print(f"oracle unitarity defect: {s_fd.unitarity_defect():.2e}")
