"""
A disordered chain and its verified resolvent
=============================================

Builds the discretized operator H = -Laplace + lam * sum eta_j u(x - x_j)
on a 1d box, looks at one realization of the potential, solves the
shifted system (H - E + i*eps) u = delta with a residual check (the
adjoint solve every block norm is read from), and compares a sparse
block norm against the LAPACK oracle (a banded LU, here of bandwidth 1).
"""

import numpy as np

from fracmom import (
    BackgroundFields,
    GridSpec,
    ModelConfig,
    ShiftedSolver,
    SingleSiteProfile,
    SpectralShift,
    block_norm_oracle,
    disorder_law,
    indicator_set,
)
from fracmom.model import grid_points

# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------

grid = GridSpec(d=1, box=(30.0,), h=0.5)
config = ModelConfig(
    grid=grid,
    background=BackgroundFields(),
    profile=SingleSiteProfile(r=1.0, shape="indicator", u0=1.0),
    law=disorder_law(3.0, grid),
)

H = config.hamiltonian_for_seed(7)
print(f"grid: {grid.npoints} interior points, spacing h = {grid.h}")
print(f"operator: {H.n} x {H.n}, hermitian sparse")

# the realized potential along the chain, coarse sketch in ascii
pts = grid_points(grid).ravel()
pot = H.dense().diagonal().real - 2.0 / grid.h ** 2  # strip the kinetic diagonal
bins = np.linspace(pot.min(), pot.max() + 1e-12, 9)
print("\npotential profile (one realization, seed 7):")
for lo, hi in zip(bins[:-1], bins[1:]):
    row = "".join("#" if lo <= v < hi else " " for v in pot)
    print(f"  {lo:6.2f} |{row}|")

# ---------------------------------------------------------------------------
# a verified shifted solve
# ---------------------------------------------------------------------------

shift = SpectralShift(E=1.5, eps=1e-2)
solver = ShiftedSolver(H, shift)
rhs = np.zeros(H.n, dtype=complex)
rhs[H.n // 2] = 1.0
u = solver.solve_adjoint(rhs)
A = H.dense() - shift.conjugate() * np.eye(H.n)
residual = np.linalg.norm(A @ u - rhs)
print(f"\nadjoint solve with H - conj z, z = {shift.z}: residual {residual:.2e}")
print("the solver re-checks this internally and raises SolveError on a miss")

# the Green function decays away from the source even at weak coupling;
# H is real, so u is the conjugate of (H - z)^-1 delta and |u| is |G|
green = np.abs(u)
print("\n|G(x, x0)| sampled every 6 points:")
for i in range(0, H.n, 6):
    print(f"  x = {pts[i]:5.1f}   {green[i]:.3e}")

# ---------------------------------------------------------------------------
# sparse block norm against the LAPACK oracle
# ---------------------------------------------------------------------------

X = indicator_set(grid, (8.0,), 1.0)
Y = indicator_set(grid, (22.0,), 1.0)
sparse_norm = solver.block_norm(X, Y)
oracle_norm = block_norm_oracle(H, shift, X, Y)
rel = abs(sparse_norm - oracle_norm) / oracle_norm
print(f"\nblock norm |chi_X (H - z)^-1 chi_Y|:")
print(f"  sparse path  {sparse_norm:.12e}")
print(f"  oracle       {oracle_norm:.12e}")
print(f"  relative difference {rel:.2e}")
