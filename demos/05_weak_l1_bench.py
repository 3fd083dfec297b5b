"""
The weak-L1 level-set bench behind the moment bound
===================================================

The boundedness of fractional moments rests on one measure-theoretic
fact: for a maximally dissipative A and Hilbert-Schmidt T, the level
sets {eta : |T (A + eta)^-1 T|_HS > t} have Lebesgue measure O(1/t).
The 1/t tail is produced by real poles of the resolvent; it is exactly
the weak-L1 behavior of 1/x near a singularity, operator-dressed.

The squared norm is a ratio of two polynomials, so each level set is cut
out by the real roots of one polynomial and its measure is exact.  Two
checks below: a scalar case where the level sets are intervals with a
closed-form length, met to rounding, and random 5x5 pairs where the
fitted log-log slope of measure(t) sits at -1 over the top usable
decade.
"""

import numpy as np

from fracmom import DissipativeOperator, HSOperator, weak_l1_levelset_measure

# ---------------------------------------------------------------------------
# scalar closed form
# ---------------------------------------------------------------------------

x, y, t0 = 0.7, 0.3, 1.3
A = DissipativeOperator(X=np.array([[x]]), Y=np.array([[y]]))
T = HSOperator(T=np.array([[t0]]))
ts = np.array([0.5, 1.0, 2.0, 4.0, 5.0, 7.0])
rep = weak_l1_levelset_measure(A, T, t_grid=ts, eta_range=(-40.0, 40.0))

print("scalar case: |T (A + eta)^-1 T|_HS = t0^2 / |eta + x + iy|, so the")
print("level set is an interval of length 2 sqrt((t0^2/t)^2 - y^2)\n")
print(f"{'t':>6} {'measured':>12} {'exact':>12} {'|difference|':>13}")
for t, m in zip(ts, rep.measures):
    exact = 2.0 * np.sqrt(max(0.0, (t0 ** 2 / t) ** 2 - y ** 2))
    print(f"{t:6.1f} {m:12.6f} {exact:12.6f} {abs(m - exact):13.2e}")

# ---------------------------------------------------------------------------
# random pairs: the -1 slope needs a kernel
# ---------------------------------------------------------------------------

# with Y = 0 the poles are real and the 1/t tail is genuine; a strictly
# positive Y bounds the function and the top decade artificially steepens
print("\nrandom 5x5 Hermitian A (Y = 0), Gaussian T, slope over the top "
      "usable decade:")
t_grid = np.geomspace(1.0, 1e3, 40)
slopes = []
for i in range(8):
    rng = np.random.default_rng(3000 + i)
    B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    A = DissipativeOperator(X=(B + B.conj().T) / 2.0, Y=np.zeros((5, 5)))
    T = HSOperator(T=rng.standard_normal((5, 5)))
    rep = weak_l1_levelset_measure(A, T, t_grid=t_grid)
    slopes.append(rep.slope)
    print(f"  pair {i}: slope {rep.slope:8.4f}   "
          f"c_fit {rep.c_fit:10.4f}   "
          f"delta sensitivity {rep.delta_sensitivity:.2e}")

print(f"\nslopes span [{min(slopes):.4f}, {max(slopes):.4f}] around the "
      f"ideal -1")
print("(the kernel is regularized by delta = 1e-8; the sensitivity column")
print("re-runs each measure at delta / 10 and reports the worst change)")
