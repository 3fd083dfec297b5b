"""
Why the exponent s < 1 matters
==============================

The s-th moment of the Green function stays bounded as the regularizer
eps shrinks, but only for s < 1.  At s = 1 the moment diverges like
log(1/eps) worth of near-resonances: single realizations where an
eigenvalue sits within eps of E dominate the whole average.

This script runs the identical Monte Carlo scan (same 200 disorder
realizations, common random numbers) at s = 0.3 and at s = 1 and prints
what stabilizes and what blows up.
"""

import numpy as np

from fracmom import (
    BackgroundFields,
    EpsilonSchedule,
    GridSpec,
    ModelConfig,
    SingleSiteProfile,
    disorder_law,
    epsilon_scan,
    indicator_set,
)

# mid-spectrum energy on a moderately disordered chain, 256 points
grid = GridSpec(d=1, box=(64.25,), h=0.25)
config = ModelConfig(grid=grid, background=BackgroundFields(),
                     profile=SingleSiteProfile(r=1.0, u0=1.0),
                     law=disorder_law(2.0, grid))
X = indicator_set(grid, (24.0,), 1.0)
Y = indicator_set(grid, (40.0,), 1.0)
E = 32.0
schedule = EpsilonSchedule((1e-2, 1e-3, 1e-4, 1e-5, 1.5e-6, 1e-6))

print(f"scanning eps = {schedule.eps} at E = {E}, N = 200 realizations")

# one scan of the norms, folded at s = 0.3 and at s = 1 (diagnostic mode)
[[scan], [diag]] = epsilon_scan(config, [0.3, 1.0], [E], schedule, X, Y,
                                N=200, master_seed=2024, diagnostic=True)

print(f"\n{'eps':>10}   {'mean (s=0.3)':>14} {'se/mean':>8}   "
      f"{'mean (s=1.0)':>14} {'se/mean':>8}")
for e3, e1 in zip(scan.estimates, diag.estimates):
    print(f"{e3.eps:10.1e}   {e3.mean:14.6g} {e3.stderr / e3.mean:8.3f}   "
          f"{e1.mean:14.6g} {e1.stderr / e1.mean:8.3f}")

means = scan.means
change = abs(means[-1] - means[-2]) / abs(means[-1])
print(f"\ns = 0.3 verdict: {scan.verdict} "
      f"(last two means differ by {100 * change:.2f}%)")
print(f"s = 1.0 verdict: {diag.verdict} (the mean grew "
      f"{diag.means[0]:.3g} -> {diag.means[-1]:.3g} over the schedule)")

# share of the mean carried by the single largest realization
top = diag.estimates[-1]
share1 = top.sample_max / (top.N * top.mean)
last = scan.estimates[-1]
share3 = last.sample_max / (last.N * last.mean)
print(f"at eps = {last.eps:.1e} the largest single realization carries "
      f"{share1:.3f} of the s = 1 mean")
print(f"but only {share3:.3f} of the s = 0.3 mean:")
print("at s = 1 the average is carried by one near-resonant realization,")
print("which is the blow-up in Monte Carlo form.  the s = 1 relative error")
print("saturates near 1 for the same reason, but for nonnegative samples")
print("stderr/mean cannot exceed 1, so acceptance criterion 3 checks the")
print("share instead (above 1/2 at s = 1, at most 1/2 at s = 0.3).")
