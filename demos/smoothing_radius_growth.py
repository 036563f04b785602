"""
Instant smoothing of rough data, read off the coefficient spectrum.

The initial data here is barely H1: coefficient magnitudes fall off
like a power of |j|, so on a log plot against |j| the spectrum starts
out with no straight-line decay at all.  Dissipation changes that
immediately - after any positive time the envelope decays like
e^{-tau |j|}, which is what "the solution becomes analytic" looks like
in discrete form.  Two diagnostics track it: a least-squares fit of tau
from the shell envelope, and the weighted energy with weight
e^{min(t, tau_cap) |j|}, which stays bounded even though it measures
ever-stronger analyticity.

At nu = kappa = 1 the flow is close to the heat semigroup, so the
envelope is the Gaussian e^{-nu |j|^2 t} cut off by the grid, and the
fitted tau_est grows about like sqrt(t), not like t: the tau_est/sqrt(t)
column falls only slowly.  It stays above the theorem's linear lower
bound t throughout.
"""

import math

from bousspec import PhysicalParams, make_grid, synthesize_initial
from bousspec.stepper import SimulationState, StepperConfig, run_simulation

grid = make_grid(2, 64)
params = PhysicalParams(nu=1.0, kappa=1.0)
u0, th0 = synthesize_initial("rough_h1", grid, seed=0)

config = StepperConfig(dt=1e-3, t_final=0.3, snapshot_every=25)
traj = run_simulation(config, params, grid, SimulationState(u0, th0))
print(f"run: {traj.message}")
print()

records = traj.records[::25]
x0 = records[0].gevrey_X
print(f"{'t':>6} {'tau_est':>8} {'/sqrt(t)':>8} {'fit R^2':>8} "
      f"{'tau used':>9} {'X(t)/X(0)':>10}")
for r in records:
    fitted = f"{r.radius_fit:8.3f}" if r.radius_fit_quality else "     n/a"
    scaled = (f"{r.radius_fit / math.sqrt(r.t):8.3f}"
              if r.radius_fit_quality and r.t > 0 else "     n/a")
    print(f"{r.t:6.3f} {fitted} {scaled} {r.radius_fit_quality:8.3f} "
          f"{r.tau_used:9.3f} {r.gevrey_X / x0:10.4f}")

first, last = records[1], records[-1]
print()
print(f"tau_est/sqrt(t) falls from "
      f"{first.radius_fit / math.sqrt(first.t):.1f} to "
      f"{last.radius_fit / math.sqrt(last.t):.1f} over t = "
      f"{first.t:g}...{last.t:g}.")
print("At nu = kappa = 1 this is the Gaussian envelope e^{-nu |j|^2 t},")
print("cut off by the grid, and tau_est stays above the linear lower")
print("bound t.  The weighted energy never grows: the data smooths")
print("faster than the weight strengthens")
