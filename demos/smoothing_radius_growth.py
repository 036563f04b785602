"""
Instant smoothing of rough data, read off the coefficient spectrum.

The initial data here is barely H1: coefficient magnitudes fall off
like a power of |j|, so on a log plot against |j| the spectrum starts
out with no straight-line decay at all.  Dissipation changes that
immediately - after any positive time the envelope decays like
e^{-tau |j|} with tau growing at least linearly in t, which is what
"the solution becomes analytic with radius ~ t" looks like in discrete
form.  Two diagnostics track it: a least-squares fit of tau from the
shell envelope, and the weighted energy with weight e^{min(t, tau_cap) |j|},
which stays bounded even though it measures ever-stronger analyticity.
"""


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
print(f"{'t':>6} {'tau_est':>8} {'fit R^2':>8} {'tau used':>9} "
      f"{'X(t)/X(0)':>10}")
for r in records:
    fitted = f"{r.radius_fit:8.3f}" if r.radius_fit_quality else "     n/a"
    print(f"{r.t:6.2f} {fitted} {r.radius_fit_quality:8.3f} "
          f"{r.tau_used:9.3f} {r.gevrey_X / x0:10.4f}")

print()
print("tau_est exceeds t from the first sample on and keeps growing,")
print("while the weighted energy never grows: the data smooths faster")
print("than the weight strengthens")
