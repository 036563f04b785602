"""
Two closed-form benchmarks for the time stepper.

A single temperature mode with zero velocity evolves by the exact heat
semigroup: the buoyant forcing it creates is a pure gradient, which the
divergence-free projection removes, so nothing ever stirs the fluid.
The cellular vortex is the complementary test: there the nonlinearity
is a pure gradient, and the velocity decays exactly like e^{-2 nu t}.
Both runs should track the analytic solution to near machine precision.
"""

import math

from bousspec import (
    PhysicalParams,
    SpectralScalarField,
    SpectralVectorField,
    make_grid,
    norm,
    synthesize_initial,
)
from bousspec.stepper import SimulationState, StepperConfig, step

grid = make_grid(2, 32)
params = PhysicalParams(nu=1.0, kappa=1.0)
config = StepperConfig(dt=1e-3)

print("single temperature mode, theta0 = cos x2, 500 steps of dt = 1e-3")
print(f"{'t':>6} {'rel theta error':>16} {'|u|':>12}")
u0, th0 = synthesize_initial("single_mode_theta", grid)
state = SimulationState(u0, th0)
exact0 = th0.coeffs.copy()
scale = norm(th0)
for i in range(500):
    state = step(state, params, config, grid)
    if (i + 1) % 100 == 0:
        decay = math.exp(-params.kappa * state.t)
        diff = SpectralScalarField(grid, state.theta.coeffs - decay * exact0)
        print(f"{state.t:6.2f} {norm(diff) / scale:16.3e} {norm(state.u):12.3e}")

print()
print("cellular vortex, exact decay e^{-2 nu t}, error at t = 0.1 vs dt")
print(f"{'dt':>8} {'rel L2 error':>14}")
for dt in (4e-3, 2e-3, 1e-3):
    u0, th0 = synthesize_initial("taylor_green", grid)
    state = SimulationState(u0.copy(), th0)
    cfg = StepperConfig(dt=dt)
    for _ in range(int(round(0.1 / dt))):
        state = step(state, params, cfg, grid)
    decay = math.exp(-2.0 * params.nu * state.t)
    diff = SpectralVectorField(grid, state.u.coeffs - decay * u0.coeffs)
    print(f"{dt:8.0e} {norm(diff) / norm(u0):14.3e}")

print()
print("the vortex errors sit at roundoff for every dt: the integrating")
print("factor handles the diffusion exactly and the projected nonlinear")
print("term vanishes on this flow, so nothing is left to discretize")
