"""
The spectral solver reduced to an explicit ODE system.

Projecting onto finitely many real trigonometric modes turns the PDE
into ODEs for the mode amplitudes, with sparse interaction tensors built
by enumerating the wavevector triads p + q + r = 0 (no quadrature) and
stored as COO values beside (a, b, c) keys.  Two structural identities
pin the tensors down: antisymmetry in the advected slots, and exact
cancellation of the cubic energy fluxes.  Integrating the ODE system
with the solver's scheme, Lawson's integrating-factor RK4, written on
the mode amplitudes, and comparing against the spectral solver on the
same truncation then cross-validates the entire time-stepping path.
"""

import numpy as np

from bousspec import (
    PhysicalParams,
    SpectralScalarField,
    SpectralVectorField,
    enforce_constraints,
    leray_project,
    make_grid,
    norm,
    synthesize_initial,
)
from bousspec.galerkin import (
    assemble_tensors,
    build_basis,
    integrate_galerkin,
    project_state,
    reconstruct,
)
from bousspec.stepper import SimulationState, StepperConfig, run_simulation

grid = make_grid(2, 10)
params = PhysicalParams(nu=1.0, kappa=1.0)

vel_basis, scalar_basis = build_basis(grid)
system = assemble_tensors(vel_basis, scalar_basis, grid)
print(f"truncation: {len(vel_basis)} velocity modes, "
      f"{len(scalar_basis)} scalar modes")


def antisymmetry_defect(index, values):
    """max |T[a, b, c] + T[a, c, b]| over the stored keys (absent = 0)."""
    stored = dict(zip(map(tuple, index.tolist()), values))
    return max(abs(v + stored.get((a, c, b), 0.0))
               for (a, b, c), v in stored.items())


def cubic_flux(index, values, x, y):
    """sum T[a, b, c] x_a y_b y_c over the stored entries."""
    a, b, c = index.T
    return np.sum(values * x[a] * y[b] * y[c])


m, ms = len(vel_basis), len(scalar_basis)
print(f"stored entries: A {len(system.A)} of {m**3}, "
      f"B {len(system.B)} of {m * ms**2}")
print(f"A antisymmetry defect: "
      f"{antisymmetry_defect(system.A_index, system.A):.3e}")
print(f"B antisymmetry defect: "
      f"{antisymmetry_defect(system.B_index, system.B):.3e}")

rng = np.random.default_rng(0)
xi = rng.standard_normal(m)
eta = rng.standard_normal(ms)
print(f"cubic velocity flux on a random state: "
      f"{cubic_flux(system.A_index, system.A, xi, xi):.3e}")
print(f"cubic scalar flux on a random state:   "
      f"{cubic_flux(system.B_index, system.B, xi, eta):.3e}")

# same initial data, integrated both ways
u0, th0 = synthesize_initial("rough_h1", grid, seed=5)
u0.coeffs *= grid.dealias_mask
th0.coeffs *= grid.dealias_mask
u0 = leray_project(enforce_constraints(u0))
th0 = enforce_constraints(th0)

ode = integrate_galerkin(system, project_state(u0, th0, system),
                         T=0.1, dt=1e-3, params=params)
config = StepperConfig(dt=1e-3, t_final=0.1, snapshot_every=20)
traj = run_simulation(config, params, grid,
                      SimulationState(u0.copy(), th0.copy()))

print()
print(f"{'t':>6} {'rel deviation u':>16} {'rel deviation theta':>20}")
for snap in traj.snapshots:
    u_ode, th_ode = reconstruct(ode.states[snap.step_index], system)
    du = SpectralVectorField(grid, u_ode.coeffs - snap.u.coeffs)
    dth = SpectralScalarField(grid, th_ode.coeffs - snap.theta.coeffs)
    print(f"{snap.t:6.2f} {norm(du) / norm(snap.u):16.3e} "
          f"{norm(dth) / norm(snap.theta):20.3e}")

print()
print("both run integrating-factor RK4 on the same finite system, so")
print("the trajectories agree to roundoff, far beyond the accuracy of either")
