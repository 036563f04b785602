"""Pseudospectral Boussinesq solver on the torus with analyticity diagnostics.

The package simulates the incompressible Boussinesq equations

    du/dt - nu Laplacian(u) + (u . grad) u + grad p = theta e_N
    dtheta/dt - kappa Laplacian(theta) + (u . grad) theta = 0
    div u = 0

on [0, 2*pi]^N (N = 2 or 3) with zero-mean data, and measures how fast
viscosity turns merely-H1 data into analytic fields: the radius of
analyticity estimated from the spectrum should grow at least linearly in
time.

Layout
------
grid, fields      spectral core: grids, constraints, operators, norms
nonlinear         advection terms (dealiased transform + direct convolution)
galerkin          independent low-mode ODE oracle for cross-validation
stepper           integrating-factor RK4 / Euler time integration
diagnostics       energy budgets, Gevrey energy, radius fits
fileio, cli       config files, binary snapshots, CSV, command line
"""

from .grid import GridSpec, make_grid
from .fields import (
    NonFiniteStateError,
    PhysicalParams,
    SpectralScalarField,
    SpectralVectorField,
    divergence_max,
    enforce_constraints,
    from_physical,
    hermitian_defect,
    l2_inner,
    leray_project,
    norm,
    synthesize_initial,
    to_physical,
)

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "make_grid",
    "NonFiniteStateError",
    "PhysicalParams",
    "SpectralScalarField",
    "SpectralVectorField",
    "divergence_max",
    "enforce_constraints",
    "from_physical",
    "hermitian_defect",
    "l2_inner",
    "leray_project",
    "norm",
    "synthesize_initial",
    "to_physical",
]
