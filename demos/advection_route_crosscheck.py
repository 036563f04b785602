"""
Cross-check of the two independent advection implementations.

The plain transform path, ``convect_pseudospectral``, evaluates
u . grad(v) by transforming to the collocation grid, multiplying, and
transforming back, with the 2/3-rule mask keeping aliased products away
from retained modes.  It is the whole-array reference of the stepper's
kernel (``nonlinear._core_rhs``), which ACCEPTANCE 3 and ``bousspec
oracle-check`` hold to the same oracle.  The oracle sums the truncated
convolution directly in coefficient space, one mode pair at a time,
with no transforms anywhere.  For inputs band-limited to half the
dealias cutoff every product stays on the grid, so the two must agree
to roundoff on every retained mode; that agreement is what certifies
the transform path, masks and normalization included.

The tail of the demo shows the one hole the mask has: when the modes
count is divisible by 3 the cutoff M/3 is itself a retained wavenumber,
and products of two boundary modes wrap around exactly onto the
opposite boundary.  The direct convolution has no such images, which
makes the disagreement easy to localize.
"""

import numpy as np

from bousspec import (
    SpectralScalarField,
    SpectralVectorField,
    enforce_constraints,
    leray_project,
    make_grid,
)
from bousspec.nonlinear import convect_convolution, convect_pseudospectral


def random_band_limited(grid, seed, bandwidth):
    rng = np.random.default_rng(seed)
    keep = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        keep &= np.abs(grid.k[axis]) <= bandwidth
    keep &= grid.k2 > 0

    def draw():
        c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        return c * keep

    u = SpectralVectorField(grid, np.stack([draw() for _ in range(grid.dim)]))
    u = leray_project(enforce_constraints(u))
    theta = enforce_constraints(SpectralScalarField(grid, draw()))
    return u, theta


def route_deviation(grid, u, v, where=None):
    fast = convect_pseudospectral(u, v, grid).field.coeffs
    slow = convect_convolution(u, v, grid).field.coeffs
    region = grid.dealias_mask if where is None else where
    scale = np.max(np.abs(slow * grid.dealias_mask))
    return np.max(np.abs((fast - slow) * region)) / scale


print("inputs band-limited to half the cutoff (the guaranteed regime)")
print(f"{'grid':>6} {'term':>12} {'max rel deviation':>18}")
for dim, modes in ((2, 16), (2, 24), (3, 8)):
    grid = make_grid(dim, modes)
    u, theta = random_band_limited(grid, seed=dim, bandwidth=grid.dealias_cutoff // 2)
    for label, v in (("u.grad u", u), ("u.grad theta", theta)):
        print(f"{modes}^{dim:<3} {label:>12} {route_deviation(grid, u, v):18.3e}")

print()
print("aliasing probe: inputs filling the whole retained band on 24^2,")
print("where the cutoff 8 = 24/3 lets boundary-mode products wrap back")
grid = make_grid(2, 24)
u, theta = random_band_limited(grid, seed=7, bandwidth=grid.dealias_cutoff)
interior = np.ones(grid.shape, dtype=bool)
for axis in range(grid.dim):
    interior &= np.abs(grid.k[axis]) < grid.dealias_cutoff
boundary = grid.dealias_mask & ~interior
print(f"deviation on interior modes (|k_i| < 8): "
      f"{route_deviation(grid, u, u, interior):.3e}")
print(f"deviation on the boundary shell (max |k_i| = 8): "
      f"{route_deviation(grid, u, u, boundary):.3e}")
print()
print("every aliased image lands on the boundary shell, so grids whose")
print("modes count is not a multiple of 3 (as used throughout the test")
print("suite) are alias-free across the entire retained band")
