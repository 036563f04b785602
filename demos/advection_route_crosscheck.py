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

The tail fills the whole retained band of 24^2, where 3 divides the
modes count.  The cutoff c = 7 is the largest with 3c < 24: a product
of two boundary modes reaches |k_i| = 14, and its alias 14 - 24 = -10
lies outside the band, so the boundary shell agrees to roundoff too.
(A cutoff of 24/3 = 8 would wrap such products exactly onto the
opposite boundary.)  The script exits 1 if any printed deviation
exceeds 1e-12.
"""

import sys

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


TOLERANCE = 1e-12
deviations = []


def report(label, deviation):
    deviations.append(deviation)
    print(f"{label} {deviation:18.3e}")


print("inputs band-limited to half the cutoff (the guaranteed regime)")
print(f"{'grid':>6} {'term':>12} {'max rel deviation':>18}")
for dim, modes in ((2, 16), (2, 24), (3, 8)):
    grid = make_grid(dim, modes)
    u, theta = random_band_limited(grid, seed=dim, bandwidth=grid.dealias_cutoff // 2)
    for label, v in (("u.grad u", u), ("u.grad theta", theta)):
        report(f"{modes}^{dim:<3} {label:>12}", route_deviation(grid, u, v))

grid = make_grid(2, 24)
c = grid.dealias_cutoff
print()
print(f"inputs filling the whole retained band |k_i| <= {c} of 24^2: products")
print(f"reach |k_i| = {2 * c}, whose aliases lie {24 - 2 * c} > {c} from zero")
u, theta = random_band_limited(grid, seed=7, bandwidth=c)
interior = np.ones(grid.shape, dtype=bool)
for axis in range(grid.dim):
    interior &= np.abs(grid.k[axis]) < c
boundary = grid.dealias_mask & ~interior
report(f"interior modes (|k_i| < {c})".ljust(36),
       route_deviation(grid, u, u, interior))
report(f"boundary shell (max |k_i| = {c})".ljust(36),
       route_deviation(grid, u, u, boundary))
print()
if max(deviations) > TOLERANCE:
    print(f"FAIL: a deviation exceeds {TOLERANCE:g}")
    sys.exit(1)
print(f"every deviation is below {TOLERANCE:g}: the routes agree across the")
print("whole retained band")
