"""Spectral fields on the torus and the operators acting on them.

A scalar field theta and a velocity field u are represented by their full
complex coefficient arrays (shape ``grid.shape`` and ``grid.vshape``).
Valid states satisfy three constraints throughout:

* reality:        coeff(-j) == conj(coeff(j)) for every j,
* zero mean:      coeff(0) == 0,
* incompressible: j . u_hat(j) == 0 for every j (velocity only).

``enforce_constraints`` projects onto the first two, ``leray_project``
onto the third.  Norms follow the weighted-sum convention

    ||f||_{r,tau,s}^2 = (2*pi)^N * sum_j |j|^(2r) e^(2 tau |j|^(1/s)) |f_j|^2

so r = 0, tau = 0 is the plain L2 norm and r = 1 the H1 seminorm (the
Zygmund operator Lambda = sqrt(-Laplacian) acts as multiplication by |j|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import TWO_PI, GridSpec

__all__ = [
    "SpectralScalarField",
    "SpectralVectorField",
    "GevreyParams",
    "PhysicalParams",
    "NonFiniteStateError",
    "enforce_constraints",
    "leray_project",
    "norm",
    "divergence_max",
    "l2_inner",
    "hermitian_defect",
    "to_physical",
    "from_physical",
    "synthesize_initial",
    "INITIAL_KINDS",
]


class SpectralScalarField:
    """Scalar field given by its Fourier coefficients on ``grid``."""

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: GridSpec, coeffs=None):
        self.grid = grid
        if coeffs is None:
            coeffs = np.zeros(grid.shape, dtype=complex)
        else:
            coeffs = np.asarray(coeffs, dtype=complex)
            if coeffs.shape != grid.shape:
                raise ValueError(
                    f"scalar coefficients must have shape {grid.shape}, "
                    f"got {coeffs.shape}"
                )
        self.coeffs = coeffs

    def copy(self):
        return SpectralScalarField(self.grid, self.coeffs.copy())


class SpectralVectorField:
    """Velocity field; component axis first, so ``coeffs[i]`` is u_i."""

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: GridSpec, coeffs=None):
        self.grid = grid
        if coeffs is None:
            coeffs = np.zeros(grid.vshape, dtype=complex)
        else:
            coeffs = np.asarray(coeffs, dtype=complex)
            if coeffs.shape != grid.vshape:
                raise ValueError(
                    f"vector coefficients must have shape {grid.vshape}, "
                    f"got {coeffs.shape}"
                )
        self.coeffs = coeffs

    def copy(self):
        return SpectralVectorField(self.grid, self.coeffs.copy())


@dataclass(frozen=True)
class GevreyParams:
    """Weight parameters (r, tau, s) for the norms above.

    ``s = 1`` is the analytic class; ``tau`` is the radius of the strip of
    analyticity probed by the weight.
    """

    tau: float
    r: float = 0.0
    s: float = 1.0

    def __post_init__(self):
        for key, low in (("tau", 0), ("r", 0), ("s", 1)):
            value = getattr(self, key)
            if not (value >= low and math.isfinite(value)):
                raise ValueError(
                    f"{key} must be >= {low} and finite, got {value}"
                )


@dataclass(frozen=True)
class PhysicalParams:
    """Viscosity and diffusivity; gravity acts along the last axis, so
    the temperature forces the last velocity component."""

    nu: float
    kappa: float

    def __post_init__(self):
        for key in ("nu", "kappa"):
            value = getattr(self, key)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{key} must be > 0 and finite, got {value}")


class NonFiniteStateError(RuntimeError):
    """Raised when an evolving state stops being finite.

    Carries the time of the failed update and the last finite state so a
    caller can report or save it.
    """

    def __init__(self, t, last_state):
        super().__init__(f"state became nonfinite at t = {t:.6g}")
        self.t = t
        self.last_state = last_state


# ----------------------------------------------------------------------
# constraints


def enforce_constraints(field):
    """Project onto zero-mean fields with the reality symmetry.

    Coefficients are replaced by (c_j + conj(c_{-j})) / 2 and the mean
    mode is zeroed.  Idempotent to the last bit: the addition commutes.
    """
    grid = field.grid
    arr = field.coeffs
    out = 0.5 * (arr + np.conj(arr[(Ellipsis,) + grid._conj_ix]))
    out[(Ellipsis,) + grid.zero_index] = 0.0
    return type(field)(grid, out)


def _symmetrize_half(grid, half):
    """Make a half spectrum (last-axis labels 0..m/2; see ``GridSpec``)
    that of a real zero-mean field, in place, and return it.

    Only the two planes that reflect onto themselves (last labels 0 and
    m/2) hold both a mode and its reflection; they are symmetrized as in
    :func:`enforce_constraints`, and the mean mode is zeroed.  Leading
    (component) axes are kept.
    """
    planes = half[..., :: grid.modes // 2]
    planes[...] = 0.5 * (
        planes + np.conj(planes[(Ellipsis,) + grid._plane_ix])
    )
    half[(Ellipsis,) + grid.zero_index] = 0.0
    return half


def _from_half(grid, half):
    """Full coefficient array of a half spectrum made real by
    :func:`_symmetrize_half`: the missing labels are the conjugates of
    their reflections, so the result is Hermitian by construction.
    Leading (component) axes are kept.
    """
    m = grid.modes
    out = np.empty(half.shape[:-1] + (m,), dtype=complex)
    out[..., : m // 2 + 1] = half
    out[..., m // 2 + 1:] = np.conj(half[(Ellipsis,) + grid._upper_ix])
    return out


def _leray_in_place(k, k_over_k2, arr, scratch):
    """arr -= k (k_over_k2 . arr), written into ``arr``, with ``scratch``
    (one row more than ``arr``) for the intermediate arrays."""
    terms, total = scratch[:-1], scratch[-1]
    np.multiply(k_over_k2, arr, out=terms)
    np.sum(terms, axis=0, out=total)
    np.multiply(k, total, out=terms)
    return np.subtract(arr, terms, out=arr)


def leray_project(u: SpectralVectorField):
    """Remove the gradient part: u_hat(j) -= (j . u_hat(j)) j / |j|^2.

    The zero mode passes through untouched (it is zero for valid states).
    Self-adjoint and idempotent.
    """
    grid = u.grid
    scratch = np.empty((grid.dim + 1,) + grid.shape, dtype=complex)
    return SpectralVectorField(grid, _leray_in_place(
        grid.k, grid.k_over_k2, u.coeffs.copy(), scratch))


def divergence_max(u: SpectralVectorField):
    """max_j |j . u_hat(j)|, the spectral divergence residual."""
    return _divergence_max(u.grid.k, u.coeffs)


def _divergence_max(k, coeffs):
    """``divergence_max`` of velocity coefficients on the wavevectors
    ``k``.  On the half spectrum of a real field it equals the full
    maximum: |j . u_hat(j)| is the same at j and -j."""
    dot = np.einsum("i...,i...->...", k, coeffs)
    return float(np.max(np.abs(dot)))


def hermitian_defect(field):
    """max_j |c_j - conj(c_{-j})|, zero for fields with the reality symmetry."""
    arr = field.coeffs
    reflected = arr[(Ellipsis,) + field.grid._conj_ix]
    return float(np.max(np.abs(arr - np.conj(reflected))))


# ----------------------------------------------------------------------
# norms


def _gevrey_weight(grid, tau, s, double=False, half=False):
    """exp(tau |j|^(1/s)) (``double``: exp(2 tau |j|^(1/s))) on the full
    spectrum, or on the half spectrum when ``half``."""
    if tau > grid.tau_cap:
        raise ValueError(
            f"tau={tau} exceeds tau_cap={grid.tau_cap:.6g} for this grid; "
            "the weight would overflow the spectrum range"
        )
    factor = 2.0 * tau if double else tau
    kmag = grid.half_kmag if half else grid.kmag
    if s == 1.0:
        return np.exp(factor * kmag)
    return np.exp(factor * kmag ** (1.0 / s))


def _power(coeffs, dim):
    """Per-mode |c_j|^2 as re^2 + im^2 of a scalar's coefficients, or
    summed over the components (leading axis) of a vector's; ``dim`` is
    the grid's dimension, which tells the two apart."""
    power = np.square(coeffs.real)
    power += np.square(coeffs.imag)
    if coeffs.ndim > dim:
        power = power.sum(axis=0)
    return power


def _weigh(grid, power, r=0.0, tau=0.0, s=1.0):
    """``power`` times |j|^(2r), then times exp(2 tau |j|^(1/s)).

    r = 1 multiplies by the exact integer |j|^2; r = 0 and tau = 0 leave
    ``power`` as it is.
    """
    if r == 1.0:
        power = grid.k2 * power
    elif r != 0.0:
        power = grid.kmag ** (2.0 * r) * power
    if tau != 0.0:
        power = _gevrey_weight(grid, tau, s, double=True) * power
    return power


def _sum(grid, values, half=False):
    """Sum over the full spectrum of a per-mode quantity.

    With ``half``, ``values`` lives on the half spectrum of a real field
    and takes the same value at j and -j (a power, or a weight times
    one); it is gathered to the full layout through ``grid.half_mirror``
    first, so the sum runs over the values, and in the order, of the full
    array.
    """
    if half:
        values = np.take(values, grid.half_mirror)
    return np.sum(values)


def _norm_of(grid, weighted, half=False):
    """sqrt((2 pi)^N sum_j weighted_j), the norm of a weighted power
    (on the half spectrum when ``half``; see :func:`_sum`)."""
    return float(np.sqrt(TWO_PI**grid.dim * _sum(grid, weighted, half)))


def norm(field, r: float = 0.0, tau: float = 0.0, s: float = 1.0):
    """Weighted spectral norm; see the module docstring for the convention.

    r = 0, tau = 0 gives the L2 norm; r = 1 the H1 (Zygmund) seminorm;
    tau > 0 applies the Gevrey weight exp(tau |j|^(1/s)).
    Vector fields sum over components.
    """
    GevreyParams(tau=tau, r=r, s=s)  # validate ranges
    grid = field.grid
    return _norm_of(grid, _weigh(grid, _power(field.coeffs, grid.dim),
                                 r, tau, s))


def l2_inner(f, g):
    """L2 inner product (2*pi)^N sum_j f_j conj(g_j); complex in general."""
    if f.grid != g.grid:
        raise ValueError("inner product requires matching grids")
    prod = f.coeffs * np.conj(g.coeffs)
    if isinstance(f, SpectralVectorField):
        prod = prod.sum(axis=0)
    return complex(TWO_PI**f.grid.dim * np.sum(prod))


# ----------------------------------------------------------------------
# physical-space transforms

# forward transforms carry 1/M^N so that coefficients are the plain
# Fourier series coefficients of the field


def to_physical(field):
    """Collocation values on the M^N grid (real part; imaginary ~ roundoff)."""
    grid = field.grid
    axes = tuple(range(-grid.dim, 0))
    return np.fft.ifftn(field.coeffs, axes=axes).real * grid.nmodes


def from_physical(grid: GridSpec, values):
    """Coefficients of real collocation values; inverse of :func:`to_physical`.

    Values of shape ``grid.vshape`` give a vector field, values of shape
    ``grid.shape`` a scalar one.
    """
    values = np.asarray(values, dtype=float)
    if values.shape == grid.vshape:
        cls = SpectralVectorField
    elif values.shape == grid.shape:
        cls = SpectralScalarField
    else:
        raise ValueError(
            f"values must have shape {grid.shape} or {grid.vshape}, "
            f"got {values.shape}"
        )
    axes = tuple(range(-grid.dim, 0))
    return cls(grid, np.fft.fftn(values, axes=axes) / grid.nmodes)


# ----------------------------------------------------------------------
# initial data

INITIAL_KINDS = ("taylor_green", "single_mode_theta", "rough_h1", "zero")


def _default_sobolev_exponent(dim):
    return 2.6 if dim == 2 else 3.1


def _taylor_green(grid):
    if grid.dim != 2:
        raise ValueError("taylor_green initial data is two-dimensional")
    u = SpectralVectorField(grid)
    # u = (cos x1 sin x2, -sin x1 cos x2): four modes per component,
    # u1_hat(j) = -i j2 / 4 and u2_hat(j) = i j1 / 4 on j in {-1, 1}^2
    for j1 in (1, -1):
        for j2 in (1, -1):
            idx = (j1 % grid.modes, j2 % grid.modes)
            u.coeffs[0][idx] = -0.25j * j2
            u.coeffs[1][idx] = 0.25j * j1
    theta = SpectralScalarField(grid)
    return u, theta


def _single_mode_theta(grid):
    u = SpectralVectorField(grid)
    theta = SpectralScalarField(grid)
    idx_plus = [0] * grid.dim
    idx_plus[-1] = 1
    idx_minus = [0] * grid.dim
    idx_minus[-1] = grid.modes - 1
    theta.coeffs[tuple(idx_plus)] = 0.5
    theta.coeffs[tuple(idx_minus)] = 0.5
    return u, theta


def _rough_h1(grid, seed, p):
    if p is None:
        p = _default_sobolev_exponent(grid.dim)
    if not (math.isfinite(p) and p > grid.dim / 2 + 1):
        raise ValueError(
            f"sobolev_exponent must be finite and exceed dim/2 + 1 = "
            f"{grid.dim / 2 + 1}, got {p}; shallower spectra have no H1 limit"
        )
    rng = np.random.default_rng(seed)
    amp = (1.0 + grid.kmag) ** (-p)
    # Nyquist slots are their own reflection partners, so they cannot
    # carry the reality symmetry through the Leray projection; leave them
    # empty (the dealiasing mask removes them from the dynamics anyway)
    for axis in range(grid.dim):
        amp = amp * (np.abs(grid.k[axis]) != grid.modes // 2)

    def draw():
        phases = rng.uniform(0.0, TWO_PI, size=grid.shape)
        return amp * np.exp(1j * phases)

    u = SpectralVectorField(
        grid, np.stack([draw() for _ in range(grid.dim)])
    )
    theta = SpectralScalarField(grid, draw())
    u = leray_project(enforce_constraints(u))
    theta = enforce_constraints(theta)
    return u, theta


def synthesize_initial(kind, grid, seed=0, sobolev_exponent=None):
    """Build an initial state (u, theta).

    Kinds
    -----
    ``taylor_green``
        u = (cos x1 sin x2, -sin x1 cos x2), theta = 0 (2D only).
    ``single_mode_theta``
        u = 0, theta = cos x_N (last coordinate).
    ``rough_h1``
        |coeff(j)| = (1 + |j|)^(-p) with phases drawn from ``seed``;
        p defaults to 2.6 in 2D and 3.1 in 3D and must be finite and
        exceed dim/2 + 1.
        Constraints and the Leray projection are applied afterwards, so
        the realized moduli sit at or below the target law.
    ``zero``
        Both fields identically zero.

    Every kind's u is divergence-free.  Repeated calls with the same
    arguments are bit-identical.
    """
    if kind == "taylor_green":
        return _taylor_green(grid)
    if kind == "single_mode_theta":
        return _single_mode_theta(grid)
    if kind == "rough_h1":
        return _rough_h1(grid, seed, sobolev_exponent)
    if kind == "zero":
        return SpectralVectorField(grid), SpectralScalarField(grid)
    raise ValueError(
        f"unknown initial kind {kind!r}; expected one of {INITIAL_KINDS}"
    )
