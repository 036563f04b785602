"""Spectral fields on the torus and the operators acting on them.

A scalar field theta and a velocity field u are represented by their full
complex coefficient arrays (shape ``grid.shape`` and ``grid.vshape``).
Valid states satisfy three constraints throughout:

* reality:        coeff(-j) == conj(coeff(j)) for every j,
* zero mean:      coeff(0) == 0,
* incompressible: j . u_hat(j) == 0 for every j (velocity only).

``enforce_constraints`` projects onto the first two, ``leray_project``
onto the third (keeping the first).  Norms follow the weighted-sum rule

    ||f||_{r,tau,s}^2 = (2*pi)^N * sum_j |j|^(2r) e^(2 tau |j|^(1/s)) |f_j|^2

so r = 0, tau = 0 is the plain L2 norm and r = 1 the H1 seminorm (the
Zygmund operator Lambda = sqrt(-Laplacian) acts as multiplication by |j|).
Norms read the half spectrum of real fields: the weight is a function of
|j|^2, so a norm folds the powers (``_fold``), sums them per class of
equal |j|^2 and weights those sums (``_class_plan``), as records do.
"""

from __future__ import annotations

import functools
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
    return type(field)(field.grid, _enforce_in_place(field.grid,
                                                     field.coeffs.copy()))


def _enforce_in_place(grid, arr):
    """:func:`enforce_constraints` on a coefficient array, written into
    it one field at a time, so that one field's reflection is the only
    temporary.  Leading (component) axes are kept."""
    for lead in np.ndindex(arr.shape[: arr.ndim - grid.dim]):
        reflected = arr[lead][grid._conj_ix]
        np.conjugate(reflected, out=reflected)
        np.add(arr[lead], reflected, out=reflected)
        np.multiply(0.5, reflected, out=arr[lead])
    arr[(Ellipsis,) + grid.zero_index] = 0.0
    return arr


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


def _stacked_half(u, theta):
    """[u; theta] on the half spectrum, shape (dim + 1, *half)."""
    half = u.grid.half_slice
    return np.concatenate([u.coeffs[half], theta.coeffs[np.newaxis][half]])


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
    """arr -= k (k_over_k2 . arr), written into ``arr``, with the first
    two rows of ``scratch`` for the intermediate arrays."""
    total, term = scratch[0], scratch[1]
    np.multiply(k_over_k2[0], arr[0], out=total)
    for i in range(1, len(arr)):
        total += np.multiply(k_over_k2[i], arr[i], out=term)
    for i in range(len(arr)):
        arr[i] -= np.multiply(k[i], total, out=term)
    return arr


def leray_project(u: SpectralVectorField):
    """Remove the gradient part: u_hat(j) -= (j . u_hat(j)) j / |j|^2.

    Slots with label -M/2 are zeroed first, so that a real field stays
    real.  The zero mode passes through untouched (it is zero for valid
    states).  Self-adjoint and idempotent.
    """
    grid = u.grid
    scratch = np.empty((2,) + grid.shape, dtype=complex)
    return SpectralVectorField(grid, _leray_in_place(
        grid.k, grid.k_over_k2, _drop_nyquist(grid, u.coeffs.copy()),
        scratch))


def _drop_nyquist(grid, arr):
    """Zero the slots of ``arr`` with label -M/2 on any axis in place and
    return it.  A mode there and its reflection do not sit at opposite
    wavevectors, so projecting them breaks the reality symmetry."""
    for axis in range(-grid.dim, 0):
        arr.swapaxes(axis, -1)[..., grid.modes // 2] = 0.0
    return arr


def divergence_max(u: SpectralVectorField):
    """max_j |j . u_hat(j)|, the spectral divergence residual.

    Taken on the half spectrum of a real field, where |j . u_hat(j)| is
    the same at j and -j, except on slots with label -M/2, which
    ``leray_project`` and the stepper leave empty.
    """
    grid = u.grid
    return _divergence_max(grid.half_k_complex, u.coeffs[grid.half_slice])


def _divergence_max(k, coeffs):
    """``divergence_max`` of coefficients on the wavevectors ``k``."""
    dot = k[0] * coeffs[0]
    for k_i, c_i in zip(k[1:], coeffs[1:]):
        dot += k_i * c_i
    return float(np.max(np.abs(dot)))


def hermitian_defect(field):
    """max_j |c_j - conj(c_{-j})|, zero for fields with the reality symmetry."""
    arr = field.coeffs
    reflected = arr[(Ellipsis,) + field.grid._conj_ix]
    return float(np.max(np.abs(arr - np.conj(reflected))))


# ----------------------------------------------------------------------
# norms


@functools.lru_cache(maxsize=8)
def _class_plan(grid):
    """The classes of equal integer |j|^2 of a grid's half spectrum.

    Returns, as read-only arrays: the class of each flat half mode,
    repeated thrice with offsets of the number of classes, so that one
    ``bincount`` sums up to three stacked quantities; the multiplicity of
    each half mode (1 on the last-axis planes 0 and m/2, which hold both
    j and -j, and 2 elsewhere, where it stands for j and -j); and |j|^2
    and |j| of each class, in increasing order.
    """
    k2, index = np.unique(grid.half_k2.astype(np.int64).ravel(),
                          return_inverse=True)
    mult = np.full(grid.half_k2.shape, 2.0)
    mult[..., :: grid.modes // 2] = 1.0
    plan = (np.concatenate([index, index + k2.size, index + 2 * k2.size]),
            mult, k2.astype(float), np.sqrt(k2))
    for value in plan:
        value.flags.writeable = False
    return plan


def _fold(grid, values, out=None):
    """A per-mode quantity on the half spectrum of a real field, equal at
    j and -j (a power, say), times each half mode's multiplicity, into
    ``out`` when given: its sum is the sum over all modes."""
    return np.multiply(_class_plan(grid)[1], values, out=out)


def _class_sums(grid, folded):
    """Per-class sums of a :func:`_fold`-ed quantity of shape (*half), or
    of up to three stacked, in one ``bincount``: shape (n,) or (rows, n)."""
    sums = np.bincount(_class_plan(grid)[0][: folded.size],
                       weights=folded.reshape(-1))
    return sums.reshape(folded.shape[: folded.ndim - grid.dim] + (-1,))


def _weigh(grid, sums, r=0.0, tau=0.0, s=1.0):
    """Per-class ``sums`` times |j|^(2r), then times exp(2 tau |j|^(1/s)).

    r = 1 multiplies by the exact integer |j|^2; r = 0 and tau = 0 leave
    ``sums`` as they are.
    """
    _, _, k2, kmag = _class_plan(grid)
    if r == 1.0:
        sums = k2 * sums
    elif r != 0.0:
        sums = kmag ** (2.0 * r) * sums
    if tau > grid.tau_cap:
        raise ValueError(
            f"tau={tau} exceeds tau_cap={grid.tau_cap:.6g} for this grid; "
            "the weight would overflow the spectrum range"
        )
    if tau != 0.0:
        kmag = kmag if s == 1.0 else kmag ** (1.0 / s)
        sums = np.exp(2.0 * tau * kmag) * sums
    return sums


def _power(coeffs, dim):
    """Per-mode |c_j|^2 as re^2 + im^2 of a scalar's coefficients, or
    summed over the components (leading axis) of a vector's; ``dim`` is
    the grid's dimension, which tells the two apart."""
    power = np.square(coeffs.real)
    power += np.square(coeffs.imag)
    if coeffs.ndim > dim:
        power = power.sum(axis=0)
    return power


def norm(field, r: float = 0.0, tau: float = 0.0, s: float = 1.0):
    """Weighted spectral norm; see the module docstring for the convention.

    r = 0, tau = 0 gives the L2 norm; r = 1 the H1 (Zygmund) seminorm;
    tau > 0 applies the Gevrey weight exp(tau |j|^(1/s)).
    Vector fields sum over components.  The field must be real: the sum
    is taken on its half spectrum.
    """
    GevreyParams(tau=tau, r=r, s=s)  # validate ranges
    grid = field.grid
    power = _power(field.coeffs[grid.half_slice], grid.dim)
    sums = _class_sums(grid, _fold(grid, power))
    return math.sqrt(TWO_PI**grid.dim * float(np.sum(
        _weigh(grid, sums, r, tau, s))))


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
    # Nyquist slots cannot carry the reality symmetry through the Leray
    # projection; leave them empty (the dealiasing mask removes them from
    # the dynamics anyway)
    amp = _drop_nyquist(grid, (1.0 + grid.kmag) ** (-p))
    # u's components, then theta, drawn into one array and constrained
    # and projected in place, so that no step holds a second copy
    y = np.empty((grid.dim + 1,) + grid.shape, dtype=complex)
    for row in y:
        np.multiply(1j, rng.uniform(0.0, TWO_PI, size=grid.shape), out=row)
        np.exp(row, out=row)
        np.multiply(amp, row, out=row)
    _enforce_in_place(grid, y)
    _leray_in_place(grid.k, grid.k_over_k2, y[: grid.dim],
                    np.empty((2,) + grid.shape, dtype=complex))
    return (SpectralVectorField(grid, y[: grid.dim]),
            SpectralScalarField(grid, y[grid.dim]))


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
