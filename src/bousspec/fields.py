"""Spectral fields on the torus and the operators acting on them.

A scalar field theta and a velocity field u are real, so they are
represented by the half spectrum of their complex coefficients, the
``rfftn`` layout of ``grid.shape`` and ``grid.vshape`` (see ``GridSpec``):
a coefficient at a last-axis label above M/2 is the conjugate of its
reflection's, so it is not stored.  Both classes share one body, whose
``components`` view the coefficients with a component axis first (one
row for theta, dim for u), so that every per-component operation reads
the two alike; ``_field`` makes the field of given rows, and the state
[u; theta] is one array of dim + 1 rows (``_stacked``) whose fields
``_unstack`` views.  Valid states satisfy three constraints throughout:

* reality:        coeff(-j) == conj(coeff(j)) on the last-axis planes 0
                  and M/2, which hold both j and -j, and no content at
                  label -M/2 on any axis,
* zero mean:      coeff(0) == 0,
* incompressible: j . u_hat(j) == 0 for every j (velocity only).

``enforce_constraints`` projects onto the first two, ``leray_project``
onto the third (keeping the first).  Norms follow the weighted-sum rule

    ||f||_{r,tau}^2 = (2*pi)^N * sum_j |j|^(2r) e^(2 tau |j|) |f_j|^2

so r = 0, tau = 0 is the plain L2 norm, r = 1 the H1 seminorm (the
Zygmund operator Lambda = sqrt(-Laplacian) acts as multiplication by |j|)
and tau > 0 the analytic Gevrey weight probing a strip of radius tau.
The weight is a function of |j|^2, so a norm folds the powers onto the
half spectrum (``_fold``), sums them per class of equal |j|^2 and weights
those sums (``_class_plan``), as records do.  The full spectrum is
rebuilt (``_from_half``) only where an oracle or the draw of rough data
asks for it.
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


class _Field:
    """A real field given by the half spectrum of its Fourier coefficients
    on ``grid``, of the shape that the grid attribute named ``_shape``
    gives; ``components`` views them with a leading component axis, so
    that scalars and vectors share every per-component operation."""

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: GridSpec, coeffs=None):
        self.grid = grid
        shape = getattr(grid, self._shape)
        if coeffs is None:
            coeffs = np.zeros(shape, dtype=complex)
        else:
            coeffs = np.asarray(coeffs, dtype=complex)
            if coeffs.shape != shape:
                raise ValueError(
                    f"{self._kind} coefficients must have shape {shape}, "
                    f"got {coeffs.shape}"
                )
        self.coeffs = coeffs

    @property
    def components(self):
        """``coeffs`` of shape (rows, *grid.shape), a view: one row for a
        scalar, dim for a vector."""
        return self.coeffs.reshape((-1,) + self.grid.shape)

    def copy(self):
        return type(self)(self.grid, self.coeffs.copy())


class SpectralScalarField(_Field):
    """Real scalar field given by the half spectrum of its Fourier
    coefficients on ``grid``."""

    __slots__ = ()
    _kind, _shape = "scalar", "shape"


class SpectralVectorField(_Field):
    """Real velocity field on the half spectrum; component axis first, so
    ``coeffs[i]`` is u_i."""

    __slots__ = ()
    _kind, _shape = "vector", "vshape"


def _field(grid, components):
    """The field whose ``components`` are ``components``: a scalar for one
    row, a vector for dim rows."""
    if len(components) == 1:
        return SpectralScalarField(grid, components[0])
    return SpectralVectorField(grid, components)


def _check_grid(grid, *fields):
    """The grid that ``fields`` live on; grids are equal when their dim
    and modes are.  Raise ValueError unless every field's grid equals
    the first one's and, when given, ``grid``."""
    first = fields[0].grid
    if grid is not None and first != grid:
        raise ValueError("fields do not live on the supplied grid")
    if any(field.grid != first for field in fields[1:]):
        raise ValueError("fields live on different grids")
    return first if grid is None else grid


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
    """Project onto real zero-mean fields; see :func:`_constrain`."""
    return type(field)(field.grid, _constrain(field.grid, field.coeffs.copy()))


def _constrain(grid, half):
    """Make a half spectrum that of a real zero-mean field, in place, and
    return it; leading (component) axes are kept.

    Only the two last-axis planes that reflect onto themselves (labels 0
    and m/2) hold both a mode and its reflection: there coefficients are
    replaced by (c_j + conj(c_{-j})) / 2, idempotent to the last bit as
    the addition commutes.  The slots with label -m/2 are emptied
    (:func:`_drop_nyquist`) and the mean mode is zeroed.
    """
    planes = half[..., :: grid.modes // 2]
    planes[...] = 0.5 * (
        planes + np.conj(planes[(Ellipsis,) + grid._plane_ix])
    )
    _drop_nyquist(grid, half)
    half[(Ellipsis,) + grid.zero_index] = 0.0
    return half


def _plane_defect(grid, half):
    """:func:`hermitian_defect` of a half spectrum, over all its leading
    (component) axes."""
    planes = half[..., :: grid.modes // 2]
    reflected = planes[(Ellipsis,) + grid._plane_ix]
    return float(np.max(np.abs(planes - np.conj(reflected))))


def _stacked(u, theta):
    """[u; theta] in one array, shape (dim + 1, *grid.shape); raise
    ValueError unless both live on one grid."""
    _check_grid(None, u, theta)
    return np.concatenate([u.components, theta.components])


def _unstack(grid, y):
    """(u, theta) fields, views of a stacked [u; theta]."""
    return _field(grid, y[: grid.dim]), _field(grid, y[grid.dim:])


def _from_half(grid, half):
    """Full coefficient array, every label in FFT layout, of a half
    spectrum made real by :func:`_constrain`: the missing labels are the
    conjugates of their reflections, so the result is Hermitian by
    construction.  Leading (component) axes are kept.
    """
    m = grid.modes
    # the labels m/2+1..m-1 are the reflections of m/2-1..1
    upper = np.ix_(*[(-np.arange(m)) % m] * (grid.dim - 1),
                   np.arange(m // 2 - 1, 0, -1))
    out = np.empty(half.shape[:-1] + (m,), dtype=complex)
    out[..., : m // 2 + 1] = half
    np.conj(half[(Ellipsis,) + upper], out=out[..., m // 2 + 1:])
    return out


def _real_half(grid, full, out=None):
    """The half spectrum of (c_j + conj(c_{-j})) / 2, the real part, of
    full coefficient arrays ``full`` (every label in FFT layout; leading
    axes kept), into ``out`` when given."""
    m = grid.modes
    reflect = np.ix_(*[(-np.arange(m)) % m] * (grid.dim - 1),
                     (-np.arange(m // 2 + 1)) % m)
    out = np.add(full[..., : m // 2 + 1], np.conj(full[(Ellipsis,) + reflect]),
                 out=out)
    return np.multiply(0.5, out, out=out)


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


def _nyquist_slots(grid, arr):
    """Views of the slots of ``arr`` with label -M/2, one per axis."""
    return [arr.swapaxes(axis, -1)[..., grid.modes // 2]
            for axis in range(-grid.dim, 0)]


def _drop_nyquist(grid, arr):
    """Zero the slots of ``arr`` with label -M/2 on any axis in place and
    return it; only slots with content are written, so an empty one
    keeps its bits.  A mode there and its reflection do not sit at
    opposite wavevectors, so a real field carries nothing there."""
    for slots in _nyquist_slots(grid, arr):
        slots[slots != 0] = 0.0
    return arr


def divergence_max(u: SpectralVectorField):
    """max_j |j . u_hat(j)|, the spectral divergence residual; on a real
    field |j . u_hat(j)| is the same at j and -j, so the half spectrum
    holds every value."""
    grid = u.grid
    return _divergence_max(grid.k_complex, u.coeffs)


def _divergence_max(k, coeffs):
    """``divergence_max`` of coefficients on the wavevectors ``k``."""
    dot = k[0] * coeffs[0]
    for k_i, c_i in zip(k[1:], coeffs[1:]):
        dot += k_i * c_i
    return float(np.max(np.abs(dot)))


def hermitian_defect(field):
    """max |c_j - conj(c_{-j})| over the modes whose reflections the half
    spectrum holds too (the last-axis planes 0 and M/2): zero for the
    half spectrum of a real field."""
    return _plane_defect(field.grid, field.coeffs)


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
    k2, index = np.unique(grid.k2.astype(np.int64).ravel(),
                          return_inverse=True)
    mult = np.full(grid.shape, 2.0)
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


def _weigh(grid, sums, r=0.0, tau=0.0):
    """Per-class ``sums`` times |j|^(2r), then times exp(2 tau |j|), for
    an r and tau that :func:`norm` takes.

    r = 1 multiplies by the exact integer |j|^2; r = 0 and tau = 0 leave
    ``sums`` as they are.
    """
    _, _, k2, kmag = _class_plan(grid)
    if r == 1.0:
        sums = k2 * sums
    elif r != 0.0:
        sums = kmag ** (2.0 * r) * sums
    if tau != 0.0:
        sums = np.exp(2.0 * tau * kmag) * sums
    return sums


def _power(components):
    """Per-mode |c_j|^2 as re^2 + im^2, summed over the rows (leading
    axis) of a field's ``components``."""
    power = np.square(components.real)
    power += np.square(components.imag)
    return power.sum(axis=0)


def norm(field, r: float = 0.0, tau: float = 0.0):
    """Weighted spectral norm; see the module docstring for the convention.

    r = 0, tau = 0 gives the L2 norm; r = 1 the H1 (Zygmund) seminorm;
    tau > 0 applies the Gevrey weight exp(tau |j|).  Vector fields sum
    over components.  r and tau must be >= 0 and finite, and tau at most
    the grid's ``tau_cap``, past which the weight would overflow.
    """
    grid = field.grid
    for key, value in (("tau", tau), ("r", r)):
        if not (value >= 0 and math.isfinite(value)):
            raise ValueError(f"{key} must be >= 0 and finite, got {value}")
    if tau > grid.tau_cap:
        raise ValueError(
            f"tau={tau} exceeds tau_cap={grid.tau_cap:.6g} for this grid; "
            "the weight would overflow the spectrum range"
        )
    power = _power(field.components)
    sums = _class_sums(grid, _fold(grid, power))
    return math.sqrt(TWO_PI**grid.dim * float(np.sum(
        _weigh(grid, sums, r, tau))))


def l2_inner(f, g):
    """L2 inner product (2*pi)^N sum_j f_j conj(g_j) of real fields, a
    real number: the terms at j and -j are conjugates, so their sum is
    twice the real part of either (:func:`_fold`)."""
    grid = _check_grid(None, f, g)
    prod = (f.components * np.conj(g.components)).real.sum(axis=0)
    return TWO_PI**grid.dim * float(np.sum(_fold(grid, prod)))


# ----------------------------------------------------------------------
# physical-space transforms

# forward transforms carry 1/M^N so that coefficients are the plain
# Fourier series coefficients of the field


def to_physical(field):
    """Collocation values on the M^N grid, by ``irfftn``."""
    grid = field.grid
    return np.fft.irfftn(field.coeffs, s=grid.physical_shape,
                         axes=tuple(range(-grid.dim, 0)), norm="forward")


def from_physical(grid: GridSpec, values):
    """Coefficients of real collocation values by ``rfftn``; inverse of
    :func:`to_physical`.

    Values of shape ``(dim, *grid.physical_shape)`` give a vector field,
    values of shape ``grid.physical_shape`` a scalar one.
    """
    values = np.asarray(values, dtype=float)
    shape = grid.physical_shape
    if values.shape not in (shape, (grid.dim,) + shape):
        raise ValueError(
            f"values must have shape {shape} or "
            f"{(grid.dim,) + shape}, got {values.shape}"
        )
    return _field(grid, np.fft.rfftn(values.reshape((-1,) + shape),
                                     axes=tuple(range(-grid.dim, 0)),
                                     norm="forward"))


# ----------------------------------------------------------------------
# initial data

INITIAL_KINDS = ("taylor_green", "single_mode_theta", "rough_h1", "zero")


def _default_sobolev_exponent(dim):
    return 2.6 if dim == 2 else 3.1


def _check_initial(kind, dim, seed, sobolev_exponent):
    """Raise ValueError unless :func:`synthesize_initial` takes these
    settings; only ``rough_h1`` reads (and checks) the exponent."""
    if kind not in INITIAL_KINDS:
        raise ValueError(f"unknown initial kind {kind!r}: initial_kind "
                         f"must be one of {INITIAL_KINDS}")
    if kind == "taylor_green" and dim != 2:
        raise ValueError("initial_kind taylor_green is two-dimensional, "
                         f"got dim = {dim}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    p = sobolev_exponent
    if kind == "rough_h1" and p is not None and not (
            math.isfinite(p) and p > dim / 2 + 1):
        raise ValueError(
            f"sobolev_exponent must be finite and exceed dim/2 + 1 = "
            f"{dim / 2 + 1}, got {p}; shallower spectra have no H1 limit"
        )


def _taylor_green(grid):
    u = SpectralVectorField(grid)
    # u = (cos x1 sin x2, -sin x1 cos x2): four modes per component,
    # u1_hat(j) = -i j2 / 4 and u2_hat(j) = i j1 / 4 on j in {-1, 1}^2,
    # of which the half spectrum holds j2 = 1
    j2 = 1
    for j1 in (1, -1):
        idx = (j1 % grid.modes, j2)
        u.coeffs[0][idx] = -0.25j * j2
        u.coeffs[1][idx] = 0.25j * j1
    theta = SpectralScalarField(grid)
    return u, theta


def _single_mode_theta(grid):
    u = SpectralVectorField(grid)
    theta = SpectralScalarField(grid)
    # cos x_N = (e^{i x_N} + e^{-i x_N}) / 2; the half spectrum holds +1
    theta.coeffs[(0,) * (grid.dim - 1) + (1,)] = 0.5
    return u, theta


def _rough_h1(grid, seed, p):
    if p is None:
        p = _default_sobolev_exponent(grid.dim)
    rng = np.random.default_rng(seed)
    # the phases are drawn on the full spectrum, one field at a time (u's
    # components, then theta); Nyquist slots cannot carry the reality
    # symmetry through the Leray projection, so they are left empty (the
    # dealiasing mask removes them from the dynamics anyway)
    amp = _from_half(grid, _drop_nyquist(grid, (1.0 + grid.kmag) ** (-p))).real
    draw = np.empty(grid.physical_shape, dtype=complex)
    y = np.empty((grid.dim + 1,) + grid.shape, dtype=complex)
    for row in y:
        np.multiply(1j, rng.uniform(0.0, TWO_PI, size=draw.shape), out=draw)
        np.exp(draw, out=draw)
        np.multiply(amp, draw, out=draw)
        _real_half(grid, draw, out=row)
    y[(Ellipsis,) + grid.zero_index] = 0.0
    _leray_in_place(grid.k, grid.k_over_k2, y[: grid.dim],
                    np.empty((2,) + grid.shape, dtype=complex))
    return _unstack(grid, y)


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
    arguments are bit-identical.  The settings are checked as
    ``RunConfig`` checks them (:func:`_check_initial`): ``seed`` must
    be >= 0 whatever the kind.
    """
    _check_initial(kind, grid.dim, seed, sobolev_exponent)
    if kind == "taylor_green":
        return _taylor_green(grid)
    if kind == "single_mode_theta":
        return _single_mode_theta(grid)
    if kind == "rough_h1":
        return _rough_h1(grid, seed, sobolev_exponent)
    return SpectralVectorField(grid), SpectralScalarField(grid)
