"""Low-mode Galerkin ODE oracle for cross-validating the spectral solver.

The velocity space is spanned by real, orthonormal, divergence-free
eigenfunctions of the Stokes operator,

    E = a * d * cos(k . x)   and   a * d * sin(k . x),

one conjugate pair of wavevectors {k, -k} at a time, with d a unit vector
tangent to k (one choice in 2D, two in 3D) and a = sqrt(2 / (2 pi)^N).
Temperature uses the scalar analogues a * cos(n . x), a * sin(n . x).
Expanding u = sum xi_j E_j, theta = sum eta_a e_a turns the PDE into

    dxi_j/dt  + nu  lam_j xi_j  + sum A[k,l,j] xi_k xi_l = sum C[g,j] eta_g
    deta_a/dt + kap tau_a eta_a + sum B[j,b,a] xi_j eta_b = 0

with interaction tensors assembled analytically: each basis element has
exactly two Fourier modes, and three exponentials integrate to zero unless
their wavevectors form a triad p + q + r = 0 (Waleffe 1992, Phys. Fluids A
4, 350).  The triads are enumerated directly by integer wavevector lookup,
with no quadrature and no FFT, one |p|^2 shell of advecting modes at a
time, so that no step holds all (2m)^2 mode pairs; since about one entry
in a hundred is non-zero, A and B are stored in COO form.  Advection only
reshuffles energy, which shows up here as exact antisymmetry of A and B
in their last two slots.

When the basis covers exactly the dealias-retained modes of a grid, this
ODE system is the same dynamical system the dealiased pseudospectral
solver integrates, so trajectories must agree to integrator accuracy.
Fields enter and leave the oracle as the half spectra they hold, and it
works on their full spectra, where each element's two modes sit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    NonFiniteStateError,
    PhysicalParams,
    SpectralScalarField,
    SpectralVectorField,
    _from_half,
)
from .grid import TWO_PI, GridSpec
from .stepper import _step_times

__all__ = [
    "BasisElement",
    "GalerkinSystem",
    "GalerkinState",
    "GalerkinTrajectory",
    "NonFiniteStateError",
    "build_basis",
    "basis_field",
    "assemble_tensors",
    "galerkin_rhs",
    "integrate_galerkin",
    "project_state",
    "reconstruct",
]


@dataclass(frozen=True)
class BasisElement:
    """One real basis function.

    ``wavevector`` is the canonical representative of the conjugate pair
    (first nonzero component positive); ``parity`` is "cos" or "sin".
    Velocity elements carry an integer ``tangent`` to the wavevector
    and the unit ``direction`` along it; scalar elements carry neither.
    ``amplitude`` normalizes the element to unit L2 norm.
    """

    wavevector: tuple
    parity: str
    amplitude: float
    direction: tuple | None = None
    tangent: tuple | None = None

    @property
    def eigenvalue(self):
        """|k|^2, the (minus-Laplacian) eigenvalue of the element."""
        return float(sum(c * c for c in self.wavevector))

    def plus_mode(self):
        """Complex coefficient vector (or scalar) at +wavevector."""
        factor = 0.5 if self.parity == "cos" else -0.5j
        if self.direction is None:
            return self.amplitude * factor
        return self.amplitude * factor * np.asarray(self.direction)


def _canonical(k):
    """Representative of {k, -k} with the first nonzero component positive."""
    for c in k:
        if c > 0:
            return tuple(int(v) for v in k)
        if c < 0:
            return tuple(int(-v) for v in k)
    raise ValueError("zero wavevector has no canonical representative")


def _pair_representatives(grid):
    """Canonical wavevectors of the dealias mask's box |k_i| <= cutoff,
    sorted by (|k|^2, lex)."""
    c = grid.dealias_cutoff
    reps = {_canonical(k)
            for k in itertools.product(range(-c, c + 1), repeat=grid.dim)
            if any(k)}
    return sorted(reps, key=lambda k: (sum(v * v for v in k), k))


def _tangents(k):
    """Integer tangents to k from Gram-Schmidt over projected axes.

    Projecting the coordinate vectors e_l onto the plane orthogonal to k
    in ascending l and removing the earlier tangents, with every step
    scaled to stay in integers, yields dim-1 tangents, in the order of
    the l that produced them.  Exact arithmetic decides which projections
    vanish and which dot products with integer wavevectors are 0.
    """
    k = np.asarray(k, dtype=np.int64)
    tangents = []
    for ell in range(len(k)):
        t = -k[ell] * k
        t[ell] += k @ k
        for d in tangents:
            t = (d @ d) * t - (t @ d) * d
        if np.any(t):
            tangents.append(t // np.gcd.reduce(t))
    return tangents


def build_basis(grid: GridSpec):
    """Velocity and scalar bases of every element the dealias mask admits,
    which is the truncation matching the spectral solver.

    Elements are ordered by nondecreasing |k|, then lexicographically in
    the canonical wavevector, then in the order of ``_tangents``
    (velocity), with cos before sin.
    """
    amp = float(np.sqrt(2.0 / TWO_PI**grid.dim))
    vel = []
    scal = []
    for k in _pair_representatives(grid):
        for t in _tangents(k):
            d = tuple(t / np.linalg.norm(t))
            for parity in ("cos", "sin"):
                vel.append(BasisElement(k, parity, amp, d, tuple(t.tolist())))
        for parity in ("cos", "sin"):
            scal.append(BasisElement(wavevector=k, parity=parity, amplitude=amp))
    return vel, scal


def _flat_modes(basis, dim):
    """Owner element, integer wavevector and coefficients of every mode:
    element e owns mode 2e at its wavevector k and mode 2e + 1 at -k."""
    n = len(basis)
    ncomp = dim if n and basis[0].direction is not None else 1
    k = np.array([e.wavevector for e in basis], dtype=np.int64).reshape(n, dim)
    w = np.array([np.atleast_1d(e.plus_mode()) for e in basis],
                 dtype=complex).reshape(n, ncomp)
    return (np.repeat(np.arange(n), 2),
            np.stack([k, -k], axis=1).reshape(2 * n, dim),
            np.stack([w, w.conj()], axis=1).reshape(2 * n, ncomp))


def _mode_tangents(basis):
    """Integer vector every mode's direction is parallel to, ordered as
    in ``_flat_modes``: the element's tangent, or 1 for scalar elements."""
    if not basis or basis[0].direction is None:
        return np.ones((2 * len(basis), 1), dtype=np.int64)
    t = np.array([e.tangent for e in basis], dtype=np.int64)
    return np.repeat(t, 2, axis=0)


def _at(k, grid):
    """Index of the wavevector rows ``k`` into full spectra with a
    component axis first."""
    return (slice(None), *(k % grid.modes).T)


def _synthesize(grid, basis, x, vector):
    """The field sum_e x[e] (element e of ``basis``), through its full
    spectrum."""
    owner, k, w = _flat_modes(basis, grid.dim)
    full = np.zeros((grid.dim if vector else 1,) + grid.physical_shape,
                    dtype=complex)
    np.add.at(full, _at(k, grid), x[owner] * w.T)
    half = full[..., : grid.modes // 2 + 1].copy()
    return (SpectralVectorField(grid, half) if vector
            else SpectralScalarField(grid, half[0]))


def basis_field(element: BasisElement, grid: GridSpec):
    """Spectral field of a basis element (two conjugate modes)."""
    return _synthesize(grid, [element], np.ones(1),
                       element.direction is not None)


@dataclass
class GalerkinSystem:
    """Assembled tensors and eigenvalues for one truncation level.

    ``A`` and ``B`` are COO tensors: values beside (nnz, 3) keys that are
    unique and sorted, a key being absent exactly when its sum over triads
    is 0; triads whose exact value is 0 add nothing, so no entry is bare
    roundoff.  The buoyancy coupling ``C`` has O(m) non-zeros and stays
    dense.
    """

    grid: GridSpec
    vel_basis: list
    scalar_basis: list
    A: np.ndarray  # (nnz_A,) values
    A_index: np.ndarray  # (nnz_A, 3) int: (a, b, c)
    B: np.ndarray  # (nnz_B,) values
    B_index: np.ndarray  # (nnz_B, 3) int: (j, b, a)
    C: np.ndarray  # (ms, m): (e_g e_N, E_j)
    lam: np.ndarray
    tau_eig: np.ndarray

    @property
    def m(self):
        return len(self.vel_basis)


def _key(k, half):
    """Integer key of each wavevector row of ``k`` in the box |k_i| <= half."""
    return np.ravel_multi_index((k + half).T, (2 * half + 1,) * k.shape[1])


def _lookup(k, half):
    """Table from wavevector key to the modes there, ascending, -1 padded."""
    keys = _key(k, half)
    counts = np.bincount(keys, minlength=(2 * half + 1) ** k.shape[1])
    order = np.argsort(keys, kind="stable")
    slot = np.arange(len(keys)) - (np.cumsum(counts) - counts)[keys[order]]
    table = np.full((len(counts), counts.max(initial=0)), -1)
    table[keys[order], slot] = order
    return table


def _receivers(s, table, half):
    """(row, mode) for every mode in ``table`` at -s[row]."""
    hits = table[_key(-s, half)]
    row, slot = np.nonzero(hits >= 0)
    return row, hits[row, slot]


def _dots(x, y, tx, ty):
    """x @ y.T, exactly 0 where the integer rows tx and ty that the rows of
    x and y are parallel to are orthogonal."""
    dots = x @ y.T
    dots[tx @ ty.T == 0] = 0.0
    return dots


def _shells(k):
    """Slices of the runs of rows of ``k`` with equal |k|^2."""
    cuts = np.flatnonzero(np.diff(np.sum(k * k, axis=1))) + 1
    return [slice(a, b) for a, b in zip([0, *cuts], [*cuts, len(k)])]


def _advection_coo(vmodes, vtangents, modes, tangents, table, half, vol):
    """COO values and (a, b, c) keys of (E_a . grad f_b, f_c).

    Every pair of modes (p of E_a, q of f_b) meets the modes r = -(p + q)
    of f, each triad adding vol Re[i (w_a . q)(w_b . w_c)].  The two dot
    products are exactly 0 where the integer vectors the directions are
    parallel to (``vtangents`` of E_a, ``tangents`` of f) are orthogonal
    to q or to each other; such triads add nothing, where floating point
    would leave roundoff.  Triads are summed per key in the order
    (a, p, b, q, c); zero sums are dropped.

    The pairs, and the w_a . q products, are formed one |p|^2 shell of
    advecting modes at a time, so those temporaries scale with a shell,
    not with all (2m)^2 pairs; only the w_b . w_c table covers every
    pair of modes of f.  Both modes of an element lie in one shell, so
    each key is summed whole within its shell, and the shells' keys, led
    by a, concatenate sorted.
    """
    owner_a, p, wa = vmodes
    owner, q, w = modes
    wbc = _dots(w, w, tangents, tangents)
    shape = (len(p) // 2, len(q) // 2, len(q) // 2)
    values, keys = [], []
    for shell in _shells(p):
        waq = _dots(wa[shell], q, vtangents[shell], q)
        i, j = np.indices(waq.shape).reshape(2, -1)
        pair, r = _receivers(p[shell][i] + q[j], table, half)
        i, j = i[pair], j[pair]
        shell_keys, inverse = np.unique(np.ravel_multi_index(
            (owner_a[shell][i], owner[j], owner[r]), shape),
            return_inverse=True)
        sums = np.bincount(
            inverse, weights=vol * (1j * waq[i, j] * wbc[j, r]).real)
        keep = sums != 0
        values.append(sums[keep])
        keys.append(shell_keys[keep])
    return (np.concatenate(values),
            np.stack(np.unravel_index(np.concatenate(keys), shape), axis=1))


def assemble_tensors(vel_basis, scalar_basis, grid: GridSpec):
    """Interaction tensors by analytic triad matching.

    The mode pairs of A and B are formed one |p|^2 shell of advecting
    modes at a time (``build_basis`` orders the elements by |k|), and
    the receiving modes are looked up in the box |k_i| <= 2 * cutoff of
    all sums.
    """
    vol = TWO_PI**grid.dim
    half = 2 * grid.dealias_cutoff
    vmodes = _flat_modes(vel_basis, grid.dim)
    smodes = _flat_modes(scalar_basis, grid.dim)
    vtangents = _mode_tangents(vel_basis)
    vtable = _lookup(vmodes[1], half)
    A, A_index = _advection_coo(vmodes, vtangents, vmodes, vtangents, vtable,
                                half, vol)
    B, B_index = _advection_coo(vmodes, vtangents, smodes,
                                _mode_tangents(scalar_basis),
                                _lookup(smodes[1], half), half, vol)

    # scalar mode p forces the velocity modes at -p, through their
    # component along gravity (the last axis)
    g, c = _receivers(smodes[1], vtable, half)
    C = np.zeros((len(scalar_basis), len(vel_basis)))
    np.add.at(C, (smodes[0][g], vmodes[0][c]),
              vol * (smodes[2][g, 0] * vmodes[2][c, -1]).real)

    lam = np.array([e.eigenvalue for e in vel_basis])
    tau_eig = np.array([e.eigenvalue for e in scalar_basis])
    return GalerkinSystem(grid, list(vel_basis), list(scalar_basis),
                          A, A_index, B, B_index, C, lam, tau_eig)


@dataclass
class GalerkinState:
    xi: np.ndarray
    eta: np.ndarray
    t: float = 0.0

    def copy(self):
        return GalerkinState(self.xi.copy(), self.eta.copy(), self.t)


def galerkin_rhs(state: GalerkinState, system: GalerkinSystem,
                 params: PhysicalParams):
    """Right-hand sides (dxi/dt, deta/dt) of the truncated system."""
    xi, eta = state.xi, state.eta
    a, b, c = system.A_index.T
    j, g, h = system.B_index.T
    dxi = (
        -params.nu * system.lam * xi
        - np.bincount(c, weights=system.A * xi[a] * xi[b], minlength=len(xi))
        + np.einsum("gc,g->c", system.C, eta)
    )
    deta = (
        -params.kappa * system.tau_eig * eta
        - np.bincount(h, weights=system.B * xi[j] * eta[g], minlength=len(eta))
    )
    return dxi, deta


@dataclass
class GalerkinTrajectory:
    """States sampled every step plus per-step energy-identity residuals.

    ``xi_residuals[n]`` measures how far step n strays from the exact
    kinetic-energy balance d/dt(|xi|^2/2) = -nu sum lam xi^2 + xi.C.eta
    (Simpson quadrature of the power along the step); ``eta_residuals``
    is the temperature analogue.  Both shrink like dt^5 per step for the
    RK4 integrator.
    """

    states: list
    xi_residuals: np.ndarray
    eta_residuals: np.ndarray


def _rk4_step(state, system, params, dt, k1):
    """One RK4 step of ``dt`` from ``state``, whose right-hand side
    ``k1`` the caller has taken (it serves several step sizes)."""
    def add(s, dxi, deta, h):
        return GalerkinState(s.xi + h * dxi, s.eta + h * deta, s.t)

    k2 = galerkin_rhs(add(state, *k1, dt / 2), system, params)
    k3 = galerkin_rhs(add(state, *k2, dt / 2), system, params)
    k4 = galerkin_rhs(add(state, *k3, dt), system, params)
    xi = state.xi + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    eta = state.eta + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return GalerkinState(xi, eta, state.t + dt)


def _powers(state, system, params):
    xi, eta = state.xi, state.eta
    p_xi = (
        -params.nu * np.sum(system.lam * xi**2)
        + np.einsum("gc,g,c->", system.C, eta, xi)
    )
    p_eta = -params.kappa * np.sum(system.tau_eig * eta**2)
    return p_xi, p_eta


def integrate_galerkin(system: GalerkinSystem, initial: GalerkinState,
                       T: float, dt: float, params: PhysicalParams):
    """Fixed-step RK4 integration to the end time T counted from
    ``initial.t``, sampling every step: ``run_simulation``'s steps to
    that end time, so state n is at the time of the solver's step n."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be > 0 and finite, got {dt}")
    if not (T >= dt and math.isfinite(T)):
        raise ValueError(
            f"T must be finite and at least dt, got T={T}, dt={dt}"
        )
    state = initial.copy()
    states = [state]
    xi_res, eta_res = [], []
    # the half step and the step share their first stage, and each step
    # starts from the power at the end of the one before
    p1 = _powers(state, system, params)
    for _ in _step_times(initial.t, initial.t + T, dt):
        k1 = galerkin_rhs(state, system, params)
        mid = _rk4_step(state, system, params, dt / 2, k1)
        new = _rk4_step(state, system, params, dt, k1)
        if not (np.all(np.isfinite(new.xi)) and np.all(np.isfinite(new.eta))):
            raise NonFiniteStateError(new.t, state)
        p0 = p1
        pm = _powers(mid, system, params)
        p1 = _powers(new, system, params)
        simpson = [dt / 6 * (p0[i] + 4 * pm[i] + p1[i]) for i in (0, 1)]
        xi_res.append(
            0.5 * (np.sum(new.xi**2) - np.sum(state.xi**2)) - simpson[0])
        eta_res.append(
            0.5 * (np.sum(new.eta**2) - np.sum(state.eta**2)) - simpson[1])
        state = new
        states.append(state)
    return GalerkinTrajectory(states, np.array(xi_res), np.array(eta_res))


def project_state(u: SpectralVectorField, theta: SpectralScalarField,
                  system: GalerkinSystem, t: float = 0.0):
    """Coordinates (xi, eta) of (u, theta) in the basis."""
    grid = system.grid

    def coords(field, basis):
        _, k, w = _flat_modes(basis, grid.dim)
        full = _from_half(grid, field.coeffs.reshape((-1,) + grid.shape))
        total = np.sum(full[_at(k, grid)].T * w.conj(),
                       axis=1).reshape(-1, 2).sum(1)
        return TWO_PI**grid.dim * total.real

    return GalerkinState(coords(u, system.vel_basis),
                         coords(theta, system.scalar_basis), t)


def reconstruct(state: GalerkinState, system: GalerkinSystem):
    """Spectral fields u = sum xi_j E_j, theta = sum eta_a e_a."""
    return (_synthesize(system.grid, system.vel_basis, state.xi, True),
            _synthesize(system.grid, system.scalar_basis, state.eta, False))
