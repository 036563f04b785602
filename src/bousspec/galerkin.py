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
with no quadrature and no FFT, and since about one entry in a hundred is
non-zero, A and B are stored in COO form.  Advection only reshuffles
energy, which shows up here as exact antisymmetry of A and B in their last
two slots.

When the basis covers exactly the dealias-retained modes of a grid, this
ODE system is the same dynamical system the dealiased pseudospectral
solver integrates, so trajectories must agree to integrator accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    NonFiniteStateError,
    PhysicalParams,
    SpectralScalarField,
    SpectralVectorField,
)
from .grid import TWO_PI, GridSpec

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
    Velocity elements carry the unit tangent ``direction`` and the
    1-based index ``direction_index`` of the coordinate axis whose
    tangential projection generated it; scalar elements carry neither.
    ``amplitude`` normalizes the element to unit L2 norm.
    """

    wavevector: tuple
    parity: str
    amplitude: float
    direction: tuple | None = None
    direction_index: int = 0

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
    """Canonical wavevectors inside the dealias mask, sorted by (|k|^2, lex)."""
    c = grid.dealias_cutoff
    reps = {_canonical(row) for row in grid.wavevectors()
            if np.any(row) and np.all(np.abs(row) <= c)}
    return sorted(reps, key=lambda k: (sum(v * v for v in k), k))


def _tangent_directions(k):
    """Orthonormal tangents to k from Gram-Schmidt over projected axes.

    Projecting the coordinate vectors e_l onto the plane orthogonal to k
    in ascending l and orthonormalizing yields dim-1 unit tangents; the
    returned list pairs each with the 1-based l that produced it.
    """
    k = np.asarray(k, dtype=float)
    k2 = np.dot(k, k)
    dirs = []
    for ell in range(len(k)):
        v = np.zeros(len(k))
        v[ell] = 1.0
        v -= (k[ell] / k2) * k
        for _, d in dirs:
            v -= np.dot(v, d) * d
        nrm = np.linalg.norm(v)
        if nrm > 1e-12:
            dirs.append((ell + 1, v / nrm))
    return dirs


def build_basis(grid: GridSpec, m: int | None = None):
    """Velocity and scalar bases of ``m`` elements each.

    Elements are ordered by nondecreasing |k|, then lexicographically in
    the canonical wavevector, then by ascending tangent index (velocity),
    with cos before sin.  ``m = None`` keeps every element the dealias
    mask admits, which is the truncation matching the spectral solver.
    """
    amp = float(np.sqrt(2.0 / TWO_PI**grid.dim))
    vel = []
    scal = []
    for k in _pair_representatives(grid):
        for ell, d in _tangent_directions(k):
            for parity in ("cos", "sin"):
                vel.append(BasisElement(k, parity, amp, tuple(d), ell))
        for parity in ("cos", "sin"):
            scal.append(BasisElement(wavevector=k, parity=parity, amplitude=amp))
    if m is not None:
        if m > len(vel) or m > len(scal):
            raise ValueError(
                f"m = {m} exceeds the admissible basis size "
                f"({len(vel)} velocity, {len(scal)} scalar elements)"
            )
        vel = vel[:m]
        scal = scal[:m]
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


def _at(field, k):
    """Coefficients of ``field`` with a component axis first (length 1 for
    scalars), and the index of the wavevector rows ``k`` into them."""
    vector = isinstance(field, SpectralVectorField)
    return (field.coeffs if vector else field.coeffs[None],
            (slice(None), *(k % field.grid.modes).T))


def basis_field(element: BasisElement, grid: GridSpec):
    """Spectral field of a basis element (two conjugate modes)."""
    vector = element.direction is not None
    f = SpectralVectorField(grid) if vector else SpectralScalarField(grid)
    _, k, w = _flat_modes([element], grid.dim)
    coeffs, at = _at(f, k)
    coeffs[at] = w.T
    return f


@dataclass
class GalerkinSystem:
    """Assembled tensors and eigenvalues for one truncation level.

    ``A`` and ``B`` are COO tensors: values beside (nnz, 3) keys that are
    unique and sorted, a key being absent exactly when its sum over triads
    is 0.  The buoyancy coupling ``C`` has O(m) non-zeros and stays dense.
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


def _advection_coo(vmodes, modes, table, half, vol):
    """COO values and (a, b, c) keys of (E_a . grad f_b, f_c).

    Every pair of modes (p of E_a, q of f_b) meets the modes r = -(p + q)
    of f, each triad adding vol Re[i (w_a . q)(w_b . w_c)].  Triads are
    summed per key in the order (a, p, b, q, c); zero sums are dropped.
    """
    owner_a, p, wa = vmodes
    owner, q, w = modes
    i, j = np.indices((len(p), len(q))).reshape(2, -1)
    pair, r = _receivers(p[i] + q[j], table, half)
    i, j = i[pair], j[pair]
    values = vol * (1j * (wa @ q.T)[i, j] * (w @ w.T)[j, r]).real
    shape = (len(p) // 2, len(q) // 2, len(q) // 2)
    keys, inverse = np.unique(np.ravel_multi_index(
        (owner_a[i], owner[j], owner[r]), shape), return_inverse=True)
    sums = np.bincount(inverse, weights=values)
    keep = sums != 0
    return sums[keep], np.stack(np.unravel_index(keys[keep], shape), axis=1)


def assemble_tensors(vel_basis, scalar_basis, grid: GridSpec,
                     buoyancy_axis: int | None = None):
    """Interaction tensors by analytic triad matching; the receiving
    modes are looked up in the box |k_i| <= 2 * cutoff of all sums."""
    axis = (grid.dim if buoyancy_axis is None else buoyancy_axis) - 1
    vol = TWO_PI**grid.dim
    half = 2 * grid.dealias_cutoff
    vmodes = _flat_modes(vel_basis, grid.dim)
    smodes = _flat_modes(scalar_basis, grid.dim)
    vtable = _lookup(vmodes[1], half)
    A, A_index = _advection_coo(vmodes, vmodes, vtable, half, vol)
    B, B_index = _advection_coo(vmodes, smodes, _lookup(smodes[1], half),
                                half, vol)

    # scalar mode p forces the velocity modes at -p
    g, c = _receivers(smodes[1], vtable, half)
    C = np.zeros((len(scalar_basis), len(vel_basis)))
    np.add.at(C, (smodes[0][g], vmodes[0][c]),
              vol * (smodes[2][g, 0] * vmodes[2][c, axis]).real)

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


def _rk4_step(state, system, params, dt):
    def add(s, dxi, deta, h):
        return GalerkinState(s.xi + h * dxi, s.eta + h * deta, s.t)

    k1 = galerkin_rhs(state, system, params)
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
    """Fixed-step RK4 integration to time T, sampling every step."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if T < dt:
        raise ValueError(f"T must be at least dt, got T={T}, dt={dt}")
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * dt:
        n_steps = int(T / dt)

    states = [initial.copy()]
    xi_res = np.zeros(n_steps)
    eta_res = np.zeros(n_steps)
    state = initial.copy()
    for n in range(n_steps):
        mid = _rk4_step(state, system, params, dt / 2)
        new = _rk4_step(state, system, params, dt)
        if not (np.all(np.isfinite(new.xi)) and np.all(np.isfinite(new.eta))):
            raise NonFiniteStateError(new.t, state)
        p0 = _powers(state, system, params)
        pm = _powers(mid, system, params)
        p1 = _powers(new, system, params)
        simpson = [dt / 6 * (p0[i] + 4 * pm[i] + p1[i]) for i in (0, 1)]
        xi_res[n] = 0.5 * (np.sum(new.xi**2) - np.sum(state.xi**2)) - simpson[0]
        eta_res[n] = 0.5 * (np.sum(new.eta**2) - np.sum(state.eta**2)) - simpson[1]
        state = new
        states.append(state.copy())
    return GalerkinTrajectory(states, xi_res, eta_res)


def project_state(u: SpectralVectorField, theta: SpectralScalarField,
                  system: GalerkinSystem, t: float = 0.0):
    """Coordinates (xi, eta) of (u, theta) in the basis."""
    grid = system.grid

    def coords(field, basis):
        _, k, w = _flat_modes(basis, grid.dim)
        coeffs, at = _at(field, k)
        total = np.sum(coeffs[at].T * w.conj(), axis=1).reshape(-1, 2).sum(1)
        return TWO_PI**grid.dim * total.real

    return GalerkinState(coords(u, system.vel_basis),
                         coords(theta, system.scalar_basis), t)


def reconstruct(state: GalerkinState, system: GalerkinSystem):
    """Spectral fields u = sum xi_j E_j, theta = sum eta_a e_a."""
    grid = system.grid

    def synthesize(field, x, basis):
        owner, k, w = _flat_modes(basis, grid.dim)
        np.add.at(*_at(field, k), x[owner] * w.T)
        return field

    return (synthesize(SpectralVectorField(grid), state.xi, system.vel_basis),
            synthesize(SpectralScalarField(grid), state.eta,
                       system.scalar_basis))
