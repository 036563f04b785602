"""Low-mode Galerkin ODE oracle for cross-validating the spectral solver.

The velocity space is spanned by real, orthonormal, divergence-free
eigenfunctions of the Stokes operator,

    E = a * d * cos(k . x)   and   a * d * sin(k . x),

one conjugate pair of wavevectors {k, -k} at a time, with d = t / |t| for
an integer t tangent to k (one in 2D, two in 3D) and a = sqrt(2 / (2 pi)^N).
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
reshuffles energy, which shows up here as antisymmetry of A and B in
their last two slots; every dot product being an integer dot times the
modes' scalar coefficients, it holds to the bit.

When the basis covers exactly the dealias-retained modes of a grid, this
ODE system is the same dynamical system the dealiased pseudospectral
solver integrates, so trajectories must agree to integrator accuracy.
Fields enter and leave the oracle as the half spectra they hold, and it
works on their full spectra, where each element's two modes sit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    NonFiniteStateError,
    PhysicalParams,
    SpectralScalarField,
    SpectralVectorField,
    _field,
    _from_half,
)
from .grid import TWO_PI, GridSpec
from .stepper import _step_times

__all__ = [
    "Basis",
    "GalerkinSystem",
    "GalerkinState",
    "GalerkinTrajectory",
    "NonFiniteStateError",
    "build_basis",
    "basis_field",
    "assemble_tensors",
    "integrate_galerkin",
    "project_state",
    "reconstruct",
]


@dataclass(frozen=True, eq=False)
class Basis:
    """Real basis functions as the arrays of their Fourier modes.

    Element e, a cos or a sin element at a canonical wavevector k (first
    nonzero component positive), owns mode 2e at k and mode 2e + 1 at -k.
    Row i of ``k`` is the wavevector of mode i; its vector coefficient
    ``w[i]`` is the complex ``coef[i]`` times the integer ``tangent[i]``
    (tangent to k, or 1 for a scalar element).
    """

    k: np.ndarray  # (2n, dim)
    coef: np.ndarray  # (2n,)
    tangent: np.ndarray  # (2n, dim) velocity, (2n, 1) scalar

    def __len__(self):
        return len(self.k) // 2

    @property
    def w(self):
        """The vector coefficient of each mode, coef times tangent."""
        return self.coef[:, None] * self.tangent

    @property
    def owner(self):
        """The element of each mode."""
        return np.repeat(np.arange(len(self)), 2)

    @property
    def eigenvalues(self):
        """|k|^2 of each element, its (minus-Laplacian) eigenvalue."""
        return np.sum(self.k[::2] ** 2, axis=1).astype(float)


def _pair_representatives(grid):
    """Canonical wavevectors of the dealias mask's box |k_i| <= cutoff,
    sorted by (|k|^2, lex)."""
    c = grid.dealias_cutoff
    box = np.indices((2 * c + 1,) * grid.dim).reshape(grid.dim, -1).T - c
    # in lexicographic order, the rows after the zero at the centre are
    # those whose first nonzero component is positive
    reps = box[len(box) // 2 + 1:]
    return reps[np.argsort(np.sum(reps * reps, axis=1), kind="stable")]


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


def _pairs(a, b):
    """The rows a[0], b[0], a[1], b[1], ..."""
    return np.stack([a, b], axis=1).reshape(-1, *a.shape[1:])


def _basis(k, tangent, amp):
    """The cos and then the sin element of amplitude ``amp`` at each row
    of ``k``, along the same row t of ``tangent`` (1 for a scalar): coef
    amp / 2 / |t| and -i amp / 2 / |t| at k, the conjugates at -k."""
    c = amp / 2 / np.linalg.norm(tangent, axis=1)
    coef = _pairs(c, -1j * c)
    k = np.repeat(k, 2, axis=0)
    return Basis(_pairs(k, -k), _pairs(coef, coef.conj()),
                 np.repeat(tangent, 4, axis=0))


def build_basis(grid: GridSpec):
    """Velocity and scalar bases of every element the dealias mask admits,
    which is the truncation matching the spectral solver.

    Elements are ordered by nondecreasing |k|, then lexicographically in
    the canonical wavevector, then in the order of ``_tangents``
    (velocity), with cos before sin.
    """
    amp = float(np.sqrt(2.0 / TWO_PI**grid.dim))
    reps = _pair_representatives(grid)
    tangent = np.array([t for k in reps for t in _tangents(k)])
    return (_basis(np.repeat(reps, grid.dim - 1, axis=0), tangent, amp),
            _basis(reps, np.ones((len(reps), 1), dtype=np.int64), amp))


def _at(k, grid):
    """Index of the wavevector rows ``k`` into full spectra with a
    component axis first."""
    return (slice(None), *(k % grid.modes).T)


def _synthesize(grid, basis, x):
    """The field sum_e x[e] (element e of ``basis``), through its full
    spectrum."""
    ncomp = basis.tangent.shape[1]
    full = np.zeros((ncomp,) + grid.physical_shape, dtype=complex)
    np.add.at(full, _at(basis.k, grid), x[basis.owner] * basis.w.T)
    return _field(grid, full[..., : grid.modes // 2 + 1].copy())


def basis_field(basis: Basis, e: int, grid: GridSpec):
    """Spectral field of element ``e`` of ``basis`` (two conjugate modes)."""
    return _synthesize(grid, basis, np.eye(1, len(basis), e)[0])


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
    vel_basis: Basis
    scalar_basis: Basis
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


def _shells(k):
    """Slices of the runs of rows of ``k`` with equal |k|^2."""
    cuts = np.flatnonzero(np.diff(np.sum(k * k, axis=1))) + 1
    return [slice(a, b) for a, b in zip([0, *cuts], [*cuts, len(k)])]


def _advection_coo(vel, basis, table, half, vol):
    """COO values and (a, b, c) keys of (E_a . grad f_b, f_c), E of the
    basis ``vel`` and f of ``basis``, whose modes ``table`` looks up.

    Every pair of modes (p of E_a, q of f_b) meets the modes r = -(p + q)
    of f, each triad adding vol Re[i (w_a . q)(w_b . w_c)].  Both dot
    products are integer dots of tangents and wavevectors times the
    modes' scalar coefficients, so a triad whose exact value is 0 adds
    an exact 0, and the partner triad (p, r, q) of (a, c, b), whose
    t_a . r is -t_a . q, adds the exact negative.  Triads are summed per
    key in the order (a, p, b, q, c); zero sums are dropped.

    The pairs, and the w_a . q products, are formed one |p|^2 shell of
    advecting modes at a time, so those temporaries scale with a shell,
    not with all (2m)^2 pairs; only the integer table of t_b . t_c covers
    every pair of modes of f.  Both modes of an element lie in one shell,
    so each key is summed whole within its shell, and the shells' keys,
    led by a, concatenate sorted.
    """
    owner_a, p = vel.owner, vel.k
    owner, q, coef = basis.owner, basis.k, basis.coef
    tt = (basis.tangent @ basis.tangent.T).astype(np.int32)
    shape = (len(p) // 2, len(q) // 2, len(q) // 2)
    values, keys = [], []
    for shell in _shells(p):
        waq = vel.coef[shell, None] * (vel.tangent[shell] @ q.T)
        i, j = np.indices(waq.shape).reshape(2, -1)
        pair, r = _receivers(p[shell][i] + q[j], table, half)
        i, j = i[pair], j[pair]
        shell_keys, inverse = np.unique(np.ravel_multi_index(
            (owner_a[shell][i], owner[j], owner[r]), shape),
            return_inverse=True)
        # Re[i z] = -Im z
        sums = np.bincount(inverse, weights=-vol * (
            waq[i, j] * (coef[j] * coef[r] * tt[j, r])).imag)
        keep = sums != 0
        values.append(sums[keep])
        keys.append(shell_keys[keep])
    return (np.concatenate(values),
            np.stack(np.unravel_index(np.concatenate(keys), shape), axis=1))


def assemble_tensors(vel: Basis, scal: Basis, grid: GridSpec):
    """Interaction tensors by analytic triad matching.

    The mode pairs of A and B are formed one |p|^2 shell of advecting
    modes at a time (``build_basis`` orders the elements by |k|), and
    the receiving modes are looked up in the box |k_i| <= 2 * cutoff of
    all sums.
    """
    vol = TWO_PI**grid.dim
    half = 2 * grid.dealias_cutoff
    vtable = _lookup(vel.k, half)
    A, A_index = _advection_coo(vel, vel, vtable, half, vol)
    B, B_index = _advection_coo(vel, scal, _lookup(scal.k, half), half, vol)

    # scalar mode p forces the velocity modes at -p, through their
    # component along gravity (the last axis)
    g, c = _receivers(scal.k, vtable, half)
    C = np.zeros((len(scal), len(vel)))
    np.add.at(C, (scal.owner[g], vel.owner[c]),
              vol * (scal.coef[g] * vel.coef[c] * vel.tangent[c, -1]).real)
    return GalerkinSystem(grid, vel, scal, A, A_index, B, B_index, C,
                          vel.eigenvalues, scal.eigenvalues)


@dataclass
class GalerkinState:
    xi: np.ndarray
    eta: np.ndarray
    t: float = 0.0

    def copy(self):
        return GalerkinState(self.xi.copy(), self.eta.copy(), self.t)


def _transfer(xi, eta, system):
    """The right-hand sides without diffusion: advection and buoyancy."""
    a, b, c = system.A_index.T
    j, g, h = system.B_index.T
    dxi = (
        np.einsum("gc,g->c", system.C, eta)
        - np.bincount(c, weights=system.A * xi[a] * xi[b], minlength=len(xi))
    )
    deta = -np.bincount(h, weights=system.B * xi[j] * eta[g],
                        minlength=len(eta))
    return dxi, deta


@dataclass
class GalerkinTrajectory:
    """States sampled every step plus energy-identity residuals.

    ``xi_residuals[n]`` measures how far steps n and n + 1 together stray
    from the exact kinetic-energy balance
    d/dt(|xi|^2/2) = -nu sum lam xi^2 + xi.C.eta (Simpson quadrature of
    the power over the pair, whose midpoint is state n + 1);
    ``eta_residuals`` is the temperature analogue.  A run of n steps has
    n - 1 of each, none for fewer than two steps, and both shrink like
    dt^5 per pair of steps for the fourth-order integrator.
    """

    states: list
    xi_residuals: np.ndarray
    eta_residuals: np.ndarray


def _lawson_step(y0, f, rates, dt):
    """One step of ``dt`` of Lawson's integrating-factor RK4 from the
    coordinates ``y0``, for dy/dt = -rates y + f(y): four calls of f.
    The stage formulas are those of the solver's integrator."""
    e_h = np.exp(-0.5 * dt * rates)
    e = e_h * e_h
    k1 = f(y0)
    k2 = f(e_h * (y0 + 0.5 * dt * k1))
    k3 = f(e_h * y0 + 0.5 * dt * k2)
    k4 = f(e * y0 + dt * e_h * k3)
    return e * y0 + dt / 6 * (e * k1 + 2 * e_h * (k2 + k3) + k4)


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
    """Fixed-step integration to the end time T counted from
    ``initial.t``, sampling every step: ``run_simulation``'s steps to
    that end time, so state n is at the time of the solver's step n.

    The diagonal diffusion is integrated exactly, by its integrating
    factors exp(-dt nu lam) and exp(-dt kappa tau_eig), and the rest by
    Lawson's RK4, so that stiff settings (nu lam dt of order one) keep
    the scheme's accuracy: one step of dt per step, four transfers.  The
    energy residuals come afterwards from the sampled states alone.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be > 0 and finite, got {dt}")
    if not (T >= dt and math.isfinite(T)):
        raise ValueError(
            f"T must be finite and at least dt, got T={T}, dt={dt}"
        )
    n = system.m
    rates = np.concatenate([params.nu * system.lam,
                            params.kappa * system.tau_eig])

    def f(y):
        return np.concatenate(_transfer(y[:n], y[n:], system))

    state = initial.copy()
    states = [state]
    for t in _step_times(initial.t, initial.t + T, dt):
        y1 = _lawson_step(np.concatenate([state.xi, state.eta]), f, rates, dt)
        new = GalerkinState(y1[:n], y1[n:], t)
        if not np.all(np.isfinite(y1)):
            raise NonFiniteStateError(new.t, state)
        state = new
        states.append(state)
    # Simpson's rule over each pair of steps, its midpoint a step state
    energy = np.array([(0.5 * np.sum(s.xi**2), 0.5 * np.sum(s.eta**2))
                       for s in states])
    power = np.array([_powers(s, system, params) for s in states])
    res = (energy[2:] - energy[:-2]
           - dt / 3 * (power[:-2] + 4 * power[1:-1] + power[2:]))
    return GalerkinTrajectory(states, res[:, 0], res[:, 1])


def project_state(u: SpectralVectorField, theta: SpectralScalarField,
                  system: GalerkinSystem, t: float = 0.0):
    """Coordinates (xi, eta) of (u, theta) in the basis."""
    grid = system.grid

    def coords(field, basis):
        full = _from_half(grid, field.components)
        total = np.sum(full[_at(basis.k, grid)].T * basis.w.conj(),
                       axis=1).reshape(-1, 2).sum(1)
        return TWO_PI**grid.dim * total.real

    return GalerkinState(coords(u, system.vel_basis),
                         coords(theta, system.scalar_basis), t)


def reconstruct(state: GalerkinState, system: GalerkinSystem):
    """Spectral fields u = sum xi_j E_j, theta = sum eta_a e_a."""
    return (_synthesize(system.grid, system.vel_basis, state.xi),
            _synthesize(system.grid, system.scalar_basis, state.eta))
