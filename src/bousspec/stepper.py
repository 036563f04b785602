"""Integrating-factor time integration of the projected system.

In coefficient space the equations split into a stiff diagonal part
(diffusion, with eigenvalues up to |j_max|^2) and the bounded nonlinear
part.  Substituting w = e^{nu |j|^2 t} u_hat, z = e^{kappa |j|^2 t}
theta_hat removes the stiff part exactly:

    dw/dt = e^{nu |j|^2 t} F_u(u, theta),     F_u = -P(u . grad u) + P(theta e_N)
    dz/dt = e^{kappa |j|^2 t} F_theta(u, theta),  F_theta = -(u . grad theta)

and the transformed system is advanced by classic RK4 (``if_rk4``) or
explicit Euler (``if_euler``).  Diffusion is therefore exact to roundoff
at any dt — a pure heat flow is reproduced to machine precision in a
single step — and only the advection limits the step size.

The time loop works on the stacked half spectrum y = [u; theta]
(last-axis labels 0..M/2, the layout of real-to-complex transforms).
One integrator advances y in place: it owns its stage arrays and the
kernel's transform arrays for the whole run, evaluates each stage's
right-hand side with the divergence-form kernel of ``nonlinear``
(div(u u) and div(u theta), equal to the advection terms because u is
divergence-free) and a single Leray projection, and after each step
Leray-projects y, symmetrizes the two last-axis planes that reflect
onto themselves and zeroes the mean, so that the full spectrum rebuilt
from y is Hermitian and zero-mean by construction.  States from
``step`` and ``synthesize_initial`` are divergence-free; for any other
u the right-hand side is not the advective one.

``step`` wraps the integrator for a single step, from and to full
fields.  ``run_simulation`` keeps y from step to step from t = 0 to
t_final, takes a diagnostics record from it every step, rebuilds full
fields only for a state snapshot every ``snapshot_every`` steps (or
handing each to a callback, keeping only the latest), the final state
and the last finite state of an abort, and aborts (a reported outcome,
not an exception) if the H1 measure grows by 1e8 over its initial
value, which for the 3D system past its guaranteed lifespan is an
admissible result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import BudgetAccumulator, _record, build_record
from .fields import (
    NonFiniteStateError,
    PhysicalParams,
    SpectralScalarField,
    SpectralVectorField,
    _from_half,
    _leray_in_place,
    _symmetrize_half,
)
from .grid import GridSpec
from .nonlinear import _flux_divergence, _flux_work

__all__ = [
    "SCHEMES",
    "BLOWUP_FACTOR",
    "SimulationState",
    "StepperConfig",
    "SimTrajectory",
    "rhs_full",
    "step",
    "run_simulation",
]

SCHEMES = ("if_rk4", "if_euler")

# abort threshold: ||Lambda u||^2 + ||Lambda theta||^2 exceeding this
# multiple of its initial value counts as (numerical) blow-up
BLOWUP_FACTOR = 1e8


@dataclass
class SimulationState:
    """The evolving unknowns plus bookkeeping time and step counter."""

    u: SpectralVectorField
    theta: SpectralScalarField
    t: float = 0.0
    step_index: int = 0

    def copy(self):
        return SimulationState(
            self.u.copy(), self.theta.copy(), self.t, self.step_index
        )


@dataclass(frozen=True)
class StepperConfig:
    """Step size, scheme, end time and snapshot cadence of a run.

    Every step uses exactly ``dt``, which keeps trajectories
    bit-reproducible.  ``t_final`` defaults to a single step.  This is
    the one place these four settings are checked.
    """

    dt: float
    scheme: str = "if_rk4"
    t_final: float | None = None
    snapshot_every: int = 10

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be > 0 and finite, got {self.dt}")
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"scheme must be one of {SCHEMES}, got {self.scheme!r}"
            )
        if self.t_final is None:
            object.__setattr__(self, "t_final", self.dt)
        if not (self.t_final >= self.dt and math.isfinite(self.t_final)):
            raise ValueError(
                f"t_final must be finite and at least dt, "
                f"got t_final={self.t_final}, dt={self.dt}"
            )
        if self.snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )


def _check_grid(state, grid):
    if grid is None:
        grid = state.u.grid
    if state.u.grid is not grid or state.theta.grid is not grid:
        raise ValueError("state fields do not live on the supplied grid")
    return grid


def _stacked_half(state, grid):
    """[u; theta] on the half spectrum, shape (dim + 1, *half)."""
    half = grid.half_slice
    return np.concatenate(
        [state.u.coeffs[half], state.theta.coeffs[np.newaxis][half]]
    )


def _unstack_full(y, grid):
    """(u, theta) fields from a stacked half spectrum [u; theta] made
    real by ``_symmetrize_half``."""
    full = _from_half(grid, y)
    return (SpectralVectorField(grid, full[: grid.dim]),
            SpectralScalarField(grid, full[grid.dim]))


def _nonstiff_rhs(y, grid, work=None, out=None, scratch=None):
    """[P(theta e_N - u.grad u); -(u.grad theta)] for y = [u; theta] on
    the half spectrum, with u divergence-free.

    The advection terms are taken in divergence form, div(u u) and
    div(u theta).  The projection is linear, so one Leray projection of
    the combined velocity forcing replaces projecting buoyancy and
    advection apart.  ``work`` and ``out`` are the kernel's, as in
    ``_flux_divergence``, and ``scratch``, shaped like ``y``, holds the
    projection's intermediate arrays.
    """
    dim = grid.dim
    if scratch is None:
        scratch = np.empty_like(y)
    f = _flux_divergence(grid, y, work, out)
    np.negative(f, out=f)
    f[dim - 1] += y[dim]
    _leray_in_place(grid.half_k, grid.half_k_over_k2, f[:dim], scratch)
    return f


def _diffusion_rates(grid, params):
    """nu for each velocity row of a stacked [u; theta], kappa for theta."""
    rates = np.array([params.nu] * grid.dim + [params.kappa])
    return rates.reshape((-1,) + (1,) * grid.dim)


def rhs_full(state: SimulationState, params: PhysicalParams,
             grid: GridSpec | None = None):
    """Complete right-hand side (du/dt, dtheta/dt), diffusion included.

    ``state.u`` must be divergence-free, as every state from
    :func:`step` and ``synthesize_initial`` is: the advection terms are
    evaluated in divergence form.
    """
    grid = _check_grid(state, grid)
    y = _stacked_half(state, grid)
    dy = _nonstiff_rhs(y, grid)
    dy -= _diffusion_rates(grid, params) * grid.half_k2 * y
    return _unstack_full(_symmetrize_half(grid, dy), grid)


class _Integrator:
    """The integrating-factor scheme of a run, advancing the stacked half
    spectrum ``y`` = [u; theta] in place.

    It holds the diffusion factors and every work array of a step (the
    stage arrays, the kernel's transform arrays, a scratch array for the
    Leray projections and a second state array), allocated once, so a
    step allocates no array of the state's size.  ``advance`` forms the
    new state in the second array and swaps it in only when it is
    finite, so after a failed step ``y`` still holds the last finite
    state.
    """

    def __init__(self, grid, params, config, y):
        self.grid = grid
        self.dt = config.dt
        self.scheme = config.scheme
        self.y = y
        rates = _diffusion_rates(grid, params)
        self.e_h = np.exp(-0.5 * self.dt * rates * grid.half_k2)
        self.e = self.e_h * self.e_h
        # products of the stage formulas, taken once and bit-equal to
        # forming them in each step
        self.dt_e_h = self.dt * self.e_h
        self.two_e_h = 2 * self.e_h
        self._next = np.empty_like(y)
        self._stage = np.empty_like(y)
        self._k = [np.empty_like(y) for _ in range(3)]
        self._scratch = np.empty_like(y)
        self._work = _flux_work(grid)

    def _rhs(self, y, out):
        return _nonstiff_rhs(y, self.grid, self._work, out, self._scratch)

    def advance(self):
        """One step of ``dt``; returns False, leaving ``y`` as it was,
        if the new state is not finite.

        The new state is Leray-projected and made real and zero-mean
        (``_symmetrize_half``), so it is divergence-free and its full
        spectrum is Hermitian.
        """
        dt, e_h, e, y0, y1 = self.dt, self.e_h, self.e, self.y, self._next
        s = self._stage
        k1, k2, k3 = self._k
        # each line computes, operand for operand, one term of the
        # formulas in the comments, so the bits do not depend on the
        # buffers
        if self.scheme == "if_euler":
            # y1 = e * (y0 + dt * F(y0))
            self._rhs(y0, k1)
            np.multiply(dt, k1, out=k1)
            np.add(y0, k1, out=k1)
            np.multiply(e, k1, out=y1)
        else:
            # RK4 on the integrating-factor-transformed system, written
            # back in the original variables (exponentials appear where
            # the transform is undone at each stage time):
            #   k1 = F(y0)
            #   k2 = F(e_h * (y0 + 0.5 * dt * k1))
            #   k3 = F(e_h * y0 + 0.5 * dt * k2)
            #   k4 = F(e * y0 + dt * e_h * k3)
            #   y1 = e * y0 + dt / 6 * (e * k1 + 2 * e_h * (k2 + k3) + k4)
            self._rhs(y0, k1)
            np.multiply(0.5 * dt, k1, out=s)
            np.add(y0, s, out=s)
            np.multiply(e_h, s, out=s)
            self._rhs(s, k2)
            np.multiply(e_h, y0, out=s)
            np.multiply(0.5 * dt, k2, out=y1)
            np.add(s, y1, out=s)
            self._rhs(s, k3)
            np.multiply(e, y0, out=s)
            np.multiply(self.dt_e_h, k3, out=y1)
            np.add(s, y1, out=s)
            np.add(k2, k3, out=k2)
            k4 = self._rhs(s, k3)
            np.multiply(self.two_e_h, k2, out=k2)
            np.multiply(e, k1, out=k1)
            np.add(k1, k2, out=k1)
            np.add(k1, k4, out=k1)
            np.multiply(dt / 6, k1, out=k1)
            np.multiply(e, y0, out=y1)
            np.add(y1, k1, out=y1)

        if not np.all(np.isfinite(y1)):
            return False
        _leray_in_place(self.grid.half_k, self.grid.half_k_over_k2,
                        y1[: self.grid.dim], self._scratch)
        _symmetrize_half(self.grid, y1)
        self.y, self._next = y1, y0
        return True


def step(state: SimulationState, params: PhysicalParams,
         config: StepperConfig, grid: GridSpec | None = None):
    """One integrating-factor step of ``config.dt`` with ``config.scheme``;
    raises on nonfinite coefficients.

    The new state is Leray-projected and rebuilt from its half spectrum,
    so it is divergence-free, zero-mean and Hermitian.
    """
    grid = _check_grid(state, grid)
    integrator = _Integrator(grid, params, config,
                             _stacked_half(state, grid))
    t1 = state.t + config.dt
    if not integrator.advance():
        raise NonFiniteStateError(t1, state)
    return SimulationState(*_unstack_full(integrator.y, grid), t1,
                           state.step_index + 1)


@dataclass
class SimTrajectory:
    """Everything a run leaves behind.

    ``records`` has one entry per step (including t = 0); ``snapshots``
    holds full states at the configured cadence plus the initial and
    final ones, or only the latest of them when a callback streamed
    them.  ``status`` is "completed", "blowup", or "nonfinite"; the last
    two are reported outcomes, with ``message`` saying when.
    """

    snapshots: list
    records: list
    status: str
    message: str = ""

    @property
    def final_state(self):
        return self.snapshots[-1]


def run_simulation(config, params: PhysicalParams, grid: GridSpec,
                   initial: SimulationState, on_snapshot=None):
    """Advance ``initial`` to ``config.t_final``.

    ``config`` is a StepperConfig, or any record with its four fields
    that has checked them the same way (a parsed run configuration).
    ``on_snapshot`` is called with each state copy as it is taken,
    letting a caller stream snapshots to disk; the trajectory then keeps
    only the latest one.
    """
    _check_grid(initial, grid)
    integrator = _Integrator(grid, params, config,
                             _stacked_half(initial, grid))
    t, index = initial.t, initial.step_index
    snapshots = []

    def take(snapshot):
        if on_snapshot is None:
            snapshots.append(snapshot)
        else:
            snapshots[:] = [snapshot]
            on_snapshot(snapshot)

    def current():
        return SimulationState(*_unstack_full(integrator.y, grid), t, index)

    # each record is taken from the half spectrum the integrator holds;
    # full fields are rebuilt only for snapshots
    budget = BudgetAccumulator(params)
    records = [build_record(initial, params, budget)]
    take(initial.copy())
    measure0 = records[0].h1_u ** 2 + records[0].h1_theta ** 2

    status = "completed"
    message = ""
    while t < config.t_final - 0.5 * config.dt:
        if not integrator.advance():
            status = "nonfinite"
            message = str(NonFiniteStateError(t + config.dt, None))
            break
        t, index = t + config.dt, index + 1
        y = integrator.y
        records.append(
            _record(grid, t, y[: grid.dim], y[grid.dim], params, budget)
        )
        measure = records[-1].h1_u ** 2 + records[-1].h1_theta ** 2
        if measure > BLOWUP_FACTOR * measure0 and measure0 > 0:
            status = "blowup"
            message = (
                f"H1 measure grew {measure / measure0:.3g}x by "
                f"t = {t:.6g}; aborting"
            )
            break
        if index % config.snapshot_every == 0:
            take(current())
    if snapshots[-1].step_index != index:
        take(current())
    if status == "completed":
        message = f"reached t = {t:.6g} in {index} steps"
    return SimTrajectory(snapshots, records, status, message)
