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

Fields are half spectra (last-axis labels 0..M/2, the layout of
real-to-complex transforms), and the time loop works on them stacked,
y = [u; theta].  One integrator advances y in place: it owns its stage
arrays and the kernel's transform arrays for the whole run, evaluates
each stage's right-hand side with the projected kernel of ``nonlinear``
(the divergence of the traceless flux u u - u_N^2 I and of u theta,
equal to the advection terms because u is divergence-free, with the
Leray projection and the projected buoyancy applied as fixed per-mode
maps, so a stage runs no separate projection), and after each step
Leray-projects y and constrains it (``fields._constrain``), so that it
is real and zero-mean.  States from ``step`` and ``synthesize_initial``
are divergence-free; for any other u the right-hand side is not the
advective one.

``step`` wraps the integrator for a single step.  ``run_simulation``
keeps y from step to step from t = 0 to t_final, takes a diagnostics
record from it every step, copies it into a state snapshot every
``snapshot_every`` steps (or hands each to a callback, keeping only the
latest), at the final state and at the last finite state of an abort,
and aborts (a reported outcome, not an exception) if the H1 measure
grows by 1e8 over its initial value, which for the 3D system past its
guaranteed lifespan is an admissible result.
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
    _constrain,
    _leray_in_place,
    _stacked,
)
from .grid import GridSpec
from .nonlinear import _Work, _projected_rhs

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


def _unstack(y, grid):
    """(u, theta) fields, views of a stacked [u; theta]."""
    return (SpectralVectorField(grid, y[: grid.dim]),
            SpectralScalarField(grid, y[grid.dim]))


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
    y = _stacked(state.u, state.theta)
    dy = _projected_rhs(grid, y)
    dy -= _diffusion_rates(grid, params) * grid.k2 * y
    return _unstack(_constrain(grid, dy), grid)


class _Integrator:
    """The integrating-factor scheme of a run, advancing the stacked
    ``y`` = [u; theta] in place.

    It holds the diffusion factors and every work array of a step (the
    stage arrays, the kernel's transform arrays and a second state
    array), allocated once, so a step allocates no array of the state's
    size.  ``advance`` forms the new state in the second array and swaps
    it in only when it is finite, so after a failed step ``y`` still
    holds the last finite state.  Between steps the stage arrays
    (``free_between_steps``) are free for other work.
    """

    def __init__(self, grid, params, config, y):
        self.grid = grid
        self.dt = config.dt
        self.scheme = config.scheme
        self.y = y
        rates = _diffusion_rates(grid, params)
        self.e_h = np.exp(-0.5 * self.dt * rates * grid.k2)
        self.e = self.e_h * self.e_h
        # products of the stage formulas, taken once and bit-equal to
        # forming them in each step
        self.dt_e_h = self.dt * self.e_h
        self.two_e_h = 2 * self.e_h
        self._next = np.empty_like(y)
        # the stage input and the three stages, in one block that holds
        # nothing between steps
        self.free_between_steps = np.empty((4,) + y.shape, dtype=complex)
        self._stage, *self._k = self.free_between_steps
        self._work = _Work(grid)

    def _rhs(self, y, out):
        return _projected_rhs(self.grid, y, self._work, out)

    def advance(self):
        """One step of ``dt``; returns False, leaving ``y`` as it was,
        if the new state is not finite.

        The new state is Leray-projected and made real and zero-mean
        (``_constrain``), so it is divergence-free.
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
        # the stage array is free again: it holds the projection's terms
        _leray_in_place(self.grid.k, self.grid.k_over_k2,
                        y1[: self.grid.dim], s)
        _constrain(self.grid, y1)
        self.y, self._next = y1, y0
        return True


def step(state: SimulationState, params: PhysicalParams,
         config: StepperConfig, grid: GridSpec | None = None):
    """One integrating-factor step of ``config.dt`` with ``config.scheme``;
    raises on nonfinite coefficients.

    The new state is Leray-projected and constrained, so it is
    divergence-free, zero-mean and real.
    """
    grid = _check_grid(state, grid)
    integrator = _Integrator(grid, params, config,
                             _stacked(state.u, state.theta))
    t1 = state.t + config.dt
    if not integrator.advance():
        raise NonFiniteStateError(t1, state)
    return SimulationState(*_unstack(integrator.y, grid), t1,
                           state.step_index + 1)


@dataclass
class SimTrajectory:
    """Everything a run leaves behind.

    ``records`` has one entry per step (including t = 0); ``snapshots``
    holds states at the configured cadence plus the initial and
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
                             _stacked(initial.u, initial.theta))
    t, index = initial.t, initial.step_index
    snapshots = []

    def take(snapshot):
        if on_snapshot is None:
            snapshots.append(snapshot)
        else:
            snapshots[:] = [snapshot]
            on_snapshot(snapshot)

    def current():
        return SimulationState(*_unstack(integrator.y.copy(), grid), t,
                               index)

    # each record is taken from the state the integrator holds, which is
    # copied only for snapshots
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
        # the record's per-mode arrays take the free stage arrays
        records.append(_record(grid, t, integrator.y, budget,
                               integrator.free_between_steps))
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
