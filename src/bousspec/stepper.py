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

A step works on half spectra (last-axis labels 0..M/2, the layout of
real-to-complex transforms): it slices them from the full coefficient
arrays at the start, evaluates each stage's right-hand side with the
divergence-form kernel of ``nonlinear`` (div(u u) and div(u theta),
equal to the advection terms because u is divergence-free) and a single
Leray projection, and rebuilds the full arrays once at the end.  States
from ``step`` and ``synthesize_initial`` are divergence-free; for any
other u the right-hand side is not the advective one.  The rebuilt
state is Hermitian and zero-mean by construction, so no constraint
projection runs inside the step.  The diffusion factors are cached per
grid, dt and physical parameters.

``run_simulation`` drives the stepper from t = 0 to t_final, collecting
a diagnostics record every step and a state snapshot every
``snapshot_every`` steps (or handing each to a callback, keeping only
the latest), and aborts (a reported outcome, not an
exception) if the H1 measure grows by 1e8 over its initial value, which
for the 3D system past its guaranteed lifespan is an admissible result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import BudgetAccumulator, build_record
from .fields import (
    NonFiniteStateError,
    PhysicalParams,
    SpectralScalarField,
    SpectralVectorField,
    _from_half,
    _leray_arrays,
)
from .grid import GridSpec
from .nonlinear import _flux_divergence

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
    """(u, theta) fields from a stacked half spectrum [u; theta]."""
    full = _from_half(grid, y)
    return (SpectralVectorField(grid, full[: grid.dim]),
            SpectralScalarField(grid, full[grid.dim]))


def _nonstiff_rhs(y, grid):
    """[P(theta e_N - u.grad u); -(u.grad theta)] for y = [u; theta] on
    the half spectrum, with u divergence-free.

    The advection terms are taken in divergence form, div(u u) and
    div(u theta).  The projection is linear, so one Leray projection of
    the combined velocity forcing replaces projecting buoyancy and
    advection apart.
    """
    dim = grid.dim
    f = _flux_divergence(grid, y)
    np.negative(f, out=f)
    f[dim - 1] += y[dim]
    f[:dim] = _leray_arrays(grid.half_k, grid.half_k_over_k2, f[:dim])
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
    return _unstack_full(dy, grid)


@functools.lru_cache(maxsize=8)
def _semigroups(grid, dt, params):
    """Half- and full-step diffusion factors (e_h, e) for a stacked
    [u; theta] on the half spectrum, as read-only arrays."""
    e_h = np.exp(-0.5 * dt * _diffusion_rates(grid, params) * grid.half_k2)
    e = e_h * e_h
    e_h.flags.writeable = False
    e.flags.writeable = False
    return e_h, e


def step(state: SimulationState, params: PhysicalParams,
         config: StepperConfig, grid: GridSpec | None = None):
    """One integrating-factor step of ``config.dt`` with ``config.scheme``;
    raises on nonfinite coefficients.

    The new state is Leray-projected and rebuilt from its half spectrum,
    so it is divergence-free, zero-mean and Hermitian.
    """
    grid = _check_grid(state, grid)
    dt = config.dt

    # the stages run on the stacked half spectrum [u; theta]; the full,
    # Hermitian coefficient arrays are rebuilt once, at the end
    y0 = _stacked_half(state, grid)
    e_h, e = _semigroups(grid, dt, params)

    def F(y):
        return _nonstiff_rhs(y, grid)

    if config.scheme == "if_euler":
        y1 = e * (y0 + dt * F(y0))
    else:
        # RK4 on the integrating-factor-transformed system, written back
        # in the original variables (exponentials appear where the
        # transform is undone at each stage time)
        k1 = F(y0)
        k2 = F(e_h * (y0 + 0.5 * dt * k1))
        k3 = F(e_h * y0 + 0.5 * dt * k2)
        k4 = F(e * y0 + dt * e_h * k3)
        y1 = e * y0 + dt / 6 * (e * k1 + 2 * e_h * (k2 + k3) + k4)

    t1 = state.t + dt
    if not np.all(np.isfinite(y1)):
        raise NonFiniteStateError(t1, state)

    u1 = y1[: grid.dim]
    u1[...] = _leray_arrays(grid.half_k, grid.half_k_over_k2, u1)
    new_u, new_th = _unstack_full(y1, grid)
    return SimulationState(new_u, new_th, t1, state.step_index + 1)


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
    state = initial.copy()
    snapshots = []

    def take(current):
        snapshot = current.copy()
        if on_snapshot is None:
            snapshots.append(snapshot)
        else:
            snapshots[:] = [snapshot]
            on_snapshot(snapshot)

    budget = BudgetAccumulator(params)
    records = [build_record(state, params, budget)]
    take(state)
    measure0 = records[0].h1_u ** 2 + records[0].h1_theta ** 2

    status = "completed"
    message = ""
    while state.t < config.t_final - 0.5 * config.dt:
        try:
            state = step(state, params, config, grid)
        except NonFiniteStateError as err:
            status = "nonfinite"
            message = str(err)
            state = err.last_state
            break
        records.append(build_record(state, params, budget))
        measure = records[-1].h1_u ** 2 + records[-1].h1_theta ** 2
        if measure > BLOWUP_FACTOR * measure0 and measure0 > 0:
            status = "blowup"
            message = (
                f"H1 measure grew {measure / measure0:.3g}x by "
                f"t = {state.t:.6g}; aborting"
            )
            break
        if state.step_index % config.snapshot_every == 0:
            take(state)
    if snapshots[-1].step_index != state.step_index:
        take(state)
    if status == "completed":
        message = f"reached t = {state.t:.6g} in {state.step_index} steps"
    return SimTrajectory(snapshots, records, status, message)
