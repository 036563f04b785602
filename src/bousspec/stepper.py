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
y = [u; theta].  One integrator advances y in place, and RK4 steps only
the modes the 2/3 rule retains (Orszag 1971), 45% of the half spectrum
in 2D and 30% in 3D, held in the compact core layout of ``nonlinear``.
Their right-hand side is the projected kernel of ``nonlinear`` (the
divergence of the traceless flux u u - u_N^2 I and of u theta, equal to
the advection terms because u is divergence-free, with the Leray
projection and the projected buoyancy applied as fixed per-mode maps, so
a stage runs no separate projection); after each step the core is
Leray-projected and made real and zero-mean, as ``fields._constrain``
does.  On every other mode the right-hand side is exactly
[b theta; 0], with b = e_N - j j_N / |j|^2 the projected buoyancy, so
the scheme's stages there reduce to products of the integrating factors
and one step is a fixed per-mode linear map, formed once per run (see
``_Integrator``; Cox & Matthews 2002 on integrating-factor schemes).
That map is exactly the scheme on those modes, its terms only grouped
differently, so it agrees with stepping them to roundoff.  It is real
and even in j, so the state stays exactly real with empty label -M/2
slots, and j . b = 0, so u stays divergence-free.  States from ``step``
and ``synthesize_initial`` are divergence-free; for any other u the
right-hand side is not the advective one.

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
import numbers
from dataclasses import dataclass

import numpy as np

from .diagnostics import (
    BudgetAccumulator,
    _record,
    _record_scratch_size,
    build_record,
)
from .fields import (
    NonFiniteStateError,
    PhysicalParams,
    SpectralScalarField,
    SpectralVectorField,
    _check_grid,
    _constrain,
    _leray_in_place,
    _stacked,
    _unstack,
)
from .grid import GridSpec
from .nonlinear import (
    _core,
    _core_blocks,
    _core_rhs,
    _core_shape,
    _projected_rhs,
    _projection_maps,
    _Work,
)

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
        every = self.snapshot_every
        if not (isinstance(every, numbers.Integral) and every >= 1):
            raise ValueError(
                f"snapshot_every must be an integer >= 1, got {every!r}"
            )


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
    grid = _check_grid(grid, state.u, state.theta)
    y = _stacked(state.u, state.theta)
    dy = _projected_rhs(grid, y)
    dy -= _diffusion_rates(grid, params) * grid.k2 * y
    return _unstack(grid, _constrain(grid, dy))


class _Integrator:
    """The integrating-factor scheme of a run, advancing the stacked
    ``y`` = [u; theta] in place.

    RK4 (or Euler) runs only on the retained modes, in the core layout
    of ``nonlinear._core``.  On the other modes, where F = [b theta; 0],
    its stages are k1 = k2 = k3 = k4 = 0 for theta and b theta0,
    b e_k,h theta0, b e_k,h theta0, b e_k theta0 for u (",h" marks the
    factors of half a step), so a step is theta <- e_k theta and
    u <- e_n u + g theta with g = dt / 6 b (e_n + 4 e_n,h e_k,h + e_k);
    Euler's has g = dt e_n b.  ``advance`` applies that map, on real
    factors, to the whole half spectrum and then writes the core over
    it.

    The integrator holds the factors of both parts, the kernel's work
    arrays, a second state array and one block for the core's stages,
    allocated once, so a step allocates no array of the state's size.
    ``advance`` forms the new state in the second array and swaps it in
    only when it is finite, so after a failed step ``y`` still holds the
    last finite state.  Between steps the block (``free_between_steps``)
    is free for other work: it is large enough to hold a record's
    per-mode arrays (``diagnostics._record_scratch_size``).
    """

    def __init__(self, grid, params, config, y):
        dim, dt = grid.dim, config.dt
        self.dim, self.dt, self.scheme, self.y = dim, dt, config.scheme, y
        rates = _diffusion_rates(grid, params)
        e_h = np.exp(-0.5 * dt * rates * grid.k2)
        e = e_h * e_h
        # the core's factors, and the products of the stage formulas,
        # taken once and bit-equal to forming them in each step
        self.e_h, self.e = _core(grid, e_h), _core(grid, e)
        self.dt_e_h = dt * self.e_h
        self.two_e_h = 2 * self.e_h
        self.blocks = _core_blocks(grid)
        # the label-0 plane of the core and the reflection j -> -j in it
        # (the FFT layout of length 2c + 1 on every leading axis)
        rows = 2 * grid.dealias_cutoff + 1
        self.reflect = (Ellipsis,) + np.ix_(
            *[(-np.arange(rows)) % rows] * (dim - 1), [0])
        # the tail map's factors, e row by row and g; the core's k and
        # k / |k|^2 for its Leray projection
        lift, self.k, self.k_over_k2 = _projection_maps(grid)[2:]
        if self.scheme == "if_euler":
            self.tail_gain = dt * e[0] * lift
        else:
            self.tail_gain = dt / 6 * lift * (e[0] + 4 * e_h[0] * e_h[dim]
                                              + e[dim])
        self.tail_e = e
        self._next = np.empty_like(y)
        # one block, free between steps (a record takes part of it); in a
        # step it holds first the tail map's term, then the core of y,
        # the stage input and the three stages
        stages = (5,) + y.shape[:1] + _core_shape(grid)
        self.free_between_steps = np.empty(
            max(math.prod(stages), _record_scratch_size(grid)),
            dtype=complex)
        self._stages = self.free_between_steps[: math.prod(stages)].reshape(
            stages)
        self._tail_term = self.free_between_steps[
            : self.tail_gain.size].reshape(self.tail_gain.shape)
        self._work = _Work(grid)

    def _rhs(self, core, out):
        return _core_rhs(self._work, core, out)

    def _step_core(self):
        """The new core, unprojected, in a stage array."""
        dt, e_h, e = self.dt, self.e_h, self.e
        y0, s, k1, k2, k3 = self._stages
        for core, half in self.blocks:
            y0[core] = self.y[half]
        # each line computes, operand for operand, one term of the
        # formulas in the comments, so the bits do not depend on the
        # buffers
        if self.scheme == "if_euler":
            # y1 = e * (y0 + dt * F(y0))
            self._rhs(y0, k1)
            np.multiply(dt, k1, out=k1)
            np.add(y0, k1, out=k1)
            np.multiply(e, k1, out=k1)
            return k1
        # RK4 on the integrating-factor-transformed system, written back
        # in the original variables (exponentials appear where the
        # transform is undone at each stage time):
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
        np.multiply(0.5 * dt, k2, out=k3)
        np.add(s, k3, out=s)
        self._rhs(s, k3)
        np.multiply(e, y0, out=s)
        np.add(k2, k3, out=k2)
        np.multiply(self.dt_e_h, k3, out=k3)
        np.add(s, k3, out=s)
        k4 = self._rhs(s, k3)
        np.multiply(self.two_e_h, k2, out=k2)
        np.multiply(e, k1, out=k1)
        np.add(k1, k2, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(dt / 6, k1, out=k1)
        np.multiply(e, y0, out=s)
        np.add(s, k1, out=k1)
        return k1

    def _step_tail(self, y0, y1):
        """The tail map from ``y0`` into ``y1``, over the whole half
        spectrum (the core's values are overwritten afterwards)."""
        np.multiply(self.tail_e, y0, out=y1)
        y1[: self.dim] += np.multiply(self.tail_gain, y0[self.dim],
                                      out=self._tail_term)

    def advance(self):
        """One step of ``dt``; returns False, leaving ``y`` as it was,
        if the new state is not finite.

        The core of the new state is Leray-projected and made real and
        zero-mean, so the state is divergence-free.
        """
        y0, y1 = self.y, self._next
        self._step_tail(y0, y1)
        core = self._step_core()
        # the stage input is free again: it holds the projection's terms;
        # then the label-0 plane is made real, as in fields._constrain,
        # and the mean mode zeroed
        _leray_in_place(self.k, self.k_over_k2, core[: self.dim],
                        self._stages[1])
        plane = core[..., :1]
        plane[...] = 0.5 * (plane + np.conj(plane[self.reflect]))
        core[(Ellipsis,) + (0,) * self.dim] = 0.0
        for kept, half in self.blocks:
            y1[half] = core[kept]
        # finite exactly when every real and imaginary part is
        if not np.isfinite(y1.view(float)).all():
            return False
        self.y, self._next = y1, y0
        return True


def step(state: SimulationState, params: PhysicalParams,
         config: StepperConfig, grid: GridSpec | None = None):
    """One integrating-factor step of ``config.dt`` with ``config.scheme``;
    raises on nonfinite coefficients.

    The new state is Leray-projected and constrained, so it is
    divergence-free, zero-mean and real.
    """
    grid = _check_grid(grid, state.u, state.theta)
    integrator = _Integrator(grid, params, config,
                             _stacked(state.u, state.theta))
    t1 = state.t + config.dt
    if not integrator.advance():
        raise NonFiniteStateError(t1, state)
    return SimulationState(*_unstack(grid, integrator.y), t1,
                           state.step_index + 1)


def _step_times(t, t_final, dt):
    """The time after each step of a run from t to t_final: the one rule
    of how many steps the solver and the Galerkin ODE take."""
    while t < t_final - 0.5 * dt:
        t += dt
        yield t


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
    _check_grid(grid, initial.u, initial.theta)
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
        return SimulationState(*_unstack(grid, integrator.y.copy()), t,
                               index)

    # each record is taken from the state the integrator holds, which is
    # copied only for snapshots
    budget = BudgetAccumulator(params)
    records = [build_record(initial, budget)]
    take(initial.copy())
    measure0 = records[0].h1_u ** 2 + records[0].h1_theta ** 2

    status = "completed"
    message = ""
    for t_next in _step_times(t, config.t_final, config.dt):
        if not integrator.advance():
            status = "nonfinite"
            message = str(NonFiniteStateError(t_next, None))
            break
        t, index = t_next, index + 1
        # the record's per-mode arrays take the free block of the
        # integrator
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
