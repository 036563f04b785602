"""Quantities a run is judged by: energy budgets, Gevrey energy, radius fits.

The solver never needs any of this to advance in time; everything here is
a read-only analysis of states.  Three families:

* energy budgets — signed residuals of the exact balances
      d/dt ||theta||^2 / 2 = -kappa ||grad theta||^2
      d/dt ||u||^2     / 2 = -nu    ||grad u||^2 + (theta e_N, u)
  integrated over whatever cadence the states were sampled at: the
  dissipation integrals by a per-mode exponential-fitted rule (exact for
  pure diffusive decay, second order otherwise), the sign-changing
  buoyancy term by the trapezoidal rule (second order), so the residual
  carries an O(h^2) quadrature error from the nonlinear dynamics only,
  on top of the integrator error;

* Gevrey energy X(t) = 1 + ||L e^{tau L} u||^2 + ||L e^{tau L} theta||^2
  with tau = min(t, tau_cap), the quantity whose boundedness expresses
  that the flow has become analytic with radius at least tau;

* radius fits — a least-squares estimate of the decay rate tau in the
  coefficient envelope |u_j| ~ e^{-tau |j|^{1/s}}, the measurable trace
  of that analyticity on a finite grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields as _dc_fields

import numpy as np

from .fields import (
    GevreyParams,
    PhysicalParams,
    _divergence_max,
    _gevrey_weight,
    _norm_of,
    _power,
    _sum,
    _weigh,
)
from .grid import TWO_PI

__all__ = [
    "DiagnosticsRecord",
    "RadiusFit",
    "BudgetAccumulator",
    "gevrey_energy",
    "shell_envelope",
    "fit_radius",
    "build_record",
]

# shells whose peak coefficient sits below this fraction of the global
# peak are double-precision noise and are excluded from radius fits
AMPLITUDE_FLOOR_RATIO = 1e-14
MIN_FIT_SHELLS = 4


@dataclass
class DiagnosticsRecord:
    """One row of run diagnostics at time ``t``.

    ``h1_u``/``h1_theta`` are the Zygmund seminorms ||Lambda . ||;
    ``gevrey_X`` is X(t) at ``tau_used = min(t, tau_cap)``; the radius
    fields come from ``fit_radius`` on the velocity spectrum and are
    reported as 0.0/0.0 when the spectrum has too few usable shells to
    fit; the energy residuals accumulate over the cadence the records
    were produced at, by the rules of :class:`BudgetAccumulator`.
    """

    t: float
    l2_u: float
    l2_theta: float
    h1_u: float
    h1_theta: float
    gevrey_X: float
    tau_used: float
    radius_fit: float
    radius_fit_quality: float
    energy_residual_theta: float
    energy_residual_u: float
    div_max: float

    @classmethod
    def field_names(cls):
        return [f.name for f in _dc_fields(cls)]

    def as_tuple(self):
        return tuple(getattr(self, name) for name in self.field_names())


@dataclass
class RadiusFit:
    """Least-squares envelope fit log|u_j| ~ intercept - tau_est |j|^{1/s}.

    ``shells_used`` is the integer range from the innermost to the
    outermost shell that passed the amplitude floor; ``quality`` is the
    coefficient of determination of the fit (1.0 for a flat spectrum,
    where the zero-variance fit is exact).
    """

    tau_est: float
    intercept: float
    shells_used: range
    quality: float


@functools.lru_cache(maxsize=8)
def _shell_plan(grid):
    """Shell bookkeeping of a grid, shared by every envelope on it.

    Returns, as read-only arrays, the stable permutation that sorts the
    flat modes by integer radius shell floor(|j| + 1/2) (modes of one
    shell keep their flat order), the same permutation as indices into
    the flat half spectrum (through ``grid.half_mirror``), the shell of
    each sorted position, the start of each non-empty shell in the
    sorted order, and |j| in sorted order.
    """
    shell = np.floor(grid.kmag + 0.5).astype(int).ravel()
    order = np.argsort(shell, kind="stable")
    sorted_shell = shell[order]
    starts = np.flatnonzero(np.diff(sorted_shell, prepend=-1))
    plan = (order, grid.half_mirror.ravel()[order], sorted_shell, starts,
            grid.kmag.ravel()[order])
    for value in plan:
        value.flags.writeable = False
    return plan


def _ranked(grid, power, half=False):
    """Amplitudes sqrt(power) in the shell order of :func:`_shell_plan`,
    from a per-mode power on the full spectrum or, with ``half``, on the
    half spectrum of a real field."""
    order = _shell_plan(grid)[1 if half else 0]
    return np.sqrt(power).ravel()[order]


def _envelope(grid, ranked):
    """``shell_envelope`` of the per-mode amplitudes ``ranked``, given in
    the shell order of :func:`_shell_plan`."""
    _, _, sorted_shell, starts, sorted_kmag = _shell_plan(grid)
    peak = np.zeros(sorted_shell[-1] + 1)
    peak_kmag = np.zeros(sorted_shell[-1] + 1)
    peak[sorted_shell[starts]] = np.maximum.reduceat(ranked, starts)
    # where the loudest mode of each shell sits on the |j| axis; of equal
    # peaks the one last in flat order counts
    loud = np.flatnonzero(ranked == peak[sorted_shell])
    last = loud[np.flatnonzero(np.diff(sorted_shell[loud], append=-1))]
    peak_kmag[sorted_shell[last]] = sorted_kmag[last]
    return peak, peak_kmag


def shell_envelope(field):
    """Peak amplitude per integer-radius shell [n - 1/2, n + 1/2) on |j|.

    Returns (peak, peak_kmag): the loudest amplitude in each shell and
    the |j| where it sits.  Shell 0 holds only the (zero) mean mode.  The
    amplitude of a vector mode is the magnitude over its components.
    """
    grid = field.grid
    return _envelope(grid, _ranked(grid, _power(field.coeffs, grid.dim)))


def _fit(grid, ranked, s):
    """``fit_radius`` of the per-mode amplitudes ``ranked`` (see
    :func:`_envelope`)."""
    peak, peak_kmag = _envelope(grid, ranked)

    floor = AMPLITUDE_FLOOR_RATIO * peak.max()
    usable = np.flatnonzero(peak > max(floor, 0.0))
    usable = usable[usable > 0]  # shell 0 is the (zero) mean mode
    if len(usable) < MIN_FIT_SHELLS:
        return None

    # the least-squares line in closed form, from mean-centred sums
    x = peak_kmag[usable] ** (1.0 / s)
    y = np.log(peak[usable])
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    total = y - y_mean
    slope = float(np.dot(dx, total) / np.dot(dx, dx))
    intercept = float(y_mean - slope * x_mean)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.dot(total, total))
    quality = 1.0 if ss_tot == 0.0 else 1.0 - float(np.dot(resid, resid)) / ss_tot
    return RadiusFit(
        tau_est=max(0.0, -slope),
        intercept=intercept,
        shells_used=range(int(usable[0]), int(usable[-1]) + 1),
        quality=quality,
    )


def fit_radius(field, s: float = 1.0):
    """Estimate the analyticity radius from the coefficient envelope.

    Each shell contributes its loudest mode (the envelope — the Gevrey
    class constrains peaks, not means) at that mode's own |j|.  A line
    through (|j|^{1/s}, log amplitude) gives tau_est = -slope, clamped
    at zero.  Returns None when fewer than 4 shells rise above the
    amplitude floor: too little spectrum to call it a fit.
    """
    GevreyParams(tau=0.0, s=s)  # validate the range
    grid = field.grid
    return _fit(grid, _ranked(grid, _power(field.coeffs, grid.dim)), s)


def gevrey_energy(state):
    """X(t) = 1 + ||L e^{tau L} u||^2 + ||L e^{tau L} theta||^2.

    The weight is tau = min(t, tau_cap), the linear-in-time radius the
    smoothing theory predicts, capped where the weight would amplify
    roundoff past the top grid mode.
    """
    grid = state.u.grid
    tau = min(state.t, grid.tau_cap)
    GevreyParams(tau=tau)  # validate the range
    weight = _gevrey_weight(grid, tau, 1.0, double=True)
    h1_u = _weigh(grid, _power(state.u.coeffs, grid.dim), r=1.0)
    h1_theta = _weigh(grid, _power(state.theta.coeffs, grid.dim), r=1.0)
    return (1.0 + _norm_of(grid, weight * h1_u) ** 2
            + _norm_of(grid, weight * h1_theta) ** 2)


# ----------------------------------------------------------------------
# energy budgets


def _buoyancy_flux(grid, u, theta, half=False):
    """(theta e_N, u) at one instant, from coefficient arrays on the full
    spectrum or, with ``half``, on the half spectrum of a real state.

    The sum is complex and its real part is taken after it, as for the
    full arrays: in the gathered half layout a mode's product is the
    conjugate of the one in the full array, which has the same real
    part.
    """
    product = theta * np.conj(u[-1])
    return float(TWO_PI**grid.dim * _sum(grid, product, half).real)


def _exp_fitted_mean(a, b):
    """The exponential-fitted mean (a - b) / ln(a / b), entry by entry.

    For an entry that varies exponentially from a to b over a step this
    is its exact mean over the step.  Entries where a or b is zero, or
    a == b, take the trapezoid mean (a + b) / 2, the rule's limit as
    a -> b.  Writing ln(a / b) as log1p((a - b) / b) keeps the quotient
    accurate as a -> b, where a - b is exact.
    """
    fitted = (a > 0) & (b > 0) & (a != b)
    with np.errstate(divide="ignore", invalid="ignore"):
        diff = a - b
        return np.where(fitted, diff / np.log1p(diff / b), 0.5 * (a + b))


class BudgetAccumulator:
    """Running energy budget along a trajectory.

    Feed it states in time order; each ``update`` returns the signed
    residuals

        res_theta = ||theta(t)||^2 + 2 kappa I[||grad theta||^2] - ||theta_0||^2
        res_u     = ||u(t)||^2 + 2 nu I[||grad u||^2] - ||u_0||^2
                    - 2 I[(theta e_N, u)]

    where I[.] integrates over the fed-in times.  The two dissipation
    integrals use the exponential-fitted rule mode by mode: over a step
    of length h, each mode's density |j|^2 |c_j|^2 contributes
    h (a - b) / ln(a / b) from its end values a and b (the trapezoid
    where a or b is 0 or a == b).  The rule is exact for pure diffusive
    decay, which the integrating-factor stepper also integrates exactly,
    and second order otherwise, with an error set by how far each
    mode's log-density bends over a step.  The buoyancy cross term
    changes sign, so it keeps the trapezoidal rule (second order).  Both
    residuals vanish for the exact flow; numerically they hold the
    integrator and quadrature error, so their size depends on the
    sampling cadence.
    """

    def __init__(self, params: PhysicalParams):
        self.params = params
        self._prev = None
        self._e0_u = 0.0
        self._e0_theta = 0.0
        self._int_u = 0.0
        self._int_theta = 0.0
        self._int_cross = 0.0

    def update(self, u, theta, t):
        grid = u.grid
        power_u = _power(u.coeffs, grid.dim)
        power_theta = _power(theta.coeffs, grid.dim)
        dens_u = _weigh(grid, power_u, r=1.0)
        dens_theta = _weigh(grid, power_theta, r=1.0)
        return self._advance(
            grid, t, _norm_of(grid, power_u) ** 2,
            _norm_of(grid, power_theta) ** 2, dens_u, dens_theta,
            _buoyancy_flux(grid, u.coeffs, theta.coeffs),
            [float(_sum(grid, mean))
             for mean in self._fitted_means(dens_u, dens_theta)],
        )

    def _fitted_means(self, dens_u, dens_theta):
        """Per-mode exponential-fitted means of the dissipation densities
        of u and theta over the step since the last state fed in (none
        for the first state)."""
        if self._prev is None:
            return []
        _, dens_u_prev, dens_theta_prev, _ = self._prev
        return [_exp_fitted_mean(dens_u_prev, dens_u),
                _exp_fitted_mean(dens_theta_prev, dens_theta)]

    def _advance(self, grid, t, e_u, e_theta, dens_u, dens_theta, cross,
                 dissipated):
        """``update`` from the state's energies ||u||^2 and ||theta||^2,
        its dissipation densities |j|^2 |c_j|^2 (summed over components),
        its buoyancy flux (theta e_N, u) and ``dissipated``, the sums over
        modes of the :meth:`_fitted_means` (none for the first state).

        The densities are kept for the next step's means, so one
        accumulator is fed densities in one layout throughout (the full
        spectrum, or the half spectrum of a real state).
        """
        if self._prev is None:
            self._e0_u = e_u
            self._e0_theta = e_theta
        else:
            t_prev, _, _, cross_prev = self._prev
            h = t - t_prev
            scale = h * TWO_PI**grid.dim
            self._int_u += scale * dissipated[0]
            self._int_theta += scale * dissipated[1]
            self._int_cross += 0.5 * h * (cross_prev + cross)
        self._prev = (t, dens_u, dens_theta, cross)
        res_theta = e_theta + 2 * self.params.kappa * self._int_theta - self._e0_theta
        res_u = (
            e_u
            + 2 * self.params.nu * self._int_u
            - self._e0_u
            - 2 * self._int_cross
        )
        return res_theta, res_u


# ----------------------------------------------------------------------
# per-state record assembly


def build_record(state, params: PhysicalParams,
                 budget: BudgetAccumulator | None = None):
    """DiagnosticsRecord for one state (anything with u, theta, t).

    The state must be real, that is its coefficients Hermitian, as every
    state from ``step``, ``synthesize_initial`` and ``read_snapshot`` is:
    the record is formed on the half spectrum.  ``t`` must be finite and
    at least 0.  Feeds ``budget`` when given, so calling this once per
    step on a shared accumulator yields per-step energy residuals.
    """
    grid = state.u.grid
    half = grid.half_slice
    return _record(grid, state.t, state.u.coeffs[half],
                   state.theta.coeffs[half], params, budget)


# power, H1 density and Gevrey-weighted H1 density of u and of theta,
# and the two exponential-fitted means of a budget
_RECORD_ROWS = 8


def _record_arrays(grid, buffer=None):
    """Arrays for :func:`_record` to stack its real per-mode quantities
    in and to gather them to the full layout, so that a run taking a
    record every step need not allocate them each time (fresh pages for
    the gather of every record cost more than its sums).  With
    ``buffer``, an array with room for both whose contents are free
    while a record is taken, they are views of it.
    """
    stacked = (_RECORD_ROWS,) + grid.half_k2.shape
    full = (_RECORD_ROWS, grid.nmodes)
    if buffer is None:
        return np.empty(stacked), np.empty(full)
    values = buffer.reshape(-1).view(float)
    n = int(np.prod(stacked))
    return (values[:n].reshape(stacked),
            values[n : n + int(np.prod(full))].reshape(full))


def _record(grid, t, u, theta, params, budget, arrays=None):
    """``build_record`` of the real state at time ``t`` whose half spectra
    are ``u`` (dim, *half) and ``theta`` (*half); ``arrays`` are from
    :func:`_record_arrays`.

    Each per-mode quantity (power, H1 density, Gevrey-weighted H1
    density, exponential-fitted mean, buoyancy product, divergence) is
    formed on the half spectrum and gathered to the full layout just
    before it is summed, so every sum runs over the values, and in the
    order, of the full arrays and the record is that of the full state
    to the last bit.  The real quantities are stacked and gathered and
    summed in one pass; the buoyancy product is complex and is summed
    apart.
    """
    tau = min(t, grid.tau_cap)
    GevreyParams(tau=tau)  # validate the range
    # one |c_j|^2 pass per field feeds every field of the record
    power_u, power_theta = _power(u, grid.dim), _power(theta, grid.dim)
    h1_u = grid.half_k2 * power_u
    h1_theta = grid.half_k2 * power_theta
    weight = _gevrey_weight(grid, tau, 1.0, double=True, half=True)
    rows = [power_u, power_theta, h1_u, h1_theta,
            weight * h1_u, weight * h1_theta]
    if budget is not None:
        rows += budget._fitted_means(h1_u, h1_theta)
    n = len(rows)
    stacked, full = _record_arrays(grid) if arrays is None else arrays
    np.stack(rows, out=stacked[:n])
    # mode "clip" lets np.take write into its out without a buffer
    np.take(stacked[:n].reshape(n, -1), grid.half_mirror.ravel(), axis=1,
            out=full[:n], mode="clip")
    sums = full[:n].sum(axis=1)
    l2_u, l2_theta, h1n_u, h1n_theta, x_u, x_theta = np.sqrt(
        TWO_PI**grid.dim * sums[:6]).tolist()
    if budget is None:
        res_theta, res_u = 0.0, 0.0
    else:
        res_theta, res_u = budget._advance(
            grid, t, l2_u**2, l2_theta**2, h1_u, h1_theta,
            _buoyancy_flux(grid, u, theta, half=True),
            sums[6:].tolist(),
        )
    fit = _fit(grid, _ranked(grid, power_u, half=True), 1.0)
    return DiagnosticsRecord(
        t=t,
        l2_u=l2_u,
        l2_theta=l2_theta,
        h1_u=h1n_u,
        h1_theta=h1n_theta,
        gevrey_X=1.0 + x_u**2 + x_theta**2,
        tau_used=tau,
        radius_fit=0.0 if fit is None else fit.tau_est,
        radius_fit_quality=0.0 if fit is None else fit.quality,
        energy_residual_theta=res_theta,
        energy_residual_u=res_u,
        div_max=_divergence_max(grid.half_k, u),
    )
