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

* Gevrey energy X_tau(t) = 1 + ||L e^{tau L} u||^2 + ||L e^{tau L} theta||^2
  and tau*(t), the largest tau with X_tau(t) <= 2 X(0): the flow is
  analytic with radius at least t while tau* >= t (Foias & Temam 1989);

* radius fits — a least-squares estimate of the decay rate tau in the
  coefficient envelope |u_j| ~ e^{-tau |j|}, the measurable trace
  of that analyticity on a finite grid, beside the envelope's tail, how
  far it has decayed by the edge of the retained modes.

Everything here reads the half spectrum of real fields, row by row
through a field's ``components`` (one row for theta, dim for u) or the
rows of a stacked [u; theta].  A per-mode quantity is folded (its terms
at j and -j summed, ``fields._fold``), summed per class of equal |j|^2
(``fields._class_sums``) and only then weighted, since every weight
here is a function of |j|^2; the envelope takes the loudest half mode
per shell.  The per-step record and the public functions share this one
path, so they agree to the last bit, and a budget is fed only through
``build_record``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields as _dc_fields

import numpy as np

from .fields import (
    PhysicalParams,
    _class_plan,
    _class_sums,
    _divergence_max,
    _fold,
    _power,
    _stacked,
    _weigh,
    norm,
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

# shells (modes for tau*) whose peak sits below this fraction of their
# field's peak are double-precision noise, left out of fits and tau*
AMPLITUDE_FLOOR_RATIO = 1e-14
MIN_FIT_SHELLS = 4


@dataclass
class DiagnosticsRecord:
    """One row of run diagnostics at time ``t``.

    ``h1_u``/``h1_theta`` are the Zygmund seminorms ||Lambda . ||;
    ``tau_star`` is the largest tau with X_tau(t) <= 2 X(0) over the modes
    above the amplitude floor (< 0 once the bound's interval has ended,
    +inf for a zero state); the radius fields come from ``fit_radius`` on
    the velocity spectrum, 0.0/0.0 when it has too few usable shells to
    fit; ``tail`` is the velocity envelope's peak on shell
    ``grid.dealias_cutoff`` over its global peak (0.0 for a zero field),
    which says whether the retained modes resolve the spectrum; the
    energy residuals accumulate over the cadence the records were
    produced at, by the rules of :class:`BudgetAccumulator`.
    """

    t: float
    l2_u: float
    l2_theta: float
    h1_u: float
    h1_theta: float
    tau_star: float
    radius_fit: float
    radius_fit_quality: float
    tail: float
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
    """Least-squares envelope fit log|u_j| ~ intercept - tau_est |j|.

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
    """Shell bookkeeping of a grid's half spectrum, as read-only arrays:
    the stable order of the flat half modes by shell floor(|j| + 1/2),
    the start of each shell in it (every shell up to the outermost holds
    a mode), and in that order i |j| of each half mode."""
    shell = np.floor(grid.kmag + 0.5).astype(int).ravel()
    order = np.argsort(shell, kind="stable")
    starts = np.flatnonzero(np.diff(shell[order], prepend=-1))
    plan = (order, starts, 1j * grid.kmag.ravel()[order])
    for value in plan:
        value.flags.writeable = False
    return plan


def _envelope(grid, amplitude):
    """``shell_envelope`` from the amplitudes of the half modes of a real
    field in :func:`_shell_plan` order, which each mode shares with its
    reflection.  Complex numbers compare by real part first, so the
    largest amplitude + i |j| of a shell is its loudest mode, and of
    equal peaks the one of largest |j|."""
    _, starts, i_kmag = _shell_plan(grid)
    loudest = np.maximum.reduceat(i_kmag + amplitude, starts)
    return loudest.real, loudest.imag


def _amplitude(components, power):
    """Amplitude of each mode of a field's ``components``, whose ``_power``
    is ``power``: sqrt(power), but from the coefficients scaled by 2^600,
    which is exact, where the squares underflowed."""
    scale = np.where(power < np.finfo(float).tiny, 2.0**600, 1.0)
    return np.sqrt(_power(components * scale)) / scale


def shell_envelope(field):
    """Peak amplitude per integer-radius shell [n - 1/2, n + 1/2) on |j|.

    Returns (peak, peak_kmag): the loudest amplitude in each shell and
    the |j| where it sits, of equal peaks the largest |j|.  Shell 0
    holds only the (zero) mean mode.  The amplitude of a vector mode is
    the magnitude over its components.
    """
    grid = field.grid
    amplitude = _amplitude(field.components, _power(field.components))
    return _envelope(grid, np.take(amplitude, _shell_plan(grid)[0]))


def _tail(grid, peak):
    """The envelope's peak on shell ``grid.dealias_cutoff``, the
    outermost shell the dealiasing box holds whole, over its global peak
    (0.0 for a zero field): how far the retained spectrum has decayed.
    ``peak`` is a list."""
    top = max(peak)
    return peak[grid.dealias_cutoff] / top if top > 0 else 0.0


def _fit(peak, kmag):
    """``fit_radius`` of the envelope given as the lists ``peak`` and
    ``kmag``.  The fit runs on Python floats: with one point per shell,
    array operations would cost more than the sums."""
    floor = AMPLITUDE_FLOOR_RATIO * max(peak)
    # shell 0 is the (zero) mean mode
    usable = [n for n in range(1, len(peak)) if peak[n] > floor]
    if len(usable) < MIN_FIT_SHELLS:
        return None

    # the least-squares line in closed form, from mean-centred sums of
    # the points (|j|, log peak)
    x = [kmag[n] for n in usable]
    y = [math.log(peak[n]) for n in usable]
    x_mean, y_mean = sum(x) / len(x), sum(y) / len(y)
    sxx = sxy = syy = 0.0
    for x_n, y_n in zip(x, y):
        dx, dy = x_n - x_mean, y_n - y_mean
        sxx += dx * dx
        sxy += dx * dy
        syy += dy * dy
    slope = sxy / sxx
    # the coefficient of determination, 1 - (residual / total) sum of
    # squares, is sxy^2 / (sxx syy) for the least-squares line
    quality = 1.0 if syy == 0.0 else slope * sxy / syy
    return RadiusFit(
        tau_est=max(0.0, -slope),
        intercept=y_mean - slope * x_mean,
        shells_used=range(usable[0], usable[-1] + 1),
        quality=quality,
    )


def fit_radius(field):
    """Estimate the analyticity radius from the coefficient envelope.

    Each shell contributes its loudest mode (the envelope — the Gevrey
    class constrains peaks, not means) at that mode's own |j|.  A line
    through (|j|, log amplitude) gives tau_est = -slope, clamped at
    zero.  Returns None when fewer than 4 shells rise above the
    amplitude floor: too little spectrum to call it a fit.
    """
    return _fit(*map(np.ndarray.tolist, shell_envelope(field)))


def gevrey_energy(state, tau):
    """X_tau = 1 + ||L e^{tau L} u||^2 + ||L e^{tau L} theta||^2."""
    return (1.0 + norm(state.u, r=1.0, tau=tau) ** 2
            + norm(state.theta, r=1.0, tau=tau) ** 2)


def _tau_star(kmag, weights, bound, tau):
    """The tau where 1 + sum weights e^{2 tau kmag} = ``bound`` (+inf if
    every weight is 0), by Newton on its logarithm, which is convex, from
    ``tau`` or, if smaller, the root of the class that alone meets it."""
    live = weights > 0
    if not live.any():
        return math.inf
    log_w, two_k = np.log(weights[live]), 2.0 * kmag[live]
    tau = min(tau, float(np.min((math.log(bound - 1.0) - log_w) / two_k)))
    while True:
        z = log_w + two_k * tau
        top = max(float(z.max()), 0.0)
        e = np.exp(z - top)
        total = math.exp(-top) + float(e.sum())
        step = (top + math.log(total / bound)) * total / float(e @ two_k)
        tau -= step
        if abs(step) <= 1e-12 * max(1.0, abs(tau)):
            return tau


# ----------------------------------------------------------------------
# energy budgets


def _exp_fitted_mean(a, b):
    """The exponential-fitted mean (a - b) / ln(a / b), entry by entry:
    the exact mean over a step of an entry that varies exponentially from
    a to b.  ln(a / b) = log1p((a - b) / b) stays accurate as a -> b; it
    is ln a - ln b where log1p loses digits, as the quotient nears -1
    (a < 2^-14 b), or the quotient overflows.  The mean lies between a
    and b and tends to a as b -> a and to 0 as a or b -> 0, so the
    larger of the quotient and min(a, b) is the mean, and its limit
    where the quotient is 0 / 0 (a == b) or 0 (a or b is 0).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        diff = a - b
        ratio = diff / b
        log_ratio = np.log1p(ratio)
        far = ~((ratio >= 2.0**-14 - 1) & (ratio < np.inf))
        log_ratio[far] = np.log(a[far]) - np.log(b[far])
        fitted = diff / log_ratio
    return np.fmax(fitted, np.fmin(a, b))


class BudgetAccumulator:
    """Running energy budget along a trajectory.

    Feed it states in time order through :func:`build_record` (an
    earlier state than the last is refused), which reports the signed
    residuals

        res_theta = ||theta(t)||^2 + 2 kappa I[||grad theta||^2] - ||theta_0||^2
        res_u     = ||u(t)||^2 + 2 nu I[||grad u||^2] - ||u_0||^2
                    - 2 I[(theta e_N, u)]

    where I[.] integrates over the fed-in times.  The two dissipation
    integrals use the exponential-fitted rule mode by mode (the pair j,
    -j taken together, as they share |j|^2): over a step of length h,
    each mode's density |j|^2 |c_j|^2 contributes h (a - b) / ln(a / b)
    from its end values a and b (its limits where a or b is 0 or
    a == b; see :func:`_exp_fitted_mean`).  The rule is exact for pure
    diffusive decay, which the integrating-factor stepper also
    integrates exactly, and second order otherwise, with an error set by
    how far each mode's log-density bends over a step.  The buoyancy
    cross term changes sign, so it keeps the trapezoidal rule (second
    order).  Both residuals vanish for the exact flow; numerically they
    hold the integrator and quadrature error, so their size depends on
    the sampling cadence.  It also keeps X(0) and the last tau*, where
    the next record's Newton solve starts.
    """

    def __init__(self, params: PhysicalParams):
        self.params = params
        self._prev = None
        self._e0_u = 0.0
        self._e0_theta = 0.0
        self._int_u = 0.0
        self._int_theta = 0.0
        self._int_cross = 0.0
        self._tau_star = math.inf

    def _advance(self, grid, t, e_u, e_theta, x, dens, cross):
        """Take the state at time ``t`` from its energies ||u||^2 and
        ||theta||^2, X_0, dissipation densities |j|^2 |c_j|^2 of u and of
        theta, folded (``fields._fold``) and stacked, and buoyancy flux,
        and return the residuals (res_theta, res_u).  On a real state the
        mean of a folded pair is twice that of each mode."""
        if self._prev is None:
            self._e0_u, self._e0_theta, self._x0 = e_u, e_theta, x
        else:
            t_prev, dens_prev, cross_prev = self._prev
            if t < t_prev:
                raise ValueError(f"budget fed t = {t} after t = {t_prev}; "
                                 "states must come in time order")
            h = t - t_prev
            scale = h * TWO_PI**grid.dim
            means = _exp_fitted_mean(dens_prev, dens).reshape(2, -1)
            dissipated_u, dissipated_theta = means.sum(axis=1).tolist()
            self._int_u += scale * dissipated_u
            self._int_theta += scale * dissipated_theta
            self._int_cross += 0.5 * h * (cross_prev + cross)
        self._prev = (t, dens, cross)
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


def build_record(state, budget: BudgetAccumulator | None = None):
    """DiagnosticsRecord for one state (anything with u, theta, t).

    ``t`` must be finite and at least 0.  Feeds ``budget`` when given,
    so calling this once per step on a shared accumulator yields
    per-step energy residuals, and tau* against X(0) of the first state
    fed to it.  Without one the state is its own initial state, the first
    of a fresh accumulator: its residuals are 0.0 whatever nu and kappa.
    """
    grid = state.u.grid
    budget = budget or BudgetAccumulator(PhysicalParams(nu=1.0, kappa=1.0))
    return _record(grid, state.t, _stacked(state.u, state.theta), budget,
                   np.empty(_record_scratch_size(grid), dtype=complex))


def _record_scratch_size(grid):
    """The number of complex entries that hold a record's per-mode
    arrays: 3 dim + 6 real half spectra."""
    return -(-(3 * grid.dim + 6) * math.prod(grid.shape) // 2)


def _record(grid, t, y, budget, buffer):
    """``build_record`` of the real state at time ``t`` whose stacked
    half spectrum [u; theta] is ``y``.  ``buffer``, a flat complex array
    free while a record is taken, of :func:`_record_scratch_size` entries
    or more, holds the per-mode arrays, so that a run allocates none per
    step.

    The powers of u and theta and the buoyancy product are folded and
    summed per |j|^2 class in one ``bincount``.  The public functions run
    the same sums on each field's half spectrum, so each equals its field
    here bit for bit.
    """
    if not (t >= 0 and math.isfinite(t)):
        raise ValueError(f"t must be >= 0 and finite, got {t}")
    dim = grid.dim
    size = y[0].size
    work = buffer.view(float)
    square = work[: 2 * y.size].reshape(y.shape[:-1] + (-1,))
    power = work[2 * y.size : 3 * y.size].reshape(y.shape)
    folded = work[3 * y.size : 3 * y.size + 3 * size].reshape(
        (3,) + y.shape[1:])
    # one |c_j|^2 pass per field feeds every field of the record, as in
    # fields._power: re^2 + im^2 of each component, then their sum
    np.square(y.view(float), out=square)
    np.add(square[..., ::2], square[..., 1::2], out=power)
    for i in range(1, dim):
        np.add(power[i - 1], power[i], out=power[i])
    # the buoyancy product Re(theta conj(u_N)) = theta_re u_N,re +
    # theta_im u_N,im takes a free row, so that it is folded and summed
    # with the powers of u and theta
    product = np.multiply(y[dim].view(float), y[dim - 1].view(float),
                          out=square[0])
    np.add(product[..., ::2], product[..., 1::2], out=power[dim - 2])
    _fold(grid, power[dim - 2:], folded)
    sums = _class_sums(grid, folded)
    # L2 and H1: the class sums weighted by 1 and |j|^2
    flux, *norms2 = sums.sum(axis=-1).tolist()
    norms2 += _weigh(grid, sums[1:], r=1.0).sum(axis=-1).tolist()
    scale = TWO_PI**dim
    l2_u, l2_theta, h1_u, h1_theta = (
        math.sqrt(scale * value) for value in norms2)
    res_theta, res_u = budget._advance(
        grid, t, l2_u**2, l2_theta**2, 1.0 + h1_u**2 + h1_theta**2,
        grid.k2 * folded[1:], scale * flux)
    # tau* from the modes above the fit's floor of their field's peak
    kept = [mode * (row > AMPLITUDE_FLOOR_RATIO**2 * row.max())
            for row, mode in zip(power[dim - 1:], folded[1:])]
    budget._tau_star = tau = _tau_star(_class_plan(grid)[3], scale * _weigh(
        grid, _class_sums(grid, kept[0] + kept[1]), r=1.0),
        2.0 * budget._x0, budget._tau_star)
    peak, peak_kmag = map(np.ndarray.tolist, _envelope(grid, np.take(
        _amplitude(y[:dim], power[dim - 1]), _shell_plan(grid)[0])))
    fit = _fit(peak, peak_kmag)
    return DiagnosticsRecord(
        t=t,
        l2_u=l2_u,
        l2_theta=l2_theta,
        h1_u=h1_u,
        h1_theta=h1_theta,
        tau_star=tau,
        radius_fit=0.0 if fit is None else fit.tau_est,
        radius_fit_quality=0.0 if fit is None else fit.quality,
        tail=_tail(grid, peak),
        energy_residual_theta=res_theta,
        energy_residual_u=res_u,
        div_max=_divergence_max(grid.k_complex, y[:dim]),
    )
