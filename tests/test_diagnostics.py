"""Energy budgets, Gevrey energy, radius fits, per-state records."""

import numpy as np
import pytest

from bousspec import (
    PhysicalParams,
    SpectralScalarField,
    SpectralVectorField,
    divergence_max,
    enforce_constraints,
    leray_project,
    make_grid,
    norm,
    synthesize_initial,
)
from bousspec.diagnostics import (
    BudgetAccumulator,
    DiagnosticsRecord,
    build_record,
    fit_radius,
    gevrey_energy,
    shell_envelope,
)
from bousspec.stepper import (
    SimulationState,
    StepperConfig,
    run_simulation,
    step,
)


def envelope_field(grid, law):
    """Scalar field with |coeffs| = law(|j|), zero mean, real-symmetric."""
    f = SpectralScalarField(grid, law(grid.kmag).astype(complex))
    f.coeffs[grid.zero_index] = 0.0
    return f


class TestRadiusFit:
    def test_exact_exponential(self):
        grid = make_grid(2, 32)
        f = envelope_field(grid, lambda k: np.exp(-0.3 * k))
        fit = fit_radius(f)
        assert fit.tau_est == pytest.approx(0.3, abs=1e-3)
        assert fit.quality >= 0.999
        assert fit.shells_used[0] == 1

    def test_flat_spectrum(self):
        grid = make_grid(2, 32)
        f = envelope_field(grid, lambda k: np.ones_like(k))
        fit = fit_radius(f)
        assert abs(fit.tau_est) <= 1e-6
        assert fit.quality == 1.0  # zero-variance fit is exact

    def test_scale_invariance(self):
        grid = make_grid(2, 32)
        f = envelope_field(grid, lambda k: np.exp(-0.45 * k) * (1 + k) ** -1.2)
        base = fit_radius(f)
        f.coeffs *= 137.0
        scaled = fit_radius(f)
        assert abs(scaled.tau_est - base.tau_est) <= 1e-12
        assert scaled.intercept == pytest.approx(
            base.intercept + np.log(137.0), rel=1e-12
        )
        assert scaled.quality == pytest.approx(base.quality, abs=1e-12)

    def test_gevrey_index_rescales_axis(self):
        grid = make_grid(2, 64)
        f = envelope_field(grid, lambda k: np.exp(-0.4 * np.sqrt(k)))
        fit = fit_radius(f, s=2.0)
        assert fit.tau_est == pytest.approx(0.4, abs=1e-3)
        with pytest.raises(ValueError, match="s"):
            fit_radius(f, s=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_gevrey_index_rejected(self, bad):
        # a nan or inf index would reach the least-squares fit
        f = envelope_field(make_grid(2, 32), lambda k: np.exp(-0.3 * k))
        with pytest.raises(ValueError, match="^s must be .* finite"):
            fit_radius(f, s=bad)

    def test_too_few_shells_is_unfittable(self):
        grid = make_grid(2, 16)
        f = SpectralScalarField(grid)
        f.coeffs[0, 1] = f.coeffs[0, -1] = 1.0
        f.coeffs[0, 2] = f.coeffs[0, -2] = 0.5
        assert fit_radius(f) is None
        assert fit_radius(SpectralScalarField(grid)) is None

    def test_amplitude_floor_excludes_noise_shells(self):
        grid = make_grid(2, 32)

        def law(k):
            amp = np.exp(-0.25 * k)
            return np.where(k > 6.5, 1e-18, amp)

        fit = fit_radius(envelope_field(grid, law))
        assert fit.shells_used[-1] <= 6
        assert fit.tau_est == pytest.approx(0.25, abs=1e-3)

    def test_vector_field_uses_magnitude(self):
        grid = make_grid(2, 32)
        u = SpectralVectorField(grid)
        u.coeffs[0] = np.exp(-0.2 * grid.kmag)
        u.coeffs[1] = np.exp(-0.2 * grid.kmag)
        u.coeffs[:, grid.zero_index[0], grid.zero_index[1]] = 0.0
        fit = fit_radius(u)
        assert fit.tau_est == pytest.approx(0.2, abs=1e-3)


def lexsort_envelope(field):
    """Shell envelope by a full lexsort on (shell, amplitude): the loudest
    mode per shell, of equal ones the last in flat order."""
    grid = field.grid
    power = field.coeffs.real**2 + field.coeffs.imag**2
    if isinstance(field, SpectralVectorField):
        power = power.sum(axis=0)
    amp = np.sqrt(power).ravel()
    shell = np.floor(grid.kmag + 0.5).astype(int).ravel()
    kmag = grid.kmag.ravel()
    peak = np.zeros(shell.max() + 1)
    peak_kmag = np.zeros(shell.max() + 1)
    order = np.lexsort((amp, shell))
    last = order[np.flatnonzero(np.diff(shell[order], append=-1))]
    peak[shell[last]] = amp[last]
    peak_kmag[shell[last]] = kmag[last]
    return peak, peak_kmag


def plain_fitted_mean(a, b):
    """(a - b) / ln(a / b) entry by entry, a where a == b, 0 where a or b
    is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = (a - b) / np.log1p((a - b) / b)
    return np.where(a == b, a, np.where((a > 0) & (b > 0), mean, 0.0))


def plain_records(states, params):
    """The fields of the records of ``states``, fed in order to one
    budget, from plain ``np.sum`` over the full arrays and
    :func:`lexsort_envelope`, and for each residual the initial energy,
    the scale of its cancellations."""
    grid = states[0].u.grid
    vol = (2 * np.pi) ** grid.dim
    rows, integrals = [], np.zeros(3)
    for n, state in enumerate(states):
        u, theta = state.u.coeffs, state.theta.coeffs
        power_u = np.sum(u.real**2 + u.imag**2, axis=0)
        power_theta = theta.real**2 + theta.imag**2
        tau = min(state.t, grid.tau_cap)
        weight = grid.k2 * np.exp(2 * tau * grid.kmag)
        dens = (grid.k2 * power_u, grid.k2 * power_theta)
        cross = vol * np.sum((theta * np.conj(u[-1])).real)
        energy = (vol * np.sum(power_u), vol * np.sum(power_theta))
        if n == 0:
            first = energy
        else:
            h = state.t - states[n - 1].t
            for i in (0, 1):
                integrals[i] += h * vol * np.sum(
                    plain_fitted_mean(prev_dens[i], dens[i]))
            integrals[2] += 0.5 * h * (prev_cross + cross)
        prev_dens, prev_cross = dens, cross
        peak, peak_kmag = lexsort_envelope(state.u)
        usable = np.flatnonzero(peak > 1e-14 * peak.max())
        usable = usable[usable > 0]
        x, y = peak_kmag[usable], np.log(peak[usable])
        dx, dy = x - x.mean(), y - y.mean()
        slope = np.dot(dx, dy) / np.dot(dx, dx)
        resid = dy - slope * dx
        rows.append(dict(
            t=state.t,
            l2_u=np.sqrt(energy[0]),
            l2_theta=np.sqrt(energy[1]),
            h1_u=np.sqrt(vol * np.sum(dens[0])),
            h1_theta=np.sqrt(vol * np.sum(dens[1])),
            gevrey_X=1.0 + vol * np.sum(weight * (power_u + power_theta)),
            tau_used=tau,
            radius_fit=-slope,
            radius_fit_quality=1.0 - np.dot(resid, resid) / np.dot(dy, dy),
            tail=peak[grid.modes // 3] / peak.max(),
            energy_residual_theta=(energy[1] + 2 * params.kappa
                                   * integrals[1] - first[1]),
            energy_residual_u=(energy[0] + 2 * params.nu * integrals[0]
                               - first[0] - 2 * integrals[2]),
            div_max=np.max(np.abs(np.einsum("i...,i...->...", grid.k, u))),
        ))
    return rows, {"energy_residual_u": first[0],
                  "energy_residual_theta": first[1]}


class TestShellEnvelope:
    @pytest.mark.parametrize("dim,modes", [(2, 32), (3, 8)])
    def test_matches_lexsort_reference(self, dim, modes):
        # real fields made from a random vector field and from fields
        # drawn from small integer sets, whose shells hold many equal
        # peaks at different |j| (and one shell only zeros)
        grid = make_grid(dim, modes)
        rng = np.random.default_rng(dim)
        u = SpectralVectorField(grid, rng.standard_normal(grid.vshape)
                                + 1j * rng.standard_normal(grid.vshape))
        theta = SpectralScalarField(grid, rng.integers(0, 3, grid.shape)
                                    + 1j * rng.integers(0, 3, grid.shape))
        theta.coeffs[np.floor(grid.kmag + 0.5) == 3] = 0.0
        tied = SpectralVectorField(grid, rng.integers(-1, 2, grid.vshape)
                                   + 0j)
        for field in map(enforce_constraints, (u, theta, tied)):
            for got, want in zip(shell_envelope(field),
                                 lexsort_envelope(field)):
                assert np.array_equal(got, want)


class TestGevreyEnergy:
    def test_zero_fields(self):
        grid = make_grid(2, 16)
        state = SimulationState(
            SpectralVectorField(grid), SpectralScalarField(grid), t=0.7
        )
        assert gevrey_energy(state) == 1.0

    def test_initial_time_reduces_to_h1(self):
        grid = make_grid(2, 16)
        u, theta = synthesize_initial("rough_h1", grid, seed=5)
        state = SimulationState(u, theta, t=0.0)
        want = 1.0 + norm(u, r=1.0) ** 2 + norm(theta, r=1.0) ** 2
        assert gevrey_energy(state) == want

    def test_zero_tau_schedule_matches_h1_exactly(self):
        # at t = 0 the weight tau = t is zero: X is the H1 measure, in 3D
        grid = make_grid(3, 8)
        u, theta = synthesize_initial("rough_h1", grid, seed=6)
        state = SimulationState(u, theta, t=0.0)
        want = 1.0 + norm(u, r=1.0) ** 2 + norm(theta, r=1.0) ** 2
        assert gevrey_energy(state) == want

    def test_tau_clamped_at_cap(self):
        grid = make_grid(2, 16)
        u, theta = synthesize_initial("rough_h1", grid, seed=7)
        state = SimulationState(u, theta, t=1e9)
        capped = gevrey_energy(state)
        assert np.isfinite(capped)
        state.t = grid.tau_cap
        assert gevrey_energy(state) == capped


class TestEnergyBudget:
    def test_zero_run_residuals_exactly_zero(self):
        grid = make_grid(2, 16)
        params = PhysicalParams(nu=1.0, kappa=1.0)
        acc = BudgetAccumulator(params)
        records = [
            build_record(SimulationState(SpectralVectorField(grid),
                                         SpectralScalarField(grid), 0.01 * n),
                         params, acc)
            for n in range(5)
        ]
        assert all(r.energy_residual_theta == r.energy_residual_u == 0.0
                   for r in records)

    def test_pure_heat_budget_is_quadrature_limited(self):
        # theta(t) = e^{-kappa t} cos x_2 exactly; the exponential-fitted
        # dissipation rule is exact on a pure exponential, so the only
        # residual is roundoff
        grid = make_grid(2, 64)
        params = PhysicalParams(nu=1.0, kappa=1.0)
        u0, th0 = synthesize_initial("single_mode_theta", grid)
        e0 = norm(th0) ** 2
        acc = BudgetAccumulator(params)
        worst = 0.0
        for n in range(501):
            t = 1e-3 * n
            theta = SpectralScalarField(grid, th0.coeffs * np.exp(-params.kappa * t))
            rec = build_record(SimulationState(u0, theta, t), params, acc)
            worst = max(worst, abs(rec.energy_residual_theta))
        assert worst <= 1e-12 * e0

    def test_budget_matches_solver_records(self):
        # replaying the budget over per-step snapshots must reproduce the
        # residuals the driver accumulated step by step
        grid = make_grid(2, 16)
        params = PhysicalParams(nu=1.0, kappa=1.0)
        u0, th0 = synthesize_initial("rough_h1", grid, seed=3)
        u0.coeffs *= grid.dealias_mask
        th0.coeffs *= grid.dealias_mask
        u0 = leray_project(u0)
        cfg = StepperConfig(dt=1e-3, t_final=0.02, snapshot_every=1)
        traj = run_simulation(cfg, params, grid, SimulationState(u0, th0))
        acc = BudgetAccumulator(params)
        budget = np.array([
            (rec.energy_residual_theta, rec.energy_residual_u)
            for rec in (build_record(state, params, acc)
                        for state in traj.snapshots)])
        got_theta = [r.energy_residual_theta for r in traj.records]
        got_u = [r.energy_residual_u for r in traj.records]
        np.testing.assert_array_equal(budget[:, 0], got_theta)
        np.testing.assert_array_equal(budget[:, 1], got_u)
        # the u-budget closes once the buoyancy cross-term is counted;
        # what remains is the quadrature error the nonlinear dynamics
        # leave (the exponential-fitted dissipation rule is exact on the
        # diffusive decay, the cross-term is trapezoidal), around 1e-8
        # relative at this resolution and cadence (without the cross-term
        # the imbalance would be of order t*||u||*||theta||)
        e0_u = norm(traj.snapshots[0].u) ** 2
        assert np.max(np.abs(budget[:, 1])) <= 1e-4 * e0_u


class TestRecords:
    def test_record_fields(self):
        grid = make_grid(2, 32)
        params = PhysicalParams(nu=1.0, kappa=1.0)
        u, theta = synthesize_initial("rough_h1", grid, seed=2)
        state = SimulationState(u, theta, t=0.05)
        rec = build_record(state, params)
        assert rec.t == 0.05
        assert rec.h1_u == norm(u, r=1.0)
        assert rec.gevrey_X >= 1.0
        assert rec.tau_used == pytest.approx(0.05)
        assert rec.radius_fit_quality > 0.0
        assert all(np.isfinite(v) for v in rec.as_tuple())
        assert rec.energy_residual_theta == 0.0  # no accumulator attached

    @pytest.mark.parametrize("dim,modes", [(2, 32), (3, 8)])
    def test_record_equals_the_public_functions(self, dim, modes):
        # every field of every record along a run, bit for bit, against
        # the functions that compute it one at a time, the residuals
        # against an accumulator fed the same states by build_record
        grid = make_grid(dim, modes)
        params = PhysicalParams(nu=0.5, kappa=0.7)
        u0, th0 = synthesize_initial("rough_h1", grid, seed=4)
        cfg = StepperConfig(dt=2e-3, t_final=0.02, snapshot_every=1)
        traj = run_simulation(cfg, params, grid, SimulationState(u0, th0))
        assert len(traj.records) == len(traj.snapshots) == 11
        budget = BudgetAccumulator(params)
        for rec, state in zip(traj.records, traj.snapshots):
            u, theta = state.u, state.theta
            fit = fit_radius(u)
            peak, _ = shell_envelope(u)
            replay = build_record(state, params, budget)
            assert rec == DiagnosticsRecord(
                t=state.t,
                l2_u=norm(u),
                l2_theta=norm(theta),
                h1_u=norm(u, r=1.0),
                h1_theta=norm(theta, r=1.0),
                gevrey_X=gevrey_energy(state),
                tau_used=min(state.t, grid.tau_cap),
                radius_fit=fit.tau_est,
                radius_fit_quality=fit.quality,
                tail=peak[modes // 3] / peak.max(),
                energy_residual_theta=replay.energy_residual_theta,
                energy_residual_u=replay.energy_residual_u,
                div_max=divergence_max(u),
            )
        assert rec.tau_used > 0.0 and rec.energy_residual_u != 0.0
        assert 0.0 < rec.tail < 1.0

    @pytest.mark.parametrize("dim,modes", [(2, 64), (3, 16)])
    def test_record_matches_plain_sums_over_the_full_arrays(self, dim,
                                                            modes):
        # every field of a chain of records against plain sums over the
        # full coefficient arrays, mode by mode, and the lexsort envelope:
        # a path that shares no fold, class sum or shell plan with the
        # records.  The last state sits at tau = tau_cap and repeats the
        # one before it, so every density keeps its value over that step
        grid = make_grid(dim, modes)
        params = PhysicalParams(nu=0.5, kappa=0.7)
        u0, th0 = synthesize_initial("rough_h1", grid, seed=3)
        s0 = SimulationState(u0, th0)
        s1 = step(s0, params, StepperConfig(dt=1e-3))
        states = [s0, s1, SimulationState(s1.u, s1.theta, t=grid.tau_cap)]
        budget = BudgetAccumulator(params)
        got = [build_record(state, params, budget) for state in states]
        want, scales = plain_records(states, params)
        assert got[-1].tau_used == grid.tau_cap
        for rec, ref in zip(got, want):
            for name in DiagnosticsRecord.field_names():
                assert getattr(rec, name) == pytest.approx(
                    ref[name], rel=1e-14,
                    abs=1e-14 * scales.get(name, 0.0)), name

    @pytest.mark.parametrize("dim,modes", [(2, 32), (3, 8)])
    def test_records_do_not_depend_on_snapshot_cadence(self, dim, modes):
        # the run takes every record from the half spectrum it carries;
        # rebuilding full states for snapshots at another cadence changes
        # no row, and build_record on each rebuilt full state, fed to a
        # fresh accumulator in order, gives the same rows again
        grid = make_grid(dim, modes)
        params = PhysicalParams(nu=0.3, kappa=0.2)
        u0, th0 = synthesize_initial("rough_h1", grid, seed=6)
        runs = {
            every: run_simulation(
                StepperConfig(dt=2e-3, t_final=0.03, snapshot_every=every),
                params, grid, SimulationState(u0, th0))
            for every in (1, 7)
        }
        assert runs[1].records == runs[7].records
        budget = BudgetAccumulator(params)
        assert runs[1].records == [build_record(state, params, budget)
                                   for state in runs[1].snapshots]

    @pytest.mark.parametrize("t", [-0.5, float("nan")])
    def test_time_outside_the_weight_range_refused(self, t):
        # tau = min(t, tau_cap) must be a valid Gevrey radius, as in
        # gevrey_energy; a negative t used to give tau_used = t and a
        # weight e^{-|j|}, a NaN t a row of NaNs
        grid = make_grid(2, 16)
        u, theta = synthesize_initial("rough_h1", grid, seed=1)
        state = SimulationState(u, theta, t=t)
        with pytest.raises(ValueError, match="tau must be >= 0 and finite"):
            gevrey_energy(state)
        with pytest.raises(ValueError, match="tau must be >= 0 and finite"):
            build_record(state, PhysicalParams(nu=1.0, kappa=1.0))

    def test_record_when_spectrum_unfittable(self):
        # Taylor-Green occupies a single shell: no radius fit, reported
        # as zeros rather than an error
        grid = make_grid(2, 16)
        params = PhysicalParams(nu=1.0, kappa=1.0)
        u, theta = synthesize_initial("taylor_green", grid)
        rec = build_record(SimulationState(u, theta), params)
        assert rec.radius_fit == 0.0
        assert rec.radius_fit_quality == 0.0

    def test_field_names_match_dataclass(self):
        names = DiagnosticsRecord.field_names()
        assert names[0] == "t"
        assert names == [
            "t", "l2_u", "l2_theta", "h1_u", "h1_theta", "gevrey_X",
            "tau_used", "radius_fit", "radius_fit_quality", "tail",
            "energy_residual_theta", "energy_residual_u", "div_max",
        ]
