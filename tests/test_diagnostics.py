"""Energy budgets, Gevrey energy, radius fits, per-state records."""

import numpy as np
import pytest

from bousspec import (
    PhysicalParams,
    SpectralScalarField,
    SpectralVectorField,
    divergence_max,
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
from bousspec.stepper import SimulationState, StepperConfig, run_simulation


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


class TestShellEnvelope:
    @pytest.mark.parametrize("dim,modes", [(2, 32), (3, 8)])
    def test_matches_lexsort_reference(self, dim, modes):
        # a random vector field without the reality symmetry, and fields
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
        for field in (u, theta, tied):
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
        residuals = [
            acc.update(SpectralVectorField(grid), SpectralScalarField(grid),
                       0.01 * n)
            for n in range(5)
        ]
        assert np.all(np.array(residuals) == 0.0)

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
            res_theta, _ = acc.update(u0, theta, t)
            worst = max(worst, abs(res_theta))
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
        budget = np.array([acc.update(state.u, state.theta, state.t)
                           for state in traj.snapshots])
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
        # against an accumulator fed the same states
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
            res_theta, res_u = budget.update(u, theta, state.t)
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
                energy_residual_theta=res_theta,
                energy_residual_u=res_u,
                div_max=divergence_max(u),
            )
        assert rec.tau_used > 0.0 and rec.energy_residual_u != 0.0

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
            "tau_used", "radius_fit", "radius_fit_quality",
            "energy_residual_theta", "energy_residual_u", "div_max",
        ]
