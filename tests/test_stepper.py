"""Integrating-factor stepping: exactness, order, invariants, aborts."""

import numpy as np
import pytest

from bousspec import (
    NonFiniteStateError,
    PhysicalParams,
    SpectralScalarField,
    SpectralVectorField,
    divergence_max,
    enforce_constraints,
    hermitian_defect,
    leray_project,
    make_grid,
    norm,
    synthesize_initial,
)
from bousspec.fields import _stacked
from bousspec.fileio import read_snapshot, write_snapshot
from bousspec.nonlinear import (
    _projected_rhs,
    buoyancy,
    convect_pseudospectral,
)
from bousspec.stepper import (
    SimulationState,
    StepperConfig,
    rhs_full,
    run_simulation,
    step,
)


def run_config(dt, t_final, **overrides):
    return StepperConfig(dt=dt, t_final=t_final, **overrides)


def masked_rough_state(grid, seed, scale=1.0):
    u, theta = synthesize_initial("rough_h1", grid, seed=seed)
    u.coeffs *= grid.dealias_mask * scale
    theta.coeffs *= grid.dealias_mask * scale
    return SimulationState(leray_project(u), theta)


class TestConfig:
    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError, match="dt"):
            StepperConfig(dt=0.0)
        with pytest.raises(ValueError, match="dt"):
            StepperConfig(dt=-1e-3)

    def test_scheme_and_safety_validated(self):
        with pytest.raises(ValueError, match="scheme"):
            StepperConfig(dt=1e-3, scheme="rk4")

    def test_t_final_defaults_to_one_step(self):
        assert StepperConfig(dt=1e-3).t_final == 1e-3

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["dt", "t_final", "nu", "kappa"])
    def test_non_finite_settings_rejected(self, key, value):
        # an infinite t_final would never end the run loop, and a NaN dt
        # would end it after 0 steps as "completed"
        build = {
            "dt": lambda v: StepperConfig(dt=v, t_final=0.1),
            "t_final": lambda v: StepperConfig(dt=1e-3, t_final=v),
            "nu": lambda v: PhysicalParams(nu=v, kappa=1.0),
            "kappa": lambda v: PhysicalParams(nu=1.0, kappa=v),
        }[key]
        with pytest.raises(ValueError, match=key):
            build(value)


class TestRhs:
    def test_buoyancy_only_state(self):
        # u = 0, theta = cos x_2: the forcing theta e_2 is the gradient
        # of sin x_2, so the projected velocity equation is inert and
        # theta just conducts heat
        grid = make_grid(2, 16)
        params = PhysicalParams(nu=1.0, kappa=0.7)
        u, theta = synthesize_initial("single_mode_theta", grid)
        du, dth = rhs_full(SimulationState(u, theta), params, grid)
        assert np.max(np.abs(du.coeffs)) <= 1e-15
        np.testing.assert_allclose(
            dth.coeffs, -params.kappa * theta.coeffs, atol=1e-15
        )

    def test_taylor_green_reduces_to_diffusion(self):
        grid = make_grid(2, 32)
        params = PhysicalParams(nu=0.3, kappa=1.0)
        u, theta = synthesize_initial("taylor_green", grid)
        du, _ = rhs_full(SimulationState(u, theta), params, grid)
        np.testing.assert_allclose(
            du.coeffs, -2 * params.nu * u.coeffs, atol=1e-15
        )

    def test_zero_state(self):
        grid = make_grid(3, 8)
        params = PhysicalParams(nu=1.0, kappa=1.0)
        state = SimulationState(
            SpectralVectorField(grid), SpectralScalarField(grid)
        )
        du, dth = rhs_full(state, params, grid)
        assert np.max(np.abs(du.coeffs)) == 0.0
        assert np.max(np.abs(dth.coeffs)) == 0.0

    @pytest.mark.parametrize("dim,modes,fields_in,fields_out",
                             [(2, 16, 3, 4), (3, 8, 4, 8)])
    def test_transform_count(self, monkeypatch, dim, modes, fields_in,
                             fields_out):
        # traceless divergence form: [u; theta] goes in, the
        # dim (dim + 1) / 2 - 1 products of u u - u_N^2 I and the dim
        # products u_j theta come out
        calls = []

        def counted(name):
            transform = getattr(np.fft, name)

            def wrapper(a, *args, **kwargs):
                calls.append((name, len(a)))
                return transform(a, *args, **kwargs)
            return wrapper

        grid = make_grid(dim, modes)
        state = masked_rough_state(grid, seed=3)
        y = _stacked(state.u, state.theta)
        for name in ("ifft", "irfft", "rfft", "fft"):
            monkeypatch.setattr(np.fft, name, counted(name))
        _projected_rhs(grid, y)
        inverse = [("ifft", fields_in)] * (dim - 1) + [("irfft", fields_in)]
        forward = [("rfft", fields_out)] + [("fft", fields_out)] * (dim - 1)
        assert calls == inverse + forward


class TestStep:
    @pytest.mark.parametrize("scheme", ["if_rk4", "if_euler"])
    def test_pure_heat_single_step_exact(self, scheme):
        # with u = 0 the nonlinear part vanishes and the integrating
        # factor alone advances theta: exact at any dt
        grid = make_grid(2, 32)
        params = PhysicalParams(nu=1.0, kappa=1.3)
        u, theta = synthesize_initial("single_mode_theta", grid)
        cfg = StepperConfig(dt=0.2, scheme=scheme)
        new = step(SimulationState(u, theta), params, cfg, grid)
        expected = theta.coeffs * np.exp(-params.kappa * grid.k2 * cfg.dt)
        assert np.max(np.abs(new.theta.coeffs - expected)) <= 1e-14
        assert np.max(np.abs(new.u.coeffs)) <= 1e-14
        assert new.step_index == 1 and new.t == pytest.approx(0.2)

    def test_step_preserves_divergence_and_reality(self):
        grid = make_grid(2, 16)
        params = PhysicalParams(nu=0.01, kappa=0.01)
        state = masked_rough_state(grid, seed=9, scale=2.0)
        for _ in range(5):
            state = step(state, params, StepperConfig(dt=1e-2), grid)
        amp = np.max(np.abs(state.u.coeffs))
        assert divergence_max(state.u) <= 1e-12 * amp

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_abort_carries_last_state(self):
        grid = make_grid(2, 16)
        params = PhysicalParams(nu=1e-8, kappa=1e-8)
        state = masked_rough_state(grid, seed=1, scale=1e200)
        with pytest.raises(NonFiniteStateError) as err:
            step(state, params, StepperConfig(dt=1.0), grid)
        assert err.value.last_state is state
        assert np.all(np.isfinite(err.value.last_state.u.coeffs))

    @pytest.mark.parametrize(
        "dim,modes,scheme",
        [(2, 64, "if_rk4"), (3, 16, "if_rk4"),
         (2, 64, "if_euler"), (3, 16, "if_euler")],
        ids=["2-64", "3-16", "2-64-if_euler", "3-16-if_euler"])
    def test_matches_full_spectrum_reference(self, dim, modes, scheme):
        # the same scheme written with the public operators on whole
        # arrays: two Leray projections per stage, constraints enforced
        # after the step; the integrator's step on the pruned kernel and
        # the tail map must agree to roundoff over 20 steps of rough data
        grid = make_grid(dim, modes)
        params = PhysicalParams(nu=1.0, kappa=1.0)
        dt = 1e-3
        config = StepperConfig(dt=dt, scheme=scheme)
        eu_h = np.exp(-0.5 * dt * params.nu * grid.k2)
        et_h = np.exp(-0.5 * dt * params.kappa * grid.k2)
        eu, et = eu_h * eu_h, et_h * et_h

        def F(u, th):
            u = SpectralVectorField(grid, u)
            th = SpectralScalarField(grid, th)
            du = (buoyancy(th).coeffs
                  - leray_project(convect_pseudospectral(u, u).field).coeffs)
            return du, -convect_pseudospectral(u, th).field.coeffs

        u0, th0 = synthesize_initial("rough_h1", grid, seed=0)
        state = SimulationState(u0, th0)
        u, th = u0.coeffs, th0.coeffs
        for _ in range(20):
            state = step(state, params, config, grid)
            k1u, k1t = F(u, th)
            if scheme == "if_euler":
                # y1 = e * (y0 + dt * F(y0))
                u = eu * (u + dt * k1u)
                th = et * (th + dt * k1t)
            else:
                k2u, k2t = F(eu_h * (u + 0.5 * dt * k1u),
                             et_h * (th + 0.5 * dt * k1t))
                k3u, k3t = F(eu_h * u + 0.5 * dt * k2u,
                             et_h * th + 0.5 * dt * k2t)
                k4u, k4t = F(eu * u + dt * eu_h * k3u,
                             et * th + dt * et_h * k3t)
                u = eu * u + dt / 6 * (eu * k1u + 2 * eu_h * (k2u + k3u)
                                       + k4u)
                th = et * th + dt / 6 * (et * k1t + 2 * et_h * (k2t + k3t)
                                         + k4t)
            u = leray_project(
                enforce_constraints(SpectralVectorField(grid, u))).coeffs
            th = enforce_constraints(SpectralScalarField(grid, th)).coeffs
        assert (np.linalg.norm(state.u.coeffs - u)
                <= 1e-15 * np.linalg.norm(u))
        assert (np.linalg.norm(state.theta.coeffs - th)
                <= 1e-15 * np.linalg.norm(th))
        assert hermitian_defect(state.u) == 0.0
        assert hermitian_defect(state.theta) == 0.0


class TestRunSimulation:
    def test_zero_data_zero_trajectory(self):
        grid = make_grid(2, 16)
        params = PhysicalParams(nu=1.0, kappa=1.0)
        initial = SimulationState(
            SpectralVectorField(grid), SpectralScalarField(grid)
        )
        traj = run_simulation(run_config(1e-2, 0.1), params, grid, initial)
        assert traj.status == "completed"
        for snap in traj.snapshots:
            assert np.max(np.abs(snap.u.coeffs)) == 0.0
            assert np.max(np.abs(snap.theta.coeffs)) == 0.0

    def test_single_mode_theta_run(self):
        grid = make_grid(2, 32)
        params = PhysicalParams(nu=1.0, kappa=1.0)
        u0, th0 = synthesize_initial("single_mode_theta", grid)
        traj = run_simulation(run_config(1e-3, 0.1), params, grid,
                              SimulationState(u0, th0))
        assert traj.status == "completed"
        for snap in traj.snapshots:
            assert norm(snap.u) <= 1e-12
            exact = th0.coeffs * np.exp(-params.kappa * snap.t)
            err = np.sqrt(
                (2 * np.pi) ** 2 * np.sum(np.abs(snap.theta.coeffs - exact) ** 2)
            )
            assert err <= 1e-10 * norm(th0)

    def test_taylor_green_decay(self):
        grid = make_grid(2, 32)
        params = PhysicalParams(nu=1.0, kappa=1.0)
        u0, th0 = synthesize_initial("taylor_green", grid)
        traj = run_simulation(run_config(1e-3, 0.1), params, grid,
                              SimulationState(u0.copy(), th0))
        fin = traj.final_state
        exact = u0.coeffs * np.exp(-2 * params.nu * fin.t)
        err = np.sqrt(
            np.sum(np.abs(fin.u.coeffs - exact) ** 2)
            / np.sum(np.abs(exact) ** 2)
        )
        assert err <= 1e-8

    def test_fourth_order_on_buoyant_flow(self):
        # Taylor-Green is integrated exactly (its nonlinearity is a pure
        # gradient), so measure the scheme's order where the advection
        # actually matters: an active buoyant flow against a fine-dt
        # reference
        grid = make_grid(2, 32)
        params = PhysicalParams(nu=0.1, kappa=0.1)
        initial = masked_rough_state(grid, seed=5, scale=3.0)

        def final_u(dt):
            cfg = run_config(dt, 0.1, snapshot_every=10**9)
            traj = run_simulation(cfg, params, grid, initial.copy())
            assert traj.status == "completed"
            return traj.final_state.u.coeffs

        ref = final_u(2.5e-4)
        err = {
            dt: np.sqrt(np.sum(np.abs(final_u(dt) - ref) ** 2))
            for dt in (4e-3, 2e-3)
        }
        ratio = err[4e-3] / err[2e-3]
        assert 12.0 <= ratio <= 20.0, f"convergence ratio {ratio:.2f}"

    def test_invariants_along_rough_run(self):
        grid = make_grid(2, 32)
        params = PhysicalParams(nu=1.0, kappa=1.0)
        initial = masked_rough_state(grid, seed=8)
        traj = run_simulation(run_config(1e-3, 0.05, snapshot_every=5),
                              params, grid, initial)
        assert traj.status == "completed"
        l2_theta = [r.l2_theta for r in traj.records]
        for a, b in zip(l2_theta, l2_theta[1:]):
            assert b <= a * (1 + 1e-10)
        first = traj.records[0]
        for r in traj.records:
            assert r.l2_u <= first.l2_u + r.t * first.l2_theta + 1e-8
        for snap in traj.snapshots:
            amp = max(np.max(np.abs(snap.u.coeffs)), 1e-30)
            assert divergence_max(snap.u) <= 1e-12 * amp

    def test_snapshot_cadence(self):
        grid = make_grid(2, 16)
        params = PhysicalParams(nu=1.0, kappa=1.0)
        initial = masked_rough_state(grid, seed=4)
        seen = []
        traj = run_simulation(run_config(1e-2, 0.05, snapshot_every=2),
                              params, grid, initial,
                              on_snapshot=lambda s: seen.append(s.step_index))
        # streamed snapshots are not held: only the latest is kept
        assert seen == [0, 2, 4, 5]
        assert [s.step_index for s in traj.snapshots] == [5]
        assert len(traj.records) == 6  # one per step plus the initial state

    def test_blowup_reported_not_raised(self):
        grid = make_grid(2, 16)
        params = PhysicalParams(nu=1e-6, kappa=1e-6)
        initial = masked_rough_state(grid, seed=6, scale=1e3)
        cfg = run_config(0.05, 1.0, scheme="if_euler", snapshot_every=1)
        traj = run_simulation(cfg, params, grid, initial)
        assert traj.status == "blowup"
        assert "t =" in traj.message
        # the stored final state is the offending one, still finite
        assert np.all(np.isfinite(traj.final_state.u.coeffs))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_status(self):
        grid = make_grid(2, 16)
        params = PhysicalParams(nu=1e-8, kappa=1e-8)
        initial = masked_rough_state(grid, seed=1, scale=1e200)
        traj = run_simulation(run_config(1.0, 2.0), params, grid, initial)
        assert traj.status == "nonfinite"
        assert np.all(np.isfinite(traj.final_state.u.coeffs))

    @pytest.mark.parametrize("scheme", ["if_rk4", "if_euler"])
    @pytest.mark.parametrize("dim,modes", [(2, 32), (3, 8)])
    def test_tail_keeps_the_state_exactly_real(self, dim, modes, scheme,
                                               tmp_path):
        # off the retained modes each step applies only the fixed tail
        # map, with no constraint after it; the map is real and even in
        # j, so after 200 steps of rough data the state is still exactly
        # Hermitian with empty label -M/2 slots, which read_snapshot
        # checks to the last bit
        grid = make_grid(dim, modes)
        params = PhysicalParams(nu=0.05, kappa=0.05)
        u, theta = synthesize_initial("rough_h1", grid, seed=11)
        cfg = run_config(1e-3, 0.2, scheme=scheme, snapshot_every=10**9)
        traj = run_simulation(cfg, params, grid, SimulationState(u, theta))
        final = traj.final_state
        assert traj.status == "completed" and final.step_index == 200
        for field in (final.u, final.theta):
            assert np.count_nonzero(field.coeffs[..., ~grid.dealias_mask]) > 0
            assert hermitian_defect(field) == 0.0
            for axis in range(-dim, 0):
                slots = field.coeffs.swapaxes(axis, -1)[..., modes // 2]
                assert np.all(slots == 0.0)
        path = tmp_path / "final.bin"
        write_snapshot(final, params, path)
        back = read_snapshot(path)
        assert back.t == final.t
        assert np.array_equal(back.u.coeffs, final.u.coeffs)
        assert np.array_equal(back.theta.coeffs, final.theta.coeffs)

    def test_determinism(self):
        grid = make_grid(2, 16)
        params = PhysicalParams(nu=1.0, kappa=1.0)
        finals = []
        for _ in range(2):
            initial = masked_rough_state(grid, seed=12)
            traj = run_simulation(run_config(1e-3, 0.02), params, grid, initial)
            finals.append(traj.final_state)
        assert np.array_equal(finals[0].u.coeffs, finals[1].u.coeffs)
        assert np.array_equal(finals[0].theta.coeffs, finals[1].theta.coeffs)

    @pytest.mark.parametrize("scheme", ["if_rk4", "if_euler"])
    @pytest.mark.parametrize("dim,modes", [(2, 32), (3, 8)])
    def test_run_equals_a_loop_of_steps(self, dim, modes, scheme):
        # run_simulation carries its state from step to step and step
        # starts a new integrator for each one; both advance the same
        # integrator, so they reach the same bits
        grid = make_grid(dim, modes)
        params = PhysicalParams(nu=0.05, kappa=0.05)
        initial = masked_rough_state(grid, seed=7, scale=2.0)
        cfg = run_config(2e-3, 0.04, scheme=scheme, snapshot_every=7)
        traj = run_simulation(cfg, params, grid, initial)
        state = initial
        for _ in range(20):
            state = step(state, params, cfg, grid)
        final = traj.final_state
        assert traj.status == "completed" and final.step_index == 20
        assert final.t == state.t
        assert np.array_equal(final.u.coeffs, state.u.coeffs)
        assert np.array_equal(final.theta.coeffs, state.theta.coeffs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_run_keeps_the_last_finite_state(self, monkeypatch):
        # the kernel turns non-finite in the fourth step; the run must
        # report the state of step 3, which a loop of steps also holds,
        # although the integrator reuses its arrays from step to step
        import bousspec.stepper as stepper

        kernel = stepper._core_rhs
        calls_left = {"finite": 0}

        def poisoned(*args):
            out = kernel(*args)
            calls_left["finite"] -= 1
            if calls_left["finite"] < 0:
                out[...] = np.nan
            return out

        monkeypatch.setattr(stepper, "_core_rhs", poisoned)
        grid = make_grid(2, 16)
        params = PhysicalParams(nu=0.1, kappa=0.1)
        initial = masked_rough_state(grid, seed=2)
        for scheme, stages in (("if_rk4", 4), ("if_euler", 1)):
            cfg = run_config(1e-2, 0.1, scheme=scheme, snapshot_every=2)
            calls_left["finite"] = 3 * stages
            traj = run_simulation(cfg, params, grid, initial)
            calls_left["finite"] = 3 * stages
            state = initial
            with pytest.raises(NonFiniteStateError) as err:
                while True:
                    state = step(state, params, cfg, grid)
            assert err.value.last_state is state and state.step_index == 3
            assert traj.status == "nonfinite"
            assert traj.message == str(err.value)
            final = traj.final_state
            assert (final.step_index, final.t) == (3, state.t)
            assert np.array_equal(final.u.coeffs, state.u.coeffs)
            assert np.array_equal(final.theta.coeffs, state.theta.coeffs)
            assert len(traj.records) == 4

    def test_run_validation(self):
        grid = make_grid(2, 16)
        params = PhysicalParams(nu=1.0, kappa=1.0)
        initial = SimulationState(
            SpectralVectorField(grid), SpectralScalarField(grid)
        )
        with pytest.raises(ValueError, match="t_final"):
            run_simulation(run_config(1e-2, 1e-3), params, grid, initial)
        with pytest.raises(ValueError, match="snapshot_every"):
            run_simulation(run_config(1e-2, 0.1, snapshot_every=0),
                           params, grid, initial)


class TestGridCheck:
    # a grid is its dim and modes: a state read back from a file lives
    # on the grid object read_snapshot built, not on the caller's
    def test_snapshot_state_runs_on_a_fresh_grid(self, tmp_path):
        grid = make_grid(2, 16)
        params = PhysicalParams(nu=1.0, kappa=1.0)
        state = masked_rough_state(grid, 3)
        path = str(tmp_path / "state.bin")
        write_snapshot(state, params, path)
        back = read_snapshot(path)
        fresh = make_grid(2, 16)
        assert back.u.grid is not fresh and back.u.grid == fresh
        cfg = run_config(1e-3, 5e-3)
        want = run_simulation(cfg, params, grid, state)
        got = run_simulation(cfg, params, fresh, back)
        assert got.status == "completed"
        assert ([r.as_tuple() for r in got.records]
                == [r.as_tuple() for r in want.records])
        got_end, want_end = got.final_state, want.final_state
        assert np.array_equal(_stacked(got_end.u, got_end.theta),
                              _stacked(want_end.u, want_end.theta))
        got_step, want_step = (step(back, params, cfg, fresh),
                               step(state, params, cfg))
        assert np.array_equal(_stacked(got_step.u, got_step.theta),
                              _stacked(want_step.u, want_step.theta))
        for got_f, want_f in zip(rhs_full(back, params, fresh),
                                 rhs_full(state, params)):
            assert np.array_equal(got_f.coeffs, want_f.coeffs)

    def test_state_of_another_size_refused(self):
        params = PhysicalParams(nu=1.0, kappa=1.0)
        cfg = run_config(1e-3, 5e-3)
        grid = make_grid(2, 16)
        small = masked_rough_state(make_grid(2, 8), 3)
        mixed = SimulationState(masked_rough_state(grid, 3).u, small.theta)
        for state, supplied, match in ((small, grid, "supplied grid"),
                                       (mixed, grid, "different grids"),
                                       (mixed, None, "different grids")):
            with pytest.raises(ValueError, match=match):
                step(state, params, cfg, supplied)
            with pytest.raises(ValueError, match=match):
                rhs_full(state, params, supplied)
            if supplied is not None:
                with pytest.raises(ValueError, match=match):
                    run_simulation(cfg, params, supplied, state)
