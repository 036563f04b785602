"""Galerkin basis, interaction tensors, and the low-mode ODE integrator."""

import numpy as np
import pytest

from bousspec import (
    PhysicalParams,
    SpectralScalarField,
    SpectralVectorField,
    divergence_max,
    l2_inner,
    leray_project,
    make_grid,
    norm,
    synthesize_initial,
)
from bousspec.galerkin import (
    GalerkinState,
    NonFiniteStateError,
    assemble_tensors,
    basis_field,
    build_basis,
    galerkin_rhs,
    integrate_galerkin,
    project_state,
    reconstruct,
)
from bousspec.nonlinear import buoyancy, convect_pseudospectral


@pytest.fixture(scope="module")
def small_system():
    grid = make_grid(2, 8)  # mask |j_i| <= 2: 12 pairs, 24 + 24 elements
    vel, scal = build_basis(grid)
    return assemble_tensors(vel, scal, grid)


@pytest.fixture(scope="module")
def small_system_3d():
    grid = make_grid(3, 4)  # mask |j_i| <= 1: 13 pairs, 52 + 26 elements
    vel, scal = build_basis(grid)
    return assemble_tensors(vel, scal, grid)


def _dense(index, values, shape):
    """Dense array of a COO tensor, duplicate keys summed."""
    out = np.zeros(shape)
    np.add.at(out, tuple(np.asarray(index).T), values)
    return out


def _dense_tensors(sys):
    m, ms = sys.m, len(sys.scalar_basis)
    return (_dense(sys.A_index, sys.A, (m, m, m)),
            _dense(sys.B_index, sys.B, (m, ms, ms)))


def _partner_gaps(index, values, size):
    """Keys (a, b, c) whose (a, c, b) is not stored, and the largest
    |T[a, b, c] + T[a, c, b]| over all stored keys (absent entries are 0)."""
    a, b, c = np.asarray(index).T
    key = (a * size + b) * size + c
    swapped = (a * size + c) * size + b
    order = np.argsort(key)
    pos = np.clip(np.searchsorted(key, swapped, sorter=order), 0, len(key) - 1)
    partner = order[pos]
    found = key[partner] == swapped
    defect = np.abs(values + np.where(found, values[partner], 0.0))
    return int(np.count_nonzero(~found)), float(defect.max(initial=0.0))


def _cubic_flux(index, values, x, y):
    """sum T[a, b, c] x_a y_b y_c over the stored entries."""
    a, b, c = np.asarray(index).T
    return float(np.sum(values * x[a] * y[b] * y[c]))


class TestBasis:
    def test_axis_mode_tangent(self):
        # k = (1, 0): the only tangent direction is e_2
        grid = make_grid(2, 8)
        vel, _ = build_basis(grid)
        el = next(e for e in vel if e.wavevector == (1, 0))
        np.testing.assert_allclose(np.abs(el.direction), [0.0, 1.0], atol=1e-15)

    def test_counts_and_ordering(self):
        grid = make_grid(2, 8)
        vel, scal = build_basis(grid)
        # 24 nonzero wavevectors in the box |j_i| <= 2 -> 12 pairs
        assert len(vel) == 24 and len(scal) == 24
        mags = [e.eigenvalue for e in vel]
        assert mags == sorted(mags)
        grid3 = make_grid(3, 6)
        vel3, scal3 = build_basis(grid3)
        # 5^3 - 1 = 124 nonzero wavevectors in |j_i| <= 2 -> 62 pairs
        assert len(scal3) == 124
        assert len(vel3) == 248  # two tangents per pair

    def test_truncation_and_guard(self):
        grid = make_grid(2, 8)
        vel, scal = build_basis(grid, m=10)
        assert len(vel) == 10 and len(scal) == 10
        with pytest.raises(ValueError, match="admissible basis"):
            build_basis(grid, m=1000)

    @pytest.mark.parametrize("dim,modes", [(2, 8), (3, 6)])
    def test_orthonormal_and_divergence_free(self, dim, modes):
        grid = make_grid(dim, modes)
        vel, scal = build_basis(grid)
        subset = vel[:10] + vel[-4:]
        fields = [basis_field(e, grid) for e in subset]
        for f in fields:
            assert divergence_max(f) <= 1e-14
        gram = np.array(
            [[l2_inner(f, g).real for g in fields] for f in fields]
        )
        np.testing.assert_allclose(gram, np.eye(len(fields)), atol=1e-13)
        sfields = [basis_field(e, grid) for e in scal[:8]]
        gram_s = np.array(
            [[l2_inner(f, g).real for g in sfields] for f in sfields]
        )
        np.testing.assert_allclose(gram_s, np.eye(8), atol=1e-13)

    def test_eigenvalues(self, small_system):
        sys = small_system
        for e, lam in zip(sys.vel_basis, sys.lam):
            assert lam == sum(c * c for c in e.wavevector)
        assert np.all(sys.lam > 0)
        assert np.all(sys.tau_eig > 0)


class TestTensors:
    def test_advection_antisymmetry(self, small_system):
        A, B = _dense_tensors(small_system)
        assert np.max(np.abs(A + A.transpose(0, 2, 1))) <= 1e-13
        assert np.max(np.abs(B + B.transpose(0, 2, 1))) <= 1e-13

    def test_sparse_form_identities(self, small_system):
        # on the stored COO entries themselves: keys unique, every
        # (a, b, c) has its partner (a, c, b), and the cubic fluxes vanish
        sys = small_system
        ms = len(sys.scalar_basis)
        rng = np.random.default_rng(8)
        for index, values, size in ((sys.A_index, sys.A, sys.m),
                                    (sys.B_index, sys.B, ms)):
            assert len(np.unique(index, axis=0)) == len(index)
            assert np.all(values != 0)
            missing, defect = _partner_gaps(index, values, size)
            assert missing == 0
            assert defect <= 1e-13
        for _ in range(100):
            xi = rng.standard_normal(sys.m)
            eta = rng.standard_normal(ms)
            flux_u = _cubic_flux(sys.A_index, sys.A, xi, xi)
            flux_t = _cubic_flux(sys.B_index, sys.B, xi, eta)
            assert abs(flux_u) <= 1e-12 * max(np.sum(xi**2) ** 1.5, 1.0)
            assert abs(flux_t) <= 1e-12 * max(
                np.sum(xi**2) ** 0.5 * np.sum(eta**2), 1.0)

    def test_three_dimensional_identities(self):
        # 6^3 keeps |j_i| <= 2: 248 velocity and 124 scalar elements.  A
        # stored entry whose exact value is 0 (E_a orthogonal to q) may
        # keep roundoff while its partner rounds to exactly 0, so absent
        # partners count as 0 in the antisymmetry defect
        grid = make_grid(3, 6)
        sys = assemble_tensors(*build_basis(grid), grid)
        ms = len(sys.scalar_basis)
        for index, values, size in ((sys.A_index, sys.A, sys.m),
                                    (sys.B_index, sys.B, ms)):
            _, defect = _partner_gaps(index, values, size)
            assert defect <= 1e-13
        rng = np.random.default_rng(9)
        for _ in range(20):
            xi = rng.standard_normal(sys.m)
            eta = rng.standard_normal(ms)
            xi /= np.linalg.norm(xi)
            eta /= np.linalg.norm(eta)
            assert abs(_cubic_flux(sys.A_index, sys.A, xi, xi)) <= 1e-12
            assert abs(_cubic_flux(sys.B_index, sys.B, xi, eta)) <= 1e-12

    def test_velocity_tensor_against_quadrature(self, small_system,
                                                small_system_3d):
        # independent route: evaluate every (E_a . grad E_b, E_c), the
        # zeros the sparse form omits included, by dealiased products on
        # the grid and spectral inner products
        for sys in (small_system, small_system_3d):
            grid = sys.grid
            A, _ = _dense_tensors(sys)
            fields = [basis_field(e, grid) for e in sys.vel_basis]
            for a, Ea in enumerate(fields):
                for b, Eb in enumerate(fields):
                    conv = convect_pseudospectral(Ea, Eb, grid).field
                    want = [l2_inner(conv, Ec).real for Ec in fields]
                    np.testing.assert_allclose(A[a, b], want, rtol=0,
                                               atol=1e-12)

    def test_scalar_tensor_against_quadrature(self, small_system,
                                              small_system_3d):
        for sys in (small_system, small_system_3d):
            grid = sys.grid
            _, B = _dense_tensors(sys)
            scalars = [basis_field(e, grid) for e in sys.scalar_basis]
            for j, e in enumerate(sys.vel_basis):
                Ej = basis_field(e, grid)
                for b, eb in enumerate(scalars):
                    conv = convect_pseudospectral(Ej, eb, grid).field
                    want = [l2_inner(conv, ea).real for ea in scalars]
                    np.testing.assert_allclose(B[j, b], want, rtol=0,
                                               atol=1e-12)

    def test_buoyancy_tensor_against_inner_products(self, small_system):
        sys = small_system
        grid = sys.grid
        params = PhysicalParams(nu=1.0, kappa=1.0)
        for g in (0, 3, 10):
            eg = basis_field(sys.scalar_basis[g], grid)
            forced = buoyancy(eg, params)
            for j in (0, 5, 17):
                want = l2_inner(forced, basis_field(sys.vel_basis[j], grid)).real
                assert sys.C[g, j] == pytest.approx(want, abs=1e-12)

    def test_energy_flux_sums_vanish(self, small_system):
        # antisymmetry makes the advection terms move energy without
        # creating it: sum A[a,b,c] xi_a xi_b xi_c = 0 for every state
        sys = small_system
        A, B = _dense_tensors(sys)
        rng = np.random.default_rng(7)
        ms = len(sys.scalar_basis)
        for _ in range(100):
            xi = rng.standard_normal(sys.m)
            eta = rng.standard_normal(ms)
            flux_u = np.einsum("abc,a,b,c->", A, xi, xi, xi)
            flux_t = np.einsum("abc,a,b,c->", B, xi, eta, eta)
            scale_u = max(np.sum(xi**2) ** 1.5, 1.0)
            scale_t = max(np.sum(xi**2) ** 0.5 * np.sum(eta**2), 1.0)
            assert abs(flux_u) <= 1e-12 * scale_u
            assert abs(flux_t) <= 1e-12 * scale_t


class TestProjection:
    def test_round_trip_on_masked_data(self, small_system):
        sys = small_system
        grid = sys.grid
        u0, th0 = synthesize_initial("rough_h1", grid, seed=3)
        mask = grid.dealias_mask
        u0.coeffs *= mask
        th0.coeffs *= mask
        u0 = leray_project(u0)
        state = project_state(u0, th0, sys)
        u1, th1 = reconstruct(state, sys)
        np.testing.assert_allclose(u1.coeffs, u0.coeffs, atol=1e-14)
        np.testing.assert_allclose(th1.coeffs, th0.coeffs, atol=1e-14)

    def test_coordinates_are_inner_products(self, small_system):
        sys = small_system
        grid = sys.grid
        u0, th0 = synthesize_initial("rough_h1", grid, seed=4)
        state = project_state(u0, th0, sys)
        for j in (0, 7, 23):
            want = l2_inner(u0, basis_field(sys.vel_basis[j], grid)).real
            assert state.xi[j] == pytest.approx(want, rel=1e-12, abs=1e-14)


class TestIntegration:
    def test_zero_state_stays_zero(self, small_system):
        sys = small_system
        ms = len(sys.scalar_basis)
        initial = GalerkinState(np.zeros(sys.m), np.zeros(ms))
        traj = integrate_galerkin(
            sys, initial, T=0.05, dt=1e-3, params=PhysicalParams(1.0, 1.0)
        )
        assert np.max(np.abs(traj.states[-1].xi)) == 0.0
        assert np.max(np.abs(traj.states[-1].eta)) == 0.0
        assert np.max(np.abs(traj.xi_residuals)) == 0.0

    def test_dt_validation(self, small_system):
        sys = small_system
        initial = GalerkinState(
            np.zeros(sys.m), np.zeros(len(sys.scalar_basis))
        )
        with pytest.raises(ValueError, match="dt"):
            integrate_galerkin(sys, initial, T=1.0, dt=0.0,
                               params=PhysicalParams(1.0, 1.0))

    def test_temperature_energy_monotone_and_velocity_bound(self, small_system):
        sys = small_system
        grid = sys.grid
        u0, th0 = synthesize_initial("rough_h1", grid, seed=11)
        mask = grid.dealias_mask
        u0.coeffs *= mask
        th0.coeffs *= mask
        u0 = leray_project(u0)
        initial = project_state(u0, th0, sys)
        params = PhysicalParams(nu=1.0, kappa=1.0)
        traj = integrate_galerkin(sys, initial, T=0.2, dt=1e-3, params=params)
        e_theta = [np.sum(s.eta**2) for s in traj.states]
        assert all(b <= a * (1 + 1e-10) for a, b in zip(e_theta, e_theta[1:]))
        norm_u0 = np.sqrt(np.sum(initial.xi**2))
        norm_th0 = np.sqrt(np.sum(initial.eta**2))
        for s in traj.states:
            assert np.sqrt(np.sum(s.xi**2)) <= norm_u0 + s.t * norm_th0 + 1e-8

    def test_energy_residual_is_high_order(self, small_system):
        sys = small_system
        grid = sys.grid
        u0, th0 = synthesize_initial("rough_h1", grid, seed=13)
        u0.coeffs *= grid.dealias_mask
        th0.coeffs *= grid.dealias_mask
        u0 = leray_project(u0)
        # amplify so the nonlinear terms dominate the residual
        u0.coeffs *= 40.0
        th0.coeffs *= 40.0
        initial = project_state(u0, th0, sys)
        params = PhysicalParams(nu=0.05, kappa=0.05)
        res = {}
        for dt in (4e-3, 2e-3):
            traj = integrate_galerkin(sys, initial, T=0.1, dt=dt, params=params)
            res[dt] = np.max(np.abs(traj.xi_residuals))
        order = np.log2(res[4e-3] / res[2e-3])
        assert order >= 3.9, f"residual order {order:.2f}, residuals {res}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_abort_keeps_last_state(self, small_system):
        sys = small_system
        rng = np.random.default_rng(2)
        initial = GalerkinState(
            1e4 * rng.standard_normal(sys.m),
            1e4 * rng.standard_normal(len(sys.scalar_basis)),
        )
        with pytest.raises(NonFiniteStateError) as err:
            integrate_galerkin(sys, initial, T=5.0, dt=0.5,
                               params=PhysicalParams(1e-8, 1e-8))
        assert np.all(np.isfinite(err.value.last_state.xi))


class TestSolverEquivalence:
    def test_matched_truncation_trajectories_agree(self):
        # the basis spans exactly the dealias-retained modes, so the ODE
        # system and the dealiased spectral solver integrate the same
        # dynamics; RK4 vs integrating-factor RK4 differences are O(dt^4)
        from bousspec.stepper import SimulationState, StepperConfig, run_simulation

        grid = make_grid(2, 8)
        params = PhysicalParams(nu=1.0, kappa=1.0)
        vel, scal = build_basis(grid)
        system = assemble_tensors(vel, scal, grid)

        u0, th0 = synthesize_initial("rough_h1", grid, seed=21)
        u0.coeffs *= grid.dealias_mask
        th0.coeffs *= grid.dealias_mask
        u0 = leray_project(u0)

        dt = 1e-3
        T = 0.05
        traj_ode = integrate_galerkin(
            system, project_state(u0, th0, system), T=T, dt=dt, params=params
        )

        class Cfg:
            pass

        cfg = Cfg()
        cfg.dt = dt
        cfg.t_final = T
        cfg.scheme = "if_rk4"
        cfg.snapshot_every = 10
        traj_pde = run_simulation(cfg, params, grid,
                                  SimulationState(u0, th0, 0.0, 0))
        assert traj_pde.status == "completed"
        worst = 0.0
        for snap in traj_pde.snapshots:
            n = int(round(snap.t / dt))
            u_ode, th_ode = reconstruct(traj_ode.states[n], system)
            du = norm_diff(snap.u.coeffs, u_ode.coeffs, grid)
            dth = norm_diff(snap.theta.coeffs, th_ode.coeffs, grid)
            ref = max(norm(snap.u), norm(snap.theta))
            worst = max(worst, du / ref, dth / ref)
        assert worst <= 1e-6, f"trajectory deviation {worst:.3e}"


def norm_diff(a, b, grid):
    return float(np.sqrt((2 * np.pi) ** grid.dim * np.sum(np.abs(a - b) ** 2)))
