"""Galerkin basis, interaction tensors, and the low-mode ODE integrator."""

import tracemalloc

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
from bousspec import galerkin
from bousspec.galerkin import (
    GalerkinState,
    NonFiniteStateError,
    _lookup,
    _receivers,
    assemble_tensors,
    basis_field,
    build_basis,
    integrate_galerkin,
    project_state,
    reconstruct,
)
from bousspec.grid import TWO_PI
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


def _all_pairs_coo(vel, basis, table, half, vol):
    """Advection COO from all (2m)^2 mode pairs at once, with the dense
    integer dot-product matrices: the reference the shell-by-shell
    assembly must match bit for bit."""
    owner_a, p = vel.owner, vel.k
    owner, q, coef = basis.owner, basis.k, basis.coef
    i, j = np.indices((len(p), len(q))).reshape(2, -1)
    pair, r = _receivers(p[i] + q[j], table, half)
    i, j = i[pair], j[pair]
    waq = vel.coef[:, None] * (vel.tangent @ q.T)
    tt = basis.tangent @ basis.tangent.T
    values = -vol * (waq[i, j] * (coef[j] * coef[r] * tt[j, r])).imag
    shape = (len(p) // 2, len(q) // 2, len(q) // 2)
    keys, inverse = np.unique(np.ravel_multi_index(
        (owner_a[i], owner[j], owner[r]), shape), return_inverse=True)
    sums = np.bincount(inverse, weights=values)
    keep = sums != 0
    return sums[keep], np.stack(np.unravel_index(keys[keep], shape), axis=1)


def _all_pairs_tensors(vel, scal, grid):
    """(A, A_index, B, B_index, C) assembled from all mode pairs."""
    vol = TWO_PI**grid.dim
    half = 2 * grid.dealias_cutoff
    vtable = _lookup(vel.k, half)
    A = _all_pairs_coo(vel, vel, vtable, half, vol)
    B = _all_pairs_coo(vel, scal, _lookup(scal.k, half), half, vol)
    g, c = _receivers(scal.k, vtable, half)
    C = np.zeros((len(scal), len(vel)))
    np.add.at(C, (scal.owner[g], vel.owner[c]),
              vol * (scal.coef[g] * vel.coef[c] * vel.tangent[c, -1]).real)
    return (*A, *B, C)


class TestBasis:
    def test_axis_mode_tangent(self):
        # k = (1, 0): the only tangent direction is e_2
        grid = make_grid(2, 8)
        vel, _ = build_basis(grid)
        w = vel.w[np.flatnonzero(np.all(vel.k == (1, 0), axis=1))[0]]
        np.testing.assert_allclose(np.abs(w) / np.linalg.norm(w), [0.0, 1.0],
                                   atol=1e-15)

    def test_counts_and_ordering(self):
        grid = make_grid(2, 8)
        vel, scal = build_basis(grid)
        # 24 nonzero wavevectors in the box |j_i| <= 2 -> 12 pairs
        assert len(vel) == 24 and len(scal) == 24
        mags = vel.eigenvalues.tolist()
        assert mags == sorted(mags)
        grid3 = make_grid(3, 8)
        vel3, scal3 = build_basis(grid3)
        # 5^3 - 1 = 124 nonzero wavevectors in |j_i| <= 2 -> 62 pairs
        assert len(scal3) == 124
        assert len(vel3) == 248  # two tangents per pair

    @pytest.mark.parametrize("dim,modes", [(2, 8), (3, 6)])
    def test_orthonormal_and_divergence_free(self, dim, modes):
        grid = make_grid(dim, modes)
        vel, scal = build_basis(grid)
        subset = [*range(10), *range(len(vel) - 4, len(vel))]
        fields = [basis_field(vel, e, grid) for e in subset]
        for f in fields:
            assert divergence_max(f) <= 1e-14
        gram = np.array(
            [[l2_inner(f, g).real for g in fields] for f in fields]
        )
        np.testing.assert_allclose(gram, np.eye(len(fields)), atol=1e-13)
        sfields = [basis_field(scal, e, grid) for e in range(8)]
        gram_s = np.array(
            [[l2_inner(f, g).real for g in sfields] for f in sfields]
        )
        np.testing.assert_allclose(gram_s, np.eye(8), atol=1e-13)

    def test_eigenvalues(self, small_system):
        sys = small_system
        for k, lam in zip(sys.vel_basis.k[::2].tolist(), sys.lam):
            assert lam == sum(c * c for c in k)
        assert np.all(sys.lam > 0)
        assert np.all(sys.tau_eig > 0)


class TestTensors:
    def test_advection_antisymmetry(self, small_system):
        A, B = _dense_tensors(small_system)
        assert np.max(np.abs(A + A.transpose(0, 2, 1))) <= 1e-13
        assert np.max(np.abs(B + B.transpose(0, 2, 1))) <= 1e-13

    def test_sparse_form_identities(self, small_system):
        # on the stored COO entries themselves, at 8^2 and 16^2: keys
        # unique, every (a, b, c) has its partner (a, c, b), and the cubic
        # fluxes vanish
        grid = make_grid(2, 16)
        rng = np.random.default_rng(8)
        for sys in (small_system, assemble_tensors(*build_basis(grid), grid)):
            ms = len(sys.scalar_basis)
            for index, values, size in ((sys.A_index, sys.A, sys.m),
                                        (sys.B_index, sys.B, ms)):
                assert len(np.unique(index, axis=0)) == len(index)
                # no entry is roundoff: the smallest are about 1e-2
                assert np.min(np.abs(values)) > 1e-12
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
        # 6^3 keeps |j_i| <= 2: 248 velocity and 124 scalar elements.
        # Triads whose exact value is 0 (E_a orthogonal to q, or two
        # orthogonal directions) are not stored, so every entry has its
        # partner
        grid = make_grid(3, 6)
        sys = assemble_tensors(*build_basis(grid), grid)
        ms = len(sys.scalar_basis)
        for index, values, size in ((sys.A_index, sys.A, sys.m),
                                    (sys.B_index, sys.B, ms)):
            assert np.min(np.abs(values)) > 1e-12  # about 2e-3 at least
            missing, defect = _partner_gaps(index, values, size)
            assert missing == 0
            assert defect <= 1e-13
        rng = np.random.default_rng(9)
        for _ in range(20):
            xi = rng.standard_normal(sys.m)
            eta = rng.standard_normal(ms)
            xi /= np.linalg.norm(xi)
            eta /= np.linalg.norm(eta)
            assert abs(_cubic_flux(sys.A_index, sys.A, xi, xi)) <= 1e-12
            assert abs(_cubic_flux(sys.B_index, sys.B, xi, eta)) <= 1e-12

    @pytest.mark.parametrize("dim,modes", [(2, 8), (2, 16), (3, 4), (3, 6)])
    def test_shell_assembly_matches_all_pairs(self, dim, modes):
        # forming pairs one |p|^2 shell at a time sums every key's triads
        # in the all-pairs order, so the tensors are the same bits
        grid = make_grid(dim, modes)
        vel, scal = build_basis(grid)
        sys = assemble_tensors(vel, scal, grid)
        got = (sys.A, sys.A_index, sys.B, sys.B_index, sys.C)
        for name, a, b in zip(("A", "A_index", "B", "B_index", "C"), got,
                              _all_pairs_tensors(vel, scal, grid)):
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_assembly_memory_bound(self):
        # 16^2 has 240 velocity modes: formed one shell at a time, the
        # pairs peak at about 1.9 MB traced; all 240^2 at once take 8.3 MB.
        # 32^2 has 880 and peaks at about 25.6 MB, of which the int32
        # table of tangent dots over every mode pair is 3.1 MB; a complex
        # table of w . w in its place would take 12.4 MB
        for modes, bound in ((16, 4e6), (32, 30e6)):
            grid = make_grid(2, modes)
            vel, scal = build_basis(grid)
            tracemalloc.start()
            try:
                assemble_tensors(vel, scal, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, modes

    @pytest.mark.parametrize("dim,modes", [(2, 10), (2, 16), (3, 8)])
    def test_partners_cancel_exactly(self, dim, modes):
        # each triad of (a, c, b) is the exact negative of one of (a, b, c),
        # both summed in the same order, so partners cancel to the bit
        grid = make_grid(dim, modes)
        sys = assemble_tensors(*build_basis(grid), grid)
        assert _partner_gaps(sys.A_index, sys.A, sys.m) == (0, 0.0)
        assert _partner_gaps(sys.B_index, sys.B,
                             len(sys.scalar_basis)) == (0, 0.0)

    def test_velocity_tensor_against_quadrature(self, small_system,
                                                small_system_3d):
        # independent route: evaluate every (E_a . grad E_b, E_c), the
        # zeros the sparse form omits included, by dealiased products on
        # the grid and spectral inner products
        for sys in (small_system, small_system_3d):
            grid = sys.grid
            A, _ = _dense_tensors(sys)
            fields = [basis_field(sys.vel_basis, e, grid)
                      for e in range(sys.m)]
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
            scalars = [basis_field(sys.scalar_basis, e, grid)
                       for e in range(len(sys.scalar_basis))]
            for j in range(sys.m):
                Ej = basis_field(sys.vel_basis, j, grid)
                for b, eb in enumerate(scalars):
                    conv = convect_pseudospectral(Ej, eb, grid).field
                    want = [l2_inner(conv, ea).real for ea in scalars]
                    np.testing.assert_allclose(B[j, b], want, rtol=0,
                                               atol=1e-12)

    def test_buoyancy_tensor_against_inner_products(self, small_system):
        sys = small_system
        grid = sys.grid
        for g in (0, 3, 10):
            eg = basis_field(sys.scalar_basis, g, grid)
            forced = buoyancy(eg)
            for j in (0, 5, 17):
                want = l2_inner(forced, basis_field(sys.vel_basis, j, grid)).real
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
            want = l2_inner(u0, basis_field(sys.vel_basis, j, grid)).real
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
        assert np.max(np.abs(traj.eta_residuals)) == 0.0

    def test_dt_validation(self, small_system):
        sys = small_system
        initial = GalerkinState(
            np.zeros(sys.m), np.zeros(len(sys.scalar_basis))
        )
        with pytest.raises(ValueError, match="dt"):
            integrate_galerkin(sys, initial, T=1.0, dt=0.0,
                               params=PhysicalParams(1.0, 1.0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["T", "dt"])
    def test_non_finite_time_settings_rejected(self, small_system, key,
                                               value):
        # both used to reach int(round(T / dt)) and fail there with a
        # conversion error that named neither
        sys = small_system
        initial = GalerkinState(
            np.zeros(sys.m), np.zeros(len(sys.scalar_basis))
        )
        times = {"T": 0.1, "dt": 1e-3, key: value}
        with pytest.raises(ValueError, match=f"^{key} must be"):
            integrate_galerkin(sys, initial, params=PhysicalParams(1.0, 1.0),
                               **times)

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
        trajs = {dt: integrate_galerkin(sys, initial, T=0.1, dt=dt,
                                        params=params)
                 for dt in (4e-3, 2e-3)}
        for name in ("xi_residuals", "eta_residuals"):
            res = {dt: np.max(np.abs(getattr(traj, name)))
                   for dt, traj in trajs.items()}
            order = np.log2(res[4e-3] / res[2e-3])
            assert order >= 3.9, (
                f"{name} order {order:.2f}, residuals {res}")

    def test_four_transfers_per_step(self, small_system, monkeypatch):
        sys = small_system
        transfer = galerkin._transfer
        calls = []

        def counting(*args):
            calls.append(1)
            return transfer(*args)

        monkeypatch.setattr(galerkin, "_transfer", counting)
        rng = np.random.default_rng(5)
        initial = GalerkinState(rng.standard_normal(sys.m),
                                rng.standard_normal(len(sys.scalar_basis)))
        traj = integrate_galerkin(sys, initial, T=0.01, dt=1e-3,
                                  params=PhysicalParams(1.0, 1.0))
        steps = len(traj.states) - 1
        assert steps == 10
        assert len(calls) == 4 * steps

    @pytest.mark.parametrize("T", [1e-3, 2e-3, 0.01])
    def test_one_residual_per_pair_of_steps(self, small_system, T):
        sys = small_system
        rng = np.random.default_rng(6)
        initial = GalerkinState(rng.standard_normal(sys.m),
                                rng.standard_normal(len(sys.scalar_basis)))
        traj = integrate_galerkin(sys, initial, T=T, dt=1e-3,
                                  params=PhysicalParams(1.0, 1.0))
        assert (len(traj.xi_residuals) == len(traj.eta_residuals)
                == len(traj.states) - 2)

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


def _solver_vs_ode(grid, seed, dt, T, snapshot_every):
    """Max relative L2 deviation between the solver's snapshots and the
    ODE's states at the same steps, from retained rough data, nu = kappa
    = 1."""
    from bousspec.stepper import SimulationState, StepperConfig, run_simulation

    params = PhysicalParams(nu=1.0, kappa=1.0)
    vel, scal = build_basis(grid)
    system = assemble_tensors(vel, scal, grid)

    u0, th0 = synthesize_initial("rough_h1", grid, seed=seed)
    u0.coeffs *= grid.dealias_mask
    th0.coeffs *= grid.dealias_mask
    u0 = leray_project(u0)

    traj_ode = integrate_galerkin(
        system, project_state(u0, th0, system), T=T, dt=dt, params=params
    )
    cfg = StepperConfig(dt=dt, t_final=T, snapshot_every=snapshot_every)
    traj_pde = run_simulation(cfg, params, grid,
                              SimulationState(u0, th0, 0.0, 0))
    assert traj_pde.status == "completed"
    worst = 0.0
    for snap in traj_pde.snapshots:
        u_ode, th_ode = reconstruct(traj_ode.states[snap.step_index], system)
        du = norm(SpectralVectorField(grid, snap.u.coeffs - u_ode.coeffs))
        dth = norm(SpectralScalarField(grid,
                                       snap.theta.coeffs - th_ode.coeffs))
        ref = max(norm(snap.u), norm(snap.theta))
        worst = max(worst, du / ref, dth / ref)
    return worst


class TestSolverEquivalence:
    def test_matched_truncation_trajectories_agree(self):
        # the basis spans exactly the dealias-retained modes, so the ODE
        # system and the dealiased spectral solver integrate the same
        # dynamics
        worst = _solver_vs_ode(make_grid(2, 8), seed=21, dt=1e-3, T=0.05,
                               snapshot_every=10)
        assert worst <= 1e-6, f"trajectory deviation {worst:.3e}"

    @pytest.mark.parametrize("dim, modes, dt", [
        (2, 16, 0.02), (2, 16, 1e-3), (3, 4, 1e-3)])
    def test_trajectories_agree_to_roundoff(self, dim, modes, dt):
        # both integrate diffusion exactly with the same Lawson stages, so
        # they differ by roundoff at every step; a slip of any order in
        # the ODE's scheme shows far above 1e-13 at these step sizes
        worst = _solver_vs_ode(make_grid(dim, modes), seed=0, dt=dt, T=0.02,
                               snapshot_every=1)
        assert worst <= 1e-13, f"trajectory deviation {worst:.3e}"

    @pytest.mark.parametrize("dt", [1e-3, 7e-4, 1.5e-3, 3e-3])
    def test_ode_takes_the_solver_steps(self, small_system, dt):
        # one clock for both: the ODE's state n is at the time of the
        # solver's step n, also where dt does not divide T
        from bousspec.stepper import SimulationState, StepperConfig, run_simulation

        grid = small_system.grid
        params = PhysicalParams(nu=1.0, kappa=1.0)
        u0, th0 = synthesize_initial("rough_h1", grid, seed=21)
        u0.coeffs *= grid.dealias_mask
        th0.coeffs *= grid.dealias_mask
        u0 = leray_project(u0)
        T = 0.02
        ode = integrate_galerkin(small_system,
                                 project_state(u0, th0, small_system),
                                 T=T, dt=dt, params=params)
        traj = run_simulation(StepperConfig(dt=dt, t_final=T), params, grid,
                              SimulationState(u0, th0, 0.0, 0))
        assert [s.t for s in ode.states] == [r.t for r in traj.records]
