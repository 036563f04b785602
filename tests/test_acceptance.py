"""End-to-end acceptance checks for the solver.

Each test exercises one advertised capability end to end: exact
solutions, agreement between independent evaluation routes, discrete
conservation identities, the smoothing diagnostics on rough data, and
bit-level reproducibility.  Every clause of a check is evaluated first,
then a single summary line

    ACCEPTANCE n (name): PASS/FAIL - details

is printed before any assertion runs, so the measured numbers are on
record whichever clause trips.
"""

import math
import time

import numpy as np
import pytest

from bousspec import (
    PhysicalParams,
    SpectralScalarField,
    SpectralVectorField,
    enforce_constraints,
    hermitian_defect,
    leray_project,
    make_grid,
    norm,
    synthesize_initial,
)
from bousspec.cli import main as cli_main
from bousspec.galerkin import (
    assemble_tensors,
    build_basis,
    integrate_galerkin,
    project_state,
    reconstruct,
)
from bousspec.nonlinear import (
    _core,
    _core_rhs,
    _Work,
    buoyancy,
    convect_convolution,
)
from bousspec.stepper import SimulationState, StepperConfig, run_simulation, step


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return line


def _random_band_limited(grid, seed, bandwidth):
    """Random divergence-free u and scalar theta supported on |j_i| <= bandwidth."""
    rng = np.random.default_rng(seed)
    keep = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        keep &= np.abs(grid.k[axis]) <= bandwidth
    keep &= grid.k2 > 0

    def draw():
        c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        return c * keep

    u = SpectralVectorField(grid, np.stack([draw() for _ in range(grid.dim)]))
    u = leray_project(enforce_constraints(u))
    theta = enforce_constraints(SpectralScalarField(grid, draw()))
    return u, theta


@pytest.fixture(scope="module")
def rough_2d_run():
    """Shared 64^2 rough-data production run used by tests 6 and 7."""
    started = time.perf_counter()
    grid = make_grid(2, 64)
    params = PhysicalParams(nu=1.0, kappa=1.0)
    u0, th0 = synthesize_initial("rough_h1", grid, seed=0)
    config = StepperConfig(dt=1e-3, t_final=0.5, snapshot_every=100)
    traj = run_simulation(config, params, grid, SimulationState(u0, th0))
    elapsed = time.perf_counter() - started
    assert traj.status == "completed", traj.message
    return traj, elapsed


def test_01_exact_heat_decay():
    """u0 = 0, theta0 = cos x_2: buoyancy is a pure gradient, so the
    velocity stays zero and theta follows the exact heat semigroup."""
    started = time.perf_counter()
    grid = make_grid(2, 32)
    params = PhysicalParams(nu=1.0, kappa=1.0)
    u0, th0 = synthesize_initial("single_mode_theta", grid)
    state = SimulationState(u0, th0)
    config = StepperConfig(dt=1e-3)
    exact0 = th0.coeffs.copy()
    theta_scale = norm(th0)
    worst_theta = 0.0
    worst_u = 0.0
    for _ in range(500):
        state = step(state, params, config, grid)
        decay = math.exp(-params.kappa * state.t)
        diff = SpectralScalarField(grid, state.theta.coeffs - decay * exact0)
        worst_theta = max(worst_theta, norm(diff) / theta_scale)
        worst_u = max(worst_u, norm(state.u))
    elapsed = time.perf_counter() - started

    theta_ok = worst_theta <= 1e-10
    u_ok = worst_u <= 1e-12
    time_ok = elapsed < 1.0
    line = _report(
        1, "exact heat decay", theta_ok and u_ok and time_ok,
        f"max rel theta error {worst_theta:.3e} (tol 1e-10), "
        f"max |u| {worst_u:.3e} (tol 1e-12), {elapsed:.2f}s (budget 1s)")
    assert theta_ok, line
    assert u_ok, line
    assert time_ok, line


def test_02_taylor_green_viscous_decay():
    """With theta = 0 the cellular vortex decays exactly as e^{-2 nu t} u0:
    its advection is a pure gradient that the projection removes, and the
    integrating factor handles diffusion exactly, so the error is roundoff
    at any dt.  The fourth order of IF-RK4 is measured where advection
    and buoyancy are active: on a rough buoyant flow, halving dt must cut
    the change between successive dt by about sixteen (Richardson ratio
    |u(dt) - u(dt/2)| / |u(dt/2) - u(dt/4)|)."""
    started = time.perf_counter()
    grid = make_grid(2, 32)

    def vortex_error(dt):
        params = PhysicalParams(nu=1.0, kappa=1.0)
        u0, th0 = synthesize_initial("taylor_green", grid)
        state = SimulationState(u0.copy(), th0)
        config = StepperConfig(dt=dt)
        for _ in range(int(round(0.1 / dt))):
            state = step(state, params, config, grid)
        decay = math.exp(-2.0 * params.nu * state.t)
        diff = SpectralVectorField(grid, state.u.coeffs - decay * u0.coeffs)
        return norm(diff) / norm(u0)

    buoyant_params = PhysicalParams(nu=0.1, kappa=0.1)
    u_b, th_b = synthesize_initial("rough_h1", grid, seed=5)
    u_b.coeffs *= grid.dealias_mask * 3.0
    th_b.coeffs *= grid.dealias_mask * 3.0
    u_b = leray_project(u_b)

    def buoyant_final_u(dt):
        state = SimulationState(u_b.copy(), th_b.copy())
        config = StepperConfig(dt=dt)
        for _ in range(int(round(0.1 / dt))):
            state = step(state, buoyant_params, config, grid)
        return state.u

    vortex_errors = [vortex_error(dt) for dt in (1e-3, 5e-4)]
    finals = [buoyant_final_u(dt) for dt in (4e-3, 2e-3, 1e-3)]
    diff_coarse = norm(SpectralVectorField(
        grid, finals[0].coeffs - finals[1].coeffs))
    diff_fine = norm(SpectralVectorField(
        grid, finals[1].coeffs - finals[2].coeffs))
    ratio = diff_coarse / max(diff_fine, 1e-300)
    elapsed = time.perf_counter() - started

    error_ok = max(vortex_errors) <= 1e-8
    ratio_ok = 16.0 * 0.8 <= ratio <= 16.0 * 1.2
    time_ok = elapsed < 5.0
    line = _report(
        2, "cellular vortex decay", error_ok and ratio_ok and time_ok,
        f"vortex rel L2 error {vortex_errors[0]:.3e}/{vortex_errors[1]:.3e} "
        f"at dt 1e-3/5e-4 (tol 1e-8), buoyant-flow Richardson ratio "
        f"{ratio:.3f} from differences {diff_coarse:.3e}/{diff_fine:.3e} "
        f"at dt 4e-3/2e-3/1e-3 (want 16 +/- 20%), "
        f"{elapsed:.2f}s (budget 5s)")
    assert error_ok, line
    assert ratio_ok, line
    assert time_ok, line


def test_03_convection_route_equivalence():
    """The right-hand side the stepper runs, the projected transform
    kernel, agrees with [P(-conv(u, u)) + b theta; -conv(u, theta)] from
    the direct convolution on every retained mode for band-limited
    random data, in 2D and 3D."""
    started = time.perf_counter()
    worst = 0.0
    cases = []
    for dim, modes in ((2, 16), (3, 8)):
        grid = make_grid(dim, modes)
        u, theta = _random_band_limited(grid, seed=17 + dim, bandwidth=modes // 3)
        y = np.concatenate([u.coeffs, theta.coeffs[np.newaxis]])
        core = _core(grid, y)
        kernel = _core_rhs(_Work(grid), core, np.empty_like(core))
        conv_u = SpectralVectorField(
            grid, -convect_convolution(u, u, grid).field.coeffs)
        oracle = _core(grid, np.concatenate([
            leray_project(conv_u).coeffs + buoyancy(theta).coeffs,
            -convect_convolution(u, theta, grid).field.coeffs[np.newaxis]]))
        case_worst = 0.0
        for rows in (slice(0, dim), slice(dim, None)):
            fast, slow = kernel[rows], oracle[rows]
            dev = np.max(np.abs(fast - slow)) / np.max(np.abs(slow))
            case_worst = max(case_worst, dev)
        cases.append(f"{modes}^{dim}: {case_worst:.3e}")
        worst = max(worst, case_worst)
    elapsed = time.perf_counter() - started

    dev_ok = worst <= 1e-12
    time_ok = elapsed < 5.0
    line = _report(
        3, "convection route equivalence", dev_ok and time_ok,
        f"max rel deviation {'; '.join(cases)} (tol 1e-12), "
        f"{elapsed:.2f}s (budget 5s)")
    assert dev_ok, line
    assert time_ok, line


def _dense(index, values, shape):
    """Dense array of a COO tensor, duplicate keys summed."""
    out = np.zeros(shape)
    np.add.at(out, tuple(np.asarray(index).T), values)
    return out


def test_04_interaction_tensor_identities():
    """On a 2D truncation containing every wavevector with |k| <= 3, the
    advection tensors are antisymmetric in their last two slots and the
    cubic energy fluxes vanish on random states.  The stored COO entries
    are checked both as dense tensors and as they are: every stored
    (a, b, c) has its partner (a, c, b), and the flux summed over the
    stored entries vanishes."""
    started = time.perf_counter()
    grid = make_grid(2, 10)
    vel_basis, scalar_basis = build_basis(grid)
    system = assemble_tensors(vel_basis, scalar_basis, grid)
    m, ms = len(vel_basis), len(scalar_basis)
    A = _dense(system.A_index, system.A, (m, m, m))
    B = _dense(system.B_index, system.B, (m, ms, ms))

    covered = {tuple(k) for k in scalar_basis.k[::2].tolist()}
    wanted = {
        (a, b)
        for a in range(-3, 4)
        for b in range(-3, 4)
        if 0 < a * a + b * b <= 9
    }
    cover_ok = all(k in covered or tuple(-c for c in k) in covered
                   for k in wanted)

    asym_A = float(np.max(np.abs(A + A.swapaxes(1, 2))))
    asym_B = float(np.max(np.abs(B + B.swapaxes(1, 2))))
    antisym_ok = asym_A <= 1e-13 and asym_B <= 1e-13

    unpaired = 0
    for index in (system.A_index, system.B_index):
        keys = {tuple(row) for row in index.tolist()}
        unpaired += sum((a, c, b) not in keys for a, b, c in keys)
    partner_ok = unpaired == 0

    rng = np.random.default_rng(4)
    worst_flux = 0.0
    worst_sparse = 0.0
    for _ in range(100):
        xi = rng.standard_normal(len(vel_basis))
        eta = rng.standard_normal(len(scalar_basis))
        xi /= np.linalg.norm(xi)
        eta /= np.linalg.norm(eta)
        flux_u = np.einsum("abc,a,b,c->", A, xi, xi, xi)
        flux_t = np.einsum("abc,a,b,c->", B, xi, eta, eta)
        worst_flux = max(worst_flux, abs(flux_u), abs(flux_t))
        a, b, c = system.A_index.T
        j, g, h = system.B_index.T
        sparse_u = np.sum(system.A * xi[a] * xi[b] * xi[c])
        sparse_t = np.sum(system.B * xi[j] * eta[g] * eta[h])
        worst_sparse = max(worst_sparse, abs(sparse_u), abs(sparse_t))
    elapsed = time.perf_counter() - started

    flux_ok = worst_flux <= 1e-12 and worst_sparse <= 1e-12
    time_ok = elapsed < 10.0
    line = _report(
        4, "interaction tensor identities",
        cover_ok and antisym_ok and partner_ok and flux_ok and time_ok,
        f"antisymmetry defects {asym_A:.3e}/{asym_B:.3e} (tol 1e-13), "
        f"{unpaired} stored entries without partner, "
        f"max |cubic flux| {worst_flux:.3e} dense, {worst_sparse:.3e} "
        f"sparse over 100 states (tol 1e-12), {elapsed:.2f}s (budget 10s)")
    assert cover_ok, line
    assert antisym_ok, line
    assert partner_ok, line
    assert flux_ok, line
    assert time_ok, line


def test_05_ode_oracle_trajectory_match():
    """The mode-amplitude ODE system and the spectral solver integrate
    the same truncation; their trajectories must coincide."""
    started = time.perf_counter()
    grid = make_grid(2, 10)
    params = PhysicalParams(nu=1.0, kappa=1.0)
    u0, th0 = synthesize_initial("rough_h1", grid, seed=5)
    u0.coeffs *= grid.dealias_mask
    th0.coeffs *= grid.dealias_mask
    u0 = leray_project(enforce_constraints(u0))
    th0 = enforce_constraints(th0)

    vel_basis, scalar_basis = build_basis(grid)
    system = assemble_tensors(vel_basis, scalar_basis, grid)
    ode = integrate_galerkin(system, project_state(u0, th0, system),
                             T=0.1, dt=1e-3, params=params)

    config = StepperConfig(dt=1e-3, t_final=0.1, snapshot_every=10)
    traj = run_simulation(config, params, grid,
                          SimulationState(u0.copy(), th0.copy()))

    worst = 0.0
    for snap in traj.snapshots:
        u_ode, th_ode = reconstruct(ode.states[snap.step_index], system)
        du = SpectralVectorField(grid, u_ode.coeffs - snap.u.coeffs)
        dth = SpectralScalarField(grid, th_ode.coeffs - snap.theta.coeffs)
        worst = max(worst, norm(du) / norm(snap.u),
                    norm(dth) / norm(snap.theta))
    elapsed = time.perf_counter() - started

    dev_ok = worst <= 1e-6
    time_ok = elapsed < 30.0
    line = _report(
        5, "ODE oracle trajectory match", dev_ok and time_ok,
        f"max rel L2 deviation {worst:.3e} over {len(traj.snapshots)} "
        f"sampled states (tol 1e-6), {elapsed:.2f}s (budget 30s)")
    assert dev_ok, line
    assert time_ok, line


def test_06_energy_inequalities(rough_2d_run):
    """Along the rough 2D run the temperature budget must close from
    below and the velocity must obey its linear-in-time a-priori bound."""
    traj, elapsed = rough_2d_run
    records = traj.records
    e0_theta = records[0].l2_theta ** 2
    slack = 1e-6 * e0_theta
    worst_residual = max(r.energy_residual_theta for r in records)
    theta_ok = worst_residual <= slack

    l2_u0 = records[0].l2_u
    l2_th0 = records[0].l2_theta
    u_margin = min(l2_u0 + r.t * l2_th0 + 1e-8 - r.l2_u for r in records)
    u_ok = u_margin >= 0.0
    time_ok = elapsed < 120.0

    line = _report(
        6, "energy inequalities", theta_ok and u_ok and time_ok,
        f"max theta-budget residual {worst_residual:.3e} vs slack "
        f"{slack:.3e} (exponential-fitted dissipation quadrature), "
        f"velocity bound margin {u_margin:.3e}, "
        f"run {elapsed:.1f}s (budget 120s)")
    assert theta_ok, line
    assert u_ok, line
    assert time_ok, line


def test_07_analytic_smoothing(rough_2d_run):
    """Rough (H1 but not analytic) data must smooth: the fitted decay
    radius grows at least like t, the weighted energy with tau(t) =
    min(t, tau_cap) stays bounded, and the radius estimate is monotone."""
    traj, elapsed = rough_2d_run
    records = traj.records

    window = [r for r in records if 0.02 - 1e-9 <= r.t <= 0.2 + 1e-9]
    assert window, "no sampled states in [0.02, 0.2]"
    radius_margin = min(r.radius_fit - r.t for r in window)
    quality_floor = min(r.radius_fit_quality for r in window)
    radius_ok = radius_margin >= 0.0
    quality_ok = quality_floor >= 0.9

    x0 = records[0].gevrey_X
    t_half = 0.0
    for r in records:
        if r.gevrey_X <= 2.0 * x0:
            t_half = r.t
        else:
            break
    interval_ok = t_half > 0.0

    snapshot_records = records[::100]
    worst_drop = min(b.radius_fit - a.radius_fit
                     for a, b in zip(snapshot_records, snapshot_records[1:]))
    monotone_ok = worst_drop >= -1e-2
    time_ok = elapsed < 120.0

    ok = radius_ok and quality_ok and interval_ok and monotone_ok and time_ok
    line = _report(
        7, "analytic smoothing", ok,
        f"min(tau_est - t) {radius_margin:.3f} on [0.02, 0.2], min fit "
        f"quality {quality_floor:.3f} (floor 0.9), X <= 2 X(0) holds on "
        f"[0, {t_half:g}], worst radius step {worst_drop:.3e} across "
        f"snapshots (tol -1e-2)")
    assert radius_ok, line
    assert quality_ok, line
    assert interval_ok, line
    assert monotone_ok, line
    assert time_ok, line


def test_08_three_dimensional_sanity():
    """A 16^3 rough-data run either completes or aborts through the
    documented blow-up path, holding the discrete invariants throughout."""
    started = time.perf_counter()
    grid = make_grid(3, 16)
    params = PhysicalParams(nu=1.0, kappa=1.0)
    u0, th0 = synthesize_initial("rough_h1", grid, seed=0)
    amp0 = max(float(np.max(np.abs(u0.coeffs))),
               float(np.max(np.abs(th0.coeffs))))
    config = StepperConfig(dt=1e-3, t_final=0.1, snapshot_every=10)
    traj = run_simulation(config, params, grid, SimulationState(u0, th0))
    elapsed = time.perf_counter() - started

    records = traj.records
    status_ok = traj.status in ("completed", "blowup")
    worst_div = max(r.div_max for r in records)
    div_ok = worst_div <= 1e-12 * amp0
    theta_mono_ok = all(b.l2_theta <= a.l2_theta * (1.0 + 1e-10)
                        for a, b in zip(records, records[1:]))
    worst_reality = max(
        max(hermitian_defect(s.u), hermitian_defect(s.theta))
        for s in traj.snapshots)
    reality_ok = worst_reality <= 1e-13 * amp0
    time_ok = elapsed < 120.0

    ok = status_ok and div_ok and theta_mono_ok and reality_ok and time_ok
    line = _report(
        8, "3D sanity", ok,
        f"status {traj.status!r} after {len(records) - 1} steps, max "
        f"divergence {worst_div:.3e}, theta energy monotone: "
        f"{theta_mono_ok}, max reality defect {worst_reality:.3e}, "
        f"{elapsed:.1f}s (budget 120s)")
    assert status_ok, line
    assert div_ok, line
    assert theta_mono_ok, line
    assert reality_ok, line
    assert time_ok, line


def test_09_reproducible_runs(tmp_path):
    """Two runs from the same config produce bit-identical outputs."""
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        "dim = 2\n"
        "modes = 16\n"
        "t_final = 0.02\n"
        "dt = 1e-3\n"
        "snapshot_every = 5\n"
        "initial_kind = rough_h1\n"
        "seed = 3\n"
        "nu = 1.0\n"
        "kappa = 1.0\n"
    )

    outputs = []
    for name in ("first", "second"):
        outdir = tmp_path / name
        code = cli_main(["run", str(config_path),
                         "--output-dir", str(outdir), "--quiet"])
        assert code == 0
        outputs.append({p.name: p.read_bytes()
                        for p in sorted(outdir.iterdir())})

    names_ok = sorted(outputs[0]) == sorted(outputs[1])
    identical = names_ok and all(outputs[0][n] == outputs[1][n]
                                 for n in outputs[0])
    line = _report(
        9, "reproducible runs", identical,
        f"{len(outputs[0])} output files ({', '.join(sorted(outputs[0]))}) "
        f"bit-identical across two invocations")
    assert identical, line
