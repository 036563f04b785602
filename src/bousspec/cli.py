"""Command-line front end.

Four subcommands:

``run <config>``
    simulate per the config file, streaming snapshots and writing
    ``diagnostics.csv`` into the output directory;
``diagnose <snapshot...>``
    recompute diagnostics records from stored snapshots;
``oracle-check <config>``
    pit the transform-based advection against the direct convolution,
    and the solver against the Galerkin ODE system at matched
    truncation, printing the observed deviations;
``spectrum <snapshot>``
    dump the per-shell coefficient envelopes as CSV for plotting.

Exit status is 0 on success, 2 when a run aborts on (numerical)
blow-up, and 1 on every other kind of failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from types import SimpleNamespace

import numpy as np

from .diagnostics import BudgetAccumulator, build_record, shell_envelope
from .fields import PhysicalParams, leray_project, synthesize_initial
from .fileio import (
    ConfigError,
    SnapshotError,
    format_diagnostics,
    parse_config,
    read_snapshot,
    read_snapshot_header,
    write_diagnostics,
    write_snapshot,
)
from .galerkin import (
    assemble_tensors,
    build_basis,
    integrate_galerkin,
    project_state,
    reconstruct,
)
from .grid import make_grid
from .nonlinear import (
    CONVOLUTION_MODE_LIMIT,
    convect_convolution,
    convect_pseudospectral,
)
from .stepper import SimulationState, run_simulation

__all__ = ["main"]

# largest velocity basis the Galerkin check assembles: the full
# dealias-retained basis of a 2D 32^2 grid (440 elements); 3D grids up to
# 8^3 (248 elements) fit as well
_ODE_CHECK_MAX_BASIS = 440


def _build_initial(config, grid, seed):
    u, theta = synthesize_initial(
        config.initial_kind, grid, seed=seed,
        sobolev_exponent=config.sobolev_exponent,
    )
    return SimulationState(u, theta, 0.0, 0)


def _cmd_run(args):
    config = parse_config(args.config)
    seed = config.seed if args.seed_override is None else args.seed_override
    outdir = args.output_dir if args.output_dir is not None else config.output_dir
    os.makedirs(outdir, exist_ok=True)

    grid = make_grid(config.dim, config.modes)
    params = PhysicalParams(nu=config.nu, kappa=config.kappa)
    initial = _build_initial(config, grid, seed)

    def on_snapshot(state):
        name = f"snapshot_{state.step_index:08d}.bin"
        write_snapshot(state, params, os.path.join(outdir, name))
        if not args.quiet:
            print(f"wrote {name} (t = {state.t:.6g})")

    trajectory = run_simulation(config, params, grid, initial, on_snapshot)
    write_diagnostics(trajectory.records,
                      os.path.join(outdir, "diagnostics.csv"))
    if not args.quiet:
        print(f"wrote diagnostics.csv ({len(trajectory.records)} records)")
        print(f"{trajectory.status}: {trajectory.message}")
    if trajectory.status != "completed":
        print(f"run aborted: {trajectory.message}", file=sys.stderr)
        return 2
    return 0


def _cmd_diagnose(args):
    states = sorted(
        (read_snapshot(path) for path in args.snapshots),
        key=lambda s: s.t,
    )
    header = read_snapshot_header(args.snapshots[0])
    params = PhysicalParams(nu=header.nu, kappa=header.kappa)
    budget = BudgetAccumulator(params) if len(states) >= 2 else None
    records = [build_record(s, params, budget) for s in states]
    if args.output_dir is not None:
        os.makedirs(args.output_dir, exist_ok=True)
        path = os.path.join(args.output_dir, "diagnostics.csv")
        write_diagnostics(records, path)
        print(f"wrote {path}")
    else:
        sys.stdout.write(format_diagnostics(records))
    return 0


_ODE_CHECK_T = 0.02


def _cmd_oracle_check(args):
    config = parse_config(args.config)
    seed = config.seed if args.seed_override is None else args.seed_override
    grid = make_grid(config.dim, config.modes)
    params = PhysicalParams(nu=config.nu, kappa=config.kappa)
    initial = _build_initial(config, grid, seed)
    failures = 0

    if grid.nmodes > CONVOLUTION_MODE_LIMIT:
        print(
            f"error: {config.modes}^{config.dim} grid exceeds the "
            f"{CONVOLUTION_MODE_LIMIT}-mode direct-convolution limit",
            file=sys.stderr,
        )
        return 1
    # the routes only promise agreement on the dealias-retained modes,
    # for inputs that are themselves retained (the 2/3-rule guarantee)
    u_in = initial.u.copy()
    th_in = initial.theta.copy()
    u_in.coeffs *= grid.dealias_mask
    th_in.coeffs *= grid.dealias_mask
    u_in = leray_project(u_in)
    scale = max(np.max(np.abs(u_in.coeffs)), 1.0)
    for label, target in (("u.grad u", u_in), ("u.grad theta", th_in)):
        fast = convect_pseudospectral(u_in, target, grid).field
        slow = convect_convolution(u_in, target, grid).field
        dev = np.max(np.abs((fast.coeffs - slow.coeffs)
                            * grid.dealias_mask)) / scale
        ok = dev <= 1e-10
        failures += not ok
        if not args.quiet or not ok:
            print(f"transform vs convolution ({label}): {dev:.3e} "
                  f"{'ok' if ok else 'MISMATCH'}")

    vel, scal = build_basis(grid)
    if len(vel) <= _ODE_CHECK_MAX_BASIS:
        dev = _ode_deviation(config, grid, params, initial, vel, scal)
        ok = dev <= 1e-6
        failures += not ok
        if not args.quiet or not ok:
            print(f"solver vs Galerkin ODE (T = {_ODE_CHECK_T}): {dev:.3e} "
                  f"{'ok' if ok else 'MISMATCH'}")
    elif not args.quiet:
        print(f"solver vs Galerkin ODE: skipped ({len(vel)} basis elements "
              f"exceed the limit of {_ODE_CHECK_MAX_BASIS}: 2D grids up to "
              "32^2 and 3D grids up to 8^3 are checked)")
    return 1 if failures else 0


def _ode_deviation(config, grid, params, initial, vel, scal):
    """Max relative L2 deviation between solver and ODE trajectories."""
    u0 = initial.u.copy()
    th0 = initial.theta.copy()
    u0.coeffs *= grid.dealias_mask
    th0.coeffs *= grid.dealias_mask
    u0 = leray_project(u0)

    system = assemble_tensors(vel, scal, grid)
    ode = integrate_galerkin(
        system, project_state(u0, th0, system),
        T=_ODE_CHECK_T, dt=config.dt, params=params,
    )

    cfg = SimpleNamespace(
        dt=config.dt,
        t_final=_ODE_CHECK_T,
        scheme="if_rk4",
        snapshot_every=max(1, int(round(_ODE_CHECK_T / config.dt)) // 4),
    )
    trajectory = run_simulation(cfg, params, grid,
                                SimulationState(u0, th0, 0.0, 0))
    worst = 0.0
    for snap in trajectory.snapshots:
        n = int(round((snap.t - 0.0) / config.dt))
        u_ode, th_ode = reconstruct(ode.states[n], system)
        ref = max(
            np.sqrt(np.sum(np.abs(snap.u.coeffs) ** 2)),
            np.sqrt(np.sum(np.abs(snap.theta.coeffs) ** 2)),
            1e-300,
        )
        du = np.sqrt(np.sum(np.abs(snap.u.coeffs - u_ode.coeffs) ** 2))
        dth = np.sqrt(np.sum(np.abs(snap.theta.coeffs - th_ode.coeffs) ** 2))
        worst = max(worst, du / ref, dth / ref)
    return worst


def _cmd_spectrum(args):
    state = read_snapshot(args.snapshot)
    peak_u, kmag_u = shell_envelope(state.u)
    peak_th, kmag_th = shell_envelope(state.theta)
    print("shell,kmag_u,amp_u,kmag_theta,amp_theta")
    for shell in range(1, len(peak_u)):  # shell 0 is the (zero) mean mode
        print("%d,%.6g,%.17g,%.6g,%.17g"
              % (shell, kmag_u[shell], peak_u[shell],
                 kmag_th[shell], peak_th[shell]))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bousspec",
        description="Pseudospectral Boussinesq solver with analyticity "
                    "diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a config file")
    run.add_argument("config")
    run.add_argument("--output-dir", default=None,
                     help="override the config's output directory")
    run.add_argument("--quiet", action="store_true")
    run.add_argument("--seed-override", type=int, default=None)
    run.set_defaults(handler=_cmd_run)

    diag = sub.add_parser("diagnose",
                          help="recompute diagnostics from snapshots")
    diag.add_argument("snapshots", nargs="+")
    diag.add_argument("--output-dir", default=None,
                      help="write diagnostics.csv here instead of stdout")
    diag.set_defaults(handler=_cmd_diagnose)

    oracle = sub.add_parser("oracle-check",
                            help="cross-validate the nonlinear term and "
                                 "the time integration")
    oracle.add_argument("config")
    oracle.add_argument("--quiet", action="store_true")
    oracle.add_argument("--seed-override", type=int, default=None)
    oracle.set_defaults(handler=_cmd_oracle_check)

    shells = sub.add_parser("spectrum",
                            help="per-shell coefficient envelopes as CSV")
    shells.add_argument("snapshot")
    shells.set_defaults(handler=_cmd_spectrum)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, SnapshotError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
