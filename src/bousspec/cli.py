"""Command-line front end.

Four subcommands:

``run <config>``
    simulate per the config file, streaming snapshots and writing
    ``diagnostics.csv`` into the output directory;
``diagnose <snapshot...>``
    recompute diagnostics records from stored snapshots, which must
    share one dim, modes, nu and kappa;
``oracle-check <config>``
    pit the stepper's right-hand side (the projected transform kernel)
    against the same terms from the direct convolution, and the solver
    against the Galerkin ODE system at matched truncation, printing the
    observed deviations;
``spectrum <snapshot>``
    dump the per-shell coefficient envelopes as CSV for plotting.

Exit status is 0 on success, 2 when a run aborts on (numerical)
blow-up, and 1 on every other kind of failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .diagnostics import BudgetAccumulator, build_record, shell_envelope
from .fields import (
    PhysicalParams,
    SpectralScalarField,
    SpectralVectorField,
    _stacked,
    leray_project,
    norm,
    synthesize_initial,
)
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
    _projected_rhs,
    buoyancy,
    convect_convolution,
)
from .stepper import SimulationState, StepperConfig, run_simulation

__all__ = ["main"]

# largest velocity basis the Galerkin check assembles: the full
# dealias-retained basis of a 2D 32^2 grid (440 elements); 3D grids up to
# 8^3 (248 elements) fit as well
_ODE_CHECK_MAX_BASIS = 440


def _config(args):
    """The config file's settings; a ``--seed-override`` goes through the
    checks of the file's own seed."""
    config = parse_config(args.config)
    if args.seed_override is not None:
        config = dataclasses.replace(config, seed=args.seed_override)
    return config


def _set_up(config):
    """The grid, parameters and initial state of a config."""
    grid = make_grid(config.dim, config.modes)
    u, theta = synthesize_initial(config.initial_kind, grid, seed=config.seed,
                                  sobolev_exponent=config.sobolev_exponent)
    return (grid, PhysicalParams(nu=config.nu, kappa=config.kappa),
            SimulationState(u, theta, 0.0, 0))


def _cmd_run(args):
    config = _config(args)
    grid, params, initial = _set_up(config)
    outdir = args.output_dir if args.output_dir is not None else config.output_dir
    os.makedirs(outdir, exist_ok=True)

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


def _setting(header):
    return header.dim, header.modes, header.nu, header.kappa


def _cmd_diagnose(args):
    headers = [read_snapshot_header(path) for path in args.snapshots]
    first = headers[0]
    for path, header in zip(args.snapshots[1:], headers[1:]):
        if _setting(header) != _setting(first):
            raise ValueError(
                f"{path}: (dim, modes, nu, kappa) = {_setting(header)} "
                f"differs from {_setting(first)} in {args.snapshots[0]}"
            )
    # order by the time in each header, then read and diagnose one
    # snapshot at a time, so only one state is held
    order = sorted(range(len(headers)), key=lambda i: headers[i].t)
    params = PhysicalParams(nu=first.nu, kappa=first.kappa)
    budget = BudgetAccumulator(params)
    records = [build_record(read_snapshot(args.snapshots[i]), budget)
               for i in order]
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
    config = _config(args)
    # checked before any array is built, so a grid past it costs nothing
    if config.modes ** config.dim > CONVOLUTION_MODE_LIMIT:
        print(
            f"error: {config.modes}^{config.dim} grid exceeds the "
            f"{CONVOLUTION_MODE_LIMIT}-mode direct-convolution limit",
            file=sys.stderr,
        )
        return 1
    grid, params, initial = _set_up(config)
    failures = 0

    # the routes only promise agreement on the dealias-retained modes,
    # for inputs that are themselves retained (the 2/3-rule guarantee)
    u_in, th_in = initial.u, initial.theta
    u_in.coeffs *= grid.dealias_mask
    th_in.coeffs *= grid.dealias_mask
    u_in = leray_project(u_in)
    scale = max(np.max(np.abs(u_in.coeffs)), 1.0)
    # the right-hand side the stepper runs, against the same terms from
    # the convolution sums: [P(-conv(u, u)) + b theta; -conv(u, theta)]
    kernel = _projected_rhs(grid, _stacked(u_in, th_in))
    conv_u = convect_convolution(u_in, u_in, grid).field
    conv_u.coeffs *= -1.0
    oracle = (leray_project(conv_u).coeffs + buoyancy(th_in).coeffs,
              -convect_convolution(u_in, th_in, grid).field.coeffs)
    for label, fast, slow in (("velocity", kernel[: grid.dim], oracle[0]),
                              ("theta", kernel[grid.dim], oracle[1])):
        dev = np.max(np.abs((fast - slow) * grid.dealias_mask)) / scale
        ok = dev <= 1e-10
        failures += not ok
        if not args.quiet or not ok:
            print(f"projected kernel vs convolution ({label}): {dev:.3e} "
                  f"{'ok' if ok else 'MISMATCH'}")

    vel, scal = build_basis(grid)
    if config.dt > _ODE_CHECK_T:
        skipped = f"dt = {config.dt:g} exceeds its horizon T = {_ODE_CHECK_T}"
    elif len(vel) > _ODE_CHECK_MAX_BASIS:
        skipped = (f"{len(vel)} basis elements exceed the limit of "
                   f"{_ODE_CHECK_MAX_BASIS}: 2D grids up to 32^2 and 3D "
                   "grids up to 8^3 are checked")
    else:
        skipped = None
        dev = _ode_deviation(config, grid, params, u_in, th_in, vel, scal)
        ok = dev <= 1e-6
        failures += not ok
        if not args.quiet or not ok:
            print(f"solver vs Galerkin ODE (T = {_ODE_CHECK_T}): {dev:.3e} "
                  f"{'ok' if ok else 'MISMATCH'}")
    if skipped and not args.quiet:
        print(f"solver vs Galerkin ODE: skipped ({skipped})")
    return 1 if failures else 0


def _ode_deviation(config, grid, params, u0, th0, vel, scal):
    """Max relative L2 deviation between solver and ODE states, at every
    step from the retained initial state (u0, th0)."""
    system = assemble_tensors(vel, scal, grid)
    ode = integrate_galerkin(
        system, project_state(u0, th0, system),
        T=_ODE_CHECK_T, dt=config.dt, params=params,
    )
    cfg = StepperConfig(dt=config.dt, t_final=_ODE_CHECK_T, snapshot_every=1)
    trajectory = run_simulation(cfg, params, grid,
                                SimulationState(u0, th0, 0.0, 0))
    worst = 0.0
    for snap in trajectory.snapshots:
        u_ode, th_ode = reconstruct(ode.states[snap.step_index], system)
        ref = max(norm(snap.u), norm(snap.theta), 1e-300)
        du = norm(SpectralVectorField(grid, snap.u.coeffs - u_ode.coeffs))
        dth = norm(SpectralScalarField(grid,
                                       snap.theta.coeffs - th_ode.coeffs))
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
