"""The benchmark workloads: set-up, timed body and output checks.

Every workload starts from ``rough_h1`` data drawn from the benchmark
seed, on grids whose size is not a multiple of 3 (README: the 2/3 rule
is exact on retained modes only then).  A workload object has three
steps, run in this order by ``worker.py``:

``setup(bs, workdir, seed)``
    writes and parses its config, builds the grid and the initial state;
    this is what a user pays before the first step (``setup_s``).
``body(bs, ctx)``
    the timed part (``wall_s``); returns what ``check`` needs.
``check(bs, ctx, out)``
    returns an ``Outcome`` with the final-state fingerprint, the largest
    energy-budget residual and the list of failed gates.

``bs`` is a namespace of the ``bousspec`` modules.  Calls go through the
module attributes, so the wrappers the tracer installs see them.
"""

from __future__ import annotations

import contextlib
import glob
import io
import os
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

DIV_MAX_LIMIT = 1e-10
# the tolerances of ``bousspec oracle-check``
CONVOLUTION_TOL = 1e-10
ODE_TOL = 1e-6


@dataclass
class Outcome:
    fingerprint: list
    energy_residual_max: float
    failures: list = field(default_factory=list)

    def gate(self, ok, message):
        if not ok:
            self.failures.append(message)


def config_text(seed, dim, modes, t_final, snapshot_every):
    return (
        f"dim = {dim}\nmodes = {modes}\nt_final = {t_final!r}\n"
        f"dt = 0.001\nnu = 1.0\nkappa = 1.0\nscheme = if_rk4\n"
        f"snapshot_every = {snapshot_every}\ninitial_kind = rough_h1\n"
        f"seed = {seed}\n"
    )


def load_case(bs, workdir, name, text):
    """Write a config, parse it, and build its grid, params and initial state."""
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    config = bs.fileio.parse_config(path)
    grid = bs.grid.make_grid(config.dim, config.modes)
    params = bs.fields.PhysicalParams(nu=config.nu, kappa=config.kappa)
    u, theta = bs.fields.synthesize_initial(
        config.initial_kind, grid, seed=config.seed,
        sobolev_exponent=config.sobolev_exponent,
    )
    state = bs.stepper.SimulationState(u, theta, 0.0, 0)
    return SimpleNamespace(workdir=workdir, path=path, config=config,
                           grid=grid, params=params, state=state)


def fingerprint(bs, state):
    """L2 and H1 norms of u and theta (17 significant digits survive JSON)."""
    norm = bs.fields.norm
    return [norm(state.u), norm(state.u, r=1.0),
            norm(state.theta), norm(state.theta, r=1.0)]


def residual_max(records):
    return max(max(abs(r.energy_residual_theta), abs(r.energy_residual_u))
               for r in records)


def check_csv_roundtrip(bs, outcome, records, path, label):
    """diagnostics.csv read back through read_diagnostics equals ``records``."""
    back = bs.fileio.read_diagnostics(path)
    outcome.gate(back == list(records),
                 f"{label}: {path} does not read back as the records in memory")


def check_trajectory(bs, outcome, traj, workdir, label):
    outcome.gate(traj.status == "completed",
                 f"{label}: status {traj.status!r} ({traj.message})")
    div = traj.records[-1].div_max
    outcome.gate(div <= DIV_MAX_LIMIT, f"{label}: div_max {div:.3e} > 1e-10")
    path = os.path.join(workdir, f"{label}-diagnostics.csv")
    bs.fileio.write_diagnostics(traj.records, path)
    check_csv_roundtrip(bs, outcome, traj.records, path, label)


class Rough:
    """``run_simulation`` on rough data with snapshots kept in memory."""

    def __init__(self, dim, modes, t_final, snapshot_every):
        self.spec = dict(dim=dim, modes=modes, t_final=t_final,
                         snapshot_every=snapshot_every)

    def setup(self, bs, workdir, seed):
        return load_case(bs, workdir, "run.cfg", config_text(seed, **self.spec))

    def body(self, bs, ctx):
        return bs.stepper.run_simulation(ctx.config, ctx.params, ctx.grid,
                                         ctx.state)

    def check(self, bs, ctx, traj):
        outcome = Outcome(fingerprint(bs, traj.final_state),
                          residual_max(traj.records))
        check_trajectory(bs, outcome, traj, ctx.workdir, "run")
        return outcome


class CliRoundtrip:
    """``bousspec run``, ``diagnose`` over every snapshot, ``spectrum`` of the last."""

    STEPS = 200

    def setup(self, bs, workdir, seed):
        text = config_text(seed, dim=2, modes=32, t_final=self.STEPS * 1e-3,
                           snapshot_every=1)
        return load_case(bs, workdir, "run.cfg", text)

    def body(self, bs, ctx):
        run_dir = os.path.join(ctx.workdir, "run")
        diag_dir = os.path.join(ctx.workdir, "diagnose")
        captured = []
        write = bs.cli.write_diagnostics

        def capture(records, path):
            captured.append((list(records), path))
            return write(records, path)

        # the records ``run`` holds in memory are only visible as the
        # argument of its write_diagnostics call
        bs.cli.write_diagnostics = capture
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                codes = [bs.cli.main(["run", ctx.path, "--quiet",
                                      "--output-dir", run_dir])]
                snapshots = sorted(glob.glob(os.path.join(run_dir, "snapshot_*.bin")))
                codes.append(bs.cli.main(["diagnose", *snapshots,
                                          "--output-dir", diag_dir]))
                spectrum_at = len(out.getvalue())
                codes.append(bs.cli.main(["spectrum", snapshots[-1]]))
        finally:
            bs.cli.write_diagnostics = write
        return SimpleNamespace(codes=codes, snapshots=snapshots,
                               captured=captured,
                               spectrum=out.getvalue()[spectrum_at:])

    def check(self, bs, ctx, out):
        final = bs.fileio.read_snapshot(out.snapshots[-1])
        run_records = out.captured[0][0] if out.captured else []
        outcome = Outcome(fingerprint(bs, final),
                          residual_max(run_records) if run_records else 0.0)
        outcome.gate(out.codes == [0, 0, 0],
                     f"exit codes (run, diagnose, spectrum) = {out.codes}")
        outcome.gate(len(out.snapshots) == self.STEPS + 1,
                     f"{len(out.snapshots)} snapshots, expected {self.STEPS + 1}")
        outcome.gate(len(out.captured) == 2,
                     f"{len(out.captured)} diagnostics.csv writes, expected 2")
        for (records, path), label in zip(out.captured, ("run", "diagnose")):
            check_csv_roundtrip(bs, outcome, records, path, label)
        if len(out.captured) == 2:
            n = len(out.captured[1][0])
            outcome.gate(n == self.STEPS + 1,
                         f"diagnose produced {n} records, expected {self.STEPS + 1}")
        if run_records:
            div = run_records[-1].div_max
            outcome.gate(div <= DIV_MAX_LIMIT, f"run: div_max {div:.3e} > 1e-10")
        rows = out.spectrum.splitlines()
        outcome.gate(len(rows) > 1 and rows[0].startswith("shell,"),
                     "spectrum printed no shell table")
        return outcome


class Oracle:
    """Galerkin ODE vs solver at 2D 16^2 and 3D 4^3; convolution vs transform at 16^2."""

    T = 0.02

    def setup(self, bs, workdir, seed):
        cases = []
        for name, dim, modes in (("ode2d.cfg", 2, 16), ("ode3d.cfg", 3, 4)):
            text = config_text(seed, dim=dim, modes=modes, t_final=self.T,
                               snapshot_every=5)
            cases.append(load_case(bs, workdir, name, text))
        return SimpleNamespace(workdir=workdir, cases=cases)

    @staticmethod
    def retained(bs, case):
        """Initial state restricted to dealias-retained, divergence-free modes."""
        u = case.state.u.copy()
        theta = case.state.theta.copy()
        u.coeffs *= case.grid.dealias_mask
        theta.coeffs *= case.grid.dealias_mask
        return bs.fields.leray_project(u), theta

    def body(self, bs, ctx):
        ode_devs, trajs = [], []
        for case in ctx.cases:
            u0, th0 = self.retained(bs, case)
            vel, scal = bs.galerkin.build_basis(case.grid)
            system = bs.galerkin.assemble_tensors(vel, scal, case.grid)
            ode = bs.galerkin.integrate_galerkin(
                system, bs.galerkin.project_state(u0, th0, system),
                T=self.T, dt=case.config.dt, params=case.params,
            )
            traj = bs.stepper.run_simulation(
                case.config, case.params, case.grid,
                bs.stepper.SimulationState(u0, th0, 0.0, 0),
            )
            ode_devs.append(self.ode_deviation(bs, traj, ode, system,
                                               case.config.dt))
            trajs.append(traj)

        case = ctx.cases[0]
        grid = case.grid
        u_in, th_in = self.retained(bs, case)
        scale = max(np.max(np.abs(u_in.coeffs)), 1.0)
        conv_devs = []
        for target in (u_in, th_in):
            fast = bs.nonlinear.convect_pseudospectral(u_in, target, grid).field
            slow = bs.nonlinear.convect_convolution(u_in, target, grid).field
            conv_devs.append(float(np.max(np.abs(
                (fast.coeffs - slow.coeffs) * grid.dealias_mask)) / scale))
        return SimpleNamespace(ode_devs=ode_devs, conv_devs=conv_devs,
                               trajs=trajs)

    @staticmethod
    def ode_deviation(bs, traj, ode, system, dt):
        """Largest relative L2 gap between solver snapshots and the ODE."""
        worst = 0.0
        for snap in traj.snapshots:
            u_ode, th_ode = bs.galerkin.reconstruct(
                ode.states[int(round(snap.t / dt))], system)
            ref = max(np.linalg.norm(snap.u.coeffs),
                      np.linalg.norm(snap.theta.coeffs), 1e-300)
            worst = max(worst,
                        np.linalg.norm(snap.u.coeffs - u_ode.coeffs) / ref,
                        np.linalg.norm(snap.theta.coeffs - th_ode.coeffs) / ref)
        return float(worst)

    def check(self, bs, ctx, out):
        outcome = Outcome(
            [x for traj in out.trajs for x in fingerprint(bs, traj.final_state)],
            max(residual_max(traj.records) for traj in out.trajs),
        )
        for case, traj, dev in zip(ctx.cases, out.trajs, out.ode_devs):
            label = f"{case.grid.dim}d{case.grid.modes}"
            check_trajectory(bs, outcome, traj, ctx.workdir, label)
            outcome.gate(dev <= ODE_TOL,
                         f"{label}: solver vs Galerkin ODE {dev:.3e} > {ODE_TOL}")
        for dev, label in zip(out.conv_devs, ("u.grad u", "u.grad theta")):
            outcome.gate(dev <= CONVOLUTION_TOL,
                         f"transform vs convolution ({label}) {dev:.3e} "
                         f"> {CONVOLUTION_TOL}")
        return outcome


class Chain:
    """Several workloads one after another in one process, each in its own directory.

    The fingerprint is the parts' fingerprints in order, the residual the
    largest of theirs, and each failure names its part.
    """

    def __init__(self, **parts):
        self.parts = parts

    def setup(self, bs, workdir, seed):
        ctxs = {}
        for name, part in self.parts.items():
            subdir = os.path.join(workdir, name)
            os.makedirs(subdir, exist_ok=True)
            ctxs[name] = part.setup(bs, subdir, seed)
        return ctxs

    def body(self, bs, ctx):
        return {name: part.body(bs, ctx[name])
                for name, part in self.parts.items()}

    def check(self, bs, ctx, out):
        outcomes = {name: part.check(bs, ctx[name], out[name])
                    for name, part in self.parts.items()}
        chained = Outcome(
            [x for o in outcomes.values() for x in o.fingerprint],
            max(o.energy_residual_max for o in outcomes.values()),
        )
        for name, o in outcomes.items():
            chained.failures += [f"{name}: {f}" for f in o.failures]
        return chained


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "rough2d_64": Rough(dim=2, modes=64, t_final=0.5, snapshot_every=100),
    "cli_oracle": Chain(cli_roundtrip=CliRoundtrip(), oracle=Oracle()),
}
