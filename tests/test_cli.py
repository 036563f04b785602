"""Command-line surface: exit codes, file outputs, determinism."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bousspec
from bousspec import make_grid
from bousspec.cli import main
from bousspec.fileio import read_diagnostics, read_snapshot

BASE_CONFIG = """
dim = 2
modes = 16
t_final = 0.01
dt = 1e-3
snapshot_every = 5
initial_kind = rough_h1
seed = 3
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def child_env():
    """The environment of a child Python that imports the same package as
    this process, whether it comes from an install or from src/ on
    pytest's path."""
    src = str(Path(bousspec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


class TestRun:
    def test_writes_snapshots_and_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "diagnostics.csv",
            "snapshot_00000000.bin",
            "snapshot_00000005.bin",
            "snapshot_00000010.bin",
        ]
        records = read_diagnostics(str(out / "diagnostics.csv"))
        assert len(records) == 11  # per step, including t = 0
        assert read_snapshot(str(out / "snapshot_00000010.bin")).t == pytest.approx(0.01)
        assert "completed" in capsys.readouterr().out

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", cfg, "--quiet",
                     "--output-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out == ""

    def test_identical_invocations_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", cfg, "--quiet", "--output-dir", str(out)]) == 0
            blobs.append({
                p.name: p.read_bytes() for p in out.iterdir()
            })
        assert blobs[0] == blobs[1]

    def test_seed_override_changes_data(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name, extra in (("a", []), ("b", ["--seed-override", "4"])):
            out = tmp_path / name
            assert main(["run", cfg, "--quiet", "--output-dir", str(out),
                         *extra]) == 0
            outs.append((out / "snapshot_00000000.bin").read_bytes())
        assert outs[0] != outs[1]

    def test_bad_config_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "dim = 2\nmodes = 16\nnu = -1\nt_final = 1\n")
        assert main(["run", cfg]) == 1
        assert "nu" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_sobolev_exponent_exits_1(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path,
                           BASE_CONFIG + f"sobolev_exponent = {value}\n")
        out = tmp_path / "out"
        assert main(["run", cfg, "--quiet", "--output-dir", str(out)]) == 1
        assert "sobolev_exponent" in capsys.readouterr().err
        assert not out.exists()  # refused before the output directory

    @pytest.mark.parametrize("changes,args,named", [
        ([("seed = 3", "seed = 3\nsobolev_exponent = 1.5")], [],
         "run.cfg: sobolev_exponent"),
        ([("dim = 2", "dim = 3"), ("rough_h1", "taylor_green")], [],
         "run.cfg: initial_kind taylor_green"),
        ([], ["--seed-override", "-1"], "seed must be >= 0"),
    ], ids=["shallow_exponent", "taylor_green_3d", "negative_seed"])
    def test_bad_initial_settings_exit_1(self, tmp_path, capsys, changes,
                                         args, named):
        # each is refused by the one check of the initial-data settings,
        # with a message naming the config file or the seed, before the
        # output directory is made
        text = BASE_CONFIG
        for change in changes:
            text = text.replace(*change)
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, text), "--quiet",
                     "--output-dir", str(out), *args]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.cfg")]) == 1
        assert "error" in capsys.readouterr().err

    def test_blowup_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
            dim = 2
            modes = 16
            t_final = 50
            dt = 0.5
            nu = 1e-6
            kappa = 1e-6
            scheme = if_euler
            snapshot_every = 1000
            seed = 3
        """)
        assert main(["run", cfg, "--quiet",
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert "aborted" in capsys.readouterr().err


class TestDiagnose:
    def test_stdout_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", cfg, "--quiet", "--output-dir", str(out)])
        snaps = sorted(str(p) for p in out.glob("snapshot_*.bin"))
        assert main(["diagnose", *snaps]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("t,l2_u,")
        assert len(lines) == 1 + len(snaps)
        times = [float(row.split(",")[0]) for row in lines[1:]]
        assert times == sorted(times)

    def test_output_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", cfg, "--quiet", "--output-dir", str(out)])
        snap = str(out / "snapshot_00000000.bin")
        dest = tmp_path / "diag"
        assert main(["diagnose", snap, "--output-dir", str(dest)]) == 0
        assert len(read_diagnostics(str(dest / "diagnostics.csv"))) == 1

    def test_rebuilds_the_run_records_in_time_order(self, tmp_path, capsys):
        # snapshots of every step, given out of order: diagnose reads
        # them one at a time in time order and writes the run's own CSV
        cfg = write_config(tmp_path, BASE_CONFIG.replace(
            "snapshot_every = 5", "snapshot_every = 1"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--quiet", "--output-dir", str(out)]) == 0
        snaps = sorted(str(p) for p in out.glob("snapshot_*.bin"))
        assert len(snaps) == 11
        dest = tmp_path / "diag"
        assert main(["diagnose", *snaps[1::2], *snaps[::-2],
                     "--output-dir", str(dest)]) == 0
        assert ((dest / "diagnostics.csv").read_bytes()
                == (out / "diagnostics.csv").read_bytes())

    def test_steps_over_extreme_density_ratios_are_silent(self, tmp_path):
        # between t = 0 and t = 3 at 32^2 the dissipation densities of
        # most modes fall by far more than 2^14, and some by more than
        # the range of a double: the budget's mean used to overflow and
        # warn there (and so raise under -W error)
        cfg = write_config(tmp_path, BASE_CONFIG.replace(
            "modes = 16", "modes = 32").replace(
            "t_final = 0.01", "t_final = 3").replace(
            "dt = 1e-3", "dt = 0.01").replace(
            "snapshot_every = 5", "snapshot_every = 300"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--quiet", "--output-dir", str(out)]) == 0
        snaps = sorted(str(p) for p in out.glob("snapshot_*.bin"))
        assert len(snaps) == 2
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "bousspec", "diagnose",
             *snaps],
            capture_output=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stderr == b""
        assert len(proc.stdout.decode().splitlines()) == 3

    @pytest.mark.parametrize("change", [("modes = 16", "modes = 8"),
                                        ("seed = 3", "seed = 3\nnu = 5")])
    def test_mixed_settings_exit_1(self, tmp_path, capsys, change):
        # snapshots of another grid or another nu cannot share one budget
        snaps = []
        for name, text in (("a", BASE_CONFIG),
                           ("b", BASE_CONFIG.replace(*change))):
            out = tmp_path / name
            cfg = write_config(tmp_path, text, name=f"{name}.cfg")
            assert main(["run", cfg, "--quiet", "--output-dir", str(out)]) == 0
            snaps.append(str(out / "snapshot_00000005.bin"))
        capsys.readouterr()
        assert main(["diagnose", snaps[0], snaps[0], snaps[1]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {snaps[1]}: ")
        assert "differs" in err

    @pytest.mark.parametrize("t", [-0.5, float("nan")])
    def test_snapshot_time_outside_range_exits_1(self, tmp_path, capsys, t):
        # a header time of -0.5 used to give a row with tau_used = -0.5,
        # and NaN a row of NaNs, both with exit status 0
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", cfg, "--quiet", "--output-dir", str(out)]) == 0
        snap = out / "snapshot_00000005.bin"
        blob = bytearray(snap.read_bytes())
        struct.pack_into("<d", blob, 20, t)  # after magic and 3 u32
        snap.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["diagnose", str(snap)]) == 1
        assert "t must be >= 0 and finite" in capsys.readouterr().err

    def test_snapshot_nu_outside_range_exits_1(self, tmp_path, capsys):
        # a header nu of NaN used to be read: one file gave an error that
        # named no file, and two copies of it "differed" from each other
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", cfg, "--quiet", "--output-dir", str(out)]) == 0
        snap = out / "snapshot_00000005.bin"
        blob = bytearray(snap.read_bytes())
        struct.pack_into("<d", blob, 28, float("nan"))  # nu, after t
        snap.write_bytes(bytes(blob))
        capsys.readouterr()
        for args in ([str(snap)], [str(snap), str(snap)]):
            assert main(["diagnose", *args]) == 1
            err = capsys.readouterr().err
            assert err == f"error: {snap}: nu must be > 0 and finite, got nan\n"

    def test_snapshot_that_is_not_real_exits_1(self, tmp_path, capsys):
        # a coefficient whose conjugate partner disagrees: fields hold
        # the half spectrum of a real state only, so it would be misread
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", cfg, "--quiet", "--output-dir", str(out)]) == 0
        snap = out / "snapshot_00000005.bin"
        blob = bytearray(snap.read_bytes())
        # the imaginary part of u_1 at j = (0, 0), the first serialized
        # mode, which is its own reflection on the last-axis plane 0
        struct.pack_into("<d", blob, 44 + 8, 1.0)
        snap.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["diagnose", str(snap)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {snap}: ")
        assert "not the spectrum of a real state" in err

    def test_snapshot_with_content_at_label_minus_half_exits_1(
            self, tmp_path, capsys):
        # a real u_1 coefficient at j = (8, 0), the slot of label -8 on
        # the first axis: Hermitian, as the slot is its own reflection,
        # but a real field carries nothing there.  Rows of the 16^2 half
        # spectrum hold the 9 last-axis labels 0..8; label -8 of the
        # first axis is row 8
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", cfg, "--quiet", "--output-dir", str(out)]) == 0
        snap = out / "snapshot_00000005.bin"
        blob = bytearray(snap.read_bytes())
        struct.pack_into("<d", blob, 44 + 16 * (8 * 9 + 0), 1.0)
        snap.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["diagnose", str(snap)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {snap}: ")
        assert "label -8" in err

    def test_corrupt_snapshot_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXXXXXX" + bytes(64))
        assert main(["diagnose", str(bad)]) == 1
        assert "magic" in capsys.readouterr().err


class TestOracleCheck:
    # 0.02 / 7e-4 = 28.57 and 0.02 / 3e-3 = 6.67: both runs end past
    # T = 0.02, and the ODE takes the same steps
    @pytest.mark.parametrize("dt", [1e-3, 7e-4, 3e-3])
    def test_passes_on_small_grid(self, tmp_path, capsys, dt):
        cfg = write_config(tmp_path, f"""
            dim = 2
            modes = 10
            t_final = 0.01
            dt = {dt}
            seed = 5
        """)
        assert main(["oracle-check", cfg]) == 0
        out = capsys.readouterr().out
        assert "projected kernel vs convolution" in out
        assert "solver vs Galerkin ODE (T = 0.02): " in out
        assert "MISMATCH" not in out

    # nu |j|^2 dt reaches 1.0 and 0.8 on the retained modes: the ODE
    # integrates diffusion exactly too, so the deviation is roundoff
    @pytest.mark.parametrize("modes,dt,diffusivity",
                             [(16, 0.02, 1.0), (32, 1e-3, 4.0)])
    def test_passes_at_stiff_settings(self, tmp_path, capsys, modes, dt,
                                      diffusivity):
        cfg = write_config(tmp_path, f"""
            dim = 2
            modes = {modes}
            t_final = 0.02
            dt = {dt}
            nu = {diffusivity}
            kappa = {diffusivity}
            seed = 0
        """)
        assert main(["oracle-check", cfg]) == 0
        out = capsys.readouterr().out
        line = next(s for s in out.splitlines()
                    if s.startswith("solver vs Galerkin ODE (T = 0.02): "))
        assert float(line.split()[-2]) < 1e-12

    def test_skips_ode_when_dt_exceeds_its_horizon(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
            dim = 2
            modes = 8
            t_final = 0.1
            dt = 0.05
            seed = 5
        """)
        assert main(["oracle-check", cfg]) == 0
        captured = capsys.readouterr()
        assert ("solver vs Galerkin ODE: skipped (dt = 0.05 exceeds its "
                "horizon T = 0.02)" in captured.out)
        assert "MISMATCH" not in captured.out
        assert captured.err == ""

    def test_passes_on_3d_grid(self, tmp_path, capsys):
        # 8^3 keeps |j_i| <= 2: 248 velocity elements, the largest 3D
        # basis the ODE clause admits
        cfg = write_config(tmp_path, """
            dim = 3
            modes = 8
            t_final = 0.01
            dt = 1e-3
            seed = 5
        """)
        assert main(["oracle-check", cfg]) == 0
        out = capsys.readouterr().out
        assert "solver vs Galerkin ODE (T = " in out
        assert "MISMATCH" not in out

    @pytest.mark.parametrize("dim,modes", [(2, 24), (3, 6)])
    def test_passes_when_three_divides_modes(self, tmp_path, capsys, dim,
                                             modes):
        # the cutoff is the largest c with 3c < M: at M = 3c the alias of
        # a product of retained modes would land on the shell |j_i| = c
        cfg = write_config(tmp_path, f"""
            dim = {dim}
            modes = {modes}
            t_final = 0.01
            dt = 1e-3
            seed = 0
        """)
        assert main(["oracle-check", cfg]) == 0
        out = capsys.readouterr().out
        assert "solver vs Galerkin ODE (T = 0.02): " in out
        assert "MISMATCH" not in out

    def test_skips_ode_above_truncation_limit(self, tmp_path, capsys):
        # 34^2 keeps |j_i| <= 11: 528 velocity elements, above the 440
        # of 32^2
        cfg = write_config(tmp_path, """
            dim = 2
            modes = 34
            t_final = 0.01
            dt = 1e-3
            seed = 5
        """)
        assert main(["oracle-check", cfg]) == 0
        out = capsys.readouterr().out
        assert "skipped (528 basis elements" in out
        assert "projected kernel vs convolution" in out

    def test_grid_too_large_for_convolution(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
            dim = 2
            modes = 128
            t_final = 0.01
        """)
        assert main(["oracle-check", cfg]) == 1
        assert "limit" in capsys.readouterr().err

    def test_grid_limit_checked_before_the_draw(self, tmp_path, capsys,
                                                monkeypatch):
        # 66^2 = 4356 modes is past the limit; the initial state, whose
        # draw costs more than the check, is not built
        def refuse(*args, **kwargs):
            raise AssertionError("initial state drawn")

        monkeypatch.setattr(bousspec.cli, "synthesize_initial", refuse)
        cfg = write_config(tmp_path, """
            dim = 2
            modes = 66
            t_final = 0.01
        """)
        assert main(["oracle-check", cfg]) == 1
        assert ("66^2 grid exceeds the 4096-mode direct-convolution limit"
                in capsys.readouterr().err)


class TestSpectrum:
    def test_envelope_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", cfg, "--quiet", "--output-dir", str(out)])
        assert main(["spectrum", str(out / "snapshot_00000000.bin")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "shell,kmag_u,amp_u,kmag_theta,amp_theta"
        assert len(lines) > 4
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[2]) > 0

    def test_ties_go_to_the_largest_kmag(self, tmp_path, capsys):
        # every mode of a zero field ties, so each shell reports the
        # largest |j| it holds
        cfg = write_config(tmp_path, BASE_CONFIG.replace(
            "initial_kind = rough_h1", "initial_kind = zero"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--quiet", "--output-dir", str(out)]) == 0
        capsys.readouterr()
        assert main(["spectrum", str(out / "snapshot_00000000.bin")]) == 0
        rows = [line.split(",") for line
                in capsys.readouterr().out.strip().splitlines()[1:]]
        kmag = make_grid(2, 16).kmag
        shell = np.floor(kmag + 0.5)
        assert [int(row[0]) for row in rows] == list(
            range(1, int(shell.max()) + 1))
        for row in rows:
            largest = "%.6g" % kmag[shell == int(row[0])].max()
            assert row[1] == row[3] == largest
            assert float(row[2]) == float(row[4]) == 0.0


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "bousspec", "run", cfg,
             "--quiet",
             "--output-dir", str(tmp_path / "out")],
            capture_output=True, env=child_env(),
        )
        assert proc.returncode == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
