"""Command-line surface: exit codes, file outputs, determinism."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import bousspec
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
        assert list(out.iterdir()) == []  # refused before any step

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

    def test_corrupt_snapshot_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"XXXXXXXX" + bytes(64))
        assert main(["diagnose", str(bad)]) == 1
        assert "magic" in capsys.readouterr().err


class TestOracleCheck:
    def test_passes_on_small_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
            dim = 2
            modes = 10
            t_final = 0.01
            dt = 1e-3
            seed = 5
        """)
        assert main(["oracle-check", cfg]) == 0
        out = capsys.readouterr().out
        assert "transform vs convolution" in out
        assert "solver vs Galerkin ODE" in out
        assert "MISMATCH" not in out

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
        assert "transform vs convolution" in out

    def test_grid_too_large_for_convolution(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
            dim = 2
            modes = 128
            t_final = 0.01
        """)
        assert main(["oracle-check", cfg]) == 1
        assert "limit" in capsys.readouterr().err


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


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # the child imports the same package as this process, whether
        # it comes from an install or from src/ on pytest's path
        src = str(Path(bousspec.__file__).resolve().parents[1])
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        cfg = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "bousspec", "run", cfg, "--quiet",
             "--output-dir", str(tmp_path / "out")],
            capture_output=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
