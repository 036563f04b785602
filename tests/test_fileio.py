"""Config parsing, snapshot binary layout, diagnostics CSV."""

import struct
from pathlib import Path

import numpy as np
import pytest

from bousspec import (
    PhysicalParams,
    SpectralScalarField,
    SpectralVectorField,
    enforce_constraints,
    leray_project,
    make_grid,
    synthesize_initial,
)
from bousspec import fileio
from bousspec.diagnostics import DiagnosticsRecord
from bousspec.fileio import (
    FORMAT_VERSION,
    MAGIC,
    BadMagicError,
    ConfigError,
    RunConfig,
    SnapshotError,
    TruncatedPayloadError,
    VersionMismatchError,
    parse_config,
    read_diagnostics,
    read_snapshot,
    read_snapshot_header,
    write_diagnostics,
    write_snapshot,
)
from bousspec.stepper import SimulationState

HEADER_SIZE = 44  # 8s + 3*u32 + 3*f64, little-endian, packed


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_minimal_file_fills_defaults(self, tmp_path):
        path = write_text(tmp_path / "run.cfg", """
            # smallest viable run
            dim = 2
            modes = 64

            t_final = 0.5
        """)
        cfg = parse_config(path)
        assert (cfg.dim, cfg.modes, cfg.t_final) == (2, 64, 0.5)
        assert cfg.dt == 1e-3
        assert cfg.scheme == "if_rk4"
        assert cfg.snapshot_every == 10
        assert cfg.nu == 1.0 and cfg.kappa == 1.0
        assert cfg.initial_kind == "rough_h1" and cfg.seed == 0
        assert cfg.sobolev_exponent is None

    def test_full_file(self, tmp_path):
        path = write_text(tmp_path / "run.cfg", """
            dim = 3
            modes = 16
            t_final = 0.1
            nu = 0.5
            kappa = 0.25
            dt = 5e-4
            snapshot_every = 20
            initial_kind = single_mode_theta
            seed = 7
            sobolev_exponent = 3.4
            scheme = if_euler
            output_dir = out
        """)
        cfg = parse_config(path)
        assert cfg.kappa == 0.25
        assert cfg.sobolev_exponent == 3.4
        assert cfg.scheme == "if_euler"
        assert cfg.output_dir == "out"

    def test_unknown_key_with_line_number(self, tmp_path):
        path = write_text(tmp_path / "run.cfg",
                          "dim = 2\nmodes = 8\nviscosity = 1\nt_final = 1\n")
        with pytest.raises(ConfigError, match=r":3: unknown key 'viscosity'"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_text(tmp_path / "run.cfg",
                          "dim = 2\nmodes = 8\nt_final = 1\ndim = 3\n")
        with pytest.raises(ConfigError, match=r":4: duplicate key 'dim'"):
            parse_config(path)

    def test_malformed_line(self, tmp_path):
        path = write_text(tmp_path / "run.cfg", "dim = 2\nmodes 8\n")
        with pytest.raises(ConfigError, match=r":2: expected 'key = value'"):
            parse_config(path)

    def test_unparseable_value(self, tmp_path):
        path = write_text(tmp_path / "run.cfg",
                          "dim = 2\nmodes = eight\nt_final = 1\n")
        with pytest.raises(ConfigError, match=r":2: cannot parse modes"):
            parse_config(path)

    def test_missing_required_keys(self, tmp_path):
        path = write_text(tmp_path / "run.cfg", "dim = 2\n")
        with pytest.raises(ConfigError, match="missing required"):
            parse_config(path)

    def test_negative_nu_names_the_key(self, tmp_path):
        path = write_text(tmp_path / "run.cfg",
                          "dim = 2\nmodes = 8\nt_final = 1\nnu = -1\n")
        with pytest.raises(ConfigError, match="nu must be > 0"):
            parse_config(path)

    def test_invariants(self):
        with pytest.raises(ConfigError, match="dim"):
            RunConfig(dim=4, modes=8, t_final=1.0)
        with pytest.raises(ConfigError, match="modes"):
            RunConfig(dim=2, modes=9, t_final=1.0)
        with pytest.raises(ConfigError, match="t_final"):
            RunConfig(dim=2, modes=8, t_final=1e-4)
        with pytest.raises(ConfigError, match="snapshot_every"):
            RunConfig(dim=2, modes=8, t_final=1.0, snapshot_every=0)
        with pytest.raises(ConfigError, match="scheme"):
            RunConfig(dim=2, modes=8, t_final=1.0, scheme="leapfrog")
        with pytest.raises(ConfigError, match="initial_kind"):
            RunConfig(dim=2, modes=8, t_final=1.0, initial_kind="vortex")
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(dim=2, modes=8, t_final=1.0, seed=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["dt", "t_final", "nu", "kappa"])
    def test_non_finite_settings_rejected(self, key, value):
        settings = dict(dim=2, modes=8, t_final=1.0)
        settings[key] = value
        with pytest.raises(ConfigError, match=key):
            RunConfig(**settings)


def random_state(grid, seed, t=0.0):
    rng = np.random.default_rng(seed)
    u = SpectralVectorField(
        grid,
        rng.standard_normal(grid.vshape) + 1j * rng.standard_normal(grid.vshape),
    )
    theta = SpectralScalarField(
        grid,
        rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
    )
    # the Nyquist slots reflect onto themselves, so the Leray projection
    # breaks their reality symmetry: the constraints come after it
    return SimulationState(
        enforce_constraints(leray_project(u)),
        enforce_constraints(theta),
        t,
        0,
    )


class TestSnapshots:
    @pytest.mark.parametrize("dim,modes", [(2, 8), (3, 6)])
    def test_round_trip_bit_identical(self, tmp_path, dim, modes):
        grid = make_grid(dim, modes)
        state = random_state(grid, seed=dim, t=0.125)
        params = PhysicalParams(nu=0.25, kappa=2.0)
        path = str(tmp_path / "state.bin")
        write_snapshot(state, params, path)
        back = read_snapshot(path)
        assert np.array_equal(back.u.coeffs, state.u.coeffs)
        assert np.array_equal(back.theta.coeffs, state.theta.coeffs)
        assert back.t == 0.125
        header = read_snapshot_header(path)
        assert (header.dim, header.modes) == (dim, modes)
        assert (header.nu, header.kappa) == (0.25, 2.0)
        assert header.format_version == FORMAT_VERSION

    def test_snapshots_of_one_size_share_a_read_only_grid(self, tmp_path):
        paths = []
        for seed in (1, 2):
            state = random_state(make_grid(2, 8), seed=seed, t=0.5 * seed)
            paths.append(str(tmp_path / f"state{seed}.bin"))
            write_snapshot(state, PhysicalParams(1.0, 1.0), paths[-1])
        first, second = (read_snapshot(path) for path in paths)
        assert first.u.grid is second.u.grid
        assert first.theta.grid is first.u.grid
        assert not np.array_equal(first.u.coeffs, second.u.coeffs)
        grid = first.u.grid
        for mesh in (grid.k, grid.k2, grid.kmag, grid.dealias_mask,
                     grid.half_k, grid.k_over_k2):
            assert not mesh.flags.writeable

    def test_payload_position_of_known_mode(self, tmp_path):
        # independent layout oracle: on M = 8 the serialized order runs
        # lexicographically over j in {-3..4}^2, so mode (1, 2) of the
        # first velocity component sits at flat index (1+3)*8 + (2+3)
        grid = make_grid(2, 8)
        state = SimulationState(
            SpectralVectorField(grid), SpectralScalarField(grid), 0.0, 0
        )
        state.u.coeffs[0][1, 2] = 3.0 + 4.0j
        state.u.coeffs[0][-1, -2] = 3.0 - 4.0j
        state.theta.coeffs[0, 4] = 7.0  # Nyquist column j = (0, 4)
        path = str(tmp_path / "state.bin")
        write_snapshot(state, PhysicalParams(1.0, 1.0), path)
        blob = Path(path).read_bytes()

        flat_index = (1 + 3) * 8 + (2 + 3)
        re, im = struct.unpack_from("<2d", blob, HEADER_SIZE + 16 * flat_index)
        assert (re, im) == (3.0, 4.0)
        theta_offset = HEADER_SIZE + 16 * (2 * 64 + (0 + 3) * 8 + (4 + 3))
        re, im = struct.unpack_from("<2d", blob, theta_offset)
        assert (re, im) == (7.0, 0.0)

    def test_bad_magic(self, tmp_path):
        grid = make_grid(2, 8)
        path = str(tmp_path / "state.bin")
        write_snapshot(random_state(grid, 0), PhysicalParams(1.0, 1.0), path)
        blob = bytearray(Path(path).read_bytes())
        blob[:8] = b"XXXXXXXX"
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(BadMagicError, match="XXXXXXXX"):
            read_snapshot(path)

    def test_version_mismatch(self, tmp_path):
        grid = make_grid(2, 8)
        path = str(tmp_path / "state.bin")
        write_snapshot(random_state(grid, 0), PhysicalParams(1.0, 1.0), path)
        blob = bytearray(Path(path).read_bytes())
        struct.pack_into("<I", blob, 8, FORMAT_VERSION + 1)
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError, match="version 2"):
            read_snapshot(path)

    def test_truncated_payload_names_lengths(self, tmp_path):
        grid = make_grid(2, 8)
        path = str(tmp_path / "state.bin")
        write_snapshot(random_state(grid, 0), PhysicalParams(1.0, 1.0), path)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:-8])
        expected = HEADER_SIZE + 16 * 3 * 64
        with pytest.raises(TruncatedPayloadError) as err:
            read_snapshot(path)
        assert str(expected) in str(err.value)
        assert str(expected - 8) in str(err.value)

    def test_payload_checked_before_grid_is_built(self, tmp_path,
                                                  monkeypatch):
        # a 2D header claiming 2**31 modes per axis would ask for meshes
        # of terabytes if the grid were built before the length check
        path = tmp_path / "huge.bin"
        path.write_bytes(struct.pack("<8sIIIddd", MAGIC, FORMAT_VERSION,
                                     2, 2**31, 0.0, 1.0, 1.0) + bytes(8))

        def refuse(dim, modes):
            raise AssertionError("grid built before the payload check")

        monkeypatch.setattr(fileio, "_snapshot_grid", refuse)
        with pytest.raises(TruncatedPayloadError, match="got 52"):
            read_snapshot(str(path))

    @pytest.mark.parametrize("t", [-0.5, float("nan"), float("inf")])
    def test_time_outside_range_refused(self, tmp_path, t):
        # a state's time is finite and at least 0; any other t in a
        # header is corruption, not a time to diagnose at
        grid = make_grid(2, 8)
        path = str(tmp_path / "state.bin")
        write_snapshot(random_state(grid, 0, t=t), PhysicalParams(1.0, 1.0),
                       path)
        with pytest.raises(SnapshotError, match="t must be >= 0 and finite"):
            read_snapshot_header(path)
        with pytest.raises(SnapshotError, match="t must be >= 0 and finite"):
            read_snapshot(path)

    @pytest.mark.parametrize("field,index", [("u", (0, 1, -2)),
                                             ("theta", (1, 2))])
    def test_state_that_is_not_real_refused(self, tmp_path, field, index):
        # records read the half spectrum only: this u mode, stored at an
        # upper last-axis label, used to read as l2_u = 0, and this theta
        # mode, stored without its conjugate, to count twice
        grid = make_grid(2, 8)
        state = SimulationState(SpectralVectorField(grid),
                                SpectralScalarField(grid), 0.0, 0)
        getattr(state, field).coeffs[index] = 1.0
        path = str(tmp_path / "state.bin")
        write_snapshot(state, PhysicalParams(1.0, 1.0), path)
        with pytest.raises(SnapshotError, match="not the spectrum of a real"):
            read_snapshot(path)

    def test_non_finite_coefficient_refused(self, tmp_path):
        grid = make_grid(2, 8)
        state = random_state(grid, 0)
        state.theta.coeffs[1, 2] = state.theta.coeffs[-1, -2] = np.nan
        path = str(tmp_path / "state.bin")
        write_snapshot(state, PhysicalParams(1.0, 1.0), path)
        with pytest.raises(SnapshotError, match="not all finite") as err:
            read_snapshot(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.bin"
        path.write_bytes(MAGIC + b"\x00\x00")
        with pytest.raises(TruncatedPayloadError, match="header"):
            read_snapshot_header(str(path))

    def test_no_temp_files_left_behind(self, tmp_path):
        grid = make_grid(2, 8)
        write_snapshot(random_state(grid, 1), PhysicalParams(1.0, 1.0),
                       str(tmp_path / "a.bin"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]


class TestDiagnosticsCsv:
    def make_record(self, t):
        return DiagnosticsRecord(
            t=t, l2_u=1.0 / 3.0, l2_theta=0.1, h1_u=2.0, h1_theta=0.2,
            gevrey_X=1.5, tau_used=t, radius_fit=0.3,
            radius_fit_quality=0.99, tail=1e-5, energy_residual_theta=-1e-17,
            energy_residual_u=1e-16, div_max=1e-15,
        )

    def test_empty_records_header_only(self, tmp_path):
        path = str(tmp_path / "diag.csv")
        write_diagnostics([], path)
        text = Path(path).read_text()
        assert text == ",".join(DiagnosticsRecord.field_names()) + "\n"

    def test_round_trip_exact(self, tmp_path):
        path = str(tmp_path / "diag.csv")
        records = [self.make_record(t) for t in (0.0, 1e-3, 2e-3)]
        write_diagnostics(records, path)
        back = read_diagnostics(path)
        assert back == records  # 17 digits round-trips doubles exactly

    def test_t_column_increasing(self, tmp_path):
        path = str(tmp_path / "diag.csv")
        write_diagnostics([self.make_record(t) for t in (0.0, 0.5, 1.0)], path)
        ts = [r.t for r in read_diagnostics(path)]
        assert ts == sorted(ts) and len(set(ts)) == 3

    def test_reader_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "diag.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="unexpected CSV header"):
            read_diagnostics(str(path))
