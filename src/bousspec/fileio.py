"""Run configuration files, binary state snapshots, and the CSV schema.

Everything here is deliberately boring and bit-reproducible:

* config files are line-oriented ``key = value`` text with full-line
  ``#`` comments; unknown keys and duplicate keys are errors (last-wins
  silently changing a run is worse than a loud failure);

* snapshots are a fixed little-endian layout — an eight-byte magic, a
  44-byte header, then the stacked [u_1, ..., u_N, theta] as complex
  double pairs in C order, shape (N + 1, *grid.shape): the half spectra
  the fields hold, in the ``rfftn`` layout (see ``GridSpec``) — so two
  runs of the same config can be compared with ``cmp``;

* diagnostics go to CSV at 17 significant digits, which round-trips
  IEEE-754 doubles exactly.

All writes go through a temp file and ``os.replace``, so readers never
see a half-written file.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticsRecord
from .fields import (
    PhysicalParams,
    _check_initial,
    _nyquist_slots,
    _plane_defect,
    _stacked,
    _unstack,
)
from .grid import _check_size, _half_shape, make_grid
from .stepper import SimulationState, StepperConfig

__all__ = [
    "RunConfig",
    "ConfigError",
    "parse_config",
    "SnapshotHeader",
    "SnapshotError",
    "BadMagicError",
    "VersionMismatchError",
    "TruncatedPayloadError",
    "write_snapshot",
    "read_snapshot",
    "read_snapshot_header",
    "format_diagnostics",
    "write_diagnostics",
    "read_diagnostics",
    "MAGIC",
    "FORMAT_VERSION",
]

MAGIC = b"BOUSSNAP"
FORMAT_VERSION = 2
# magic, version, dim, modes, t, nu, kappa
_HEADER = struct.Struct("<8sIIIddd")


class ConfigError(ValueError):
    """Bad run configuration, pointing at the file and line when known."""


@dataclass
class RunConfig:
    """Everything a ``run`` invocation needs, validated on construction.

    The grid size, the physical parameters and the stepper settings are
    checked by the types that own them (``GridSpec``, ``PhysicalParams``,
    ``StepperConfig``) and the initial-data settings by the check
    ``synthesize_initial`` runs; their errors come back as
    ``ConfigError``.  ``sobolev_exponent`` is the decay exponent handed
    to the rough-H1 synthesizer; ``None`` keeps that synthesizer's
    dimension-dependent default.
    """

    dim: int
    modes: int
    t_final: float
    nu: float = 1.0
    kappa: float = 1.0
    dt: float = 1e-3
    snapshot_every: int = 10
    initial_kind: str = "rough_h1"
    seed: int = 0
    sobolev_exponent: float | None = None
    scheme: str = "if_rk4"
    output_dir: str = "."

    def __post_init__(self):
        try:
            _check_size(self.dim, self.modes)
            PhysicalParams(self.nu, self.kappa)
            StepperConfig(self.dt, self.scheme, self.t_final,
                          self.snapshot_every)
            _check_initial(self.initial_kind, self.dim, self.seed,
                           self.sobolev_exponent)
        except ValueError as err:
            raise ConfigError(str(err)) from None


# a config file's keys are RunConfig's fields, each parsed by the type it
# is annotated with and required when it has no default
_PARSERS = {"int": int, "float": float, "str": str, "float | None": float}
_CONFIG_PARSERS = {f.name: _PARSERS[f.type]
                   for f in dataclasses.fields(RunConfig)}
_REQUIRED_KEYS = [f.name for f in dataclasses.fields(RunConfig)
                  if f.default is dataclasses.MISSING]


def parse_config(path):
    """Read a ``key = value`` config file into a RunConfig.

    Missing optional keys take the RunConfig defaults; unknown keys and
    repeated keys are rejected with the offending line number.
    """
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_PARSERS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = _CONFIG_PARSERS[key](value)
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: cannot parse {key} value {value!r}"
                ) from None
    missing = [key for key in _REQUIRED_KEYS if key not in values]
    if missing:
        raise ConfigError(f"{path}: missing required keys {missing}")
    try:
        return RunConfig(**values)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None


# ----------------------------------------------------------------------
# snapshots


@dataclass(frozen=True)
class SnapshotHeader:
    format_version: int
    dim: int
    modes: int
    t: float
    nu: float
    kappa: float


class SnapshotError(IOError):
    """Base for the malformed-snapshot family below."""


class BadMagicError(SnapshotError):
    pass


class VersionMismatchError(SnapshotError):
    pass


class TruncatedPayloadError(SnapshotError):
    pass


def _atomic_write(path, *chunks):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_snapshot(state: SimulationState, params, path):
    """Serialize one state; ``params`` supplies the header's nu, kappa."""
    grid = state.u.grid
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, grid.dim, grid.modes, state.t,
        params.nu, params.kappa,
    )
    payload = np.ascontiguousarray(_stacked(state.u, state.theta),
                                   dtype="<c16")
    _atomic_write(path, header, payload)


def _parse_header(blob, path):
    if len(blob) < _HEADER.size:
        raise TruncatedPayloadError(
            f"{path}: expected at least {_HEADER.size} header bytes, "
            f"got {len(blob)}"
        )
    magic, version, dim, modes, t, nu, kappa = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path}: format version {version}, expected {FORMAT_VERSION}"
        )
    if not (t >= 0 and math.isfinite(t)):
        raise SnapshotError(f"{path}: time t must be >= 0 and finite, got {t}")
    try:
        _check_size(dim, modes)
        PhysicalParams(nu, kappa)
    except ValueError as err:
        raise SnapshotError(f"{path}: {err}") from None
    return SnapshotHeader(version, dim, modes, t, nu, kappa)


def read_snapshot_header(path):
    """Header only — cheap way to learn dim/modes/t/nu/kappa of a file."""
    with open(path, "rb") as fh:
        blob = fh.read(_HEADER.size)
    return _parse_header(blob, path)


@functools.lru_cache(maxsize=8)
def _snapshot_grid(dim, modes):
    return make_grid(dim, modes)


def read_snapshot(path):
    """Read a snapshot back into a SimulationState.

    The stored grid is reconstructed from the header, and snapshots of
    the same dim and modes share one (read-only) grid object;
    ``step_index`` is not serialized and comes back as 0.  Every
    coefficient must be finite, the last-axis planes 0 and M/2 (where
    alone a half spectrum can break the symmetry) exactly Hermitian and
    the slots with label -M/2 empty, as in every state ``run`` writes:
    the fields hold the half spectrum of a real state only, so any
    other state would be misread.
    """
    with open(path, "rb") as fh:
        header = _parse_header(fh.read(_HEADER.size), path)
        # the payload length is checked before any grid or array is
        # built, so a corrupt header cannot ask for arrays of its size
        dim, modes = header.dim, header.modes
        shape = (dim + 1,) + _half_shape(dim, modes)
        expected = _HEADER.size + 16 * math.prod(shape)
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise TruncatedPayloadError(
                f"{path}: expected {expected} bytes "
                f"({dim}+1 fields of shape {shape[1:]}), got {size}"
            )
        coeffs = np.empty(shape, dtype="<c16")
        if fh.readinto(coeffs) != coeffs.nbytes:
            raise TruncatedPayloadError(f"{path}: file shrank while read")
    if not np.all(np.isfinite(coeffs)):
        raise SnapshotError(f"{path}: coefficients are not all finite")
    grid = _snapshot_grid(dim, modes)
    defect = _plane_defect(grid, coeffs)
    if defect != 0.0:
        raise SnapshotError(
            f"{path}: not the spectrum of a real state "
            f"(hermitian defect {defect:.3g})"
        )
    if any(np.any(slots) for slots in _nyquist_slots(grid, coeffs)):
        raise SnapshotError(
            f"{path}: content at label -{modes // 2}, where the "
            "spectrum of a real state is empty"
        )
    return SimulationState(*_unstack(grid, coeffs), header.t, 0)


# ----------------------------------------------------------------------
# diagnostics CSV


def format_diagnostics(records):
    """The CSV text for ``records``: header plus one row each, 17 digits."""
    lines = [",".join(DiagnosticsRecord.field_names())]
    for rec in records:
        lines.append(",".join("%.17g" % v for v in rec.as_tuple()))
    return "\n".join(lines) + "\n"


def write_diagnostics(records, path):
    """CSV with one row per record at 17 significant digits."""
    _atomic_write(path, format_diagnostics(records).encode("ascii"))


def read_diagnostics(path):
    """Parse a diagnostics CSV back into records."""
    names = DiagnosticsRecord.field_names()
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != names:
            raise ValueError(
                f"{path}: unexpected CSV header {header}, expected {names}"
            )
        return [DiagnosticsRecord(*map(float, row)) for row in reader]
