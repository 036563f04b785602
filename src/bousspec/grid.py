"""Spectral grid bookkeeping for periodic boxes [0, 2*pi]^N, N = 2 or 3.

Fields are real, so they are stored as the half spectrum that
real-to-complex transforms return (``rfftn`` layout): the standard FFT
layout (integer frequencies 0, 1, ..., M/2-1, -M/2, ..., -1) along every
axis but the last, which keeps the labels 0..M/2 only; a coefficient at
another last-axis label is the conjugate of its reflection's.  The grid
object precomputes everything the operators need on that layout:
integer wavevector meshes, |j|^2, the 2/3-rule dealiasing mask and the
index map that reflects the two last-axis planes holding both j and -j.
Snapshot files hold the half spectrum in this layout too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["GridSpec", "make_grid", "TWO_PI"]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GridSpec:
    """Fourier grid for [0, 2*pi]^dim with ``modes`` points per axis.

    Parameters
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    modes : int
        Number of grid points (and retained integer frequencies) per
        axis.  Must be even and at least 4; the resolved wavenumbers per
        axis are -modes/2+1 .. modes/2, with the Nyquist slot shared by
        +modes/2 and -modes/2.

    The dealiasing mask keeps |j_i| <= c per axis, c = (modes - 1) // 3
    the largest integer with 3c < modes (the 2/3 rule).  A product of
    two retained modes has |j_i| <= 2c, and its alias j_i -+ modes lies
    at least modes - 2c > c from zero, outside the mask, so quadratic
    products are exact on the retained modes.  Unless 3 divides modes,
    c = modes // 3 = floor((2/3)(modes/2)).

    Grids compare equal when dim and modes are equal; the derived arrays
    are not dataclass fields.

    Derived attributes
    ------------------
    freq1d : (modes,) int array of per-axis frequencies in FFT layout.
    shape, vshape : shapes of a scalar and a vector coefficient array,
        the half spectrum (modes, ..., modes, modes/2 + 1).
    physical_shape : shape of the collocation values, (modes,) * dim.
    k : (dim, *shape) float array, integer wavevector mesh; the last-axis
        label modes/2 reads -modes/2, as in the FFT layout.
    k2 : |j|^2 mesh;  kmag : |j| mesh.
    k_over_k2 : j / |j|^2 mesh, zero at j = 0, and ``k_complex``, ``k``
        as complex numbers (both computed on first use).
    dealias_cutoff : int, per-axis bound of the mask.
    dealias_mask : boolean mesh, True on retained modes.
    nmodes : total number of wavevectors, modes**dim.
    """

    dim: int
    modes: int

    def __post_init__(self):
        _check_size(self.dim, self.modes)

        m = self.modes
        freq1d = np.fft.fftfreq(m, d=1.0 / m).astype(np.int64)
        shape = _half_shape(self.dim, m)
        k = np.zeros((self.dim,) + shape)
        for axis in range(self.dim):
            ax_shape = [1] * self.dim
            ax_shape[axis] = shape[axis]
            k[axis] = freq1d[: shape[axis]].reshape(ax_shape)
        k2 = np.sum(k * k, axis=0)

        # integer arithmetic, no float rounding: the largest c with 3c < m
        cutoff = (m - 1) // 3
        mask = np.ones(shape, dtype=bool)
        for axis in range(self.dim):
            mask &= np.abs(k[axis]) <= cutoff

        object.__setattr__(self, "freq1d", freq1d)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "vshape", (self.dim,) + shape)
        object.__setattr__(self, "physical_shape", (m,) * self.dim)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "kmag", np.sqrt(k2))
        object.__setattr__(self, "dealias_cutoff", cutoff)
        object.__setattr__(self, "dealias_mask", mask)
        object.__setattr__(self, "nmodes", m**self.dim)
        object.__setattr__(self, "zero_index", (0,) * self.dim)

        # grids are shared (``read_snapshot`` keeps one per size), so no
        # caller may write into their meshes
        for value in (freq1d, k, k2, self.kmag, mask):
            value.flags.writeable = False

        # index map i -> (-i) mod m implements j -> -j on the leading
        # axes; the last-axis labels 0 and m/2 reflect onto themselves
        reflect = [(-np.arange(m)) % m] * (self.dim - 1)
        object.__setattr__(self, "_plane_ix", np.ix_(*reflect, np.arange(2)))

    # computed on first use: only grids that operators run on need these,
    # not the ones ``read_snapshot`` builds
    @functools.cached_property
    def k_over_k2(self):
        """j / |j|^2 mesh, zero at j = 0 (the Leray projection's weight)."""
        return _read_only(self.k / np.where(self.k2 == 0, 1.0, self.k2))

    @functools.cached_property
    def k_complex(self):
        """``k`` as complex numbers, whose products with coefficients
        need no cast."""
        return _read_only(self.k.astype(complex))


def _read_only(array):
    array.flags.writeable = False
    return array


def _half_shape(dim, modes):
    """Shape of one field's half spectrum, (modes, ..., modes/2 + 1)."""
    return (modes,) * (dim - 1) + (modes // 2 + 1,)


def _check_size(dim, modes):
    """Raise ValueError unless dim is 2 or 3 and modes is even and >= 4."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if modes < 4 or modes % 2 != 0:
        raise ValueError(f"modes must be even and >= 4, got {modes}")


def make_grid(dim, modes):
    """Build a :class:`GridSpec`; see the class docstring for the contract."""
    return GridSpec(dim=dim, modes=modes)
