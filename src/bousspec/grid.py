"""Spectral grid bookkeeping for periodic boxes [0, 2*pi]^N, N = 2 or 3.

Fields are stored as full M^N arrays of Fourier coefficients in the
standard FFT layout (integer frequencies 0, 1, ..., M/2-1, -M/2, ..., -1
along every axis).  The grid object precomputes everything the operators
need: integer wavevector meshes, |j|^2, the 2/3-rule dealiasing mask, the
index maps used to conjugate-reflect coefficients and to serialize them in
a fixed lexicographic mode order, and the same meshes restricted to the
half spectrum that real-to-complex transforms work on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["GridSpec", "make_grid", "TWO_PI"]

TWO_PI = 2.0 * np.pi

# exp(27.6) ~ 9.7e11, so Gevrey weights stay below 1e12 whenever
# tau <= 27.6 / k_max.  Larger tau would let the weighted norms overflow
# long before they say anything meaningful about the spectrum.
_TAU_CAP_EXPONENT = 27.6


@dataclass(frozen=True, eq=False)
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

    The dealiasing mask keeps |j_i| <= floor((2/3)(modes/2)) = modes // 3
    per axis (the 2/3 rule), which makes quadratic products exact on the
    retained modes.

    Derived attributes
    ------------------
    freq1d : (modes,) int array of per-axis frequencies in FFT layout.
    k : (dim, modes, ..., modes) float array, integer wavevector mesh.
    k2 : |j|^2 mesh;  kmag : |j| mesh.
    k_over_k2 : j / |j|^2 mesh, zero at j = 0 (computed on first use).
    dealias_cutoff : int, per-axis bound of the mask.
    dealias_mask : boolean mesh, True on retained modes.
    nmodes : total number of wavevectors, modes**dim.
    tau_cap : largest Gevrey radius representable without overflow.
    half_slice : index selecting the half spectrum (last-axis labels
        0..modes/2, the ``rfftn`` layout) of a coefficient array.
    half_k, half_k2, half_kmag, half_mask : the meshes above restricted
        to the half spectrum; ``half_k_over_k2`` and ``half_k_complex``
        are computed on first use.
    """

    dim: int
    modes: int

    def __post_init__(self):
        _check_size(self.dim, self.modes)

        m = self.modes
        freq1d = np.fft.fftfreq(m, d=1.0 / m).astype(np.int64)
        shape = (m,) * self.dim
        k = np.zeros((self.dim,) + shape)
        for axis in range(self.dim):
            ax_shape = [1] * self.dim
            ax_shape[axis] = m
            k[axis] = freq1d.reshape(ax_shape)
        k2 = np.sum(k * k, axis=0)

        # integer arithmetic: floor((2/3)(m/2)) for even m, no float rounding
        cutoff = m // 3
        mask = np.ones(shape, dtype=bool)
        for axis in range(self.dim):
            mask &= np.abs(k[axis]) <= cutoff

        # index map i -> (-i) mod m implements j -> -j per axis
        conj_idx = (-np.arange(m)) % m
        # serialization order: j = -m/2+1, ..., 0, ..., m/2 per axis,
        # where the +m/2 label reads the (aliased) -m/2 slot
        lex_idx = (np.arange(m) - m // 2 + 1) % m

        object.__setattr__(self, "freq1d", freq1d)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "kmag", np.sqrt(k2))
        object.__setattr__(self, "dealias_cutoff", cutoff)
        object.__setattr__(self, "dealias_mask", mask)
        object.__setattr__(self, "nmodes", m**self.dim)
        object.__setattr__(self, "zero_index", (0,) * self.dim)
        object.__setattr__(self, "_conj_ix", np.ix_(*([conj_idx] * self.dim)))
        object.__setattr__(self, "_lex_ix", np.ix_(*([lex_idx] * self.dim)))
        kmax = np.sqrt(self.dim) * (m // 2)
        object.__setattr__(self, "tau_cap", _TAU_CAP_EXPONENT / kmax)

        # grids are shared (``read_snapshot`` keeps one per size), so no
        # caller may write into their meshes or the half-spectrum views
        # taken from them below
        for value in (freq1d, k, k2, self.kmag, mask):
            value.flags.writeable = False

        # real-transform layout: the half spectrum keeps last-axis labels
        # 0..m/2 (what rfftn returns); the other labels m/2+1..m-1 hold
        # the conjugates of their reflections
        half = m // 2
        reflect = [conj_idx] * (self.dim - 1)
        object.__setattr__(self, "half_slice", np.s_[..., : half + 1])
        object.__setattr__(self, "half_k", k[..., : half + 1])
        object.__setattr__(self, "half_k2", k2[..., : half + 1])
        object.__setattr__(self, "half_kmag", self.kmag[..., : half + 1])
        object.__setattr__(self, "half_mask", mask[..., : half + 1])
        object.__setattr__(
            self, "_upper_ix", np.ix_(*reflect, np.arange(half - 1, 0, -1))
        )
        # last-axis labels 0 and m/2 reflect onto themselves
        object.__setattr__(self, "_plane_ix", np.ix_(*reflect, np.arange(2)))

    # computed on first use: only grids that operators run on need these,
    # not the ones ``read_snapshot`` builds
    @functools.cached_property
    def k_over_k2(self):
        """j / |j|^2 mesh, zero at j = 0 (the Leray projection's weight)."""
        return _read_only(self.k / np.where(self.k2 == 0, 1.0, self.k2))

    @functools.cached_property
    def half_k_over_k2(self):
        """``k_over_k2`` on the half spectrum."""
        return self.k_over_k2[self.half_slice]

    @functools.cached_property
    def half_k_complex(self):
        """``half_k`` as complex numbers, whose products with coefficients
        need no cast."""
        return _read_only(self.half_k.astype(complex))

    # grids carry large derived arrays, so equality compares the defining
    # scalars only
    def __eq__(self, other):
        if not isinstance(other, GridSpec):
            return NotImplemented
        return self.dim == other.dim and self.modes == other.modes

    def __hash__(self):
        return hash((self.dim, self.modes))

    @property
    def shape(self):
        """Shape of a scalar coefficient array."""
        return (self.modes,) * self.dim

    @property
    def vshape(self):
        """Shape of a vector coefficient array (component axis first)."""
        return (self.dim,) + self.shape

    def wavevectors(self):
        """Integer wavevectors in the fixed lexicographic order.

        Returns an (nmodes, dim) int array enumerating j over
        {-modes/2+1, ..., modes/2}^dim, the order used when coefficients
        are serialized.
        """
        m = self.modes
        labels = np.arange(m) - m // 2 + 1
        grids = np.meshgrid(*([labels] * self.dim), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def to_lex_order(self, coeffs):
        """Flatten coefficient arrays into lexicographic order.

        ``coeffs`` has shape ``(*lead, *self.shape)``; the result has
        shape ``(*lead, nmodes)``, one flattened array per leading index
        (a vector's components, say), each in the order of
        :meth:`wavevectors`.
        """
        lead = coeffs.shape[: coeffs.ndim - self.dim]
        return coeffs[(Ellipsis,) + self._lex_ix].reshape(lead + (-1,))

    def from_lex_order(self, flat):
        """Inverse of :meth:`to_lex_order`: ``(*lead, nmodes)`` flattened
        arrays back to coefficient arrays of shape ``(*lead, *self.shape)``."""
        flat = np.asarray(flat, dtype=complex)
        lead = flat.shape[:-1]
        out = np.empty(lead + self.shape, dtype=complex)
        out[(Ellipsis,) + self._lex_ix] = flat.reshape(lead + self.shape)
        return out


def _read_only(array):
    array.flags.writeable = False
    return array


def _check_size(dim, modes):
    """Raise ValueError unless dim is 2 or 3 and modes is even and >= 4."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if modes < 4 or modes % 2 != 0:
        raise ValueError(f"modes must be even and >= 4, got {modes}")


def make_grid(dim, modes):
    """Build a :class:`GridSpec`; see the class docstring for the contract."""
    return GridSpec(dim=dim, modes=modes)
