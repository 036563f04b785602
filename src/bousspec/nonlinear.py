"""Advection terms u . grad(v), computed two independent ways.

``convect_pseudospectral`` is the transform path: transform to
collocation space, multiply, transform back, with the 2/3-rule mask
applied to inputs and output so quadratic aliasing never reaches a
retained mode.  It works on the half spectrum with real-to-complex
transforms (those of ``irfftn``/``rfftn``, pruned of the masked
columns, and in 3D of the masked rows), so the collocation values are
real and the full output, rebuilt from its half, is Hermitian by
construction.  Its kernel, ``_advect``, holds for any u.

The time stepper has a kernel of its own, ``_flux_divergence``: its u
is divergence-free, so u . grad u = div(u u) and u . grad theta =
div(u theta), and the divergence form needs fewer transforms (3 fields
in and 5 out in 2D, against 8 and 3; 4 and 9 in 3D, against 15 and 4).
Both kernels run on the same pruned transforms and differ only in what
they multiply.

``convect_convolution`` is the oracle: the truncated convolution

    w_hat(k) = sum_{p+q=k, p and q resolved} i (q . u_hat(p)) v_hat(q)

summed directly, with no FFT and no mask.  It is exact on the retained
modes whenever the inputs are band-limited to half the grid, which is
what makes it a useful cross-check; it costs O(modes^2) and is guarded
to small grids.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .fields import (
    SpectralScalarField,
    SpectralVectorField,
    _from_half,
    enforce_constraints,
    leray_project,
)
from .grid import GridSpec, _read_only

__all__ = [
    "AliasingMode",
    "ConvectionResult",
    "convect_pseudospectral",
    "convect_convolution",
    "buoyancy",
    "CONVOLUTION_MODE_LIMIT",
]

CONVOLUTION_MODE_LIMIT = 4096


class AliasingMode(enum.Enum):
    DEALIASED_2_3 = "dealiased_2_3"
    NONE = "none"


@dataclass
class ConvectionResult:
    """Advection coefficients plus a tag saying how aliasing was handled."""

    field: SpectralVectorField | SpectralScalarField
    aliasing_mode: AliasingMode


def _check_grids(u, v, grid):
    if grid is not None and u.grid != grid:
        raise ValueError("u does not live on the supplied grid")
    if u.grid != v.grid:
        raise ValueError("u and v live on different grids")
    return u.grid


@functools.lru_cache(maxsize=8)
def _pruned(grid):
    """Index, mask and i k of the pruned half spectrum.

    The pruned half spectrum keeps the last-axis columns 0..cutoff and,
    in 3D, the axis -2 rows with |j| <= cutoff: the part of the half
    spectrum where a masked field can be nonzero.
    """
    c = grid.dealias_cutoff
    index = (Ellipsis, np.s_[: c + 1])
    if grid.dim == 3:
        rows = np.r_[0 : c + 1, grid.modes - c : grid.modes]
        index = (Ellipsis, rows, np.s_[: c + 1])
    mask = _read_only(grid.half_mask[index])
    return index, mask, _read_only(grid.half_ik_masked[index])


def _to_grid(grid, spec):
    """Collocation values (b, *grid.shape) of masked pruned half spectra
    (b, *pruned).

    The transforms of ``irfftn``, one axis at a time and in its order,
    pruned of what is zero (Orszag 1971; Markel 1971): the leading-axis
    inverse transforms skip the last-axis columns above the cutoff,
    which ``irfft`` pads back, and in 3D the first one, along axis -3,
    also skips the axis -2 rows above it.  Every transform that runs
    sees the same numbers as in ``irfftn`` of the full half spectra, so
    the result is the same to the last bit.
    """
    spec = np.fft.ifft(spec, axis=-grid.dim, norm="forward")
    if grid.dim == 3:
        # put back the axis -2 rows that the first transform skipped
        c = grid.dealias_cutoff
        lines = spec
        spec = np.empty(lines.shape[:-2] + (grid.modes, c + 1), dtype=complex)
        spec[_pruned(grid)[0]] = lines
        spec[..., c + 1 : grid.modes - c, :] = 0.0
        del lines
        spec = np.fft.ifft(spec, axis=-2, norm="forward")
    return np.fft.irfft(spec, n=grid.modes, axis=-1, norm="forward")


def _from_grid(grid, phys):
    """Pruned half spectra, unmasked, of collocation values: the inverse
    of :func:`_to_grid`.

    The transforms of ``rfftn``, in its order, computing only the
    last-axis columns up to the cutoff and, in the last one (along axis
    -3 in 3D), only the axis -2 rows up to it.  Each kept coefficient is
    bit-identical to ``rfftn``'s.
    """
    spec = np.fft.rfft(phys, axis=-1, norm="forward")
    spec = spec[..., : grid.dealias_cutoff + 1]
    if grid.dim == 3:
        spec = np.fft.fft(spec, axis=-2, norm="forward")
        spec = spec[_pruned(grid)[0]]
    return np.fft.fft(spec, axis=-grid.dim, norm="forward")


def _unprune(grid, spec):
    """Full half spectra of pruned ones, masked, with a zero mean mode."""
    index, mask, _ = _pruned(grid)
    out = np.zeros(spec.shape[:1] + grid.half_mask.shape, dtype=complex)
    out[index] = spec * mask
    out[(Ellipsis,) + grid.zero_index] = 0.0
    return out


def _advect(grid, u_half, comps_half):
    """Dealiased u . grad(c) for stacked components c, on half spectra.

    The kernel of :func:`convect_pseudospectral`; it holds for any u.
    ``u_half`` is (dim, *half) and ``comps_half`` (n, *half), both in
    the half-spectrum layout of ``GridSpec``.  One
    batched inverse transform takes the masked velocity and all n * dim
    masked gradients to the collocation points, one batched forward
    transform brings the n products back.  The result is masked, with a
    zero mean mode, and bit-identical to the same steps written with
    ``irfftn``/``rfftn`` on the full half spectra.
    """
    dim = grid.dim
    n = len(comps_half)
    index, mask, ik = _pruned(grid)
    spec = np.empty((dim + n * dim,) + mask.shape, dtype=complex)
    np.multiply(u_half[index], mask, out=spec[:dim])
    np.multiply(ik, comps_half[:, np.newaxis][index],
                out=spec[dim:].reshape((n, dim) + mask.shape))
    # each temporary is dropped once used, so that fewer large blocks
    # are live at once (a smaller peak, and fewer fresh pages per call)
    phys = _to_grid(grid, spec)
    del spec
    grads = phys[dim:].reshape((n, dim) + grid.shape)
    w = np.einsum("i...,ci...->c...", phys[:dim], grads)
    del phys, grads
    return _unprune(grid, _from_grid(grid, w))


@functools.lru_cache(maxsize=2)
def _flux_layout(dim):
    """The products the stepper's kernel transforms, u_i u_j for i <= j
    and then u_j theta, as (i, j) pairs for the first kind, and the
    (dim + 1, dim) array giving the position of u_c u_j (row c < dim)
    and of u_j theta (row dim) among them."""
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    rows = [[pairs.index((min(c, j), max(c, j))) for j in range(dim)]
            for c in range(dim)]
    rows.append([len(pairs) + j for j in range(dim)])
    return pairs, _read_only(np.array(rows))


def _flux_divergence(grid, y):
    """Dealiased div(u u) and div(u theta) for y = [u; theta] on the half
    spectrum: the stepper's kernel.

    For a divergence-free u these are u . grad u and u . grad theta
    (Canuto, Hussaini, Quarteroni & Zang, *Spectral Methods*, on the
    convective forms); for any other u each row c gains the dealiased
    c (div u).  One batched inverse transform takes the dim + 1 masked
    fields to the collocation points, one batched forward transform
    brings back the dim (dim + 1) / 2 products u_i u_j and the dim
    products u_j theta, and row c of the result is sum_j i k_j (u_c u_j)^
    (or (u_j theta)^).  Same layout as :func:`_advect`: masked, with a
    zero mean mode.
    """
    dim = grid.dim
    index, mask, ik = _pruned(grid)
    phys = _to_grid(grid, y[index] * mask)
    u, theta = phys[:dim], phys[dim]
    pairs, rows = _flux_layout(dim)
    products = np.empty((len(pairs) + dim,) + grid.shape)
    for p, (i, j) in enumerate(pairs):
        np.multiply(u[i], u[j], out=products[p])
    np.multiply(u, theta, out=products[len(pairs):])
    del phys, u, theta
    flux = _from_grid(grid, products)
    del products
    div = ik[0] * flux[rows[:, 0]]
    for j in range(1, dim):
        div += ik[j] * flux[rows[:, j]]
    return _unprune(grid, div)


def convect_pseudospectral(u: SpectralVectorField, v, grid: GridSpec = None):
    """Dealiased transform evaluation of u . grad(v).

    ``v`` may be a velocity or a scalar field.  Inputs are masked, the
    products are formed on the collocation grid by real transforms, and
    the result is masked again; it is rebuilt from its half spectrum, so
    it is zero-mean, Hermitian by construction and supported on the
    retained modes.
    """
    grid = _check_grids(u, v, grid)
    half = grid.half_slice
    if isinstance(v, SpectralVectorField):
        out = _advect(grid, u.coeffs[half], v.coeffs[half])
        field = SpectralVectorField(grid, _from_half(grid, out))
    else:
        out = _advect(grid, u.coeffs[half], v.coeffs[np.newaxis][half])
        field = SpectralScalarField(grid, _from_half(grid, out[0]))
    return ConvectionResult(field, AliasingMode.DEALIASED_2_3)


def convect_convolution(u: SpectralVectorField, v, grid: GridSpec = None):
    """Direct truncated-convolution evaluation of u . grad(v).

    Sums i (q . u_hat(p)) v_hat(q) over all resolved pairs p + q = k,
    dropping pairs whose sum leaves the grid.  No transforms are used
    anywhere, which keeps this path independent of the pseudospectral
    one.  Guarded to modes**dim <= 4096.
    """
    grid = _check_grids(u, v, grid)
    if grid.nmodes > CONVOLUTION_MODE_LIMIT:
        raise ValueError(
            f"direct convolution is limited to {CONVOLUTION_MODE_LIMIT} "
            f"modes, grid has {grid.nmodes}"
        )
    m = grid.modes
    d = grid.dim
    half = m // 2
    # work in lexicographic layout over labels j = a - half, a = 0..m-1,
    # so p + q = k is plain index arithmetic
    lex = (np.arange(m) + half) % m
    ix = np.ix_(*([lex] * d))
    U = np.stack([u.coeffs[i][ix] for i in range(d)])
    scalar = not isinstance(v, SpectralVectorField)
    if scalar:
        V = (v.coeffs[ix],)
    else:
        V = tuple(v.coeffs[i][ix] for i in range(d))
    labels = np.arange(m) - half

    out = [np.zeros(grid.shape, dtype=complex) for _ in V]
    nz = np.argwhere(np.any(U != 0.0, axis=0))
    for ap in nz:
        up = U[(slice(None),) + tuple(ap)]
        ksl = []
        qsl = []
        for a in ap:
            lo = max(0, a - half)
            hi = min(m - 1, a + half - 1)
            ksl.append(slice(lo, hi + 1))
            qsl.append(slice(lo - a + half, hi - a + half + 1))
        ksl, qsl = tuple(ksl), tuple(qsl)
        qdot = np.zeros(tuple(s.stop - s.start for s in qsl), dtype=complex)
        for axis in range(d):
            shape = [1] * d
            shape[axis] = -1
            qdot += labels[qsl[axis]].reshape(shape) * up[axis]
        for c, vc in enumerate(V):
            out[c][ksl] += 1j * qdot * vc[qsl]

    def unlex(arr):
        res = np.zeros(grid.shape, dtype=complex)
        res[ix] = arr
        return res

    if scalar:
        field = enforce_constraints(SpectralScalarField(grid, unlex(out[0])))
    else:
        field = enforce_constraints(
            SpectralVectorField(grid, np.stack([unlex(a) for a in out]))
        )
    return ConvectionResult(field, AliasingMode.NONE)


def buoyancy(theta: SpectralScalarField):
    """Divergence-free part of theta e_N (gravity along the last axis).

    The gradient part of the forcing is absorbed by the pressure, so the
    velocity equation only ever sees the Leray projection of theta e_N.
    """
    grid = theta.grid
    out = SpectralVectorField(grid)
    out.coeffs[-1] = theta.coeffs
    return leray_project(out)
