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
    _symmetrize_half,
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
    """Mask and i k of the pruned half spectrum, and its blocks.

    The pruned half spectrum keeps the last-axis columns 0..cutoff and,
    in 3D, the axis -2 rows with |j| <= cutoff: the part of the half
    spectrum where a masked field can be nonzero.  ``blocks`` pairs the
    index of each contiguous block of the pruned layout with the index
    of the same modes in the half spectrum (one block in 2D; in 3D the
    rows 0..cutoff and the rows m - cutoff..m - 1).
    """
    c, m = grid.dealias_cutoff, grid.modes
    blocks = ((np.s_[...], np.s_[..., : c + 1]),)
    if grid.dim == 3:
        blocks = ((np.s_[..., : c + 1, :], np.s_[..., : c + 1, : c + 1]),
                  (np.s_[..., c + 1 :, :], np.s_[..., m - c :, : c + 1]))

    def gather(half):
        return np.concatenate([half[h] for _, h in blocks], axis=-2)

    mask = _read_only(gather(grid.half_mask))
    return mask, _read_only(gather(grid.half_ik_masked)), blocks


class _Work:
    """The arrays that the pruned transforms of ``n_in`` fields to the
    grid and ``n_out`` fields back write into.

    A kernel fills ``spec_in`` (n_in, *pruned) with masked pruned half
    spectra and ``products`` (n_out, *grid.shape) with collocation
    values; :func:`_to_grid` and :func:`_from_grid` transform them
    through the other arrays, by the ``out=`` of the FFTs, so a kernel
    that keeps one ``_Work`` allocates no array of this size again.
    """

    def __init__(self, grid, n_in, n_out):
        m, c = grid.modes, grid.dealias_cutoff
        pruned = _pruned(grid)[0].shape
        lead = grid.shape[:-1]
        self.spec_in = np.empty((n_in,) + pruned, dtype=complex)
        self.lines = np.empty((n_in,) + pruned, dtype=complex)
        self.phys = np.empty((n_in,) + grid.shape)
        self.products = np.empty((n_out,) + grid.shape)
        self.half = np.empty((n_out,) + lead + (m // 2 + 1,), dtype=complex)
        self.cols = np.empty((n_out,) + lead + (c + 1,), dtype=complex)
        if grid.dim == 3:
            # the axis -2 rows that the pruned transforms skip stay zero
            self.rows = np.zeros((n_in,) + lead + (c + 1,), dtype=complex)
            self.cols_in = np.empty((n_in,) + lead + (c + 1,), dtype=complex)
            self.kept = np.empty((n_out,) + pruned, dtype=complex)
            self.spec_out = np.empty((n_out,) + pruned, dtype=complex)


def _to_grid(grid, work):
    """Collocation values ``work.phys`` (b, *grid.shape) of the masked
    pruned half spectra ``work.spec_in`` (b, *pruned).

    The transforms of ``irfftn``, one axis at a time and in its order,
    pruned of what is zero (Orszag 1971; Markel 1971): the leading-axis
    inverse transforms skip the last-axis columns above the cutoff,
    which ``irfft`` pads back, and in 3D the first one, along axis -3,
    also skips the axis -2 rows above it.  Every transform that runs
    sees the same numbers as in ``irfftn`` of the full half spectra, so
    the result is the same to the last bit.
    """
    spec = np.fft.ifft(work.spec_in, axis=-grid.dim, norm="forward",
                       out=work.lines)
    if grid.dim == 3:
        # put back the axis -2 rows that the first transform skipped
        for pruned, half in _pruned(grid)[2]:
            work.rows[half] = spec[pruned]
        spec = np.fft.ifft(work.rows, axis=-2, norm="forward",
                           out=work.cols_in)
    return np.fft.irfft(spec, n=grid.modes, axis=-1, norm="forward",
                        out=work.phys)


def _from_grid(grid, work):
    """Pruned half spectra, unmasked, of the collocation values
    ``work.products``: the inverse of :func:`_to_grid`.

    The transforms of ``rfftn``, in its order, computing only the
    last-axis columns up to the cutoff and, in the last one (along axis
    -3 in 3D), only the axis -2 rows up to it.  Each kept coefficient is
    bit-identical to ``rfftn``'s.
    """
    spec = np.fft.rfft(work.products, axis=-1, norm="forward",
                       out=work.half)
    spec = np.fft.fft(spec[..., : grid.dealias_cutoff + 1], axis=-2,
                      norm="forward", out=work.cols)
    if grid.dim == 3:
        for pruned, half in _pruned(grid)[2]:
            work.kept[pruned] = spec[half]
        spec = np.fft.fft(work.kept, axis=-3, norm="forward",
                          out=work.spec_out)
    return spec


def _prune(grid, half, out):
    """``out`` = the masked pruned part of half spectra ``half``."""
    mask, _, blocks = _pruned(grid)
    for pruned, block in blocks:
        np.multiply(half[block], mask[pruned], out=out[pruned])
    return out


def _unprune(grid, spec, out=None):
    """Full half spectra of pruned ones, masked, with a zero mean mode,
    written into ``out`` when given."""
    mask, _, blocks = _pruned(grid)
    if out is None:
        out = np.empty(spec.shape[:1] + grid.half_mask.shape, dtype=complex)
    out[...] = 0.0
    for pruned, half in blocks:
        np.multiply(spec[pruned], mask[pruned], out=out[half])
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
    _, ik, blocks = _pruned(grid)
    work = _Work(grid, dim + n * dim, n)
    spec = work.spec_in
    _prune(grid, u_half, spec[:dim])
    grads = spec[dim:].reshape((n, dim) + ik.shape[1:])
    for pruned, half in blocks:
        np.multiply(ik[pruned], comps_half[:, np.newaxis][half],
                    out=grads[pruned])
    phys = _to_grid(grid, work)
    grads = phys[dim:].reshape((n, dim) + grid.shape)
    np.einsum("i...,ci...->c...", phys[:dim], grads, out=work.products)
    return _unprune(grid, _from_grid(grid, work))


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


def _flux_work(grid):
    """The ``_Work`` of :func:`_flux_divergence` on ``grid``."""
    pairs, _ = _flux_layout(grid.dim)
    return _Work(grid, grid.dim + 1, len(pairs) + grid.dim)


def _flux_divergence(grid, y, work=None, out=None):
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
    zero mean mode.  A caller that evaluates it repeatedly passes one
    ``work`` (from :func:`_flux_work`) and ``out``, shaped like ``y``,
    for the result, and the call then allocates no large array.
    """
    dim = grid.dim
    _, ik, _ = _pruned(grid)
    if work is None:
        work = _flux_work(grid)
    _prune(grid, y, work.spec_in)
    phys = _to_grid(grid, work)
    u, theta = phys[:dim], phys[dim]
    pairs, rows = _flux_layout(dim)
    products = work.products
    for p, (i, j) in enumerate(pairs):
        np.multiply(u[i], u[j], out=products[p])
    np.multiply(u, theta, out=products[len(pairs):])
    flux = _from_grid(grid, work)
    # spec_in and lines are free once the inverse transforms have run:
    # the divergence collects in spec_in, each term in lines (mode
    # "clip" lets np.take write into its out without a buffer)
    div, term = work.spec_in, work.lines
    np.take(flux, rows[:, 0], axis=0, out=term, mode="clip")
    np.multiply(ik[0], term, out=div)
    for j in range(1, dim):
        np.take(flux, rows[:, j], axis=0, out=term, mode="clip")
        np.multiply(ik[j], term, out=term)
        np.add(div, term, out=div)
    return _unprune(grid, div, out)


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
        field = SpectralVectorField(
            grid, _from_half(grid, _symmetrize_half(grid, out)))
    else:
        out = _advect(grid, u.coeffs[half], v.coeffs[np.newaxis][half])
        field = SpectralScalarField(
            grid, _from_half(grid, _symmetrize_half(grid, out[0])))
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
