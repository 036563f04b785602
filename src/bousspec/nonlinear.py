"""Advection terms u . grad(v), computed two independent ways.

``convect_pseudospectral`` is the transform path in its plain form:
mask the inputs, ``irfftn`` to the collocation points, multiply,
``rfftn`` back and mask the output, so quadratic aliasing never
reaches a retained mode.  Fields are half spectra, so the collocation
values are real and so is the output; it holds for any u.

The time stepper runs the one production kernel, ``_projected_rhs``,
which returns its whole right-hand side but diffusion: its u is
divergence-free, so u . grad u = div(u u) and u . grad theta =
div(u theta), and the Leray projection P removes the gradient
div(u_N^2 I), so the velocity needs only the traceless flux
u u - u_N^2 I.  That takes 3 fields in and 4 out in 2D, against 8 and
3 for the advective form, and 4 and 8 in 3D, against 15 and 4.  The
divergence and P act together as one fixed map per mode, and the
projected buoyancy P(theta e_N) as one fixed real vector per mode, so
the kernel needs no separate projection.  It runs on the transforms of
``irfftn``/``rfftn`` pruned of the masked columns and, in 3D, of the
masked rows (Orszag 1971; Markel 1971), which give the same bits.

``convect_convolution`` is the oracle: the truncated convolution

    w_hat(k) = sum_{p+q=k, p and q resolved} i (q . u_hat(p)) v_hat(q)

summed directly over the full spectra of the inputs, rebuilt from
their halves, with no FFT and no mask.  It is exact on the retained
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
    _constrain,
    _from_half,
    _real_half,
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
    """Mask of the pruned half spectrum, and its blocks.

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
    return _read_only(_gather(blocks, grid.dealias_mask)), blocks


def _gather(blocks, half):
    """The pruned layout of half spectra ``half`` (see :func:`_pruned`)."""
    return np.concatenate([half[h] for _, h in blocks], axis=-2)


def _shared(*arrays):
    """One view per (shape, dtype) of ``arrays``, all of one buffer that
    is large enough for the largest: for arrays whose lifetimes do not
    overlap."""
    sizes = [int(np.prod(shape)) for shape, _ in arrays]
    nbytes = max(n * np.dtype(dtype).itemsize
                 for n, (_, dtype) in zip(sizes, arrays))
    buffer = np.empty(-(-nbytes // 16), dtype=complex)
    return [buffer.view(dtype)[:n].reshape(shape)
            for n, (shape, dtype) in zip(sizes, arrays)]


class _Work:
    """The arrays that the pruned transforms of :func:`_projected_rhs`
    write into: n_in = dim + 1 fields [u; theta] to the grid, and its
    n_out products (:func:`_traceless_pairs`, then u_j theta) back.

    The kernel fills ``spec_in`` (n_in, *pruned) with masked pruned half
    spectra and ``products`` (n_out, *grid.physical_shape) with collocation
    values; :func:`_to_grid` and :func:`_from_grid` transform them
    through the other arrays, by the ``out=`` of the FFTs, so a caller
    that keeps one ``_Work`` allocates no array of this size again.
    Arrays that a transform pair holds at different times are views of
    one buffer, so once the forward transforms have run ``spec_in`` and
    ``spare`` (n_in, *pruned) are free for the kernel.
    """

    def __init__(self, grid):
        n_in = grid.dim + 1
        n_out = len(_traceless_pairs(grid.dim)) + grid.dim
        c = grid.dealias_cutoff
        pruned = _pruned(grid)[0].shape
        points = grid.physical_shape
        cols = points[:-1] + (c + 1,)
        # three buffers, each holding its arrays one after another in the
        # order of use; the 2D transforms use no kept, spec_out, cols_in
        # or rows
        self.spec_in, self.phys, self.half, self.kept = _shared(
            ((n_in,) + pruned, complex), ((n_in,) + points, float),
            ((n_out,) + grid.shape, complex), ((n_out,) + pruned, complex))
        self.lines, self.cols_in, self.products, self.spare = _shared(
            ((n_in,) + pruned, complex), ((n_in,) + cols, complex),
            ((n_out,) + points, float), ((n_in,) + pruned, complex))
        self.cols, self.spec_out = _shared(((n_out,) + cols, complex),
                                           ((n_out,) + pruned, complex))
        if grid.dim == 3:
            # the axis -2 rows that the pruned transforms skip stay zero
            self.rows = np.zeros((n_in,) + cols, dtype=complex)


def _to_grid(grid, work):
    """Collocation values ``work.phys`` (b, *grid.physical_shape) of the masked
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
        for pruned, half in _pruned(grid)[1]:
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
        for pruned, half in _pruned(grid)[1]:
            work.kept[pruned] = spec[half]
        spec = np.fft.fft(work.kept, axis=-3, norm="forward",
                          out=work.spec_out)
    return spec


def _prune(grid, half, out):
    """``out`` = the masked pruned part of half spectra ``half``."""
    mask, blocks = _pruned(grid)
    for pruned, block in blocks:
        np.multiply(half[block], mask[pruned], out=out[pruned])
    return out


@functools.lru_cache(maxsize=2)
def _traceless_pairs(dim):
    """(i, j) of the velocity products of :func:`_projected_rhs`, in
    order: (i, i) for i < dim - 1, standing for u_i u_i - u_N u_N with
    u_N the last component, then (i, j) for i < j, standing for
    u_i u_j."""
    return tuple([(i, i) for i in range(dim - 1)]
                 + [(i, j) for i in range(dim) for j in range(i + 1, dim)])


@functools.lru_cache(maxsize=8)
def _projection_maps(grid):
    """The fixed per-mode maps of :func:`_projected_rhs` on ``grid``.

    ``velocity`` (dim, n, *pruned) maps the spectra of the n products
    of :func:`_traceless_pairs` to the velocity rows: with E_p the
    symmetric unit tensor of product p (e_i e_i, or e_i e_j + e_j e_i),
    column p is -P(i k . E_p), zero off the retained modes, so row c of
    -P div T is sum_p velocity[c, p] T_p^.  ``scalar`` (dim, *pruned)
    is -i k on the retained modes.  ``lift`` (dim, *half) is the real
    b = e_N - k k_N / |k|^2 (e_N at k = 0), held as complex numbers:
    P(theta e_N) = b theta.
    """
    mask, blocks = _pruned(grid)
    k = _gather(blocks, grid.k)
    k_over_k2 = _gather(blocks, grid.k_over_k2)
    pairs = _traceless_pairs(grid.dim)
    velocity = np.zeros((grid.dim, len(pairs)) + mask.shape, dtype=complex)
    for p, (i, j) in enumerate(pairs):
        column = np.zeros_like(k)  # E_p k
        column[i] = k[j]
        column[j] = k[i]
        # its Leray projection, v - k (k / |k|^2 . v), times -i
        column -= k * np.sum(k_over_k2 * column, axis=0)
        velocity[:, p].imag = -column * mask
    lift = -grid.k * grid.k_over_k2[-1]
    lift[-1] += 1.0
    return (_read_only(velocity), _read_only(-(1j * (k * mask))),
            _read_only(lift.astype(complex)))


def _projected_rhs(grid, y, work=None, out=None):
    """[P(theta e_N - u . grad u); -(u . grad theta)] for y = [u; theta]
    on the half spectrum, with u divergence-free: the stepper's
    right-hand side without diffusion.

    For a divergence-free u, u . grad u = div(u u) and u . grad theta =
    div(u theta) on the dealiased products (Canuto, Hussaini,
    Quarteroni & Zang, *Spectral Methods*, on the convective forms),
    and P removes the gradient div(u_N^2 I), so P div(u u) = P div T
    for the traceless flux T = u u - u_N^2 I.  One batched inverse
    transform takes the dim + 1 masked fields to the collocation
    points, one batched forward transform brings back the
    dim (dim + 1) / 2 - 1 products of T and the dim products u_j theta
    (3 in and 4 out in 2D, 4 and 8 in 3D), and the divergence and the
    projection act as one fixed map per mode (:func:`_projection_maps`)
    on the pruned half spectrum.  The projected buoyancy b theta covers
    the whole half spectrum; the nonlinear part is masked, with a zero
    mean mode.  For any other u the velocity rows gain -P(u div u) and
    the theta row -(theta div u).  A caller that evaluates it
    repeatedly passes one ``work`` (a ``_Work(grid)``) and
    ``out``, shaped like ``y`` and not ``y`` itself, for the result, and
    the call then allocates no large array.
    """
    dim = grid.dim
    velocity, scalar, lift = _projection_maps(grid)
    pairs = _traceless_pairs(dim)
    n = len(pairs)
    if work is None:
        work = _Work(grid)
    if out is None:
        out = np.empty_like(y)
    _prune(grid, y, work.spec_in)
    phys = _to_grid(grid, work)
    u, theta = phys[:dim], phys[dim]
    products = work.products
    # u_N^2 waits in the slot of the last u_j theta, which is written last
    np.multiply(u[-1], u[-1], out=products[-1])
    np.multiply(u[:-1], u[:-1], out=products[: dim - 1])
    np.subtract(products[: dim - 1], products[-1], out=products[: dim - 1])
    for p in range(dim - 1, n):
        i, j = pairs[p]
        np.multiply(u[i], u[j], out=products[p])
    np.multiply(u, theta, out=products[n:])
    flux = _from_grid(grid, work)
    # the nonlinear part collects in spec_in, each term in spare
    part, term = work.spec_in, work.spare[:dim]
    np.multiply(velocity[:, 0], flux[0], out=part[:dim])
    for p in range(1, n):
        np.multiply(velocity[:, p], flux[p], out=term)
        np.add(part[:dim], term, out=part[:dim])
    np.multiply(scalar, flux[n:], out=term)
    np.sum(term, axis=0, out=part[dim])
    np.multiply(lift, y[dim], out=out[:dim])
    out[dim] = 0.0
    for pruned, half in _pruned(grid)[1]:
        np.add(out[half], part[pruned], out=out[half])
    return out


def convect_pseudospectral(u: SpectralVectorField, v, grid: GridSpec = None):
    """Dealiased transform evaluation of u . grad(v).

    ``v`` may be a velocity or a scalar field.  The velocity and the
    gradients of ``v`` are masked, taken to the collocation points by one
    ``irfftn``, multiplied there, and brought back by one ``rfftn``; the
    result is masked again and constrained, so it is real, zero-mean and
    supported on the retained modes.
    """
    grid = _check_grids(u, v, grid)
    mask, dim = grid.dealias_mask, grid.dim
    vector = isinstance(v, SpectralVectorField)
    comps = v.coeffs if vector else v.coeffs[np.newaxis]
    grads = 1j * grid.k * comps[:, np.newaxis]
    spec = np.concatenate([u.coeffs, grads.reshape((-1,) + grid.shape)])
    axes = tuple(range(-dim, 0))
    phys = np.fft.irfftn(mask * spec, s=grid.physical_shape, axes=axes,
                         norm="forward")
    products = np.einsum(
        "i...,ci...->c...", phys[:dim],
        phys[dim:].reshape((len(comps), dim) + grid.physical_shape))
    out = _constrain(grid, mask * np.fft.rfftn(products, axes=axes,
                                               norm="forward"))
    field = (SpectralVectorField(grid, out) if vector
             else SpectralScalarField(grid, out[0]))
    return ConvectionResult(field, AliasingMode.DEALIASED_2_3)


def convect_convolution(u: SpectralVectorField, v, grid: GridSpec = None):
    """Direct truncated-convolution evaluation of u . grad(v).

    Sums i (q . u_hat(p)) v_hat(q) over all resolved pairs p + q = k of
    the full spectra, dropping pairs whose sum leaves the grid, and
    returns the half spectrum of the real part, constrained.  No
    transforms are used anywhere, which keeps this path independent of
    the pseudospectral one.  Guarded to modes**dim <= 4096.
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
    ix = (Ellipsis,) + np.ix_(*([lex] * d))
    U = _from_half(grid, u.coeffs)[ix]
    V = _from_half(grid, v.coeffs.reshape((-1,) + grid.shape))[ix]
    labels = np.arange(m) - half

    out = np.zeros(V.shape, dtype=complex)
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
        ksl, qsl = (Ellipsis, *ksl), (Ellipsis, *qsl)
        qdot = np.zeros(tuple(s.stop - s.start for s in qsl[1:]),
                        dtype=complex)
        for axis in range(d):
            shape = [1] * d
            shape[axis] = -1
            qdot += labels[qsl[axis + 1]].reshape(shape) * up[axis]
        out[ksl] += 1j * qdot * V[qsl]

    full = np.zeros_like(out)
    full[ix] = out
    real = _constrain(grid, _real_half(grid, full))
    field = (SpectralVectorField(grid, real)
             if isinstance(v, SpectralVectorField)
             else SpectralScalarField(grid, real[0]))
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
