"""Advection terms u . grad(v), computed two independent ways.

``convect_pseudospectral`` is the transform path in its plain form:
mask the inputs, ``irfftn`` to the collocation points, multiply,
``rfftn`` back and mask the output, so quadratic aliasing never
reaches a retained mode.  Fields are half spectra, so the collocation
values are real and so is the output; it holds for any u.

The time stepper runs the one production kernel, ``_core_rhs``, which
returns its whole right-hand side but diffusion on the modes the 2/3
rule retains, held in a compact core layout: 2c + 1 rows (labels 0..c,
then -c..-1) along each leading axis and the c + 1 last-axis columns
0..c, with c = ``dealias_cutoff``.  Off those modes the right-hand side
is exactly [b theta; 0], b = P e_N, which the stepper integrates without
the kernel; ``_projected_rhs`` is the kernel on the whole half spectrum,
for ``rhs_full`` and the tests.  Its u is divergence-free, so
u . grad u = div(u u) and u . grad theta = div(u theta), and the Leray
projection P removes the gradient div(u_N^2 I), so the velocity needs
only the traceless flux u u - u_N^2 I.  That takes 3 fields in and 4
out in 2D, against 8 and 3 for the advective form, and 4 and 8 in 3D,
against 15 and 4.  The divergence and P act together as one fixed map
per retained mode, and the projected buoyancy P(theta e_N) as one fixed
real vector per mode, so the kernel needs no separate projection.  It
runs on the transforms of ``irfftn``/``rfftn`` pruned of the masked
columns and, in 3D, of the masked rows (Orszag 1971; Markel 1971),
which give the same bits; the core goes in by block copies into arrays
whose masked rows stay zero, so no mask is multiplied.

``convect_convolution`` is the oracle: the truncated convolution

    w_hat(k) = sum_{p+q=k, p and q resolved} i (q . u_hat(p)) v_hat(q)

summed directly over the full spectra of the inputs, rebuilt from
their halves, with no FFT and no mask.  It is exact on the retained
modes whenever the inputs are band-limited to half the grid, which is
what makes it a useful cross-check (ACCEPTANCE 3 and ``bousspec
oracle-check`` hold the production kernel to it); it costs O(modes^2)
and is guarded to small grids.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .fields import (
    SpectralScalarField,
    SpectralVectorField,
    _check_grid,
    _constrain,
    _from_half,
    _real_half,
    leray_project,
)
from .grid import GridSpec, _read_only

__all__ = [
    "ConvectionResult",
    "convect_pseudospectral",
    "convect_convolution",
    "buoyancy",
    "CONVOLUTION_MODE_LIMIT",
]

CONVOLUTION_MODE_LIMIT = 4096


@dataclass
class ConvectionResult:
    """Advection coefficients.  The wrapper is kept because the
    benchmark's workloads read ``.field``."""

    field: SpectralVectorField | SpectralScalarField


def _core_shape(grid):
    """Shape of one field's retained modes in the core layout: 2c + 1
    rows along each leading axis, c + 1 last-axis columns, with
    c = ``grid.dealias_cutoff``."""
    c = grid.dealias_cutoff
    return (2 * c + 1,) * (grid.dim - 1) + (c + 1,)


def _retained_rows(grid):
    """(core, half) row slices of one leading axis: the core holds the
    labels 0..c and then -c..-1, the FFT layout of length 2c + 1, and
    the half spectrum holds them in rows 0..c and m - c..m - 1."""
    c, m = grid.dealias_cutoff, grid.modes
    return ((np.s_[: c + 1], np.s_[: c + 1]),
            (np.s_[c + 1 :], np.s_[m - c :]))


def _core_blocks(grid):
    """Index pairs (core, half) of the contiguous blocks of the retained
    modes, the modes the 2/3 rule keeps: one block per choice of row
    slice on each leading axis (2 in 2D, 4 in 3D), with the last-axis
    columns 0..c."""
    cols = np.s_[: grid.dealias_cutoff + 1]
    return tuple(
        ((Ellipsis,) + tuple(r[0] for r in rows) + (np.s_[:],),
         (Ellipsis,) + tuple(r[1] for r in rows) + (cols,))
        for rows in itertools.product(_retained_rows(grid),
                                      repeat=grid.dim - 1))


def _core(grid, half):
    """The retained modes of half spectra ``half`` (leading axes kept),
    in the core layout of :func:`_core_shape`."""
    lead = half.shape[: half.ndim - grid.dim]
    out = np.empty(lead + _core_shape(grid), dtype=half.dtype)
    for core, block in _core_blocks(grid):
        out[core] = half[block]
    return out


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
    """Everything :func:`_core_rhs` needs on one grid, bound once: the
    per-mode maps of :func:`_projection_maps` on the core, the row
    slices of the core, and the arrays that the pruned transforms write
    into, n_in = dim + 1 fields [u; theta] to the grid and their n_out
    products (:func:`_traceless_pairs`, then u_j theta) back.

    ``spec_in`` (n_in, m, *core[1:]) is the core with the masked rows of
    axis -dim put back as zeros, and in 3D ``rows_in`` holds the
    transformed lines with the masked rows of axis -2 as zeros; only the
    retained rows of both are ever written, so no mask is applied.  The
    other arrays are written by the ``out=`` of the FFTs, so a caller
    that keeps one ``_Work`` allocates no array of this size again, and
    arrays that a call holds at different times are views of one buffer.
    """

    def __init__(self, grid):
        dim, c = grid.dim, grid.dealias_cutoff
        self.dim, self.modes, self.cutoff = dim, grid.modes, c
        self.pairs = _traceless_pairs(dim)
        self.rows = _retained_rows(grid)
        self.velocity, self.scalar, lift = _projection_maps(grid)[:3]
        self.lift = _core(grid, lift)
        n_in, n_out = dim + 1, len(self.pairs) + dim
        core = _core_shape(grid)
        padded = (grid.modes,) + core[1:]
        points = grid.physical_shape
        cols = points[:-1] + (c + 1,)
        self.spec_in = np.zeros((n_in,) + padded, dtype=complex)
        if dim == 3:
            self.rows_in = np.zeros((n_in,) + cols, dtype=complex)
        # three buffers, each holding its arrays one after another in the
        # order of use; the 2D transforms use no kept, cols_in or
        # spec_out
        self.phys, self.half, self.kept, self.term = _shared(
            ((n_in,) + points, float), ((n_out,) + grid.shape, complex),
            ((n_out,) + padded, complex), ((dim,) + core, complex))
        self.lines, self.cols_in, self.products, self.flux = _shared(
            ((n_in,) + padded, complex), ((n_in,) + cols, complex),
            ((n_out,) + points, float), ((n_out,) + core, complex))
        self.cols, self.spec_out = _shared(((n_out,) + cols, complex),
                                           ((n_out,) + padded, complex))


def _to_grid(work, core):
    """Collocation values ``work.phys`` (b, *grid.physical_shape) of the
    fields whose retained modes are ``core`` (b, *core) and which are
    zero elsewhere.

    The transforms of ``irfftn``, one axis at a time and in its order,
    pruned of what is zero (Orszag 1971; Markel 1971): the leading-axis
    inverse transforms skip the last-axis columns above the cutoff,
    which ``irfft`` pads back, and in 3D the first one, along axis -3,
    also skips the axis -2 rows above it.  Every transform that runs
    sees the same numbers as in ``irfftn`` of the full half spectra, so
    the result is the same to the last bit.
    """
    for kept, half in work.rows:
        work.spec_in[:, half] = core[:, kept]
    spec = np.fft.ifft(work.spec_in, axis=1, norm="forward", out=work.lines)
    if work.dim == 3:
        for kept, half in work.rows:
            work.rows_in[:, :, half] = spec[:, :, kept]
        spec = np.fft.ifft(work.rows_in, axis=-2, norm="forward",
                           out=work.cols_in)
    return np.fft.irfft(spec, n=work.modes, axis=-1, norm="forward",
                        out=work.phys)


def _from_grid(work):
    """The retained modes ``work.flux`` (b, *core), unmasked, of the
    collocation values ``work.products``: the inverse of
    :func:`_to_grid`.

    The transforms of ``rfftn``, in its order, computing only the
    last-axis columns up to the cutoff and, in the last one (along axis
    -3 in 3D), only the axis -2 rows up to it.  Each kept coefficient is
    bit-identical to ``rfftn``'s.
    """
    spec = np.fft.rfft(work.products, axis=-1, norm="forward",
                       out=work.half)
    spec = np.fft.fft(spec[..., : work.cutoff + 1], axis=-2,
                      norm="forward", out=work.cols)
    if work.dim == 3:
        for kept, half in work.rows:
            work.kept[:, :, kept] = spec[:, :, half]
        spec = np.fft.fft(work.kept, axis=-3, norm="forward",
                          out=work.spec_out)
    for kept, half in work.rows:
        work.flux[:, kept] = spec[:, half]
    return work.flux


@functools.lru_cache(maxsize=2)
def _traceless_pairs(dim):
    """(i, j) of the velocity products of :func:`_core_rhs`, in order:
    (i, i) for i < dim - 1, standing for u_i u_i - u_N u_N with u_N the
    last component, then (i, j) for i < j, standing for u_i u_j."""
    return tuple([(i, i) for i in range(dim - 1)]
                 + [(i, j) for i in range(dim) for j in range(i + 1, dim)])


@functools.lru_cache(maxsize=8)
def _projection_maps(grid):
    """The fixed per-mode maps of :func:`_core_rhs` on ``grid``.

    ``velocity`` (dim, n, *core) maps the spectra of the n products of
    :func:`_traceless_pairs` to the velocity rows: with E_p the
    symmetric unit tensor of product p (e_i e_i, or e_i e_j + e_j e_i),
    column p is -P(i k . E_p), so row c of -P div T is
    sum_p velocity[c, p] T_p^.  ``scalar`` (dim, *core) is -i k.  Both
    are on the retained modes (:func:`_core`).  ``lift`` (dim, *half)
    is the real b = e_N - k k_N / |k|^2 (e_N at k = 0) on the whole half
    spectrum: P(theta e_N) = b theta.  Last come the core's ``k`` and
    ``k_over_k2``, from which the maps are built.
    """
    k = _core(grid, grid.k)
    k_over_k2 = _core(grid, grid.k_over_k2)
    pairs = _traceless_pairs(grid.dim)
    velocity = np.zeros((grid.dim, len(pairs)) + k.shape[1:], dtype=complex)
    for p, (i, j) in enumerate(pairs):
        column = np.zeros_like(k)  # E_p k
        column[i] = k[j]
        column[j] = k[i]
        # its Leray projection, v - k (k / |k|^2 . v), times -i
        column -= k * np.sum(k_over_k2 * column, axis=0)
        velocity[:, p].imag = -column
    lift = -grid.k * grid.k_over_k2[-1]
    lift[-1] += 1.0
    return tuple(map(_read_only, (velocity, -(1j * k), lift, k, k_over_k2)))


def _core_rhs(work, core, out):
    """[P(theta e_N - u . grad u); -(u . grad theta)] on the retained
    modes, for y = [u; theta] with retained modes ``core`` (the core
    layout, :func:`_core`) and u divergence-free: the production kernel,
    the stepper's right-hand side without diffusion, written into
    ``out`` (shaped like ``core``, not ``core`` itself).  ``work`` is a
    ``_Work`` of the grid; the call allocates no large array.

    For a divergence-free u, u . grad u = div(u u) and u . grad theta =
    div(u theta) on the dealiased products (Canuto, Hussaini,
    Quarteroni & Zang, *Spectral Methods*, on the convective forms),
    and P removes the gradient div(u_N^2 I), so P div(u u) = P div T
    for the traceless flux T = u u - u_N^2 I.  One batched inverse
    transform takes the dim + 1 fields to the collocation points, one
    batched forward transform brings back the dim (dim + 1) / 2 - 1
    products of T and the dim products u_j theta (3 in and 4 out in 2D,
    4 and 8 in 3D), and the divergence and the projection act as one
    fixed map per retained mode (:func:`_projection_maps`).  Off the
    retained modes the right-hand side is exactly [b theta; 0], which
    the stepper integrates exactly.  For any other u the velocity rows
    gain -P(u div u) and the theta row -(theta div u).
    """
    dim, pairs = work.dim, work.pairs
    n = len(pairs)
    phys = _to_grid(work, core)
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
    flux = _from_grid(work)
    # the velocity rows collect the nonlinear part in out, each term in
    # work.term, and then add the projected buoyancy
    velocity, part, term = work.velocity, out[:dim], work.term
    np.multiply(velocity[:, 0], flux[0], out=part)
    for p in range(1, n):
        np.multiply(velocity[:, p], flux[p], out=term)
        np.add(part, term, out=part)
    np.multiply(work.scalar, flux[n:], out=term)
    np.sum(term, axis=0, out=out[dim])
    np.multiply(work.lift, core[dim], out=term)
    np.add(term, part, out=part)
    return out


def _projected_rhs(grid, y, out=None):
    """:func:`_core_rhs` on the half spectrum: the right-hand side
    without diffusion of y = [u; theta], u divergence-free, into
    ``out`` (shaped like ``y``, not ``y`` itself) when given.  Off the
    retained modes the velocity rows are b theta and the theta row is
    zero."""
    work = _Work(grid)
    if out is None:
        out = np.empty_like(y)
    np.multiply(_projection_maps(grid)[2], y[grid.dim], out=out[: grid.dim])
    out[grid.dim] = 0.0
    core = _core(grid, y)
    rhs = _core_rhs(work, core, np.empty_like(core))
    for kept, half in _core_blocks(grid):
        out[half] = rhs[kept]
    return out


def convect_pseudospectral(u: SpectralVectorField, v, grid: GridSpec = None):
    """Dealiased transform evaluation of u . grad(v).

    ``v`` may be a velocity or a scalar field.  The velocity and the
    gradients of ``v`` are masked, taken to the collocation points by one
    ``irfftn``, multiplied there, and brought back by one ``rfftn``; the
    result is masked again and constrained, so it is real, zero-mean and
    supported on the retained modes.
    """
    grid = _check_grid(grid, u, v)
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
    return ConvectionResult(field)


def convect_convolution(u: SpectralVectorField, v, grid: GridSpec = None):
    """Direct truncated-convolution evaluation of u . grad(v).

    Sums i (q . u_hat(p)) v_hat(q) over all resolved pairs p + q = k of
    the full spectra, dropping pairs whose sum leaves the grid, and
    returns the half spectrum of the real part, constrained.  No
    transforms are used anywhere, which keeps this path independent of
    the pseudospectral one.  Guarded to modes**dim <= 4096.
    """
    grid = _check_grid(grid, u, v)
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
    return ConvectionResult(field)


def buoyancy(theta: SpectralScalarField):
    """Divergence-free part of theta e_N (gravity along the last axis).

    The gradient part of the forcing is absorbed by the pressure, so the
    velocity equation only ever sees the Leray projection of theta e_N.
    """
    grid = theta.grid
    out = SpectralVectorField(grid)
    out.coeffs[-1] = theta.coeffs
    return leray_project(out)
