"""Advection terms u . grad(v), computed two independent ways.

``convect_pseudospectral`` is the production path: transform to
collocation space, multiply, transform back, with the 2/3-rule mask
applied to inputs and output so quadratic aliasing never reaches a
retained mode.  It works on the half spectrum with real-to-complex
transforms (those of ``irfftn``/``rfftn``, pruned of the masked
columns), so the collocation values are real and the full output,
rebuilt from its half, is Hermitian by construction.
``convect_state`` and the time stepper share its kernel.

``convect_convolution`` is the oracle: the truncated convolution

    w_hat(k) = sum_{p+q=k, p and q resolved} i (q . u_hat(p)) v_hat(q)

summed directly, with no FFT and no mask.  It is exact on the retained
modes whenever the inputs are band-limited to half the grid, which is
what makes it a useful cross-check; it costs O(modes^2) and is guarded
to small grids.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fields import (
    SpectralScalarField,
    SpectralVectorField,
    _from_half,
    enforce_constraints,
    leray_project,
)
from .grid import GridSpec

__all__ = [
    "AliasingMode",
    "ConvectionResult",
    "convect_pseudospectral",
    "convect_state",
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


def _advect(grid, u_half, comps_half):
    """Dealiased u . grad(c) for stacked components c, on half spectra.

    The shared kernel of :func:`convect_state` and
    :func:`convect_pseudospectral` and the stepper's right-hand side.
    ``u_half`` is (dim, *half) and ``comps_half`` (n, *half), both in the
    half-spectrum layout of ``GridSpec``.  One batched inverse transform
    takes the masked velocity and all n * dim masked gradients to the
    collocation points, one batched forward transform brings the n
    products back.  The result is masked, with a zero mean mode.

    The transforms are those of ``irfftn``/``rfftn``, one axis at a time
    and in their order, pruned of the last-axis columns above the
    dealiasing cutoff (Orszag 1971): the masked inputs are zero there,
    so the leading-axis inverse transforms skip them and ``irfft`` pads
    them back; the masked output is zero there, so the leading-axis
    forward transforms skip them.  Every transform that runs sees the
    same numbers as in the unpruned ``irfftn``/``rfftn``, so the result
    is the same to the last bit.
    """
    dim = grid.dim
    n = len(comps_half)
    kept = np.s_[..., : grid.dealias_cutoff + 1]
    mask = grid.half_mask[kept]
    spec = np.empty((dim + n * dim,) + mask.shape, dtype=complex)
    np.multiply(u_half[kept], mask, out=spec[:dim])
    np.multiply(grid.half_ik_masked[kept], comps_half[:, np.newaxis][kept],
                out=spec[dim:].reshape((n, dim) + mask.shape))
    for axis in range(-dim, -1):
        spec = np.fft.ifft(spec, axis=axis, norm="forward")
    phys = np.fft.irfft(spec, n=grid.modes, axis=-1, norm="forward")
    grads = phys[dim:].reshape((n, dim) + grid.shape)
    w = np.einsum("i...,ci...->c...", phys[:dim], grads)
    w_hat = np.fft.rfft(w, axis=-1, norm="forward")[kept]
    for axis in range(-2, -dim - 1, -1):
        w_hat = np.fft.fft(w_hat, axis=axis, norm="forward")
    out = np.zeros((n,) + grid.half_mask.shape, dtype=complex)
    np.multiply(w_hat, mask, out=out[kept])
    out[(Ellipsis,) + grid.zero_index] = 0.0
    return out


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


def convect_state(u: SpectralVectorField, theta: SpectralScalarField,
                  grid: GridSpec = None):
    """u . grad(u) and u . grad(theta) from one pair of batched transforms.

    Equivalent to two ``convect_pseudospectral`` calls, sharing the
    velocity transform between them.
    """
    grid = _check_grids(u, theta, grid)
    half = grid.half_slice
    comps = np.concatenate([u.coeffs[half], theta.coeffs[np.newaxis][half]])
    out = _from_half(grid, _advect(grid, u.coeffs[half], comps))
    conv_u = SpectralVectorField(grid, out[: grid.dim])
    conv_theta = SpectralScalarField(grid, out[grid.dim])
    return (
        ConvectionResult(conv_u, AliasingMode.DEALIASED_2_3),
        ConvectionResult(conv_theta, AliasingMode.DEALIASED_2_3),
    )


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
