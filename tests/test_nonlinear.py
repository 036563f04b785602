"""Advection terms: dealiased transform path vs direct convolution oracle."""

import numpy as np
import pytest

from bousspec import (
    SpectralScalarField,
    SpectralVectorField,
    divergence_max,
    enforce_constraints,
    hermitian_defect,
    l2_inner,
    leray_project,
    make_grid,
    synthesize_initial,
)
from bousspec.nonlinear import (
    CONVOLUTION_MODE_LIMIT,
    _core,
    _core_blocks,
    _projected_rhs,
    _projection_maps,
    buoyancy,
    convect_convolution,
    convect_pseudospectral,
)
from bousspec.fields import _from_half


def band_limited_fields(grid, seed, bandwidth):
    """Random divergence-free u and scalar theta supported on |j_i| <= bandwidth."""
    rng = np.random.default_rng(seed)
    keep = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        keep &= np.abs(grid.k[axis]) <= bandwidth
    keep &= grid.k2 > 0

    def draw():
        c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        return c * keep

    u = SpectralVectorField(grid, np.stack([draw() for _ in range(grid.dim)]))
    u = leray_project(enforce_constraints(u))
    theta = enforce_constraints(SpectralScalarField(grid, draw()))
    return u, theta


def shear_flow(grid):
    """u = (cos x2, 0): advects nothing along itself."""
    u = SpectralVectorField(grid)
    u.coeffs[0][0, 1] = 0.5  # and its conjugate at (0, -1)
    return u


class TestPseudospectral:
    def test_shear_self_advection_vanishes(self):
        g = make_grid(2, 16)
        u = shear_flow(g)
        res = convect_pseudospectral(u, u, g)
        assert np.max(np.abs(res.field.coeffs)) <= 1e-15

    def test_shear_advecting_scalar(self):
        # u = (cos x2, 0), theta = sin x1 -> u . grad theta = cos x1 cos x2,
        # four modes at (+-1, +-1) with coefficient 1/4 each
        g = make_grid(2, 16)
        u = shear_flow(g)
        theta = SpectralScalarField(g)
        theta.coeffs[1, 0] = -0.5j
        theta.coeffs[-1, 0] = 0.5j
        res = convect_pseudospectral(u, theta, g).field
        expect = np.zeros(g.physical_shape, complex)
        for j1 in (1, -1):
            for j2 in (1, -1):
                expect[j1 % 16, j2 % 16] = 0.25
        np.testing.assert_allclose(_from_half(g, res.coeffs), expect,
                                   atol=1e-14)

    def test_output_masked_and_constrained(self):
        g = make_grid(2, 8)
        u, theta = band_limited_fields(g, 0, bandwidth=2)
        out = convect_pseudospectral(u, theta, g).field
        assert np.max(np.abs(out.coeffs[~g.dealias_mask])) == 0.0
        assert out.coeffs[g.zero_index] == 0.0
        assert hermitian_defect(out) == 0.0

    def test_grid_mismatch_rejected(self):
        g1 = make_grid(2, 8)
        g2 = make_grid(2, 16)
        u, _ = band_limited_fields(g1, 1, 2)
        _, theta = band_limited_fields(g2, 1, 2)
        with pytest.raises(ValueError, match="different grids"):
            convect_pseudospectral(u, theta)
        with pytest.raises(ValueError, match="supplied grid"):
            convect_pseudospectral(u, u, g2)


def masked_ik(grid):
    """i k on the retained modes of the half spectrum, zero elsewhere."""
    return 1j * grid.k * grid.dealias_mask


def whole_to_grid(grid, spec_half):
    """Mask, then irfftn: the inverse transform without pruning."""
    axes = tuple(range(-grid.dim, 0))
    return np.fft.irfftn(spec_half * grid.dealias_mask,
                         s=grid.physical_shape, axes=axes, norm="forward")


def whole_from_grid(grid, values):
    """rfftn, then mask and zero the mean: the forward transform without
    pruning."""
    axes = tuple(range(-grid.dim, 0))
    out = np.fft.rfftn(values, axes=axes, norm="forward") * grid.dealias_mask
    out[(Ellipsis,) + grid.zero_index] = 0.0
    return out


def unpruned_advect(grid, u_half, comps_half):
    """Dealiased u . grad(c) for stacked components c, in plain
    whole-array transforms: mask the velocity and the gradients, irfftn,
    multiply, rfftn, mask."""
    dim = grid.dim
    n = len(comps_half)
    grads = masked_ik(grid) * comps_half[:, np.newaxis]
    phys = whole_to_grid(grid, np.concatenate(
        [u_half, grads.reshape((n * dim,) + grads.shape[2:])]))
    w = np.einsum("i...,ci...->c...", phys[:dim],
                  phys[dim:].reshape((n, dim) + grid.physical_shape))
    return whole_from_grid(grid, w)


def unpruned_projected_rhs(grid, y):
    """The projected kernel in plain whole-array transforms: mask
    [u; theta], irfftn, form u_i u_i - u_N u_N (i < N), u_i u_j (i < j)
    and u_j theta, rfftn, then apply the kernel's per-mode maps term by
    term in its order on the retained modes and add them to the
    projected buoyancy."""
    dim = grid.dim
    phys = whole_to_grid(grid, y)
    u, theta = phys[:dim], phys[dim]
    square = u[-1] * u[-1]
    products = [u[i] * u[i] - square for i in range(dim - 1)]
    products += [u[i] * u[j] for i in range(dim) for j in range(i + 1, dim)]
    products += [u[j] * theta for j in range(dim)]
    axes = tuple(range(-dim, 0))
    flux = _core(grid, np.fft.rfftn(np.array(products), axes=axes,
                                    norm="forward"))
    velocity, scalar, lift = _projection_maps(grid)[:3]
    n = len(products) - dim
    part_u = velocity[:, 0] * flux[0]
    for p in range(1, n):
        part_u = part_u + velocity[:, p] * flux[p]
    part_theta = scalar[0] * flux[n]
    for j in range(1, dim):
        part_theta = part_theta + scalar[j] * flux[n + j]
    out = np.zeros_like(y)
    out[:dim] = lift * y[dim]
    for kept, half in _core_blocks(grid):
        out[:dim][half] += part_u[kept]
        out[dim][half] += part_theta[kept]
    return out


def leray_half(grid, v):
    """Leray projection of velocity half spectra: v - k (k / |k|^2 . v)."""
    return v - grid.k * np.sum(grid.k_over_k2 * v, axis=0)


def projected_buoyancy(grid, theta):
    """P(theta e_N) on the half spectrum."""
    forcing = np.zeros((grid.dim,) + theta.shape, dtype=complex)
    forcing[-1] = theta
    return leray_half(grid, forcing)


def dealiased_dilatation_term(grid, y):
    """c (div u) for each row c of y = [u; theta], dealiased: mask,
    irfftn, multiply, rfftn, mask."""
    dim = grid.dim
    div_u = np.sum(masked_ik(grid) * y[:dim], axis=0)
    phys = whole_to_grid(grid, np.concatenate([y, div_u[np.newaxis]]))
    return whole_from_grid(grid, phys[:-1] * phys[-1])


def rough_stack(grid, seed):
    """[u; theta] of rough data; u divergence-free."""
    u, theta = synthesize_initial("rough_h1", grid, seed=seed)
    return np.concatenate([u.coeffs, theta.coeffs[np.newaxis]])


class TestKernel:
    @pytest.mark.parametrize("dim,modes", [(2, 16), (2, 64), (3, 8), (3, 16)])
    def test_pruned_transforms_match_whole_array_transforms(self, dim, modes):
        # rough data fills the masked columns and rows, so the pruning
        # is exercised
        g = make_grid(dim, modes)
        y = rough_stack(g, seed=modes)
        assert np.array_equal(_projected_rhs(g, y),
                              unpruned_projected_rhs(g, y))

    @pytest.mark.parametrize("dim,modes", [(2, 32), (2, 64), (3, 8), (3, 16)])
    def test_divergence_form_equals_advective_form(self, dim, modes):
        # u is Leray-projected, so P div(u u - u_N^2 I) = P(u . grad u)
        # and div(u theta) = u . grad theta to roundoff
        g = make_grid(dim, modes)
        y = rough_stack(g, seed=modes + 1)
        advection = unpruned_advect(g, y[:dim], y)
        want = np.concatenate([
            leray_half(g, -advection[:dim]) + projected_buoyancy(g, y[dim]),
            -advection[dim:]])
        got = _projected_rhs(g, y)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim,modes", [(2, 32), (3, 8)])
    def test_compressible_velocity_adds_dilatation_term(self, dim, modes):
        # for any u, div(u c) = u . grad c + c div u on the dealiased
        # products, and P removes the gradient of u_N^2 whatever div u
        # is; stretching one component breaks div u = 0
        g = make_grid(dim, modes)
        y = rough_stack(g, seed=modes + 2)
        y[0] *= 3.0
        dilatation = dealiased_dilatation_term(g, y)
        advection = unpruned_advect(g, y[:dim], y) + dilatation
        want = np.concatenate([
            leray_half(g, -advection[:dim]) + projected_buoyancy(g, y[dim]),
            -advection[dim:]])
        got = _projected_rhs(g, y)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(leray_half(g, dilatation[:dim]))) > 0.1 * scale
        assert np.max(np.abs(dilatation[dim])) > 0.1 * scale
        assert np.max(np.abs(got - want)) <= 1e-14 * scale

    @pytest.mark.parametrize("dim,modes", [(2, 16), (3, 8)])
    def test_only_buoyancy_off_the_retained_modes(self, dim, modes):
        # the nonlinear part lives on the retained modes, the blocks of
        # the kernel's core; elsewhere the velocity rows are exactly
        # b theta, b = e_N - k k_N / |k|^2, and the theta row exactly 0
        # (written over whatever ``out`` held)
        g = make_grid(dim, modes)
        y = rough_stack(g, seed=modes + 3)
        got = _projected_rhs(g, y, out=np.full_like(y, np.nan))
        lift = -g.k * g.k_over_k2[-1]
        lift[-1] += 1.0
        off = np.ones(g.shape, dtype=bool)
        for _, half in _core_blocks(g):
            off[half] = False
        assert np.array_equal(off, ~g.dealias_mask)
        assert np.count_nonzero(y[dim][off]) > 0
        assert np.array_equal(got[:dim, off], (lift * y[dim])[:, off])
        assert np.all(got[dim][off] == 0.0)


class TestConvolutionOracle:
    def test_zero_input(self):
        g = make_grid(2, 8)
        u = SpectralVectorField(g)
        res = convect_convolution(u, u, g)
        assert np.max(np.abs(res.field.coeffs)) == 0.0

    def test_two_mode_hand_computation(self):
        # u with modes +-(0, 1), u_hat = (a, 0); v scalar with modes
        # +-(1, 0), v_hat = b.  u.grad v has coefficient
        # i (q . u_hat(p)) v_hat(q) summed over the four (p, q) pairs:
        # at k = p + q = (1, 1):  i * (q1 * a) * b = i a b (q = (1,0))
        g = make_grid(2, 8)
        a, b = 0.7, 0.3 + 0.1j
        u = SpectralVectorField(g)
        u.coeffs[0][0, 1] = a  # and its conjugate at (0, -1)
        v = SpectralScalarField(g)
        v.coeffs[1, 0] = b
        v.coeffs[-1, 0] = np.conj(b)
        out = _from_half(g, convect_convolution(u, v, g).field.coeffs)
        expect = np.zeros(g.physical_shape, complex)
        for p2 in (1, -1):
            for q1 in (1, -1):
                vq = b if q1 == 1 else np.conj(b)
                expect[q1 % 8, p2 % 8] += 1j * q1 * a * vq
        np.testing.assert_allclose(out, expect, atol=1e-15)
        assert np.count_nonzero(out) == 4

    def test_pairs_leaving_grid_are_dropped(self):
        # both inputs at the highest resolved label M/2 - 1 = 3: the sum
        # (6) is not resolved on an 8-grid, so the output is empty
        g = make_grid(2, 8)
        u = SpectralVectorField(g)
        u.coeffs[1][3, 0] = 1.0
        u.coeffs[1][-3, 0] = 1.0
        v = SpectralScalarField(g)
        v.coeffs[3, 0] = 1.0
        v.coeffs[-3, 0] = 1.0
        out = convect_convolution(u, v, g).field.coeffs
        # only p + q = 0 and the mixed +-(3 -+ 3) = 0 pairs remain, and
        # those have q . u_hat(p) proportional to q2 * 0 = ... q = (+-3, 0)
        # with u_hat(p) = (0, 1): q . u_hat(p) = 0, so everything cancels
        assert np.max(np.abs(out)) == 0.0

    def test_mode_limit_guard(self):
        g = make_grid(2, 128)  # 16384 modes
        u = SpectralVectorField(g)
        with pytest.raises(ValueError, match=str(CONVOLUTION_MODE_LIMIT)):
            convect_convolution(u, u, g)

    @pytest.mark.parametrize("dim,modes", [(2, 16), (3, 8)])
    def test_agrees_with_pseudospectral_on_band_limited_data(self, dim, modes):
        g = make_grid(dim, modes)
        u, theta = band_limited_fields(g, 17, bandwidth=modes // 4)
        for v in (u, theta):
            fast = convect_pseudospectral(u, v, g).field.coeffs
            slow = convect_convolution(u, v, g).field.coeffs
            scale = np.max(np.abs(slow))
            dev = np.max(np.abs((fast - slow) * g.dealias_mask))
            assert dev <= 1e-13 * scale

    @pytest.mark.parametrize("dim,modes", [(2, 16), (3, 8)])
    def test_agrees_with_projected_kernel_on_band_limited_data(self, dim,
                                                               modes):
        # the stepper's kernel, on the pruned transforms, against
        # [P(-conv(u, u)) + b theta; -conv(u, theta)] on the retained
        # modes, with the bound of ACCEPTANCE 3
        g = make_grid(dim, modes)
        u, theta = band_limited_fields(g, 29, bandwidth=modes // 3)
        y = np.concatenate([u.coeffs, theta.coeffs[np.newaxis]])
        conv_u = convect_convolution(u, u, g).field.coeffs
        conv_theta = convect_convolution(u, theta, g).field.coeffs
        want = np.concatenate([
            leray_half(g, -conv_u) + projected_buoyancy(g, y[dim]),
            -conv_theta[np.newaxis]])
        got = _projected_rhs(g, y)
        scale = np.max(np.abs(want * g.dealias_mask))
        assert np.max(np.abs((got - want) * g.dealias_mask)) <= 1e-12 * scale

    def test_reality_and_zero_mode(self):
        g = make_grid(2, 8)
        u, theta = band_limited_fields(g, 23, bandwidth=2)
        out = convect_convolution(u, theta, g).field
        assert hermitian_defect(out) == 0.0
        assert out.coeffs[g.zero_index] == 0.0


class TestEnergyFlux:
    @pytest.mark.parametrize("dim,modes", [(2, 16), (3, 8)])
    def test_advection_moves_no_energy(self, dim, modes):
        # Re <u.grad v, v> = 0 for divergence-free u, discretely too
        g = make_grid(dim, modes)
        u, theta = band_limited_fields(g, 31, bandwidth=modes // 4)
        for v in (u, theta):
            conv = convect_pseudospectral(u, v, g).field
            flux = l2_inner(conv, v).real
            scale = max(abs(l2_inner(v, v).real), 1.0)
            assert abs(flux) <= 1e-12 * scale


class TestBuoyancy:
    def test_vertical_single_mode_killed(self):
        # theta = cos x2 forces along (0, 1) at j = (0, +-1): a pure
        # gradient, projected away entirely
        g = make_grid(2, 8)
        theta = SpectralScalarField(g)
        theta.coeffs[0, 1] = 0.5  # and its conjugate at (0, -1)
        out = buoyancy(theta)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_horizontal_single_mode_untouched(self):
        # theta = cos x1 forces along (0, 1) at j = (+-1, 0): already
        # divergence-free
        g = make_grid(2, 8)
        theta = SpectralScalarField(g)
        theta.coeffs[1, 0] = 0.5
        theta.coeffs[-1, 0] = 0.5
        out = buoyancy(theta)
        assert out.coeffs[1][1, 0] == 0.5
        assert out.coeffs[0][1, 0] == 0.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_divergence_free(self, dim):
        g = make_grid(dim, 8)
        _, theta = band_limited_fields(g, 5, bandwidth=2)
        out = buoyancy(theta)
        assert divergence_max(out) <= 1e-13 * max(np.max(np.abs(out.coeffs)), 1.0)

    def test_zero_theta(self):
        g = make_grid(2, 8)
        out = buoyancy(SpectralScalarField(g))
        assert np.max(np.abs(out.coeffs)) == 0.0
