"""Grid bookkeeping, constraints, norm weights, norms, initial data."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from bousspec import (
    PhysicalParams,
    SpectralScalarField,
    SpectralVectorField,
    divergence_max,
    enforce_constraints,
    from_physical,
    hermitian_defect,
    l2_inner,
    leray_project,
    make_grid,
    norm,
    synthesize_initial,
    to_physical,
)
from bousspec.fields import (
    _CHUNK,
    _Phases,
    _field,
    _from_half,
    _stacked,
    _unstack,
)

TWO_PI = 2.0 * np.pi


def random_scalar(grid, seed, constrained=True):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    f = SpectralScalarField(grid, c)
    return enforce_constraints(f) if constrained else f


def random_vector(grid, seed, solenoidal=True):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(grid.vshape) + 1j * rng.standard_normal(grid.vshape)
    u = enforce_constraints(SpectralVectorField(grid, c))
    return leray_project(u) if solenoidal else u


class TestGridSpec:
    def test_counts_and_mask_2d(self):
        g = make_grid(2, 8)
        assert g.nmodes == 64
        assert g.dealias_cutoff == 2  # floor(2/3 * 4)
        kept = g.freq1d[np.abs(g.freq1d) <= 2]
        assert sorted(kept.tolist()) == [-2, -1, 0, 1, 2]
        # mask is the per-axis box |j_i| <= 2
        expect = (np.abs(g.k[0]) <= 2) & (np.abs(g.k[1]) <= 2)
        assert np.array_equal(g.dealias_mask, expect)

    def test_counts_3d(self):
        g = make_grid(3, 4)
        assert g.nmodes == 64
        assert g.k.shape == (3, 4, 4, 3)  # the half spectrum
        assert g.physical_shape == (4, 4, 4)

    def test_cutoff_uses_exact_rational_arithmetic(self):
        # c is the largest integer with 3c < M, so the alias of a product
        # of retained modes (|j_i| <= 2c) lies at least M - 2c > c from
        # zero, off the retained band, for every M
        for modes in range(4, 301, 2):
            c = make_grid(2, modes).dealias_cutoff
            assert 3 * c < modes <= 3 * (c + 1), modes

    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            make_grid(2, 7)
        with pytest.raises(ValueError, match="even|>= 4"):
            make_grid(2, 2)
        with pytest.raises(ValueError, match="dim"):
            make_grid(4, 8)

    def test_equality_ignores_derived_arrays(self):
        assert make_grid(2, 8) == make_grid(2, 8)
        assert make_grid(2, 8) != make_grid(2, 16)


class TestConstraints:
    def test_symmetrization_and_mean(self):
        # a 2D scalar and a 3D vector, neither with the reality symmetry
        rng = np.random.default_rng(0)
        for g, cls in ((make_grid(2, 8), SpectralScalarField),
                       (make_grid(3, 6), SpectralVectorField)):
            shape = g.shape if cls is SpectralScalarField else g.vshape
            f = cls(g, rng.standard_normal(shape)
                    + 1j * rng.standard_normal(shape))
            f.coeffs[(Ellipsis,) + g.zero_index] = 2.0 + 1.0j
            out = enforce_constraints(f)
            assert np.all(out.coeffs[(Ellipsis,) + g.zero_index] == 0.0)
            assert hermitian_defect(out) == 0.0
            # each component on its own: the last-axis planes 0 and M/2
            # hold j and -j, and there j -> -j is a flip and a roll of
            # the leading axes; label -M/2 is emptied on every axis
            axes = tuple(range(g.dim - 1))
            want = []
            for c in f.coeffs.reshape((-1,) + g.shape):
                w = c.copy()
                for p in (0, g.modes // 2):
                    plane = c[..., p]
                    w[..., p] = 0.5 * (plane + np.conj(
                        np.roll(np.flip(plane), 1, axis=axes)))
                for axis in range(g.dim):
                    np.moveaxis(w, axis, -1)[..., g.modes // 2] = 0.0
                w[g.zero_index] = 0.0
                want.append(w)
            assert np.array_equal(out.coeffs,
                                  np.reshape(want, f.coeffs.shape))

    @pytest.mark.parametrize("dim,modes", [(2, 8), (3, 6)])
    def test_label_minus_half_emptied(self, dim, modes):
        # a slot with label -M/2 and its reflection do not sit at
        # opposite wavevectors, so a real field carries nothing there
        g = make_grid(dim, modes)
        for axis in range(dim):
            f = SpectralScalarField(g)
            slot = [1] * dim
            slot[axis] = modes // 2
            f.coeffs[tuple(slot)] = 1.0 + 2.0j
            assert np.max(np.abs(enforce_constraints(f).coeffs)) == 0.0

    def test_idempotent_bit_identical(self):
        g = make_grid(3, 4)
        u = random_vector(g, 1, solenoidal=False)
        once = enforce_constraints(u)
        twice = enforce_constraints(once)
        assert np.array_equal(once.coeffs, twice.coeffs)

    def test_real_field_invariant_under_symmetrization(self):
        g = make_grid(2, 8)
        x = TWO_PI * np.arange(8) / 8
        vals = np.cos(x)[:, None] * np.sin(2 * x)[None, :]
        f = from_physical(g, vals)
        out = enforce_constraints(f)
        np.testing.assert_allclose(out.coeffs, f.coeffs, atol=1e-15)


class TestLeray:
    def test_single_mode_example(self):
        # j = (1, 1), u_hat = (1, 0) -> (1/2, -1/2)
        g = make_grid(2, 8)
        u = SpectralVectorField(g)
        u.coeffs[0][1, 1] = 1.0
        out = leray_project(u)
        assert out.coeffs[0][1, 1] == pytest.approx(0.5, abs=1e-15)
        assert out.coeffs[1][1, 1] == pytest.approx(-0.5, abs=1e-15)

    def test_tangential_mode_unchanged(self):
        # j = (1, 0), u_hat = (0, 1) is already divergence-free
        g = make_grid(2, 8)
        u = SpectralVectorField(g)
        u.coeffs[1][1, 0] = 1.0
        out = leray_project(u)
        assert np.array_equal(out.coeffs, u.coeffs)

    def test_gradient_mode_killed(self):
        # j = (0, 2), u_hat parallel to j -> projected to zero
        g = make_grid(2, 8)
        u = SpectralVectorField(g)
        u.coeffs[1][0, 2] = 3.0 - 1.0j
        out = leray_project(u)
        assert np.max(np.abs(out.coeffs)) == 0.0

    @pytest.mark.parametrize("dim,modes", [(2, 8), (3, 6)])
    def test_divergence_free_output(self, dim, modes):
        g = make_grid(dim, modes)
        u = random_vector(g, 7, solenoidal=False)
        out = leray_project(u)
        scale = np.max(np.abs(out.coeffs))
        assert divergence_max(out) <= 1e-12 * scale

    @pytest.mark.parametrize("dim,modes", [(2, 8), (2, 64), (3, 6)])
    def test_keeps_real_fields_real(self, dim, modes):
        # a slot with label -M/2 is its own reflection, so it and its
        # reflection do not sit at opposite wavevectors; the projection
        # must drop it to keep the reality symmetry exactly
        g = make_grid(dim, modes)
        rng = np.random.default_rng(0)
        u = SpectralVectorField(g, rng.standard_normal(g.vshape)
                                + 1j * rng.standard_normal(g.vshape))
        assert hermitian_defect(leray_project(enforce_constraints(u))) == 0.0

    def test_idempotent(self):
        g = make_grid(2, 8)
        u = random_vector(g, 8, solenoidal=False)
        once = leray_project(u)
        twice = leray_project(once)
        np.testing.assert_allclose(
            twice.coeffs, once.coeffs, atol=1e-14 * np.max(np.abs(once.coeffs))
        )

    def test_self_adjoint(self):
        g = make_grid(2, 8)
        u = random_vector(g, 9, solenoidal=False)
        v = random_vector(g, 10, solenoidal=False)
        lhs = l2_inner(leray_project(u), v)
        rhs = l2_inner(u, leray_project(v))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_projection_orthogonality(self):
        grid = make_grid(2, 16)
        rng = np.random.default_rng(1)
        w = enforce_constraints(SpectralVectorField(
            grid,
            rng.standard_normal(grid.vshape)
            + 1j * rng.standard_normal(grid.vshape),
        ))
        pw = leray_project(w)
        qw = SpectralVectorField(grid, w.coeffs - pw.coeffs)
        scale = norm(w) ** 2
        assert abs(l2_inner(pw, qw)) <= 1e-13 * scale


class TestMultipliers:
    """The weights |j|^r and exp(tau |j|) of :func:`norm`, by value."""

    def test_zygmund_integer_magnitude(self):
        # j = (3, 4): |j| = 5 exactly
        g = make_grid(2, 16)
        f = SpectralScalarField(g)
        f.coeffs[3, 4] = 2.0 + 1.0j  # and its conjugate at (-3, -4)
        assert norm(f, r=1.0) == 5.0 * norm(f)

    def test_zygmund_zero_mode(self):
        g = make_grid(2, 8)
        f = SpectralScalarField(g)
        f.coeffs[g.zero_index] = 1.0  # invalid state, still weighted 0
        assert norm(f) > 0.0
        assert norm(f, r=2.0) == 0.0

    def test_gevrey_analytic_weight(self):
        g = make_grid(2, 16)
        f = SpectralScalarField(g)
        f.coeffs[3, 4] = 1.0 - 2.0j
        np.testing.assert_allclose(
            norm(f, tau=0.5), np.exp(2.5) * norm(f), rtol=1e-15
        )

    def test_param_validation(self):
        f = random_scalar(make_grid(2, 16), 5)
        with pytest.raises(ValueError, match="tau"):
            norm(f, tau=-0.1)
        with pytest.raises(ValueError, match="nu"):
            PhysicalParams(nu=0.0, kappa=1.0)
        with pytest.raises(ValueError, match="kappa"):
            PhysicalParams(nu=1.0, kappa=-1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("key", ["tau", "r"])
    def test_nonfinite_params_rejected(self, key, bad):
        # nan fails no comparison, so a range check alone lets it through
        # to a nan norm
        f = random_scalar(make_grid(2, 16), 5)
        with pytest.raises(ValueError, match=f"^{key} must be .* finite"):
            norm(f, **{key: bad})


class TestNorms:
    def test_two_mode_l2(self):
        # modes +-(1,0) with u_hat = (0, a): ||u|| = sqrt((2 pi)^2 * 2 a^2)
        g = make_grid(2, 8)
        a = 0.75
        u = SpectralVectorField(g)
        u.coeffs[1][1, 0] = a
        u.coeffs[1][-1 % 8, 0] = a
        np.testing.assert_allclose(
            norm(u), np.sqrt(TWO_PI**2 * 2 * a**2), rtol=1e-14
        )

    def test_parseval_against_physical(self):
        g = make_grid(2, 16)
        f = random_scalar(g, 6)
        vals = to_physical(f)
        phys = np.sqrt(np.sum(vals**2) * (TWO_PI / 16) ** 2)
        np.testing.assert_allclose(norm(f), phys, rtol=1e-12)

    def test_weight_monotonicity(self):
        g = make_grid(2, 16)
        f = SpectralScalarField(g)
        f.coeffs[0, 2] = 1.0
        base = norm(f)
        assert norm(f, r=1.0) == pytest.approx(2.0 * base, rel=1e-14)
        assert norm(f, tau=0.5) > base
        assert norm(f, r=1.0, tau=0.5) > norm(f, r=1.0)

    @pytest.mark.parametrize("dim,modes", [(2, 16), (3, 8)])
    def test_half_spectrum_sum_equals_the_full_sum(self, dim, modes):
        # a norm reads the half spectrum of a real field; the weighted
        # sum over every mode of the full array is the same to roundoff
        grid = make_grid(dim, modes)
        k = np.meshgrid(*[grid.freq1d] * dim, indexing="ij")
        kmag = np.sqrt(sum(k_i**2 for k_i in k))
        for field in (random_scalar(grid, seed=dim),
                      random_vector(grid, seed=modes, solenoidal=False)):
            assert hermitian_defect(field) == 0.0
            power = np.abs(_from_half(grid, field.coeffs)) ** 2
            for r, tau in ((0, 0), (1, 0), (1, 0.05), (0.5, 0.01)):
                weight = kmag ** (2 * r) * np.exp(2 * tau * kmag)
                want = np.sqrt(TWO_PI**dim * np.sum(weight * power))
                np.testing.assert_allclose(norm(field, r, tau), want,
                                           rtol=1e-14)

    def test_large_tau_exact_or_refused(self):
        # on a field decaying like e^{-|j|} at 64^2, tau = 1.83 lifts the
        # top mode by e^{2 tau |j|} ~ e^{166}: the norm is a log-space sum
        # of the full array's terms to roundoff.  At tau = 10 the weight
        # overflows a double: refused, not returned as inf or nan
        g = make_grid(2, 64)
        f = random_scalar(g, 11)
        f.coeffs *= np.exp(-g.kmag)
        k = np.meshgrid(*[g.freq1d] * 2, indexing="ij")
        kmag = np.sqrt(sum(k_i**2 for k_i in k))
        power = np.abs(_from_half(g, f.coeffs)) ** 2
        live = (kmag > 0) & (power > 0)
        tau = 3 * 0.610
        logs = np.log(power[live]) + 2 * np.log(kmag[live]) \
            + 2 * tau * kmag[live]
        top = logs.max()
        want = np.exp(top / 2) * np.sqrt(TWO_PI**2 * np.sum(
            np.exp(logs - top)))
        assert norm(f, r=1.0, tau=tau) == pytest.approx(want, rel=1e-13)
        with pytest.raises(ValueError, match="overflows"):
            norm(f, r=1.0, tau=10.0)


class TestDivergence:
    def test_gradient_mode_value(self):
        # u_hat = i j c at j = (1, 2): |j . u_hat| = 5 |c|
        g = make_grid(2, 8)
        c = 0.3 - 0.4j
        u = SpectralVectorField(g)
        u.coeffs[:, 1, 2] = 1j * np.array([1, 2]) * c
        np.testing.assert_allclose(divergence_max(u), 5 * abs(c), rtol=1e-14)

    def test_zero_for_solenoidal(self):
        g = make_grid(3, 6)
        u = random_vector(g, 12)
        assert divergence_max(u) <= 1e-13 * np.max(np.abs(u.coeffs))


class TestTransforms:
    def test_round_trip(self):
        # a 2D scalar and a 3D vector (leading component axis)
        for f in (random_scalar(make_grid(2, 8), 13),
                  random_vector(make_grid(3, 6), 13, solenoidal=False)):
            g = f.grid
            vals = to_physical(f)
            back = from_physical(g, vals)
            assert type(back) is type(f)
            np.testing.assert_allclose(
                back.coeffs, f.coeffs, atol=1e-14 * np.max(np.abs(f.coeffs))
            )
            # each component transformed on its own
            comps = f.coeffs.reshape((-1,) + g.shape)
            axes = tuple(range(g.dim))
            want = np.stack([np.fft.irfftn(c, s=g.physical_shape, axes=axes,
                                           norm="forward") for c in comps])
            assert np.array_equal(vals, want.reshape(vals.shape))
            # and the complex transform of the full spectrum
            full = _from_half(g, comps)
            np.testing.assert_allclose(
                vals.reshape(want.shape),
                np.fft.ifftn(full, axes=[a + 1 for a in axes]).real
                * g.nmodes, atol=1e-14 * np.max(np.abs(vals)))
            want = np.stack([np.fft.rfftn(v, norm="forward") for v in want])
            assert np.array_equal(back.coeffs, want.reshape(back.coeffs.shape))

    @pytest.mark.parametrize("dim,modes", [(2, 16), (2, 32), (3, 8)])
    def test_full_spectrum_label_by_label(self, dim, modes):
        # each last-axis label above M/2 holds the conjugate of its
        # reflection's coefficient, to the bit
        g = make_grid(dim, modes)
        for half in (random_scalar(g, modes).coeffs,
                     random_vector(g, modes, solenoidal=False).coeffs):
            want = np.empty(half.shape[:-1] + (modes,), dtype=complex)
            want[..., : modes // 2 + 1] = half
            for j in itertools.product(range(modes), repeat=dim):
                if j[-1] > modes // 2:
                    mirror = tuple((-np.array(j)) % modes)
                    want[(Ellipsis,) + j] = np.conj(half[(Ellipsis,) + mirror])
            assert _from_half(g, half).tobytes() == want.tobytes()

    def test_taylor_green_collocation_values(self):
        g = make_grid(2, 16)
        u, _ = synthesize_initial("taylor_green", g)
        x = TWO_PI * np.arange(16) / 16
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        vals = to_physical(u)
        np.testing.assert_allclose(vals[0], np.cos(x1) * np.sin(x2), atol=1e-14)
        np.testing.assert_allclose(vals[1], -np.sin(x1) * np.cos(x2), atol=1e-14)


class TestComponentView:
    # a scalar is one row of half spectra and a vector dim rows, so that
    # every per-component operation reads both alike
    @pytest.mark.parametrize("dim,modes", [(2, 8), (3, 6)])
    def test_shape_and_write_through(self, dim, modes):
        g = make_grid(dim, modes)
        mode = (1,) * dim
        for f, rows in ((random_scalar(g, 4), 1), (random_vector(g, 4), dim)):
            view = f.components
            assert view.shape == (rows,) + g.shape
            view[(rows - 1,) + mode] = 7.0 + 3.0j
            assert np.atleast_1d(f.coeffs[(Ellipsis,) + mode])[-1] == 7 + 3j
            view[...] = 0.0
            assert not np.any(f.coeffs)
            with pytest.raises(AttributeError):
                f.components = view

    @pytest.mark.parametrize("dim,modes", [(2, 8), (3, 6)])
    def test_field_from_components(self, dim, modes):
        g = make_grid(dim, modes)
        for f in (random_scalar(g, 5), random_vector(g, 5)):
            back = _field(g, f.components)
            assert type(back) is type(f)
            assert back.coeffs.shape == f.coeffs.shape
            assert back.coeffs.tobytes() == f.coeffs.tobytes()

    @pytest.mark.parametrize("dim,modes", [(2, 8), (3, 6)])
    def test_unstack_views_the_stacked_array(self, dim, modes):
        g = make_grid(dim, modes)
        u, theta = synthesize_initial("rough_h1", g, seed=6)
        y = _stacked(u, theta)
        assert y.shape == (dim + 1,) + g.shape
        u2, theta2 = _unstack(g, y)
        assert type(u2) is SpectralVectorField
        assert type(theta2) is SpectralScalarField
        assert u2.coeffs.tobytes() == u.coeffs.tobytes()
        assert theta2.coeffs.tobytes() == theta.coeffs.tobytes()
        assert u2.coeffs.base is y and theta2.coeffs.base is y

    def test_shape_errors_name_the_kind(self):
        g = make_grid(2, 8)
        with pytest.raises(ValueError, match="scalar coefficients"):
            SpectralScalarField(g, np.zeros(g.vshape))
        with pytest.raises(ValueError, match="vector coefficients"):
            SpectralVectorField(g, np.zeros(g.shape))


class TestInitialData:
    def test_taylor_green_coefficients(self):
        g = make_grid(2, 8)
        u, theta = synthesize_initial("taylor_green", g)
        assert u.coeffs[0][1, 1] == -0.25j
        assert u.coeffs[1][1, 1] == 0.25j
        full = _from_half(g, u.coeffs)
        assert full[0][-1 % 8, -1 % 8] == 0.25j  # conjugate partner
        assert np.max(np.abs(theta.coeffs)) == 0.0
        assert divergence_max(u) == 0.0
        assert hermitian_defect(u) == 0.0
        # exactly 4 modes per component, 2 of them in the half spectrum
        assert np.count_nonzero(full[0]) == 4
        assert np.count_nonzero(u.coeffs[0]) == 2
        with pytest.raises(ValueError, match="two-dimensional"):
            synthesize_initial("taylor_green", make_grid(3, 8))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_single_mode_theta(self, dim):
        g = make_grid(dim, 8)
        u, theta = synthesize_initial("single_mode_theta", g)
        assert np.max(np.abs(u.coeffs)) == 0.0
        idx = (0,) * (dim - 1) + (1,)
        assert theta.coeffs[idx] == 0.5
        assert np.count_nonzero(_from_half(g, theta.coeffs)) == 2
        # collocation values are cos of the last coordinate
        x = TWO_PI * np.arange(8) / 8
        vals = to_physical(theta)
        expect = np.cos(x).reshape((1,) * (dim - 1) + (8,))
        np.testing.assert_allclose(vals, np.broadcast_to(expect,
                                                         g.physical_shape),
                                   atol=1e-15)

    @pytest.mark.parametrize("dim,modes", [(2, 16), (3, 8)])
    def test_rough_h1_properties(self, dim, modes):
        g = make_grid(dim, modes)
        u, theta = synthesize_initial("rough_h1", g, seed=42)
        assert hermitian_defect(u) <= 1e-15
        assert hermitian_defect(theta) <= 1e-15
        assert u.coeffs[(slice(None),) + g.zero_index] == pytest.approx(0.0)
        assert divergence_max(u) <= 1e-13
        assert np.isfinite(norm(u, r=1.0))
        assert np.isfinite(norm(theta, r=1.0))
        # moduli bounded by the target law
        bound = (1.0 + g.kmag) ** (
            -(2.6 if dim == 2 else 3.1)
        )
        assert np.all(np.abs(theta.coeffs) <= bound + 1e-15)

    def test_rough_h1_deterministic(self):
        g = make_grid(2, 16)
        u1, t1 = synthesize_initial("rough_h1", g, seed=5)
        u2, t2 = synthesize_initial("rough_h1", g, seed=5)
        assert np.array_equal(u1.coeffs, u2.coeffs)
        assert np.array_equal(t1.coeffs, t2.coeffs)
        u3, _ = synthesize_initial("rough_h1", g, seed=6)
        assert not np.array_equal(u1.coeffs, u3.coeffs)
        u4, t4 = synthesize_initial("rough_h1", g, seed=np.int64(5))
        assert u4.coeffs.tobytes() == u1.coeffs.tobytes()
        assert t4.coeffs.tobytes() == t1.coeffs.tobytes()

    def test_rough_h1_rejects_shallow_spectrum(self):
        g = make_grid(2, 16)
        with pytest.raises(ValueError, match="sobolev_exponent"):
            synthesize_initial("rough_h1", g, sobolev_exponent=2.0)
        with pytest.raises(ValueError, match="sobolev_exponent"):
            synthesize_initial("rough_h1", make_grid(3, 8),
                               sobolev_exponent=2.5)
        for p in (np.nan, np.inf):
            with pytest.raises(ValueError, match="sobolev_exponent"):
                synthesize_initial("rough_h1", g, sobolev_exponent=p)

    def test_zero_kind_and_unknown(self):
        g = make_grid(2, 8)
        u, theta = synthesize_initial("zero", g)
        assert np.max(np.abs(u.coeffs)) == 0.0
        assert np.max(np.abs(theta.coeffs)) == 0.0
        with pytest.raises(ValueError, match="unknown initial kind"):
            synthesize_initial("vortex", g)
        with pytest.raises(ValueError, match="seed"):
            synthesize_initial("zero", g, seed=1.5)

    # SHA-256 of u's then theta's half-spectrum bytes, computed (numpy
    # 2.4, x86-64 Linux) when numpy's default_rng drew the phases: they
    # pin the map from seed to data, which a new numpy must not move and
    # a new draw moves on purpose
    ROUGH_SHA256 = {
        (2, 64, 0): "a9123e1a8ac1d8b88e76c37aa6aa13026237ef0cd27051a0b5b3ecc99ff9c59b",
        (2, 64, 7): "d073697ce1f015241c5b1603c0e6cd2f2946bb22c598c6f33e968cf0f7ae6b05",
        (2, 30, 0): "9b43f4d38055c1d11b7ff02c7d2555c9b810d94543e75cf867d75270d8cb27ed",
        (2, 30, 7): "68e8827bb9e99eb86c0e1751e5c5644eee156c8d3b75572739d747baa8b3d91b",
        (3, 8, 0): "02fa1a3b3fc020f43b3a6c335a7a80f72073bfed3ff6e69e114b8ed02e996073",
        (3, 8, 7): "f05771e9d8576e170693cee1a61a02f744fcd6edcda0055d07cca7d3571c272a",
        (3, 18, 0): "73dabe817d5042d6d41a46aec045799d7fbd54905c2ba5197f68b7b20119eaee",
        (3, 18, 7): "c81dfb41c06668be4e8f1345f76d8b362db6d32aef729ac18ff13d2cc68e7ac8",
    }

    @pytest.mark.parametrize("dim,modes,seed", sorted(ROUGH_SHA256))
    def test_rough_h1_bytes_are_pinned(self, dim, modes, seed):
        u, theta = synthesize_initial("rough_h1", make_grid(dim, modes),
                                      seed=seed)
        digest = hashlib.sha256(u.coeffs.tobytes() + theta.coeffs.tobytes())
        assert digest.hexdigest() == self.ROUGH_SHA256[dim, modes, seed]


class TestPhaseStream:
    SEEDS = [0, 1, 7, 2**32 + 5, 2**70 + 3, np.int64(9), 2**130 + 17]

    @pytest.mark.parametrize("seed", SEEDS, ids=repr)
    @pytest.mark.parametrize(
        "n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * 64**2, 50_000])
    def test_equals_numpy_default_stream(self, seed, n):
        expect = np.random.default_rng(seed).uniform(0.0, TWO_PI, n)
        assert _Phases(seed).draw(n).tobytes() == expect.tobytes()

    def test_draws_continue_the_stream(self):
        rng, phases = np.random.default_rng(11), _Phases(11)
        for shape in [(5,), (_CHUNK + 3,), (4, 7), (2, 3, 5)]:
            expect = rng.uniform(0.0, TWO_PI, shape)
            got = phases.draw(shape)
            assert got.shape == shape
            assert got.tobytes() == expect.tobytes()

    def test_traced_peak_is_the_output_and_one_chunk(self):
        shape = (4, 32, 32, 32)
        tracemalloc.start()
        try:
            _Phases(0).draw(shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * np.prod(shape) + 3 * 2**20
