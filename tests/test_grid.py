import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TWO_PI, basic_spec, full_spec
from vaisflow.convergence import fitted_order
from vaisflow.exceptions import GridError
from vaisflow.grid import GridSpec, ScalarField, _Stencil, fd_derivative, integrate, norms
from vaisflow.transverse import _d_z, _d_zbar
from vaisflow.transverse import HermitianField


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(GridError):
            GridSpec(0, (), ())
        with pytest.raises(GridError):
            GridSpec(1, (64,), (TWO_PI, TWO_PI))  # wrong count
        with pytest.raises(GridError):
            GridSpec(1, (6, 64), (TWO_PI, TWO_PI))  # below minimum
        with pytest.raises(GridError):
            GridSpec(1, (63, 64), (TWO_PI, TWO_PI))  # odd
        with pytest.raises(GridError):
            GridSpec(1, (64, 64), (TWO_PI, -1.0))
        with pytest.raises(GridError):
            GridSpec(1, (64, 64), (TWO_PI, TWO_PI), leaf_resolution=(8, 8))  # periods missing

    def test_full_vs_basic(self):
        spec = full_spec(res=16, leaf=8)
        assert spec.has_leaf
        assert spec.num_axes == 4
        assert spec.shape(basic=True) == (16, 16)
        assert spec.shape(basic=False) == (16, 16, 8, 8)
        assert not basic_spec(res=16).has_leaf

    def test_field_shape_mismatch(self):
        spec = basic_spec(res=16)
        with pytest.raises(GridError):
            ScalarField(spec, np.zeros((16, 8)))

    def test_values_frozen(self):
        f = ScalarField.zeros(basic_spec(res=16))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


class TestSpecGuards:
    """The raises of a spec's axis and shape queries, and of its period count."""

    def test_period_count(self):
        with pytest.raises(GridError, match="expected 2 transverse periods, got 1"):
            GridSpec(1, (64, 64), (TWO_PI,))

    def test_full_shape_needs_leaf_axes(self):
        with pytest.raises(GridError, match="no leaf axes"):
            basic_spec(res=16).shape(basic=False)

    def test_axis_range_and_basic_coordinates(self):
        spec = full_spec(res=16, leaf=8)
        with pytest.raises(GridError, match="axis 4 out of range"):
            spec.is_leaf_axis(4)
        with pytest.raises(GridError, match="axis -1 out of range"):
            spec.coordinate(-1)
        with pytest.raises(GridError, match="no leaf coordinates"):
            spec.coordinate_mesh(2, basic=True)


class TestScalarFieldOperators:
    def test_values(self):
        spec = basic_spec(res=16)
        a = np.random.default_rng(5).standard_normal((16, 16))
        b = np.random.default_rng(6).standard_normal((16, 16))
        f, g = ScalarField(spec, a), ScalarField(spec, b)
        assert np.array_equal((f + 2.5).values, a + 2.5)
        assert np.array_equal((f - 2.5).values, a - 2.5)
        assert np.array_equal((f * g).values, a * b)
        assert np.array_equal((-f).values, -a)

    def test_layouts_must_match(self):
        spec = full_spec(res=16, leaf=8)
        with pytest.raises(GridError, match="different grids"):
            ScalarField.zeros(spec) + ScalarField.zeros(full_spec(res=32, leaf=8))
        with pytest.raises(GridError, match="basic and full"):
            ScalarField.zeros(spec) * ScalarField.zeros(spec, basic=False)


def test_a_halo_holds_two_planes():
    src, out, tmp1, tmp2 = (np.empty((16, 8)) for _ in range(4))
    with pytest.raises(GridError, match="at least the stencil's 2 planes, got 1"):
        _Stencil(2, src, 0, 0.1, out, tmp1, tmp2, halo=1)


class TestFittedOrder:
    def test_fourth_order(self):
        res = np.array([32, 64, 128])
        assert abs(fitted_order(res, 3.0 / res**4) - 4.0) < 1e-12

    @pytest.mark.parametrize("resolutions, errors, message", [
        ([32], [1e-3], "length >= 2"),
        ([32, 64], [1e-3], "length >= 2"),
        ([32, 64], [1e-3, 0.0], "must be positive"),
    ])
    def test_rejects(self, resolutions, errors, message):
        with pytest.raises(ValueError, match=message):
            fitted_order(resolutions, errors)


class TestFrozenValues:
    @pytest.mark.parametrize(
        "raw, dtype",
        [
            (np.arange(256).reshape(16, 16), np.float64),
            (np.ones((16, 16), dtype=np.float32), np.float64),
        ],
    )
    def test_scalar_field_copies(self, raw, dtype):
        f = ScalarField(GridSpec(1, (16, 16), (TWO_PI, TWO_PI)), raw)
        assert f.values.dtype == dtype and not f.values.flags.writeable
        assert np.array_equal(f.values, raw) and not np.shares_memory(f.values, raw)

    @pytest.mark.parametrize("make", [
        lambda spec: ScalarField(spec, np.ones((16, 16), dtype=np.complex64)),
        lambda spec: ScalarField(spec, [[1j] * 16] * 16),
        lambda spec: ScalarField.constant(spec, 1j),
        lambda spec: ScalarField.constant(spec, 1.0 + 0j),
        lambda spec: ScalarField.from_function(spec, lambda x, y: np.exp(1j * x)),
        lambda spec: ScalarField.zeros(spec).with_values(np.zeros((16, 16), dtype=complex)),
    ], ids=["array", "list", "constant", "zero_imaginary_part", "from_function", "with_values"])
    def test_scalar_field_values_must_be_real(self, make):
        with pytest.raises(GridError, match="scalar field values must be real"):
            make(GridSpec(1, (16, 16), (TWO_PI, TWO_PI)))

    def test_broadcast_input_becomes_c_contiguous(self):
        spec = full_spec(res=16, leaf=8)
        row = np.arange(16.0).reshape(16, 1, 1, 1)
        for f in (
            ScalarField(spec, np.broadcast_to(row, spec.full_shape), basic=False),
            HermitianField(
                spec, np.broadcast_to(row[..., None], spec.full_shape + (1, 1)), basic=False
            ),
        ):
            values = f.values if isinstance(f, ScalarField) else f.matrices
            assert values.flags.c_contiguous and not values.flags.writeable
        assert f.matrices.dtype == np.complex128


class TestFdDerivative:
    def test_sin_first_derivative(self):
        # The classical five-point fourth-order stencil has relative error
        # kappa^4/30 on a pure mode: 3.1e-6 at 64 points, 1.9e-7 at 128.
        for res, tol in ((64, 5e-6), (128, 1e-6)):
            spec = basic_spec(res=res)
            f = ScalarField.from_function(spec, lambda x, y: np.sin(x))
            df = fd_derivative(f, 0, 1)
            exact = np.cos(spec.coordinate_mesh(0))
            assert np.max(np.abs(df.values - exact)) < tol

    def test_constant_killed_exactly(self):
        spec = basic_spec(res=16)
        c = ScalarField.constant(spec, 3.7182)
        for order in (1, 2):
            out = fd_derivative(c, 0, order)
            assert np.all(out.values == 0.0)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_constant_killed_for_any_value(self, c):
        spec = basic_spec(res=8)
        out = fd_derivative(ScalarField.constant(spec, c), 1, 2)
        assert np.all(out.values == 0.0)

    def test_sin_second_derivative(self):
        spec = basic_spec(res=128)
        f = ScalarField.from_function(spec, lambda x, y: np.sin(x))
        d2 = fd_derivative(f, 0, 2)
        assert np.max(np.abs(d2.values + f.values)) < 1e-6

    def test_leaf_derivative_of_basic_field_is_zero(self):
        spec = full_spec(res=16, leaf=8)
        f = ScalarField.from_function(spec, lambda x, y: np.cos(x), basic=True)
        out = fd_derivative(f, 2, 1)
        assert out.basic
        assert np.all(out.values == 0.0)

    def test_axis_out_of_range(self):
        spec = basic_spec(res=16)
        f = ScalarField.zeros(spec)
        with pytest.raises(GridError):
            fd_derivative(f, 2, 1)
        with pytest.raises(GridError):
            fd_derivative(f, 0, 3)

    def test_refinement_order(self):
        errors = []
        resolutions = (32, 64, 128)
        for res in resolutions:
            spec = basic_spec(res=res)
            f = ScalarField.from_function(spec, lambda x, y: np.sin(x) * np.cos(2 * y))
            df = fd_derivative(f, 0, 1)
            exact = np.cos(spec.coordinate_mesh(0)) * np.cos(2 * spec.coordinate_mesh(1))
            errors.append(np.max(np.abs(df.values - exact)))
        assert fitted_order(resolutions, errors) >= 3.5

    def test_integral_of_derivative_vanishes(self):
        spec = basic_spec(res=64)
        f = ScalarField.from_function(spec, lambda x, y: np.exp(np.sin(x) + 0.3 * np.cos(y)))
        assert abs(integrate(fd_derivative(f, 0, 1))) < 1e-12
        assert abs(integrate(fd_derivative(f, 1, 1))) < 1e-12


class TestWirtinger:
    """d/dz^1 and d/dzbar^1 on the grid's first differences (transverse._d_z and _d_zbar)."""

    def test_linear_coordinates(self):
        # d(x^1)/dz = 1/2 and d(y^1)/dz = -+ i/2.  The coordinate functions
        # are linear, so the stencil is exact away from the wrap seam (two
        # cells on each side).
        spec = basic_spec(res=64)
        interior = slice(2, -2)
        fx = ScalarField.from_function(spec, lambda x, y: x + 0.0 * y)
        for derivative in (_d_z, _d_zbar):
            d = derivative(fx.values, 0, spec)
            assert np.max(np.abs(d[interior, :] - 0.5)) < 1e-12
        fy = ScalarField.from_function(spec, lambda x, y: y + 0.0 * x)
        d = _d_z(fy.values, 0, spec)
        assert np.max(np.abs(d[:, interior] + 0.5j)) < 1e-12
        dc = _d_zbar(fy.values, 0, spec)
        assert np.max(np.abs(dc[:, interior] - 0.5j)) < 1e-12

    def test_mixed_second_derivative(self):
        spec = basic_spec(res=128)
        f = ScalarField.from_function(spec, lambda x, y: np.cos(x))
        d2 = _d_zbar(_d_z(f.values, 0, spec), 0, spec)
        exact = -0.25 * np.cos(spec.coordinate_mesh(0))
        assert np.max(np.abs(d2 - exact)) < 1e-6

    def test_conjugation_identity_bitwise(self):
        spec = basic_spec(res=16)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        lhs = np.conj(_d_z(vals, 0, spec))
        rhs = _d_zbar(np.conj(vals), 0, spec)
        assert np.array_equal(lhs, rhs)


class TestIntegrateAndNorms:
    def test_constant_on_torus(self):
        spec = basic_spec(res=64)
        assert abs(integrate(ScalarField.constant(spec, 1.0)) - 4 * np.pi**2) < 1e-12

    def test_full_period_mean(self):
        spec = basic_spec(res=64)
        f = ScalarField.from_function(spec, lambda x, y: np.cos(x))
        assert abs(integrate(f)) < 1e-12

    def test_cos_squared(self):
        spec = basic_spec(res=64)
        f = ScalarField.from_function(spec, lambda x, y: np.cos(x) ** 2)
        assert abs(integrate(f) - 2 * np.pi**2) < 1e-10

    def test_complex_rejected(self):
        spec = basic_spec(res=16)
        with pytest.raises(GridError, match="must be real"):
            integrate(ScalarField.constant(spec, 1.0 + 0j))

    def test_norms(self):
        spec = basic_spec(res=64)
        zero = ScalarField.zeros(spec)
        assert norms(zero) == (0.0, 0.0, 0.0)
        f = ScalarField.from_function(spec, lambda x, y: np.cos(x))
        sup, _, mean = norms(f)
        assert sup == 1.0  # the grid contains x = 0
        assert abs(mean) < 1e-15
        g = ScalarField.from_function(spec, lambda x, y: 3.0 + np.cos(x))
        assert abs(norms(g).mean - 3.0) < 1e-12
