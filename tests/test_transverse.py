import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TWO_PI, basic_spec, full_spec
from vaisflow.convergence import fitted_order
from vaisflow.exceptions import GridError, NonPositiveDeterminant, PositivityLost, SingularMetric
from vaisflow.grid import GridSpec, ScalarField, diff1, diff2
from vaisflow.transverse import (
    HermitianField,
    _assemble,
    _d_z,
    _ddbar_parts,
    _spectrum,
    connection_trace,
    ddbar,
    hermiticity_defect,
    log_det,
    metric_from_potential,
    ricci,
    ricci_difference_check,
    scalar_curvature,
)


def bump_metric(res=64, amplitude=-0.4):
    spec = basic_spec(res=res)
    h = ScalarField.from_function(spec, lambda x, y: amplitude * np.cos(x))
    return spec, metric_from_potential(h, HermitianField.identity(spec))


def closed_form_ricci(x, eps=0.1):
    # R = -(1/4) d^2/dx^2 log(1 + eps cos x)
    num = -eps * np.cos(x) * (1 + eps * np.cos(x)) - eps**2 * np.sin(x) ** 2
    return -0.25 * num / (1 + eps * np.cos(x)) ** 2


class TestHermitianField:
    def test_rejects_non_hermitian(self):
        spec = basic_spec(n=2, res=8)
        mats = np.zeros((8, 8, 8, 8, 2, 2), dtype=complex)
        mats[..., 0, 1] = 1.0j
        mats[..., 1, 0] = 1.0j  # should be -1j
        with pytest.raises(GridError):
            HermitianField(spec, mats)

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, complex(1.0, np.inf)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite(self, entry, where):
        spec = basic_spec(n=2, res=8)
        mats = np.array(HermitianField.identity(spec).matrices)
        mats[(3, 4, 5, 6) + where] = entry
        mats[(3, 4, 5, 6) + where[::-1]] = np.conj(entry)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no inf - inf on the way
            with pytest.raises(GridError, match="finite"):
                HermitianField(spec, mats)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_defect_matches_the_full_difference(self, n):
        rng = np.random.default_rng(n)
        shape = (6, 5, n, n)
        mats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        full = np.max(np.abs(mats - np.conj(np.swapaxes(mats, -1, -2))))
        assert hermiticity_defect(mats) == float(full)

    def test_constant_needs_an_n_by_n_matrix(self):
        with pytest.raises(GridError, match="expected an 2 x 2 matrix"):
            HermitianField.constant(basic_spec(n=2, res=8), np.eye(3))

    @pytest.mark.parametrize("matrix, message", [
        ([[1.0, 0.5], [0.0, 1.0]], "not Hermitian"),
        ([[1.0, 0.0], [0.0, 1.0 + 1e-9j]], "not Hermitian"),
        ([[1.0, np.nan], [np.nan, 1.0]], "finite"),
        ([[np.inf, 0.0], [0.0, 1.0]], "finite"),
    ])
    def test_constant_checks_its_matrix(self, matrix, message):
        with pytest.raises(GridError, match=message):
            HermitianField.constant(basic_spec(n=2, res=8), np.array(matrix))

    @pytest.mark.parametrize("basic", [True, False])
    def test_constant_and_zeros_equal_the_checked_fields(self, basic):
        """Checked once, not per point: the same bits as construction, within the same tolerance."""
        spec = full_spec(n=2, res=8, leaf=8)
        shape = spec.shape(basic) + (2, 2)
        for matrix in ([[2.0, 0.5 - 0.25j], [0.5 + 0.25j, 1.0]], [[1.0, 5e-13], [0.0, 1.0]]):
            matrix = np.array(matrix, dtype=np.complex128)
            expected = HermitianField(spec, np.broadcast_to(matrix, shape), basic)
            got = HermitianField.constant(spec, matrix, basic)
            assert np.array_equal(got.matrices.view(np.uint64), expected.matrices.view(np.uint64))
            assert got.matrices.flags.c_contiguous and not got.matrices.flags.writeable
        zeros = HermitianField.zeros(spec, basic)
        assert zeros.matrices.shape == shape and not np.any(zeros.matrices)
        assert not zeros.matrices.flags.writeable

    def test_basic_and_full_fields_do_not_add(self):
        spec = full_spec(res=16, leaf=8)
        with pytest.raises(GridError, match="basic and a full"):
            HermitianField.identity(spec) + HermitianField.identity(spec, basic=False)

    @pytest.mark.parametrize("op", ["add", "sub"])
    def test_fields_on_different_grids_do_not_add(self, op):
        a = GridSpec(1, (8, 8), (TWO_PI, TWO_PI))
        b = GridSpec(1, (8, 8), (1.0, 1.0))
        f, g = HermitianField.identity(a), HermitianField.identity(b)
        with pytest.raises(GridError, match="different grids"):
            f + g if op == "add" else f - g

    def test_positivity_check(self):
        spec = basic_spec(res=16)
        good = HermitianField.identity(spec)
        assert good.checked_positive() is good
        bad = HermitianField.constant(spec, np.array([[-1.0]]))
        with pytest.raises(PositivityLost) as err:
            bad.checked_positive()
        assert err.value.min_eigenvalue == -1.0
        assert err.value.location is not None


class TestDdbar:
    def test_constant_is_zero(self):
        spec = basic_spec(res=16)
        out = ddbar(ScalarField.constant(spec, 2.5))
        assert np.all(out.matrices == 0.0)

    def test_cos_entry(self):
        spec = basic_spec(res=128)
        f = ScalarField.from_function(spec, lambda x, y: -4.0 * np.cos(x))
        out = ddbar(f)
        exact = np.cos(spec.coordinate_mesh(0))
        assert np.max(np.abs(out.matrices[..., 0, 0] - exact)) < 1e-6

    def test_product_entry(self):
        spec = basic_spec(res=128)
        f = ScalarField.from_function(spec, lambda x, y: np.cos(x) * np.cos(y))
        out = ddbar(f)
        # quarter-Laplacian oracle: (1/4)(f_xx + f_yy) = -(1/2) cos x cos y
        exact = -0.5 * np.cos(spec.coordinate_mesh(0)) * np.cos(spec.coordinate_mesh(1))
        assert np.max(np.abs(out.matrices[..., 0, 0] - exact)) < 1e-6

    @given(
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        st.floats(min_value=-3, max_value=3, allow_nan=False),
    )
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, a, b):
        spec = basic_spec(res=16)
        f = ScalarField.from_function(spec, lambda x, y: np.cos(x))
        g = ScalarField.from_function(spec, lambda x, y: np.sin(y))
        lhs = ddbar(a * f + b * g)
        rhs_m = a * ddbar(f).matrices + b * ddbar(g).matrices
        assert np.max(np.abs(lhs.matrices - rhs_m)) < 1e-12

    def test_hermitian_off_diagonal(self):
        spec = basic_spec(n=2, res=16)
        f = ScalarField.from_function(
            spec, lambda x1, y1, x2, y2: np.cos(x1) * np.cos(x2) + np.sin(y1) * np.sin(x2)
        )
        out = ddbar(f)
        defect = np.max(np.abs(out.matrices - np.conj(np.swapaxes(out.matrices, -1, -2))))
        assert defect == 0.0  # mirrored construction

    def test_complex_rejected(self):
        spec = basic_spec(res=16)
        with pytest.raises(GridError, match="must be real"):
            ddbar(ScalarField.constant(spec, 1.0 + 0j))


def complex_route_ddbar(values, spec):
    """ddbar through complex Wirtinger stencils, the route the real-part core replaced.

    The mixed entries differ from the core's in rounding only: a complex
    division by h multiplies by 1/h.
    """
    n = spec.n
    hs = spec.spacings
    out = np.zeros(values.shape + (n, n), dtype=np.complex128)
    for j in range(n):
        ax, ay = 2 * j, 2 * j + 1
        out[..., j, j] = 0.25 * (diff2(values, ax, hs[ax]) + diff2(values, ay, hs[ay]))
    for j in range(n):
        for k in range(j + 1, n):
            jx, jy = 2 * j, 2 * j + 1
            kx, ky = 2 * k, 2 * k + 1
            dk = 0.5 * (diff1(values, kx, hs[kx]) + 1j * diff1(values, ky, hs[ky]))
            entry = 0.5 * (diff1(dk, jx, hs[jx]) - 1j * diff1(dk, jy, hs[jy]))
            out[..., j, k] = entry
            out[..., k, j] = np.conj(entry)
    return out


# (n, basic): the smallest n = 3 full grid has 8^8 points, too large to test here.
_CORE_CASES = [(2, True), (2, False), (3, True)]


def _random_potential(n, basic, seed=0):
    """A random real phi on a small grid, on multiples of 2^-10 so that adding 3 is exact."""
    spec = basic_spec(n=n, res=8) if basic else full_spec(n=n, res=8, leaf=8)
    rng = np.random.default_rng(seed)
    values = np.round(1024 * rng.standard_normal(spec.shape(basic))) / 1024
    return spec, values


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestDdbarCore:
    @pytest.mark.parametrize("n, basic", _CORE_CASES)
    def test_matches_the_complex_route(self, n, basic):
        """Diagonal bit for bit, mixed entries within a few rounding errors of the largest entry."""
        spec, values = _random_potential(n, basic)
        got = ddbar(ScalarField(spec, values, basic=basic)).matrices
        anchor = complex_route_ddbar(values, spec)
        diagonal = (..., range(n), range(n))
        assert np.array_equal(_bits(got[diagonal]), _bits(anchor[diagonal]))
        scale = np.max(np.abs(anchor))
        assert np.max(np.abs(got - anchor)) <= 4 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("n, basic", _CORE_CASES)
    def test_lower_triangle_is_the_exact_conjugate(self, n, basic):
        spec, values = _random_potential(n, basic, seed=1)
        m = _assemble(_ddbar_parts(values, spec))
        for j in range(n):
            assert np.array_equal(_bits(m[..., j, j].imag), _bits(np.zeros(m.shape[:-2])))
            for k in range(j + 1, n):
                assert np.array_equal(_bits(m[..., k, j]), _bits(np.conj(m[..., j, k])))

    @pytest.mark.parametrize("n, basic", [(1, True), (1, False)] + _CORE_CASES)
    def test_assembly_matches_plane_by_plane_writes(self, n, basic):
        """_assemble gives the bits of writing each real plane of the matrices in place."""
        spec, values = _random_potential(n, basic, seed=3)
        parts = _ddbar_parts(values, spec)
        parts.reshape(n * n, -1)[:, :4] = [0.0, -0.0, 5e-324, -1e308]
        ref = np.empty(parts.shape[2:] + (n, n), dtype=np.complex128)
        for j in range(n):
            ref.real[..., j, j], ref.imag[..., j, j] = parts[j, j], 0.0
            for k in range(j + 1, n):
                ref.real[..., j, k] = ref.real[..., k, j] = parts[j, k]
                ref.imag[..., j, k], ref.imag[..., k, j] = parts[k, j], -parts[k, j]
        assert np.array_equal(_bits(_assemble(parts)), _bits(ref))

    @pytest.mark.parametrize("n, basic", _CORE_CASES)
    def test_constant_shift_leaves_every_part_bit_identical(self, n, basic):
        spec, values = _random_potential(n, basic, seed=2)
        shifted = values + 3.0
        assert np.array_equal(shifted - 3.0, values)  # the shift is exact
        assert np.array_equal(_bits(_ddbar_parts(shifted, spec)), _bits(_ddbar_parts(values, spec)))


class TestAssembledField:
    def test_checks_shape_and_finiteness_but_not_hermiticity(self):
        spec = basic_spec(n=2, res=8)
        m = np.zeros(spec.shape(True) + (2, 2), dtype=np.complex128)
        m[..., 0, 1] = 0.5  # g_{1 2bar} = 0.5 but g_{2 1bar} = 0
        with pytest.raises(GridError, match="not Hermitian"):
            HermitianField(spec, m)
        f = HermitianField._assembled(spec, m)
        assert f.matrices is m and not m.flags.writeable
        bad = m.copy()
        bad[1, 2, 3, 4, 1, 1] = np.nan
        with pytest.raises(GridError, match="finite"):
            HermitianField._assembled(spec, bad)
        with pytest.raises(GridError, match="does not match"):
            HermitianField._assembled(spec, np.zeros((8, 8, 8, 8, 1, 1), dtype=np.complex128))

    def test_public_ddbar_and_ricci_equal_validated_fields(self):
        spec = basic_spec(n=2, res=8)
        h = ScalarField.from_function(spec, lambda *c: -0.1 * np.cos(c[0] - c[2]) + 0.05 * np.sin(c[3]))
        g = metric_from_potential(h, HermitianField.identity(spec))
        for field in (ddbar(h), ricci(g)):
            checked = HermitianField(spec, field.matrices)
            assert np.array_equal(_bits(checked.matrices), _bits(field.matrices))


class TestMetricFromPotential:
    def test_zero_potential_identity(self):
        spec = basic_spec(res=16)
        g = metric_from_potential(ScalarField.zeros(spec), HermitianField.identity(spec))
        assert np.array_equal(g.matrices, HermitianField.identity(spec).matrices)

    def test_cos_bump(self):
        spec, g = bump_metric(res=64)
        exact = 1 + 0.1 * np.cos(spec.coordinate_mesh(0))
        assert np.max(np.abs(g.matrices[..., 0, 0] - exact)) < 1e-6

    def test_inadmissible_potential(self):
        spec = basic_spec(res=64)
        h = ScalarField.from_function(spec, lambda x, y: -8.0 * np.cos(x))
        with pytest.raises(PositivityLost):
            metric_from_potential(h, HermitianField.identity(spec))

    def test_full_base_broadcasts_the_potential(self):
        spec = full_spec(n=2, res=8, leaf=8)
        h = ScalarField.from_function(spec, lambda *c: -0.1 * np.cos(c[0] - c[2]) + 0.05 * np.sin(c[3]))
        basic = metric_from_potential(h, HermitianField.identity(spec))
        full = metric_from_potential(h, HermitianField.identity(spec, basic=False))
        assert basic.basic and not full.basic
        expected = np.broadcast_to(basic.matrices[..., None, None, :, :], full.matrices.shape)
        assert np.array_equal(_bits(full.matrices), _bits(expected))

    def test_non_basic_rejected(self):
        from conftest import full_spec

        spec = full_spec(res=16, leaf=8)
        h = ScalarField.zeros(spec, basic=False)
        with pytest.raises(GridError):
            metric_from_potential(h, HermitianField.identity(spec))


class TestLogDet:
    def test_identity(self):
        spec = basic_spec(res=16)
        assert np.all(log_det(HermitianField.identity(spec)).values == 0.0)

    def test_scaled_identity_n2(self):
        spec = basic_spec(n=2, res=8)
        g = HermitianField.constant(spec, 2.0 * np.eye(2))
        assert np.max(np.abs(log_det(g).values - np.log(4.0))) < 1e-14

    def test_pointwise_no_differentiation(self):
        spec, g = bump_metric(res=64)
        exact = np.log(g.matrices[..., 0, 0].real)
        assert np.max(np.abs(log_det(g).values - exact)) < 1e-12

    def test_non_positive(self):
        spec = basic_spec(res=16)
        g = HermitianField.constant(spec, np.array([[-2.0]]))
        with pytest.raises(NonPositiveDeterminant):
            log_det(g)

    def test_scale_covariance(self):
        spec, g = bump_metric(res=32)
        lhs = log_det(g.scaled(3.0)).values
        rhs = log_det(g).values + np.log(3.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def _rotated(eigenvalues, rng):
    """Hermitian matrices U diag(eigenvalues) U^H for random unitary U, one per row."""
    count, n = eigenvalues.shape
    x = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    u, _ = np.linalg.qr(x)
    g = (u * eigenvalues[:, None, :]) @ np.conj(np.swapaxes(u, -1, -2))
    return 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))


def _spectrum_family(name, rng, count=4096):
    if name == "random":
        x = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
        return x @ np.conj(np.swapaxes(x, -1, -2)) + 1e-3 * np.eye(2)
    g = np.zeros((count, 2, 2), dtype=complex)
    if name == "diagonal":
        g[:, 0, 0], g[:, 1, 1] = rng.uniform(0.01, 10.0, (2, count))
    elif name == "degenerate":  # a = d, b = 0
        g[:, 0, 0] = g[:, 1, 1] = rng.uniform(0.01, 10.0, count)
    else:  # near-singular: eigenvalues 1 and 1e-8, randomly rotated
        g = _rotated(np.tile([1.0, 1e-8], (count, 1)), rng)
    return g


class TestSpectrum:
    """The closed-form n = 2 spectrum against LAPACK, point by point."""

    @pytest.mark.parametrize("family", ["random", "diagonal", "degenerate", "near_singular"])
    def test_n2_within_rounding_of_lapack(self, family):
        g = _spectrum_family(family, np.random.default_rng(len(family)))
        lows, highs, ld = _spectrum(g, 2, floor=0.0)
        w = np.linalg.eigvalsh(g)
        sign, logdet = np.linalg.slogdet(g)
        assert np.all(sign.real > 0)
        eps = np.finfo(float).eps
        assert np.all(np.abs(lows - w[..., 0]) <= 8 * eps * highs)
        assert np.all(np.abs(highs - w[..., 1]) <= 8 * eps * highs)
        # highs / lows bounds the rounding of det relative to det; the log's own
        # rounding adds ulps of |log det|, reached where highs / lows is 1.
        assert np.all(np.abs(ld - logdet) <= 8 * eps * (highs / lows + np.abs(logdet)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_log_det_only_above_the_floor(self, n):
        g = np.tile(np.eye(n, dtype=complex), (4, 1, 1))
        g[1] *= -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no log of a non-positive value
            lows, highs, ld = _spectrum(g, n, floor=0.0)
            assert ld is None and _spectrum(g, n)[2] is None
        assert float(np.min(lows)) == -1.0 and float(np.max(highs)) == 1.0

    def test_zero_matrix_has_zero_eigenvalues(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no 0 / 0
            lows, highs, _ = _spectrum(np.zeros((3, 2, 2), dtype=complex), 2)
        assert np.all(lows == 0.0) and np.all(highs == 0.0)

    def test_indefinite_n2_log_det_raises(self):
        spec = basic_spec(n=2, res=8)
        g = HermitianField.constant(spec, np.array([[1.0, 2.0j], [-2.0j, 1.0]]))
        with pytest.raises(NonPositiveDeterminant):
            log_det(g)

    def test_n2_breach_located(self):
        spec = basic_spec(n=2, res=8)
        mats = np.array(HermitianField.identity(spec).matrices)
        where = (5, 2, 7, 1)
        mats[where] = [[0.5, 1.0 + 0.5j], [1.0 - 0.5j, 0.5]]
        with pytest.raises(PositivityLost) as err:
            HermitianField(spec, mats).checked_positive()
        assert err.value.location == where
        assert err.value.min_eigenvalue == pytest.approx(0.5 - np.sqrt(1.25), rel=1e-15)

    def test_n3_against_lapack(self):
        spec = basic_spec(n=3, res=8)
        rng = np.random.default_rng(3)
        shape = spec.transverse_shape + (3, 3)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        mats = x @ np.conj(np.swapaxes(x, -1, -2)) + 0.05 * np.eye(3)
        g = HermitianField(spec, 0.5 * (mats + np.conj(np.swapaxes(mats, -1, -2))))
        w = np.linalg.eigvalsh(g.matrices)
        sign, logdet = np.linalg.slogdet(g.matrices)
        assert np.all(sign.real > 0)
        ld = log_det(g).values
        eps = np.finfo(float).eps
        assert np.all(np.abs(ld - logdet) <= 8 * eps * w[..., 2] / w[..., 0])
        lows, highs, ld_slice = _spectrum(g.matrices[0, 0, 0], 3, floor=0.0)
        assert np.array_equal(lows, w[0, 0, 0, ..., 0])
        assert np.array_equal(highs, w[0, 0, 0, ..., 2])
        assert np.array_equal(ld_slice, ld[0, 0, 0])


class TestRicci:
    def test_flat_is_zero(self):
        spec = basic_spec(res=32)
        r = ricci(HermitianField.identity(spec))
        assert np.max(np.abs(r.matrices)) < 1e-12

    def test_closed_form_and_order(self):
        errors = []
        for res in (32, 64, 128):
            spec, g = bump_metric(res=res)
            r = ricci(g)
            exact = closed_form_ricci(spec.coordinate_mesh(0))
            errors.append(np.max(np.abs(r.matrices[..., 0, 0].real - exact)))
        assert errors[-1] < 2e-5
        assert fitted_order((32, 64, 128), errors) >= 3.5

    @pytest.mark.parametrize("form", ["x1_minus_x2", "x1_plus_y2"])
    def test_off_diagonal_n2_closed_form_and_order(self, form):
        """n = 2 with g_12 != 0: f = -0.4 cos s along a direction sigma that mixes z^1 and z^2.

        With f'' = 0.4 cos s, g = I + (f''/4) sigma sigma^H, det g = 1 + f''/2 = L
        and Ric = -(1/4) (log L)'' sigma sigma^H, with sigma = (1, -1) for
        s = x^1 - x^2 and sigma = (1, -i) for s = x^1 + y^2, where
        Ric_12 = -i (log L)''/4 is imaginary.  Criterion 5's bounds.
        """
        errors = []
        for res in (32, 64, 128):
            if form == "x1_minus_x2":
                spec = GridSpec(2, (res, 8, res, 8), (TWO_PI,) * 4)
                s = spec.coordinate_mesh(0) - spec.coordinate_mesh(2)
                sigma = np.array([1.0, -1.0])
            else:
                spec = GridSpec(2, (res, 8, 8, res), (TWO_PI,) * 4)
                s = spec.coordinate_mesh(0) + spec.coordinate_mesh(3)
                sigma = np.array([1.0, -1.0j])
            h = ScalarField(spec, np.broadcast_to(-0.4 * np.cos(s), spec.transverse_shape))
            r = ricci(metric_from_potential(h, HermitianField.identity(spec))).matrices
            # (log L)'' for L = 1 + 0.2 cos s
            second = (-0.2 * np.cos(s) - 0.04) / (1.0 + 0.2 * np.cos(s)) ** 2
            exact = -0.25 * second[..., None, None] * np.outer(sigma, np.conj(sigma))
            errors.append(np.max(np.abs(r - exact)))
        assert errors[-1] < 2e-5
        assert fitted_order((32, 64, 128), errors) >= 3.5

    def test_value_at_origin(self):
        spec, g = bump_metric(res=128)
        r = ricci(g)
        assert abs(r.matrices[0, 0, 0, 0].real - 0.1 / 4.4) < 2e-5

    def test_scale_invariance(self):
        spec, g = bump_metric(res=32)
        lhs = ricci(g.scaled(2.5)).matrices
        rhs = ricci(g).matrices
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_against_second_order_oracle_at_double_resolution(self):
        # Independent oracle: plain second-order stencils for both the
        # Hesse coefficients and the Ricci log-det derivative, run at twice
        # the resolution; its own error is estimated by Richardson
        # comparison against a 4x run, and the module result must agree
        # within that budget.
        def oracle(res, fn):
            spec = basic_spec(res=res)
            x, y = spec.coordinate_mesh(0), spec.coordinate_mesh(1)
            h = fn(x, y)
            hx = spec.spacings[0]
            hy = spec.spacings[1]

            def lap(v):
                out = (np.roll(v, -1, 0) - 2 * v + np.roll(v, 1, 0)) / hx**2
                out += (np.roll(v, -1, 1) - 2 * v + np.roll(v, 1, 1)) / hy**2
                return out

            g = 1.0 + 0.25 * lap(h)
            return -0.25 * lap(np.log(g))

        fn = lambda x, y: -0.3 * np.cos(x) * np.cos(y) - 0.2 * np.cos(y)
        res = 32
        spec = basic_spec(res=res)
        h = ScalarField.from_function(spec, fn)
        r = ricci(metric_from_potential(h, HermitianField.identity(spec)))

        coarse = oracle(2 * res, fn)[:: 2, :: 2]
        finer = oracle(4 * res, fn)[:: 4, :: 4]
        oracle_error = (4.0 / 3.0) * np.max(np.abs(coarse - finer))
        diff = np.max(np.abs(r.matrices[..., 0, 0].real - coarse))
        assert diff <= 2.0 * oracle_error + 1e-12


class TestRicciBits:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_negated_ddbar_of_log_det(self, n):
        """ricci builds one field with the bits of -(ddbar log det g).

        n = 3 runs on its smallest legal grid, 8^6 points.
        """
        spec = basic_spec(n=n, res=16 if n == 1 else 8)
        h = ScalarField.from_function(spec, lambda *c: -0.3 * np.cos(c[0]) + 0.1 * np.sin(c[-1]))
        g = metric_from_potential(h, HermitianField.identity(spec))
        assert np.array_equal(ricci(g).matrices, -ddbar(log_det(g)).matrices)


class TestChristoffel:
    """The contracted Christoffel symbol tr_k Gamma^k_{j k} (connection_trace)."""

    def test_flat_zero(self):
        spec = basic_spec(res=16)
        trace = connection_trace(HermitianField.identity(spec))
        assert np.max(np.abs(trace)) == 0.0

    def test_analytic_value(self):
        # For n = 1 the trace is the one symbol Gamma^1_{11} = d log g / dz.
        spec, g = bump_metric(res=64)
        trace = connection_trace(g)
        x = spec.coordinate_mesh(0)
        exact = -0.05 * np.sin(x) / (1 + 0.1 * np.cos(x))
        assert np.max(np.abs(trace[..., 0] - exact)) < 1e-5

    def test_jacobi_trace(self):
        spec, g = bump_metric(res=64)
        trace = connection_trace(g)
        target = _d_z(log_det(g).values, 0, spec)
        assert np.max(np.abs(trace[..., 0] - target)) < 1e-5

    def test_singular_metric_is_located(self):
        with pytest.raises(SingularMetric, match=r"singular near grid index \(0, 0\)"):
            connection_trace(HermitianField.zeros(basic_spec(res=16)))

    def test_condition_number_warning(self):
        spec = basic_spec(n=2, res=8)
        g = HermitianField.constant(spec, np.diag([1.0, 1e-9]))
        with pytest.warns(UserWarning, match="condition number"):
            connection_trace(g)


class TestRicciDifference:
    def test_same_metric(self):
        spec, g = bump_metric(res=32)
        assert ricci_difference_check(g, g) < 1e-12

    def test_flat_vs_bump_and_order(self):
        residuals = []
        for res in (32, 64, 128):
            spec, g = bump_metric(res=res)
            flat = HermitianField.identity(spec)
            residuals.append(ricci_difference_check(flat, g))
        assert residuals[-1] < 1e-5
        assert fitted_order((32, 64, 128), residuals) >= 3.5


class TestScalarCurvature:
    def test_flat(self):
        spec = basic_spec(res=16)
        s = scalar_curvature(HermitianField.identity(spec))
        assert np.max(np.abs(s.values)) < 1e-12

    def test_convention_factor(self):
        # s = 2 g^{j kbar} R_{j kbar}; with n = 1 and g = 1 this is twice
        # the Ricci entry.
        spec, g = bump_metric(res=64)
        r = ricci(g)
        s = scalar_curvature(g, r)
        manual = 2.0 * (r.matrices[..., 0, 0].real / g.matrices[..., 0, 0].real)
        assert np.max(np.abs(s.values - manual)) < 1e-12
