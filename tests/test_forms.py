import numpy as np
import pytest

from conftest import TWO_PI, full_spec
from vaisflow.exceptions import GridError
from vaisflow.forms import CoefficientForm, hermitian_to_real_two_form, wedge_one_form
from vaisflow.grid import GridSpec, ScalarField
from vaisflow.transverse import HermitianField


def one_form(spec, **axis_fields):
    comps = {(int(a),): f for a, f in axis_fields.items()}
    return CoefficientForm(spec, 1, comps)


class TestCoefficientForm:
    def test_index_validation(self):
        spec = full_spec(res=16, leaf=8)
        with pytest.raises(GridError):
            CoefficientForm(spec, 2, {(1, 0): ScalarField.zeros(spec)})
        with pytest.raises(GridError):
            CoefficientForm(spec, 1, {(9,): ScalarField.zeros(spec)})
        with pytest.raises(GridError):
            CoefficientForm(spec, 1, {(0,): ScalarField.constant(spec, 1j)})

    def test_affine_leaf_rejected(self):
        spec = full_spec(res=16, leaf=8)
        lin = np.zeros(4)
        lin[2] = 1.0  # leaf coordinate
        with pytest.raises(GridError):
            CoefficientForm(spec, 1, {}, {(0,): lin})

    def test_value_sign(self):
        spec = full_spec(res=16, leaf=8)
        f = ScalarField.constant(spec, 2.0)
        form = CoefficientForm(spec, 2, {(0, 1): f})
        assert np.all(form.value(1, 0) == -2.0)
        assert np.all(form.value(0, 0) == 0.0)

    def test_d_squared_zero_on_periodic_components(self):
        spec = full_spec(res=16, leaf=8)
        f = ScalarField.from_function(spec, lambda x, y: np.sin(x) * np.cos(y))
        form = one_form(spec, **{"0": f})
        dd = form.exterior_derivative().exterior_derivative()
        assert dd.sup_norm() < 1e-12

    def test_affine_derivative_exact(self):
        # d(x dy - y dx) = 2 dx ^ dy, computed exactly from the linear data.
        spec = full_spec(res=16, leaf=8)
        lin_x = np.zeros(4)
        lin_x[1] = -1.0  # component on dx^1 is -y^1
        lin_y = np.zeros(4)
        lin_y[0] = 1.0  # component on dy^1 is +x^1
        form = CoefficientForm(spec, 1, {}, {(0,): lin_x, (1,): lin_y})
        d = form.exterior_derivative()
        assert np.all(d.component_values((0, 1)) == 2.0)
        assert d.linear == {}

    def test_wedge_with_constant_one_form(self):
        spec = full_spec(res=16, leaf=8)
        theta = one_form(spec, **{"2": ScalarField.constant(spec, 1.0)})
        beta = one_form(spec, **{"0": ScalarField.constant(spec, 3.0)})
        w = wedge_one_form(theta, beta)
        # dx ^ (3 dx^1) = -3 dx^1 ^ dx
        assert np.all(w.component_values((0, 2)) == -3.0)

    def test_wedge_kills_overlap(self):
        spec = full_spec(res=16, leaf=8)
        theta = one_form(spec, **{"2": ScalarField.constant(spec, 1.0)})
        two = CoefficientForm(spec, 2, {(2, 3): ScalarField.constant(spec, 5.0)})
        w = wedge_one_form(theta, two)
        assert w.sup_norm() == 0.0

    def test_wedge_requires_constant_left(self):
        spec = full_spec(res=16, leaf=8)
        varying = one_form(spec, **{"0": ScalarField.from_function(spec, lambda x, y: np.cos(x))})
        other = one_form(spec, **{"1": ScalarField.constant(spec, 1.0)})
        with pytest.raises(GridError):
            wedge_one_form(varying, other)


class TestHermitianToRealTwoForm:
    def test_flat_block(self):
        spec = full_spec(res=16, leaf=8)
        w = hermitian_to_real_two_form(HermitianField.identity(spec))
        mat = w.as_matrix()
        # -i dz ^ dzbar = -2 dx ^ dy
        assert np.all(mat[..., 0, 1] == -2.0)
        assert np.all(mat[..., 1, 0] == 2.0)
        assert np.all(mat[..., 2, 3] == 0.0)

    def test_contraction_with_frame_vectors(self):
        spec = full_spec(res=16, leaf=8)
        w = hermitian_to_real_two_form(HermitianField.identity(spec))
        mat = w.as_matrix()
        dz = np.zeros(4, dtype=complex)
        dz[0] = 0.5
        dz[1] = -0.5j
        val = np.einsum("a,...ab,b->...", dz, mat, np.conj(dz))
        assert np.max(np.abs(val + 1j)) < 1e-14  # omega(X, Xbar) = -i g


class TestFormGuards:
    """Every validation raise of CoefficientForm and wedge_one_form."""

    @pytest.fixture
    def spec(self):
        return full_spec(res=16, leaf=8)

    def test_degree_and_linear_shape(self, spec):
        with pytest.raises(GridError, match="only degrees 1, 2, 3"):
            CoefficientForm(spec, 4)
        with pytest.raises(GridError, match="one entry per axis"):
            CoefficientForm(spec, 1, {}, {(0,): np.zeros(3)})

    def test_sum_of_different_degrees(self, spec):
        with pytest.raises(GridError, match="different degree"):
            CoefficientForm(spec, 1) + CoefficientForm(spec, 2)

    @pytest.mark.parametrize("op", ["add", "sub", "wedge"])
    def test_forms_on_different_grids_do_not_combine(self, op):
        a = GridSpec(1, (8, 8), (TWO_PI, TWO_PI))
        b = GridSpec(1, (8, 8), (1.0, 1.0))
        f = one_form(a, **{"0": ScalarField.constant(a, 1.0)})
        g = one_form(b, **{"1": ScalarField.constant(b, 1.0)})
        combine = {"add": f.__add__, "sub": f.__sub__, "wedge": lambda g: wedge_one_form(f, g)}[op]
        with pytest.raises(GridError, match="different grids"):
            combine(g)

    def test_degree_of_each_view(self, spec):
        two = CoefficientForm(spec, 2, {(0, 1): ScalarField.constant(spec, 1.0)})
        with pytest.raises(GridError, match="as_vector applies to 1-forms"):
            two.as_vector()
        with pytest.raises(GridError, match="as_matrix applies to 2-forms"):
            one_form(spec, **{"0": ScalarField.constant(spec, 1.0)}).as_matrix()
        with pytest.raises(GridError, match="contract_vector applies to 1-forms"):
            two.contract_vector(np.ones(4))

    def test_contraction_needs_basic_components(self, spec):
        full = one_form(spec, **{"0": ScalarField.zeros(spec, basic=False)})
        with pytest.raises(GridError, match="expects basic components"):
            full.contract_vector(np.ones(4))

    def test_wedge_needs_a_constant_one_form_on_the_left(self, spec):
        other = one_form(spec, **{"1": ScalarField.constant(spec, 1.0)})
        two = CoefficientForm(spec, 2, {(0, 1): ScalarField.constant(spec, 1.0)})
        with pytest.raises(GridError, match="expects a 1-form on the left"):
            wedge_one_form(two, other)
        lin = np.zeros(4)
        lin[0] = 1.0
        with pytest.raises(GridError, match="constant coefficients"):
            wedge_one_form(CoefficientForm(spec, 1, {}, {(1,): lin}), other)
