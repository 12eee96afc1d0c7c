import dataclasses

import numpy as np
import pytest

import vaisflow.vaisman as vaisman
from conftest import TWO_PI, basic_spec, full_spec
from vaisflow.convergence import fitted_order
from vaisflow.exceptions import GridError, IdentityViolation, NonPositiveScale, PositivityLost
from vaisflow.forms import CoefficientForm
from vaisflow.grid import GridSpec, ScalarField
from vaisflow.transverse import HermitianField, ddbar
from vaisflow.vaisman import (
    _check_chart,
    _compatibility_defect,
    _j_squared_defect,
    build_chart,
    chart_metric_tensor,
    deform,
    frame_metric_block,
    fundamental_form,
    q_homothety,
    verify_vaisman,
)


def bump_chart(res=64, amplitude=-0.4, leaf=8):
    spec = full_spec(res=res, leaf=leaf)
    h = ScalarField.from_function(spec, lambda x, y: amplitude * np.cos(x), basic=True)
    return spec, build_chart(spec, h)


@pytest.fixture(scope="module")
def flat_chart():
    spec = full_spec(res=32, leaf=8)
    return spec, build_chart(spec, ScalarField.zeros(spec))


class TestComplexStructure:
    def test_flat_reduces_to_standard_plus_seed(self, flat_chart):
        spec, chart = flat_chart
        # at the origin the seed gradient vanishes and J = J_0
        j0 = chart.jmat[0, 0]
        expected = np.zeros((4, 4))
        expected[1, 0] = 1.0
        expected[0, 1] = -1.0
        expected[3, 2] = 1.0
        expected[2, 3] = -1.0
        assert np.array_equal(j0, expected)

    def test_j_squared_everywhere(self):
        spec, chart = bump_chart(res=32)
        jj = np.einsum("...ab,...bc->...ac", chart.jmat, chart.jmat)
        assert np.max(np.abs(jj + np.eye(4))) < 1e-10

    def test_j_maps_u_to_v_exactly(self):
        spec, chart = bump_chart(res=32)
        u = np.array([0.0, 0.0, 1.0, 0.0])
        ju = np.einsum("...ab,b->...a", chart.jmat, u)
        assert np.all(ju[..., 3] == 1.0)
        assert np.max(np.abs(ju[..., :3])) == 0.0

    def test_frame_eigenvectors(self):
        spec, chart = bump_chart(res=32)
        jx = np.einsum("...ab,...jb->...ja", chart.jmat, chart.frame)
        assert np.max(np.abs(jx - 1j * chart.frame)) < 1e-10
        jxbar = np.einsum("...ab,...jb->...ja", chart.jmat, np.conj(chart.frame))
        assert np.max(np.abs(jxbar + 1j * np.conj(chart.frame))) < 1e-10


class TestLeeForms:
    def test_flat_theta_c_is_dy_plus_seed(self, flat_chart):
        spec, chart = flat_chart
        # leaf components: theta = dx exactly, theta_c has dy component 1
        assert np.all(chart.theta.component_values((2,)) == 1.0)
        assert np.all(chart.theta_c.component_values((3,)) == 1.0)
        # transverse components carry the seed: -dcP = y dx^1 - x dy^1 here
        x = spec.coordinate_mesh(0)
        y = spec.coordinate_mesh(1)
        assert np.max(np.abs(chart.theta_c.component_values((0,)) - y)) < 1e-12
        assert np.max(np.abs(chart.theta_c.component_values((1,)) + x)) < 1e-12

    def test_normalizations(self):
        spec, chart = bump_chart(res=32)
        u = np.array([0.0, 0.0, 1.0, 0.0])
        v = np.array([0.0, 0.0, 0.0, 1.0])
        assert np.max(np.abs(chart.theta.contract_vector(u) - 1.0)) == 0.0
        assert np.max(np.abs(chart.theta.contract_vector(v))) == 0.0
        assert np.max(np.abs(chart.theta_c.contract_vector(v) - 1.0)) < 1e-10
        assert np.max(np.abs(chart.theta_c.contract_vector(u))) < 1e-10

    def test_bump_pattern(self):
        # theta_c = dy + (i h_z dz - i h_zbar dzbar pattern): for the real
        # potential the dx^1 component is -P_y/2 and the dy^1 component
        # +P_x/2, so with h = A cos(x) the periodic part sits on dy^1.
        spec, chart = bump_chart(res=64)
        x = spec.coordinate_mesh(0)
        y = spec.coordinate_mesh(1)
        expected_dy1 = x + 0.5 * (-0.4) * (-np.sin(x))
        assert np.max(np.abs(chart.theta_c.component_values((1,)) + expected_dy1)) < 1e-5

    def test_frame_duality(self):
        spec, chart = bump_chart(res=32)
        # dz^j(X_k) = delta at every point
        for j in range(1):
            dz = np.zeros(4, dtype=complex)
            dz[0], dz[1] = 1.0, 1.0j
            pairing = np.einsum("a,...ja->...j", dz, chart.frame)
            assert np.max(np.abs(pairing - 1.0)) == 0.0


class TestFundamentalForm:
    def test_flat_values(self, flat_chart):
        spec, chart = flat_chart
        w = chart.omega.as_matrix()
        assert np.all(w[..., 2, 3] == -1.0)  # omega(U, V) = -theta^theta_c(U,V)
        assert np.all(w[..., 0, 1] == -2.0)  # transverse block -i dz^dzbar

    def test_transverse_block_matches_metric(self):
        spec, chart = bump_chart(res=64)
        block = frame_metric_block(chart, -chart.omega.as_matrix() @ chart.jmat)
        # equivalently read i omega(X_1, X_1bar)
        w = chart.omega.as_matrix()
        val = 1j * np.einsum("...ja,...ab,...kb->...jk", chart.frame, w, np.conj(chart.frame))
        assert np.max(np.abs(val - chart.metric.matrices)) < 1e-10

    def test_d_theta_zero(self):
        spec, chart = bump_chart(res=32)
        assert chart.theta.exterior_derivative().sup_norm() == 0.0


class TestVerifyVaisman:
    def test_flat_chart_exact(self, flat_chart):
        spec, chart = flat_chart
        r1, r2 = verify_vaisman(chart.omega, chart.theta)
        assert r1 < 1e-12
        assert r2 < 1e-12

    def test_bump_residual_and_order(self):
        residuals = []
        for res in (32, 64, 128):
            spec, chart = bump_chart(res=res)
            r1, r2 = verify_vaisman(chart.omega, chart.theta)
            residuals.append(r1)
            assert r2 < 1e-12
        assert residuals[-1] < 1e-5
        assert fitted_order((32, 64, 128), residuals) >= 3.5

    def test_detects_injected_defect(self, flat_chart):
        spec, chart = flat_chart
        bad_comp = ScalarField.from_function(
            spec, lambda x1, y1, lx, ly: 0.01 * np.sin(lx) + 0.0 * x1, basic=False
        )
        corrupted = chart.omega + CoefficientForm(spec, 2, {(0, 1): bad_comp})
        r1, _ = verify_vaisman(corrupted, chart.theta)
        assert r1 > 1e-3


class TestMetric:
    def test_leafwise_block(self, flat_chart):
        spec, chart = flat_chart
        g = chart_metric_tensor(chart)
        assert np.max(np.abs(g[..., 2, 2] - 1.0)) < 1e-12
        assert np.max(np.abs(g[..., 3, 3] - 1.0)) < 1e-12
        assert np.max(np.abs(g[..., 2, 3])) < 1e-12

    def test_compatibility(self):
        spec, chart = bump_chart(res=32)
        g = chart_metric_tensor(chart)
        jgj = np.einsum("...ca,...cd,...db->...ab", chart.jmat, g, chart.jmat)
        assert np.max(np.abs(jgj - g)) < 1e-10 * max(1.0, np.max(np.abs(g)))

    def test_frame_block_equals_hermitian_coefficients(self):
        spec, chart = bump_chart(res=64)
        g = chart_metric_tensor(chart)
        block = frame_metric_block(chart, g)
        assert np.max(np.abs(block - chart.metric.matrices)) < 1e-10


def _one_form(spec, axis, value):
    return CoefficientForm(spec, 1, {(axis,): ScalarField.constant(spec, value)})


def _planted(chart, field):
    """``chart`` with one fault planted in ``field``."""
    spec = chart.spec
    if field == "jmat":
        jmat = chart.jmat.copy()
        jmat[..., 0, 0] += 1e-6
        return dataclasses.replace(chart, jmat=jmat)
    if field == "frame":
        return dataclasses.replace(chart, frame=np.conj(chart.frame))  # J Xbar = -i Xbar
    if field == "theta_c":
        return dataclasses.replace(chart, theta_c=chart.theta_c + _one_form(spec, 0, 1e-6))
    if field == "theta":
        return dataclasses.replace(chart, theta=chart.theta + _one_form(spec, 1, 1e-6))
    # dx^1 ^ dx is not J-invariant, so g = -omega J loses J-compatibility.
    skew = CoefficientForm(spec, 2, {(0, 2): ScalarField.constant(spec, 1e-6)})
    if field == "omega":
        return dataclasses.replace(chart, omega=chart.omega + skew)
    # At 1e3 times the form a 1e-8 defect is inside the relative compatibility
    # tolerance (1e-10 of max |g|, about 4e-6) and outside the absolute
    # symmetry tolerance (1e-10), so only the symmetry check can see it.
    return dataclasses.replace(chart, omega=chart.omega.scaled(1e3) + skew.scaled(1e-2))


class TestCheckChart:
    """Every identity of the chart suite raises on a planted fault."""

    @pytest.fixture(scope="class")
    def chart(self):
        spec = full_spec(res=16, leaf=8)
        h = ScalarField.from_function(spec, lambda x, y: -0.1 * np.cos(x), basic=True)
        return build_chart(spec, h)

    def test_unplanted_charts_pass(self, chart):
        _check_chart(chart)
        _check_chart(dataclasses.replace(chart, omega=chart.omega.scaled(1e3)))

    @pytest.mark.parametrize("field, message", [
        ("jmat", r"^J\(X_j\) = i X_j fails with defect"),
        ("frame", r"^J\(X_j\) = i X_j fails with defect"),
        ("theta_c", r"^theta_c\(X_j\) = 0 fails$"),
        ("theta", r"^theta\(X_j\) = 0 fails$"),
        ("omega", r"^metric is not J-compatible$"),
        ("omega_scaled", r"^assembled metric is not symmetric$"),
    ])
    def test_planted_fault_raises(self, chart, field, message):
        with pytest.raises(IdentityViolation, match=message):
            _check_chart(_planted(chart, field))


class TestGuards:
    """The argument guards of chart construction, and the identity raises no chart reaches.

    J^2 = -id and the three theta_c identities hold by construction, so
    their raises are reached only with a fault planted in J or in the
    unit vectors U and V.
    """

    def test_needs_leaf_axes(self):
        spec = basic_spec(res=16)
        with pytest.raises(GridError, match="needs leaf axes"):
            build_chart(spec, ScalarField.zeros(spec))

    def test_potential_on_another_grid(self, flat_chart):
        spec, _ = flat_chart
        other = full_spec(res=16, leaf=8)
        with pytest.raises(GridError, match="specs differ"):
            build_chart(spec, ScalarField.zeros(other))

    @pytest.mark.parametrize("kind", ["full", "complex"])
    def test_potential_must_be_basic_and_real(self, flat_chart, kind):
        """A full potential is refused by the chart, a complex one by ScalarField itself."""
        spec, _ = flat_chart
        if kind == "full":
            with pytest.raises(GridError, match="the chart potential must be basic"):
                build_chart(spec, ScalarField.zeros(spec, basic=False))
        else:
            with pytest.raises(GridError, match="scalar field values must be real"):
                build_chart(spec, ScalarField.constant(spec, 0j))

    def test_base_metric_must_be_constant(self, flat_chart):
        spec, _ = flat_chart
        base = HermitianField(spec, np.linspace(1.0, 2.0, 32 * 32).reshape(32, 32, 1, 1))
        with pytest.raises(GridError, match="constant coefficients"):
            build_chart(spec, ScalarField.zeros(spec), base)

    def test_j_squared_raise(self, flat_chart, monkeypatch):
        spec, chart = flat_chart
        monkeypatch.setattr(vaisman, "_j_squared_defect", lambda jmat: 2e-10)
        with pytest.raises(IdentityViolation, match=r"^J\^2 = -id fails with defect 2.000e-10$"):
            build_chart(spec, chart.h)

    def test_theta_c_against_the_contraction(self, flat_chart, monkeypatch):
        spec, chart = flat_chart
        assemble = vaisman._assemble_j

        def planted(spec, dc_vals):
            jmat, defect = assemble(spec, dc_vals)
            jmat[..., 2, 0] += 1e-6  # the U row, which -theta o J reads
            return jmat, defect

        monkeypatch.setattr(vaisman, "_assemble_j", planted)
        with pytest.raises(IdentityViolation, match=r"^theta_c disagrees with -theta o J on axis 0"):
            build_chart(spec, chart.h)

    @pytest.mark.parametrize(
        "axis, message", [(3, r"^theta_c\(V\) = 1 fails$"), (2, r"^theta_c\(U\) = 0 fails$")]
    )
    def test_theta_c_normalizations(self, flat_chart, monkeypatch, axis, message):
        spec, chart = flat_chart
        unit = vaisman._unit
        # V (axis 3) becomes 2 V, or U (axis 2) becomes U + V: theta_c reads 2, or 1.
        planted = {3: 2.0 * unit(spec, 3), 2: unit(spec, 2) + unit(spec, 3)}
        monkeypatch.setattr(
            vaisman, "_unit", lambda spec, a: planted[a] if a == axis else unit(spec, a)
        )
        with pytest.raises(IdentityViolation, match=message):
            build_chart(spec, chart.h)

    def test_affine_parts_must_cancel(self, flat_chart):
        spec, chart = flat_chart
        lin = np.zeros(4)
        lin[0] = 1.0  # x^1 dx^1 ^ dy^1, whose wedge with theta nothing cancels
        with pytest.raises(IdentityViolation, match="affine parts fail to cancel"):
            verify_vaisman(CoefficientForm(spec, 2, {}, {(0, 1): lin}), chart.theta)


class TestPerPointProducts:
    """The stacked matmul products against the einsum forms they replaced.

    Both sum the same products per entry, maybe in another order or with
    fused multiply-adds, so they agree to a few ulps of the sum of the
    terms' magnitudes.
    """

    ULPS = 4 * np.finfo(float).eps

    @pytest.fixture(scope="class")
    def chart(self):
        return bump_chart(res=32)[1]

    def test_metric_tensor(self, chart):
        w, jmat = chart.omega.as_matrix(), chart.jmat
        reference = -np.einsum("...ac,...cb->...ab", w, jmat)
        scale = np.abs(w) @ np.abs(jmat)
        assert np.all(np.abs(chart_metric_tensor(chart) - reference) <= self.ULPS * scale)

    def test_j_squared_defect(self, chart):
        # Off a complex structure, so that J J + id is far from 0.
        jmat = chart.jmat + 0.1 * np.random.default_rng(3).standard_normal(chart.jmat.shape)
        jj = np.einsum("...ab,...bc->...ac", jmat, jmat)
        reference = float(np.max(np.abs(jj + np.eye(4))))
        assert reference > 0.1
        scale = float(np.max(np.abs(jmat) @ np.abs(jmat)))
        assert abs(_j_squared_defect(jmat) - reference) <= 2 * self.ULPS * scale
        assert _j_squared_defect(chart.jmat) <= 1e-15

    def test_chart_carries_its_j_squared_defect(self, chart, monkeypatch):
        # J^2 + id cancels exactly on these charts, so plant a defect below
        # the tolerance to see that the chart keeps the one it measured.
        assert chart.j_squared == _j_squared_defect(chart.jmat) == 0.0
        monkeypatch.setattr("vaisflow.vaisman._j_squared_defect", lambda jmat: 3e-13)
        deformed = deform(chart, ScalarField.from_function(chart.spec, lambda x, y: 0.1 * np.sin(y)))
        assert deformed.j_squared == 3e-13

    def test_compatibility_defect(self, chart):
        # A symmetric g that is not J-compatible, so that J^T g J - g is far from 0.
        g = chart_metric_tensor(chart)
        noise = 0.1 * np.random.default_rng(4).standard_normal(g.shape)
        g = g + noise + np.swapaxes(noise, -1, -2)
        jmat = chart.jmat
        jtgj = np.einsum("...ca,...cd,...db->...ab", jmat, g, jmat)
        reference = float(np.max(np.abs(jtgj - g)))
        assert reference > 0.1
        scale = float(np.max(np.swapaxes(np.abs(jmat), -1, -2) @ np.abs(g) @ np.abs(jmat) + np.abs(g)))
        assert abs(_compatibility_defect(jmat, g) - reference) <= 2 * self.ULPS * scale


class TestDeform:
    def test_zero_is_bitwise_identity(self):
        spec, chart = bump_chart(res=32)
        deformed = deform(chart, ScalarField.zeros(spec))
        assert np.array_equal(deformed.metric.matrices, chart.metric.matrices)
        assert np.array_equal(deformed.jmat, chart.jmat)

    def test_constant_is_invisible(self):
        spec, chart = bump_chart(res=32)
        deformed = deform(chart, ScalarField.constant(spec, 3.25))
        assert np.max(np.abs(deformed.metric.matrices - chart.metric.matrices)) < 1e-12
        assert np.max(np.abs(deformed.jmat - chart.jmat)) < 1e-12

    def test_cos_deformation(self, flat_chart):
        spec, chart = flat_chart
        phi = ScalarField.from_function(spec, lambda x, y: -0.2 * np.cos(x), basic=True)
        deformed = deform(chart, phi)
        x = spec.coordinate_mesh(0)
        assert np.max(np.abs(deformed.metric.matrices[..., 0, 0] - (1 + 0.05 * np.cos(x)))) < 1e-6
        jj = np.einsum("...ab,...bc->...ac", deformed.jmat, deformed.jmat)
        assert np.max(np.abs(jj + np.eye(4))) < 1e-10

    def test_transverse_block_shift_is_ddbar(self):
        spec, chart = bump_chart(res=32)
        phi = ScalarField.from_function(spec, lambda x, y: 0.1 * np.cos(x + y), basic=True)
        deformed = deform(chart, phi)
        shift = deformed.metric.matrices - chart.metric.matrices
        assert np.max(np.abs(shift - ddbar(phi).matrices)) < 1e-10

    def test_additivity(self):
        spec, chart = bump_chart(res=32)
        p1 = ScalarField.from_function(spec, lambda x, y: 0.05 * np.cos(x), basic=True)
        p2 = ScalarField.from_function(spec, lambda x, y: 0.05 * np.cos(y), basic=True)
        once = deform(chart, p1 + p2)
        twice = deform(deform(chart, p1), p2)
        assert np.max(np.abs(once.metric.matrices - twice.metric.matrices)) < 1e-10

    def test_inadmissible_deformation(self, flat_chart):
        spec, chart = flat_chart
        phi = ScalarField.from_function(spec, lambda x, y: -8.0 * np.cos(x), basic=True)
        with pytest.raises(PositivityLost):
            deform(chart, phi)

    def test_non_basic_rejected(self, flat_chart):
        spec, chart = flat_chart
        with pytest.raises(GridError):
            deform(chart, ScalarField.zeros(spec, basic=False))


class TestQHomothety:
    def test_identity_scale(self, flat_chart):
        spec, chart = flat_chart
        g = chart_metric_tensor(chart)
        assert np.array_equal(q_homothety(chart, 1.0), g)

    def test_scale_two_values(self, flat_chart):
        spec, chart = flat_chart
        gt = q_homothety(chart, 2.0)
        # leafwise block scales by a^2 = 4, transverse frame block by a = 2
        assert np.max(np.abs(gt[..., 2, 2] - 4.0)) < 1e-12
        assert np.max(np.abs(gt[..., 2, 3])) < 1e-12
        block = frame_metric_block(chart, gt)
        assert np.max(np.abs(block - 2.0 * chart.metric.matrices)) < 1e-10

    def test_composition(self):
        spec, chart = bump_chart(res=32)
        a, b = 1.7, 0.6
        g_ab = frame_metric_block(chart, q_homothety(chart, a * b))
        step1 = q_homothety(chart, a)
        # second application acts on the same chart forms
        tc = chart.theta_c
        gt2 = b * step1
        D = spec.num_axes
        th_vals = np.zeros(spec.transverse_shape + (D,))
        tc_vals = np.zeros(spec.transverse_shape + (D,))
        for ax in range(D):
            if (ax,) in chart.theta.components:
                th_vals[..., ax] = chart.theta.component_values((ax,))
            if (ax,) in tc.components or (ax,) in tc.linear:
                tc_vals[..., ax] = tc.component_values((ax,))
        rank1 = np.einsum("...a,...b->...ab", tc_vals, tc_vals) + np.einsum(
            "...a,...b->...ab", th_vals, th_vals
        )
        gt2 = gt2 + (b * b - b) * rank1
        block2 = frame_metric_block(chart, gt2)
        assert np.max(np.abs(block2 - g_ab)) < 1e-12

    def test_rejects_nonpositive_scale(self, flat_chart):
        spec, chart = flat_chart
        with pytest.raises(NonPositiveScale):
            q_homothety(chart, 0.0)
        with pytest.raises(NonPositiveScale):
            q_homothety(chart, -1.0)
