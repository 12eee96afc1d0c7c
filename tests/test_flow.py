import numpy as np
import pytest

import vaisflow.flow as flow_module
from conftest import TWO_PI, basic_spec, full_spec
from vaisflow.exceptions import GridError, InexactClass, PositivityLost, StepFloor
from vaisflow.flow import (
    FlowConfig,
    FlowState,
    build_volume_form,
    initial_state,
    leafwise_defect,
    ma_rhs,
    ma_rhs_extended,
    reference_form,
    run,
    step,
    transverse_metric,
)
from vaisflow.grid import ScalarField
from vaisflow.transverse import HermitianField, ddbar, metric_from_potential
from test_stencils import reference_rhs


def bump_state(res=64, amplitude=-0.4, chi=None, spec=None):
    spec = basic_spec(res=res) if spec is None else spec
    h = ScalarField.from_function(spec, lambda x, y, *rest: amplitude * np.cos(x))
    g0 = metric_from_potential(h, HermitianField.identity(spec))
    return spec, initial_state(g0, chi)


class TestFlowConfig:
    def test_validation(self):
        for field, value in (
            ("class_k", 1),
            ("dt_initial", -1.0),
            ("dt_safety", 0.0),
            ("max_steps", 0),
            ("ricci_tolerance", 0.0),
            ("positivity_floor", 0.0),
        ):
            with pytest.raises(GridError) as err:
                FlowConfig(**{field: value})
            assert str(err.value).startswith(f"{field}:")


class TestReferenceForm:
    def test_zero_chi(self):
        spec, st = bump_state(res=32)
        for t in (0.0, 1.0, 7.5):
            assert np.array_equal(reference_form(st, t).matrices, st.omega_hat_0.matrices)

    def test_chi_shift(self):
        spec = basic_spec(res=64)
        psi = ScalarField.from_function(spec, lambda x, y: 0.2 * np.cos(x))
        chi = ddbar(psi)
        st = initial_state(HermitianField.identity(spec), chi)
        at_one = reference_form(st, 1.0)
        exact = 1.0 - 0.05 * np.cos(spec.coordinate_mesh(0))
        assert np.max(np.abs(at_one.matrices[..., 0, 0] - exact)) < 1e-6

    def test_linearity(self):
        spec = basic_spec(res=32)
        psi = ScalarField.from_function(spec, lambda x, y: 0.1 * np.cos(x))
        st = initial_state(HermitianField.identity(spec), ddbar(psi))
        t = 0.7
        lhs = reference_form(st, 2 * t).matrices - reference_form(st, t).matrices
        assert np.max(np.abs(lhs - t * st.chi.matrices)) < 1e-15


class TestBuildVolumeForm:
    def test_flat(self):
        spec = basic_spec(res=32)
        F, density = build_volume_form(
            HermitianField.identity(spec), HermitianField.zeros(spec)
        )
        assert np.max(np.abs(F.values)) < 1e-13
        assert np.max(np.abs(density.values - 1.0)) < 1e-13

    def test_bump_without_chi_gives_constant_density(self):
        spec, st = bump_state(res=64)
        F, density = build_volume_form(st.omega_hat_0, HermitianField.zeros(spec))
        det0 = st.omega_hat_0.matrices[..., 0, 0].real
        # F = -log det g0 + const; density constant; volume preserved
        assert np.ptp(F.values + np.log(det0)) < 1e-6
        assert np.ptp(density.values) < 1e-6
        assert abs(np.sum(density.values) - np.sum(det0)) < 1e-8 * np.sum(det0)

    def test_exact_chi_recovers_potential(self):
        spec = basic_spec(res=64)
        psi = ScalarField.from_function(spec, lambda x, y: 0.2 * np.cos(x))
        F, density = build_volume_form(HermitianField.identity(spec), ddbar(psi))
        assert np.ptp(F.values - psi.values) < 1e-6

    def test_inexact_class_detected(self):
        spec = basic_spec(res=32)
        with pytest.raises(InexactClass):
            build_volume_form(
                HermitianField.identity(spec),
                HermitianField.constant(spec, np.array([[0.3]])),
            )


class TestMaRhs:
    def test_flat_stationary(self):
        spec = basic_spec(res=64)
        st = initial_state(HermitianField.identity(spec))
        assert np.max(np.abs(ma_rhs(st).values)) < 1e-12

    def test_pointwise_determinant_n2(self):
        # ghat + hesse = 2 id with density 1 gives log det = log 4.
        spec = basic_spec(n=2, res=8)
        state = FlowState(
            t=0.0,
            phi=ScalarField.zeros(spec),
            omega_hat_0=HermitianField.constant(spec, 2.0 * np.eye(2)),
            chi=HermitianField.zeros(spec),
            volume_density=ScalarField.constant(spec, 1.0),
        )
        vals = ma_rhs(state).values
        assert np.max(np.abs(vals - np.log(4.0))) < 1e-14

    def test_bump_closed_form(self):
        spec, st = bump_state(res=64)
        det0 = st.omega_hat_0.matrices[..., 0, 0].real
        expected = np.log(det0) - np.log(st.volume_density.values)
        assert np.max(np.abs(ma_rhs(st).values - expected)) < 1e-6

    def test_gauge_shift_is_bitwise_invisible(self):
        # Difference-form stencils annihilate an exactly representable
        # constant shift bit for bit; quantize phi so phi + 4 is exact.
        spec = basic_spec(res=64)
        x, y = spec.coordinate_mesh(0), spec.coordinate_mesh(1)
        phi_q = np.round((0.05 * np.cos(x) + 0.03 * np.cos(2 * y)) * 2**20) / 2**20
        base = initial_state(HermitianField.identity(spec))
        st_a = FlowState(0.0, ScalarField(spec, phi_q), base.omega_hat_0, base.chi, base.volume_density)
        st_b = FlowState(0.0, ScalarField(spec, phi_q + 4.0), base.omega_hat_0, base.chi, base.volume_density)
        assert np.array_equal(ma_rhs(st_a).values, ma_rhs(st_b).values)

    def test_positivity_floor(self):
        spec = basic_spec(res=64)
        st = initial_state(HermitianField.identity(spec))
        phi = ScalarField.from_function(spec, lambda x, y: 4.5 * np.cos(x))
        bad = FlowState(0.0, phi, st.omega_hat_0, st.chi, st.volume_density)
        with pytest.raises(PositivityLost):
            ma_rhs(bad)


class TestMaRhsExtended:
    def test_agrees_with_basic_for_basic_phi(self):
        spec = full_spec(res=32, leaf=8)
        h = ScalarField.from_function(spec, lambda x, y: -0.4 * np.cos(x), basic=True)
        g0 = metric_from_potential(h, HermitianField.identity(spec))
        st = initial_state(g0)
        rhs_basic = ma_rhs(st).values
        rhs_ext = ma_rhs_extended(st).values
        assert np.max(np.abs(rhs_ext - rhs_basic.reshape(32, 32, 1, 1))) < 1e-12

    def test_leaf_mode(self):
        # phi = sin(x) along the leaf on flat data: the transverse Hesse is
        # an exact stencil zero, leaving the leaf Laplacian -sin(x)/2.
        spec = full_spec(res=16, leaf=64)
        st = initial_state(HermitianField.identity(spec))
        phi = ScalarField.from_function(
            spec, lambda x1, y1, lx, ly: np.sin(lx) + 0.0 * x1, basic=False
        )
        st_leaf = FlowState(0.0, phi, st.omega_hat_0, st.chi, st.volume_density)
        vals = ma_rhs_extended(st_leaf).values
        lx = spec.coordinate_mesh(2, basic=False)
        assert np.max(np.abs(vals + 0.5 * np.sin(lx))) < 1e-6

    def test_zero_phi_flat(self):
        spec = full_spec(res=16, leaf=8)
        st = initial_state(HermitianField.identity(spec))
        assert np.max(np.abs(ma_rhs_extended(st).values)) < 1e-12

    def test_requires_leaf_axes(self):
        spec, st = bump_state(res=32)
        with pytest.raises(GridError):
            ma_rhs_extended(st)

    def test_kernel_and_numpy_paths_agree(self):
        # The flow's right-hand side (the blocked slice stencil engine)
        # against the stored whole-grid formula on the np.roll reference
        # stencils: the same operands in the same order, so bit-identical.
        spec = full_spec(res=16, leaf=8)
        h = ScalarField.from_function(spec, lambda x, y: -0.2 * np.cos(x), basic=True)
        g0 = metric_from_potential(h, HermitianField.identity(spec))
        phi = ScalarField.from_function(
            spec, lambda x, y, u, v: 0.02 * np.sin(x + u) * np.cos(y - v), basic=False
        )
        st = initial_state(g0, phi=phi)
        got = ma_rhs_extended(st).values
        expected = reference_rhs(st.phi.values, st.t, st, extended=True, rescaled=False)
        assert np.array_equal(got, expected)


class TestLeafwiseDefect:
    def test_basic_phi_zero(self):
        spec = full_spec(res=16, leaf=8)
        st = initial_state(HermitianField.identity(spec))
        assert leafwise_defect(st) == 0.0

    def test_leaf_mode_value(self):
        spec = full_spec(res=8, leaf=128)
        st = initial_state(HermitianField.identity(spec))
        phi = ScalarField.from_function(
            spec, lambda x1, y1, lx, ly: np.sin(lx) + 0.0 * x1, basic=False
        )
        st2 = FlowState(0.0, phi, st.omega_hat_0, st.chi, st.volume_density)
        assert abs(leafwise_defect(st2) - 1.0) < 1e-6


class TestStep:
    def test_rk4_exponential_decay(self):
        # One RK4 step of d phi/dt = -phi from phi = 1 with dt = 0.1: the
        # rescaled right-hand side on flat stationary data is exactly -phi
        # up to the mean gauge, so probe the integrator directly.
        def f(y, dt):
            k1 = -y
            k2 = -(y + 0.5 * dt * k1)
            k3 = -(y + 0.5 * dt * k2)
            k4 = -(y + dt * k3)
            return y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        assert abs(f(1.0, 0.1) - 0.9048375) < 1e-7
        assert abs(f(1.0, 0.1) - np.exp(-0.1)) < 1e-7

    def test_constant_rhs_euler_consistency(self):
        # All four stages see the same constant, so RK4 reduces to Euler:
        # phi <- phi + c dt (then the zero-mean gauge removes it again).
        spec = basic_spec(res=16)
        st = initial_state(HermitianField.identity(spec), phi=None)
        density = ScalarField.constant(spec, np.exp(-0.25))  # rhs = +0.25
        shifted = FlowState(0.0, st.phi, st.omega_hat_0, st.chi, density)
        cfg = FlowConfig(dt_initial=0.01, ricci_tolerance=1e-30)
        out = step(shifted, cfg)
        assert abs(out.diagnostics.dphidt_sup - 0.25) < 1e-14
        # gauge removes the constant: phi stays zero, but time advanced
        assert np.max(np.abs(out.phi.values)) < 1e-15
        assert out.t > 0

    def test_flat_fixed_point_100_steps(self):
        spec = basic_spec(res=64)
        st = initial_state(HermitianField.identity(spec))
        cfg = FlowConfig()
        for _ in range(100):
            st = step(st, cfg)
        assert np.max(np.abs(st.phi.values)) < 1e-10

    def test_degenerating_reference_is_gauge_compensated(self):
        # An exact chi that destroys the reference form's positivity does
        # not break the flow: the potential absorbs it, since the dynamics
        # see only ghat(t) + phi_{j kbar}.
        spec = basic_spec(res=16)
        h = ScalarField.from_function(spec, lambda x, y: -0.4 * np.cos(x))
        g0 = metric_from_potential(h, HermitianField.identity(spec))
        psi = ScalarField.from_function(spec, lambda x, y: -8.0 * np.cos(x))
        chi = ddbar(psi)  # reference alone loses positivity near t ~ 0.5
        st = initial_state(g0, chi)
        report = run(st, FlowConfig(dt_initial=0.05, max_steps=3000, ricci_tolerance=1e-30))
        assert report.final_t > 2.0
        assert report.history[-1]["min_eig"] > 0.5

    def test_positivity_floor_reported_by_run(self):
        # An admissibility floor above the current minimum eigenvalue is a
        # non-retryable breakdown, reported rather than raised.
        spec, st = bump_state(res=16)  # min eigenvalue 0.9
        config = FlowConfig(positivity_floor=0.95, ricci_tolerance=1e-30)
        report = run(st, config)
        assert not report.converged
        assert report.reason == "positivity_lost"
        g = transverse_metric(st).matrices[..., 0, 0].real
        argmin = tuple(int(i) for i in np.unravel_index(np.argmin(g), g.shape))
        assert report.failure["location"] == argmin
        assert report.failure["min_eigenvalue"] <= 0.95
        # step's own CFL check reports the same breach.
        with pytest.raises(PositivityLost) as err:
            step(st, config)
        assert err.value.location == argmin
        assert err.value.min_eigenvalue == report.failure["min_eigenvalue"]

    def test_step_floor_guard(self, monkeypatch):
        # The halving loop's hard floor; stage failures that persist at any
        # dt cannot arise from admissible smoothing dynamics, so drive the
        # guard directly.
        spec, st = bump_state(res=16)

        def always_lost(*args, **kwargs):
            raise PositivityLost("forced")

        monkeypatch.setattr(flow_module, "_rhs_values", always_lost)
        with pytest.raises(StepFloor):
            step(st, FlowConfig())


class TestRun:
    def test_flat_converges_at_step_zero(self):
        spec = basic_spec(res=32)
        st = initial_state(HermitianField.identity(spec))
        report = run(st, FlowConfig())
        assert report.converged and report.steps == 0
        assert len(report.history) == 1

    def test_not_converged_budget(self):
        spec, st = bump_state(res=32)
        report = run(st, FlowConfig(max_steps=3))
        assert not report.converged
        assert report.reason == "not_converged"
        assert report.steps == 3

    def test_bump_converges_to_constant_determinant(self):
        spec, st = bump_state(res=32)
        report = run(st, FlowConfig(ricci_tolerance=1e-6))
        assert report.converged
        g = transverse_metric(report.final_state)
        det = g.matrices[..., 0, 0].real
        assert np.ptp(det) < 1e-5

    def test_monotone_ricci_tail(self):
        spec, st = bump_state(res=32)
        report = run(st, FlowConfig(ricci_tolerance=1e-6))
        sups = [row["ricci_sup"] for row in report.history]
        tail = sups[len(sups) // 5 :]
        assert all(b <= a for a, b in zip(tail, tail[1:]))

    def test_history_schema(self):
        spec, st = bump_state(res=32)
        report = run(st, FlowConfig(max_steps=2))
        lines = report.history_csv_lines()
        assert lines[0] == "step,t,dt,ricci_sup,dphidt_sup,min_eig,max_eig,leafwise_defect"
        assert len(lines) == 1 + len(report.history)

    def test_stationarity_invariant(self):
        # Ric(omega_hat_0) = 0, chi = 0, phi0 = 0: every step preserves phi.
        spec = basic_spec(res=32)
        st = initial_state(HermitianField.identity(spec))
        report = run(st, FlowConfig(max_steps=50, ricci_tolerance=1e-30))
        assert np.max(np.abs(report.final_state.phi.values)) < 1e-10

    def test_non_finite_initial_phi(self):
        spec, st = bump_state(res=16)
        values = np.zeros(spec.transverse_shape)
        values[3, 4] = np.nan
        bad = FlowState(0.0, ScalarField(spec, values), st.omega_hat_0, st.chi, st.volume_density)
        report = run(bad, FlowConfig())
        assert (report.reason, report.steps, report.history) == ("non_finite", 0, [])
        assert report.failure is None and report.final_state is bad

    def test_non_finite_phi_from_a_step(self, monkeypatch):
        spec, st = bump_state(res=16)

        def nan_rhs(values, t, state, *, out=None, **kwargs):
            out = np.empty(values.shape) if out is None else out
            out.fill(np.nan)
            return out

        monkeypatch.setattr(flow_module, "_rhs_values", nan_rhs)
        report = run(st, FlowConfig(ricci_tolerance=1e-30))
        assert (report.reason, report.steps, len(report.history)) == ("non_finite", 0, 1)
        assert report.failure is None
        assert np.all(np.isfinite(report.final_state.phi.values))

    def test_divergence_guard_reported(self, monkeypatch):
        # On the periodic chart an exact chi cannot move the class, so the
        # metric never actually blows up; drive the guard by tightening the
        # factor to exercise the reporting path.
        spec, st = bump_state(res=16)
        monkeypatch.setattr(flow_module, "DIVERGENCE_FACTOR", 0.5)
        report = run(st, FlowConfig(ricci_tolerance=1e-30, max_steps=10))
        assert not report.converged
        assert report.reason == "diverged"


class TestRescaledFlow:
    def test_maps_onto_unrescaled_trajectory(self):
        spec = basic_spec(res=32)
        h = ScalarField.from_function(spec, lambda x, y: -0.4 * np.cos(x))
        g0 = metric_from_potential(h, HermitianField.identity(spec))
        psi = ScalarField.from_function(spec, lambda x, y: 0.2 * np.cos(x))
        chi = ddbar(psi)
        cfg_un = FlowConfig(dt_initial=1e-3, ricci_tolerance=1e-30, max_steps=10_000)
        cfg_re = FlowConfig(dt_initial=1e-3, ricci_tolerance=1e-30, max_steps=10_000, rescaled=True)
        for t_star in (0.2, 0.5):
            s_star = float(np.exp(t_star) - 1.0)
            rep_re = run(initial_state(g0, chi), cfg_re, t_final=t_star)
            rep_un = run(initial_state(g0, chi), cfg_un, t_final=s_star)
            g_re = transverse_metric(rep_re.final_state, rescaled=True)
            g_un = transverse_metric(rep_un.final_state)
            diff = np.max(np.abs(np.exp(t_star) * g_re.matrices - g_un.matrices))
            assert diff < 1e-10

    def test_basicness_preserved_in_extended_flow(self):
        spec = full_spec(res=16, leaf=8)
        h = ScalarField.from_function(spec, lambda x, y: -0.4 * np.cos(x), basic=True)
        g0 = metric_from_potential(h, HermitianField.identity(spec))
        st = initial_state(g0)
        cfg = FlowConfig(extended=True, ricci_tolerance=1e-30, max_steps=40)
        report = run(st, cfg)
        assert all(row["leafwise_defect"] == 0.0 for row in report.history)
        assert not report.final_state.phi.basic  # genuinely integrated on the full grid
