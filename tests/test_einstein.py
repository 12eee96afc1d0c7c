import numpy as np
import pytest

from conftest import basic_spec
from vaisflow.einstein import (
    apply_ke_homothety,
    assemble_full_ricci,
    frame_scalar_curvature,
    ke_homothety,
    p0k_check,
    quasi_einstein_fit,
    scalar_curvature_relation,
    weyl_ricci_residual,
)
from vaisflow.exceptions import DegenerateScale, GridError
from vaisflow.grid import ScalarField
from vaisflow.transverse import HermitianField, metric_from_potential, ricci


def flat_blocks(n=1, res=16):
    spec = basic_spec(n=n, res=res)
    g = HermitianField.identity(spec)
    ric_T = HermitianField.zeros(spec)
    return spec, g, ric_T


def ke_blocks(kappa, n=1, res=16):
    spec = basic_spec(n=n, res=res)
    g = HermitianField.identity(spec)
    ric_T = HermitianField(spec, kappa * g.matrices)
    return spec, g, ric_T


class TestAssembleFullRicci:
    def test_flat(self):
        spec, g, ric_T = flat_blocks()
        block = assemble_full_ricci(ric_T, g, 1)
        assert np.max(np.abs(block.q_block.matrices + 0.5 * g.matrices)) == 0.0
        assert block.vv_value == 0.5

    def test_transversally_einstein(self):
        spec, g, ric_T = ke_blocks(kappa=1.0)
        block = assemble_full_ricci(ric_T, g, 1)
        assert np.max(np.abs(block.q_block.matrices - 0.5 * g.matrices)) == 0.0

    def test_vv_always_half_n(self):
        for n in (1, 2):
            spec, g, ric_T = flat_blocks(n=n, res=8 if n == 2 else 16)
            assert assemble_full_ricci(ric_T, g, n).vv_value == 0.5 * n


class TestQuasiEinsteinFit:
    def test_flat(self):
        spec, g, ric_T = flat_blocks()
        fit = quasi_einstein_fit(assemble_full_ricci(ric_T, g, 1), g, 1)
        assert abs(fit.lambda_ + 0.5) < 1e-12
        assert abs(fit.alpha - 1.0) < 1e-12
        assert abs(fit.beta - 0.5) < 1e-12
        assert fit.residual < 1e-8
        assert fit.constraints_ok

    def test_transversally_einstein(self):
        spec, g, ric_T = ke_blocks(kappa=1.0)
        fit = quasi_einstein_fit(assemble_full_ricci(ric_T, g, 1), g, 1)
        assert abs(fit.lambda_ - 0.5) < 1e-12
        assert abs(fit.alpha) < 1e-12
        assert abs(fit.beta + 0.5) < 1e-12

    def test_lambda_is_kappa_minus_half(self):
        # Generalized quasi-Einstein profile of a transversally Einstein
        # structure: lambda = kappa - 1/2 and alpha = n/2 - lambda (alpha
        # vanishes exactly at the Einstein-Weyl point kappa = (n + 1)/2,
        # since Ric(V, V) = n/2 pins lambda + alpha structurally).
        n = 1
        for kappa in (0.3, 1.0, 2.0, 3.7):
            spec, g, ric_T = ke_blocks(kappa=kappa, n=n)
            fit = quasi_einstein_fit(assemble_full_ricci(ric_T, g, n), g, n)
            assert abs(fit.lambda_ - (kappa - 0.5)) < 1e-8
            assert abs(fit.alpha - (0.5 * n - fit.lambda_)) < 1e-8
            assert fit.residual < 1e-8
        spec, g, ric_T = ke_blocks(kappa=0.5 * (n + 1), n=n)
        fit_ew = quasi_einstein_fit(assemble_full_ricci(ric_T, g, n), g, n)
        assert abs(fit_ew.alpha) < 1e-8

    def test_non_proportional_input_flagged(self):
        spec = basic_spec(res=64)
        h = ScalarField.from_function(spec, lambda x, y: -0.4 * np.cos(x))
        g = metric_from_potential(h, HermitianField.identity(spec))
        block = assemble_full_ricci(ricci(g), g, 1)
        fit = quasi_einstein_fit(block, g, 1)
        assert fit.residual > 1e-3


class TestWeylResidual:
    def test_quasi_einstein_locus(self):
        # Ric = (n/2) g - (n/2) theta (x) theta corresponds to Ric^T = (n/2 + 1/2) g
        n = 1
        spec, g, ric_T = ke_blocks(kappa=0.5 * n + 0.5, n=n)
        block = assemble_full_ricci(ric_T, g, n)
        assert weyl_ricci_residual(block, g, n) < 1e-10

    def test_flat_residual_is_one(self):
        spec, g, ric_T = flat_blocks()
        block = assemble_full_ricci(ric_T, g, 1)
        assert abs(weyl_ricci_residual(block, g, 1) - 1.0) < 1e-12

    def test_equivalence_with_fit(self):
        # weyl residual ~ 0 iff the fit returns (n/2, 0, -n/2)
        n = 1
        spec, g, ric_T = ke_blocks(kappa=1.0, n=n)
        block = assemble_full_ricci(ric_T, g, n)
        fit = quasi_einstein_fit(block, g, n)
        assert weyl_ricci_residual(block, g, n) < 1e-10
        assert abs(fit.lambda_ - 0.5 * n) < 1e-8
        assert abs(fit.beta + 0.5 * n) < 1e-8
        spec, g, ric_bad = ke_blocks(kappa=2.0, n=n)
        block_bad = assemble_full_ricci(ric_bad, g, n)
        assert weyl_ricci_residual(block_bad, g, n) > 0.5

    def test_additive_zero(self):
        spec, g, ric_T = flat_blocks()
        block = assemble_full_ricci(ric_T, g, 1)
        r1 = weyl_ricci_residual(block, g, 1)
        block2 = assemble_full_ricci(ric_T + HermitianField.zeros(spec), g, 1)
        assert weyl_ricci_residual(block2, g, 1) == r1


class TestKeHomothety:
    def test_identity_for_kappa_one_n_one(self):
        assert ke_homothety(0.5, 1) == 1.0

    def test_kappa_two_example(self):
        a = ke_homothety(1.5, 1)
        assert a == 2.0
        # corrected intermediate factor (2 lam + 1 - a)/(2a) = n/2
        assert abs((2 * 1.5 + 1 - a) / (2 * a) - 0.5) < 1e-15

    def test_degenerate(self):
        with pytest.raises(DegenerateScale):
            ke_homothety(-0.5, 1)
        with pytest.raises(DegenerateScale):
            ke_homothety(-0.7, 2)

    def test_round_trip_over_lambda_range(self):
        n = 1
        spec = basic_spec(res=16)
        g = HermitianField.identity(spec)
        for lam in np.linspace(-0.39, 5.0, 10):
            ric_T = HermitianField(spec, (lam + 0.5) * g.matrices)
            a = ke_homothety(lam, n)
            g_new, block = apply_ke_homothety(g, ric_T, a, n)
            resid = np.max(np.abs(block.q_block.matrices - 0.5 * n * g_new.matrices))
            assert resid < 1e-8

    def test_round_trip_n2(self):
        n = 2
        spec = basic_spec(n=2, res=8)
        g = HermitianField.identity(spec)
        for lam in (-0.2, 1.0, 4.0):
            ric_T = HermitianField(spec, (lam + 0.5) * g.matrices)
            a = ke_homothety(lam, n)
            g_new, block = apply_ke_homothety(g, ric_T, a, n)
            resid = np.max(np.abs(block.q_block.matrices - 0.5 * n * g_new.matrices))
            assert resid < 1e-8


class TestP0K:
    def test_unit_lee_quasi_einstein(self):
        n = 1
        spec, g, ric_T = ke_blocks(kappa=0.5 * n + 0.5, n=n)
        block = assemble_full_ricci(ric_T, g, n)
        ok, resid = p0k_check(block, g, n)
        assert ok and resid < 1e-10

    def test_flat_fails(self):
        spec, g, ric_T = flat_blocks()
        block = assemble_full_ricci(ric_T, g, 1)
        ok, resid = p0k_check(block, g, 1)
        assert not ok
        assert abs(resid - 1.0) < 1e-12

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 1.7])
    def test_residual_is_the_einstein_weyl_residual(self, kappa):
        spec, g, ric_T = ke_blocks(kappa=kappa, n=2)
        block = assemble_full_ricci(ric_T, g, 2)
        residual = weyl_ricci_residual(block, g, 2)
        assert p0k_check(block, g, 2) == (residual < 1e-8, residual)

    def test_p0k_implies_einstein_weyl_at_unit_norm(self):
        n = 1
        spec, g, ric_T = ke_blocks(kappa=1.0, n=n)
        block = assemble_full_ricci(ric_T, g, n)
        ok, _ = p0k_check(block, g, n)
        assert ok
        assert weyl_ricci_residual(block, g, n) < 1e-8


class TestScalarCurvature:
    def test_values(self):
        assert scalar_curvature_relation(0.0, 1) == 0.5
        assert scalar_curvature_relation(0.5, 1) == 1.5
        assert scalar_curvature_relation(-0.5, 2) == -1.0

    def test_against_frame_trace(self):
        spec, g, ric_T = ke_blocks(kappa=1.0)
        block = assemble_full_ricci(ric_T, g, 1)
        assert abs(frame_scalar_curvature(block, g) - scalar_curvature_relation(0.5, 1)) < 1e-8

    def test_frame_trace_flat(self):
        spec, g, ric_T = flat_blocks()
        block = assemble_full_ricci(ric_T, g, 1)
        assert abs(frame_scalar_curvature(block, g) - scalar_curvature_relation(-0.5, 1)) < 1e-8


class TestGuards:
    def test_fields_on_different_grids(self):
        _, g, _ = flat_blocks(res=16)
        _, _, ric_T = flat_blocks(res=8)
        with pytest.raises(GridError, match="different grids"):
            assemble_full_ricci(ric_T, g, 1)

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_homothety_scale_must_be_positive(self, a):
        _, g, ric_T = flat_blocks()
        with pytest.raises(DegenerateScale, match="must be positive"):
            apply_ke_homothety(g, ric_T, a, 1)
