"""The flow's own order of accuracy: phi(t) self-converges at the stencils' fourth order.

The digests pin bits; these tests pin accuracy, so a change that moves bits
on purpose can show that the flow's error held.  Each compares final phi on
coincident points (``[::f]``), so no interpolation enters, and each bound
is set from a measurement that is written beside it.
"""

import numpy as np

from conftest import TWO_PI, basic_spec
from vaisflow.convergence import fitted_order
from vaisflow.flow import DT_FLOOR, FlowConfig, initial_state, run
from vaisflow.grid import GridSpec, ScalarField
from vaisflow.transverse import HermitianField, ddbar

# No run stops early on its Ricci residual.
_TO_T = FlowConfig(ricci_tolerance=1e-30)


def _final_phi(state, config, t_final):
    report = run(state, config, t_final=t_final)
    assert abs(report.final_t - t_final) <= DT_FLOOR  # a run ends within DT_FLOOR of t_final
    return report.final_state.phi.values


def _n1_phi(res, t_final, config=_TO_T):
    """Final phi of the n = 1, k = 0 flow from phi_0 = -0.4 cos x + 0.2 sin y over omega_hat_0 = I."""
    spec = basic_spec(res=res)
    phi = ScalarField.from_function(spec, lambda x, y: -0.4 * np.cos(x) + 0.2 * np.sin(y))
    return _final_phi(initial_state(HermitianField.identity(spec), phi=phi), config, t_final)


def _successive_differences(finals):
    """max |phi_N - phi_2N| on the coincident points of each pair of transverse resolutions."""
    return [
        np.max(np.abs(coarse - fine[::2, ::2])) for coarse, fine in zip(finals, finals[1:])
    ]


def test_n1_converges_at_fourth_order_in_h():
    """16/32/64 against 128 at t = 1, under the default dt rule (20, 36, 143 and 572 steps)."""
    reference = _n1_phi(128, 1.0)
    resolutions = (16, 32, 64)
    errors = [
        np.max(np.abs(_n1_phi(res, 1.0) - reference[::128 // res, ::128 // res]))
        for res in resolutions
    ]
    # Measured 3.10e-5, 1.96e-6 and 1.15e-7.
    assert errors[0] < 3.5e-5 and errors[1] < 2.2e-6 and errors[2] < 1.3e-7, errors
    # Measured 3.99 and 4.08 between successive resolutions, 4.04 fitted.
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.85 < np.log2(coarse / fine) < 4.2
    assert 3.95 < fitted_order(resolutions, errors) < 4.15


def test_n1_converges_at_fourth_order_in_dt():
    """On 16^2 with dt_initial 0.04/0.02/0.01 against 0.0025 at t = 1; the dt rule allows 0.05 there."""
    reference = _n1_phi(16, 1.0, FlowConfig(ricci_tolerance=1e-30, dt_initial=0.0025))
    errors = [
        np.max(np.abs(_n1_phi(16, 1.0, FlowConfig(ricci_tolerance=1e-30, dt_initial=dt)) - reference))
        for dt in (0.04, 0.02, 0.01)
    ]
    # Measured 9.78e-11, 5.97e-12 and 3.68e-13: far below the grid's error at 16.
    assert errors[0] < 1.1e-10 and errors[1] < 7e-12 and errors[2] < 4.5e-13, errors
    # Measured 4.03 and 4.02.
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.9 < np.log2(coarse / fine) < 4.15


def test_n2_with_off_diagonal_metric_converges_at_fourth_order_in_h():
    """n = 2 with g_12 != 0 on (N, 8, N, 8), N = 8/16/32, to t = 0.5 (10, 10 and 20 steps).

    Only the x axes are refined, so the order comes from the ratio of
    |phi_8 - phi_16| to |phi_16 - phi_32| on coincident points, in which
    the error of the fixed 8-point y axes cancels.
    """
    finals = []
    for res in (8, 16, 32):
        spec = GridSpec(2, (res, 8, res, 8), (TWO_PI,) * 4)
        phi = ScalarField.from_function(
            spec, lambda a, b, c, d: -0.4 * np.cos(a - c) + 0.1 * np.sin(b + d)
        )
        finals.append(_final_phi(initial_state(HermitianField.identity(spec), phi=phi), _TO_T, 0.5))
    differences = [
        np.max(np.abs(coarse - fine[::2, :, ::2, :])) for coarse, fine in zip(finals, finals[1:])
    ]
    # Measured 3.08e-4 and 2.02e-5, order 3.93.
    assert differences[0] < 3.4e-4 and differences[1] < 2.2e-5, differences
    assert 3.85 < np.log2(differences[0] / differences[1]) < 4.1



def test_extended_leaf_varying_converges_at_fourth_order_in_h():
    """The extended flow of a leaf-varying phi on (N, N) x (8, 8), N = 8/16/32, to t = 0.5.

    10, 10 and 21 steps.  Only the transverse axes are refined, so the
    error of the fixed 8-point leaf axes cancels in the successive
    differences, as for n = 2.
    """
    finals = []
    for res in (8, 16, 32):
        spec = GridSpec(
            1, (res, res), (TWO_PI, TWO_PI), leaf_resolution=(8, 8), leaf_periods=(TWO_PI, TWO_PI)
        )
        phi = ScalarField.from_function(
            spec,
            lambda x, y, u, v: -0.4 * np.cos(x) + 0.2 * np.sin(y) + 0.1 * np.cos(u) * np.sin(x + v),
            basic=False,
        )
        config = FlowConfig(extended=True, ricci_tolerance=1e-30)
        finals.append(_final_phi(initial_state(HermitianField.identity(spec), phi=phi), config, 0.5))
    differences = _successive_differences(finals)
    # Measured 2.80e-4 and 1.81e-5, order 3.96.
    assert differences[0] < 3.1e-4 and differences[1] < 2.0e-5, differences
    assert 3.85 < np.log2(differences[0] / differences[1]) < 4.1


def test_rescaled_with_exact_chi_converges_at_fourth_order_in_h():
    """The rescaled flow with chi = ddbar psi on N^2, N = 16/32/64/128, to t = 0.5.

    10, 24, 94 and 374 steps, from phi_0 = -0.4 cos x + 0.2 sin y over
    omega_hat_0 = I with psi = 0.3 cos x sin y.
    """
    finals = []
    for res in (16, 32, 64, 128):
        spec = basic_spec(res=res)
        psi = ScalarField.from_function(spec, lambda x, y: 0.3 * np.cos(x) * np.sin(y))
        phi = ScalarField.from_function(spec, lambda x, y: -0.4 * np.cos(x) + 0.2 * np.sin(y))
        state = initial_state(HermitianField.identity(spec), chi=ddbar(psi), phi=phi)
        config = FlowConfig(class_k=-1, rescaled=True, ricci_tolerance=1e-30)
        finals.append(_final_phi(state, config, 0.5))
    differences = _successive_differences(finals)
    # Measured 1.22e-5, 7.68e-7 and 4.80e-8.
    assert differences[0] < 1.35e-5 and differences[1] < 8.5e-7 and differences[2] < 5.3e-8, differences
    # Measured 3.99 and 4.00.
    for coarse, fine in zip(differences, differences[1:]):
        assert 3.9 < np.log2(coarse / fine) < 4.1
