"""Bit-identity of the slice stencil engine against np.roll reference stencils.

``reference_diff1`` and ``reference_diff2`` are the np.roll stencils the
engine replaced, kept verbatim.  The flow formulas below are rebuilt on
them (whole-grid, one fresh array per intermediate), so every comparison
is exact: the engine promises the same operands in the same order, not
merely the same values to rounding.  ``reference_spectrum`` writes out the
closed-form 2 x 2 eigenvalues and determinant in the same way, and is
itself anchored to LAPACK within a rounding bound.  The n = 1 sweep's two
lanes are held to the same references, and to the threads they may use.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import vaisflow
from conftest import TWO_PI, basic_spec, full_spec
from vaisflow import flow, grid
from vaisflow.exceptions import GridError, PositivityLost
from vaisflow.flow import FlowConfig, FlowState, initial_state, ma_rhs, ma_rhs_extended
from vaisflow.grid import GridSpec, ScalarField, _Stencil, diff1, diff2
from vaisflow.transverse import HermitianField, metric_from_potential

_C1_NEAR = 2.0 / 3.0
_C1_FAR = -1.0 / 12.0
_C2_NEAR = 4.0 / 3.0
_C2_FAR = -1.0 / 12.0


def reference_diff1(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Fourth-order periodic first derivative along an array axis."""
    near = np.roll(values, -1, axis=axis)
    np.subtract(near, np.roll(values, 1, axis=axis), out=near)
    far = np.roll(values, -2, axis=axis)
    np.subtract(far, np.roll(values, 2, axis=axis), out=far)
    near *= _C1_NEAR
    far *= _C1_FAR
    np.add(near, far, out=near)
    near /= h
    return near


def reference_diff2(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Fourth-order periodic second derivative along an array axis."""
    near = np.roll(values, -1, axis=axis)
    np.subtract(near, values, out=near)
    tmp = np.roll(values, 1, axis=axis)
    np.subtract(tmp, values, out=tmp)
    np.add(near, tmp, out=near)
    far = np.roll(values, -2, axis=axis)
    np.subtract(far, values, out=far)
    tmp2 = np.roll(values, 2, axis=axis)
    np.subtract(tmp2, values, out=tmp2)
    np.add(far, tmp2, out=far)
    near *= _C2_NEAR
    far *= _C2_FAR
    np.add(near, far, out=near)
    near /= h * h
    return near


# ---------------------------------------------------------------------------
# The flow's formulas on the reference stencils
# ---------------------------------------------------------------------------

def reference_hesse(values, spec):
    """ddbar matrices, every part from real stencils, the lower triangle mirrored."""
    n = spec.n
    hs = spec.spacings
    out = np.zeros(values.shape + (n, n), dtype=np.complex128)
    for j in range(n):
        ax, ay = 2 * j, 2 * j + 1
        out[..., j, j] = 0.25 * (
            reference_diff2(values, ax, hs[ax]) + reference_diff2(values, ay, hs[ay])
        )
    for j in range(n):
        for k in range(j + 1, n):
            jx, jy = 2 * j, 2 * j + 1
            kx, ky = 2 * k, 2 * k + 1
            f_x, f_y = reference_diff1(values, kx, hs[kx]), reference_diff1(values, ky, hs[ky])
            re = 0.25 * (reference_diff1(f_x, jx, hs[jx]) + reference_diff1(f_y, jy, hs[jy]))
            im = 0.25 * (reference_diff1(f_y, jx, hs[jx]) - reference_diff1(f_x, jy, hs[jy]))
            out.real[..., j, k] = out.real[..., k, j] = re
            out.imag[..., j, k], out.imag[..., k, j] = im, -im
    return out


def reference_metric(phi_values, t, state, rescaled, extended):
    """Evolving metric: scalar values for n = 1, matrices otherwise."""
    spec = state.phi.spec
    n = spec.n
    ref = flow._reference_matrices(state, t, rescaled)
    if n == 1:
        ref = ref[..., 0, 0].real
        if extended:
            ref = ref.reshape(spec.transverse_shape + (1, 1))
        hs = spec.spacings
        return ref + 0.25 * (
            reference_diff2(phi_values, 0, hs[0]) + reference_diff2(phi_values, 1, hs[1])
        )
    if extended:
        ref = ref.reshape(spec.transverse_shape + (1, 1, n, n))
    return ref + reference_hesse(phi_values, spec)


def reference_spectrum(g):
    """(lambda_min, lambda_max, det) per point of 2 x 2 Hermitian matrices with lambda_max > 0."""
    a, d, b = g[..., 0, 0].real, g[..., 1, 1].real, g[..., 0, 1]
    bb = b.real * b.real + b.imag * b.imag
    det = a * d - bb
    hi = 0.5 * (a + d) + np.hypot(0.5 * (a - d), np.sqrt(bb))
    return det / hi, hi, det


def reference_min_eigenvalues(phi_values, t, state, rescaled, extended):
    g = reference_metric(phi_values, t, state, rescaled, extended)
    return g if state.phi.spec.n == 1 else reference_spectrum(g)[0]


def reference_rhs(phi_values, t, state, *, extended, rescaled):
    spec = state.phi.spec
    n = spec.n
    log_density = np.log(state.volume_density.values)
    if extended:
        log_density = log_density.reshape(spec.transverse_shape + (1, 1))
    g = reference_metric(phi_values, t, state, rescaled, extended)
    if n == 1:
        assert np.min(g) > 1e-10
        rhs = np.log(g) - log_density
    else:
        lows, _, det = reference_spectrum(g)
        assert np.min(lows) > 1e-10
        rhs = np.log(det) - log_density
    if extended:
        ax_x, ax_y = 2 * n, 2 * n + 1
        hs = spec.spacings
        rhs = (
            rhs
            + 0.5 * reference_diff2(phi_values, ax_x, hs[ax_x])
            + 0.5 * reference_diff2(phi_values, ax_y, hs[ax_y])
        )
    if rescaled:
        f = rhs - phi_values
        return f - np.mean(f)
    return rhs


def reference_diagnostics(phi_values, t, state, config):
    """(ricci_sup, min_eig, max_eig, leafwise_defect) on the full grid."""
    spec = state.phi.spec
    extended = phi_values.ndim > 2 * spec.n
    g = reference_metric(phi_values, t, state, config.rescaled, extended)
    hs = spec.spacings
    if spec.n == 1:
        lo, hi = np.min(g), np.max(g)
        ld = np.log(g)
        ric = -0.25 * (reference_diff2(ld, 0, hs[0]) + reference_diff2(ld, 1, hs[1]))
    else:
        lows, highs, det = reference_spectrum(g)
        lo, hi = np.min(lows), np.max(highs)
        ric = -reference_hesse(np.log(det), spec)
    r = ric - config.class_k * g
    ric_sup = np.max(np.abs(r)) if spec.n == 1 else np.max(np.hypot(r.real, r.imag))
    defect = 0.0
    if extended:
        ax_x, ax_y = 2 * spec.n, 2 * spec.n + 1
        defect = np.max(np.abs(reference_diff1(phi_values, ax_x, hs[ax_x]))) + np.max(
            np.abs(reference_diff1(phi_values, ax_y, hs[ax_y]))
        )
    return float(ric_sup), float(lo), float(hi), float(defect)


def reference_step(state, config):
    """(t1, phi1, dphidt_sup) of one RK4 step, with dt from the state's own metric."""
    spec = state.phi.spec
    extended = config.extended
    phi0 = np.array(state.phi.as_full_values()) if extended else state.phi.values
    g = reference_metric(phi0, state.t, state, config.rescaled, extended)
    lows, highs = (g, g) if spec.n == 1 else reference_spectrum(g)[:2]
    lo, hi = float(np.min(lows)), float(np.max(highs))
    h_min = min(spec.spacings)
    dt = min(config.dt_initial, config.dt_safety * h_min * h_min * lo / hi)

    def f(values, t):
        return reference_rhs(values, t, state, extended=extended, rescaled=config.rescaled)

    t0 = state.t
    k1 = f(phi0, t0)
    k2 = f(phi0 + 0.5 * dt * k1, t0 + 0.5 * dt)
    k3 = f(phi0 + 0.5 * dt * k2, t0 + 0.5 * dt)
    k4 = f(phi0 + dt * k3, t0 + dt)
    phi1 = phi0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    phi1 = phi1 - np.mean(phi1)
    return t0 + dt, phi1, float(np.max(np.abs(k1)))


def test_reference_spectrum_matches_eigvalsh():
    """The written-out 2 x 2 spectrum agrees with LAPACK to a few rounding errors."""
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4096, 2, 2)) + 1j * rng.standard_normal((4096, 2, 2))
    g = x @ np.conj(np.swapaxes(x, -1, -2)) + 1e-3 * np.eye(2)
    lows, highs, det = reference_spectrum(g)
    w = np.linalg.eigvalsh(g)
    eps = np.finfo(float).eps
    assert np.all(np.abs(lows - w[..., 0]) <= 8 * eps * highs)
    assert np.all(np.abs(highs - w[..., 1]) <= 8 * eps * highs)
    sign, logdet = np.linalg.slogdet(g)
    assert np.all(sign.real > 0)
    assert np.all(np.abs(np.log(det) - logdet) <= 8 * eps * (highs / lows + np.abs(logdet)))


# ---------------------------------------------------------------------------
# Stencil engine
# ---------------------------------------------------------------------------

SHAPES = [(64, 64), (32, 32, 8, 8), (16, 16, 16, 16)]


def _operand(shape, dtype, layout, seed):
    rng = np.random.default_rng(seed)
    if layout == "broadcast":
        # A basic field seen over the leaves: zero strides on the leaf axes.
        base_shape = shape[:2] + (1, 1)
    else:
        base_shape = shape
    values = rng.standard_normal(base_shape)
    if dtype == "complex":
        values = values + 1j * rng.standard_normal(base_shape)
    return np.broadcast_to(values, shape) if layout == "broadcast" else values


STENCIL_CASES = [
    (shape, dtype, layout)
    for shape in SHAPES
    for dtype in ("real", "complex")
    for layout in (("contiguous", "broadcast") if len(shape) == 4 else ("contiguous",))
]


@pytest.mark.parametrize("shape,dtype,layout", STENCIL_CASES)
@pytest.mark.parametrize("with_out", [False, True])
def test_engine_matches_roll_stencils(shape, dtype, layout, with_out):
    values = _operand(shape, dtype, layout, seed=len(shape))
    for axis in range(len(shape)):
        h = 0.1 + 0.01 * axis
        for engine, reference in ((diff1, reference_diff1), (diff2, reference_diff2)):
            expected = reference(values, axis, h)
            if with_out:
                out = np.full(shape, np.nan, dtype=expected.dtype)
                result = engine(values, axis, h, out=out)
                assert result is out
            else:
                result = engine(values, axis, h)
            assert result.dtype == expected.dtype
            assert np.array_equal(result, expected), (engine.__name__, axis)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("c", [3.7182, -1.0e6 + 0.1, 1.0e-300, 2.5 - 7.25j])
def test_constants_annihilated_exactly(shape, c):
    values = np.full(shape, c)
    for axis in range(len(shape)):
        assert np.all(diff1(values, axis, 0.3) == 0.0)
        assert np.all(diff2(values, axis, 0.3) == 0.0)


@pytest.mark.parametrize("axis", [0, 1])
def test_halo_blocks_match_the_periodic_sweep(axis):
    """2-plane blocks, and one block of the whole axis, read from a 2-plane halo."""
    values = _operand((16, 12, 8, 8), "real", "contiguous", seed=7)
    h = 0.2
    expected = reference_diff2(values, axis, h)
    n = values.shape[axis]
    for planes in (2, n):
        for i0 in range(0, n, planes):
            window = np.take(values, range(i0 - 2, i0 + planes + 2), axis=axis, mode="wrap")
            block_shape = list(values.shape)
            block_shape[axis] = planes
            out, tmp1, tmp2 = (np.empty(block_shape) for _ in range(3))
            _Stencil(2, window, axis, h, out, tmp1, tmp2, halo=2)()
            assert np.array_equal(out, np.take(expected, range(i0, i0 + planes), axis=axis))


@pytest.mark.parametrize("shape", SHAPES)
def test_bound_stencil_matches_diff(shape):
    """A stencil bound once runs on whatever operand is written into its source."""
    values = _operand(shape, "real", "contiguous", seed=11)
    src, out, tmp1, tmp2 = (np.empty(shape) for _ in range(4))
    for axis in range(len(shape)):
        h = 0.1 + 0.01 * axis
        for order, engine, reference in ((1, diff1, reference_diff1), (2, diff2, reference_diff2)):
            bound = _Stencil(order, src, axis, h, out, tmp1, tmp2)
            for scale in (1.0, -3.5):
                np.copyto(src, scale * values)
                bound()
                assert np.array_equal(out, engine(src, axis, h)), (order, axis)
                assert np.array_equal(out, reference(src, axis, h)), (order, axis)


def test_out_is_validated():
    values = np.zeros((16, 16))
    with pytest.raises(GridError):
        diff2(values, 0, 0.1, out=np.empty((16, 8)))
    with pytest.raises(GridError):
        diff1(values, 0, 0.1, out=np.empty((16, 32))[:, ::2])
    with pytest.raises(GridError):
        diff2(values, 0, 0.1, out=values)
    with pytest.raises(GridError):
        diff1(values, 2, 0.1)
    with pytest.raises(GridError):
        diff2(np.zeros((4, 16)), 0, 0.1)
    with pytest.raises(GridError):
        _Stencil(2, np.zeros((16, 32))[:, ::2], 0, 0.1, *(np.empty((16, 16)) for _ in range(3)))


# ---------------------------------------------------------------------------
# Flow paths
# ---------------------------------------------------------------------------

def _n1_basic_state():
    spec = basic_spec(res=32)
    h = ScalarField.from_function(spec, lambda x, y: -0.3 * np.cos(x) + 0.1 * np.sin(2 * y))
    phi = ScalarField.from_function(spec, lambda x, y: 0.05 * np.sin(x) * np.cos(2 * y))
    return initial_state(metric_from_potential(h, HermitianField.identity(spec)), phi=phi)


def _n1_extended_state(res=32):
    spec = full_spec(res=res, leaf=8)
    h = ScalarField.from_function(spec, lambda x, y: -0.3 * np.cos(x) + 0.1 * np.sin(2 * y))
    phi = ScalarField.from_function(
        spec,
        lambda x, y, u, v: 0.05 * np.sin(x) * np.cos(2 * y) + 0.02 * np.cos(u) * np.sin(x + v),
        basic=False,
    )
    return initial_state(metric_from_potential(h, HermitianField.identity(spec)), phi=phi)


def _n2_state():
    spec = basic_spec(n=2, res=8)
    h = ScalarField.from_function(
        spec, lambda a, b, c, d: -0.2 * np.cos(a) * np.cos(c) + 0.1 * np.sin(b + d)
    )
    phi = ScalarField.from_function(spec, lambda a, b, c, d: 0.03 * np.sin(a - d) * np.cos(b))
    return initial_state(metric_from_potential(h, HermitianField.identity(spec)), phi=phi)


FLOW_CASES = {
    "n1_basic": (_n1_basic_state, FlowConfig()),
    "n1_basic_rescaled": (_n1_basic_state, FlowConfig(class_k=-1, rescaled=True)),
    "n1_extended": (_n1_extended_state, FlowConfig(extended=True)),
    "n1_extended_rescaled": (_n1_extended_state, FlowConfig(extended=True, rescaled=True)),
    # 24^2 x 8^2: a sweep of 21-plane blocks and a last block of 3
    "n1_extended_ragged": (lambda: _n1_extended_state(res=24), FlowConfig(extended=True)),
    "n2": (_n2_state, FlowConfig()),
}


@pytest.mark.parametrize("case", sorted(FLOW_CASES))
def test_rhs_step_and_residual_bit_identical(case):
    make_state, config = FLOW_CASES[case]
    state = make_state()
    phi_values = np.array(state.phi.as_full_values())
    for t in (0.0, 0.3):
        if config.extended:
            got = ma_rhs_extended(state, t=t).values
        else:
            got = ma_rhs(state, t=t).values
        expected = reference_rhs(phi_values, t, state, extended=config.extended, rescaled=False)
        assert np.array_equal(got, expected)
    assert np.array_equal(
        flow._rhs_values(
            phi_values, 0.3, state, extended=config.extended, rescaled=config.rescaled,
            positivity_floor=1e-10,
        ),
        reference_rhs(phi_values, 0.3, state, extended=config.extended, rescaled=config.rescaled),
    )

    new = flow.step(state, config)
    t1, phi1, dphidt_sup = reference_step(state, config)
    assert new.t == t1
    assert np.array_equal(new.phi.values, phi1)
    d = new.diagnostics
    assert d.dphidt_sup == dphidt_sup
    ric_sup, lo, hi, defect = reference_diagnostics(phi1, t1, state, config)
    assert (d.ricci_sup, d.min_eig, d.max_eig, d.leafwise_defect) == (ric_sup, lo, hi, defect)
    assert flow.ricci_residual(new, config) == ric_sup


def _n1_leaf_constant_state():
    """A basic phi on a full grid: the extended flow steps it leaf-constant."""
    spec = full_spec(res=32, leaf=8)
    h = ScalarField.from_function(spec, lambda x, y: -0.3 * np.cos(x) + 0.1 * np.sin(2 * y))
    phi = ScalarField.from_function(spec, lambda x, y: 0.05 * np.sin(x) * np.cos(2 * y))
    return initial_state(metric_from_potential(h, HermitianField.identity(spec)), phi=phi)


STAGE_CASES = dict(
    FLOW_CASES,
    n1_leaf_constant=(_n1_leaf_constant_state, FlowConfig(extended=True)),
    n1_leaf_constant_rescaled=(
        _n1_leaf_constant_state, FlowConfig(class_k=-1, extended=True, rescaled=True)
    ),
)


def _full_phi(state, config):
    return np.array(state.phi.as_full_values()) if config.extended else state.phi.values


@pytest.mark.parametrize("case", sorted(STAGE_CASES))
def test_attached_stage_is_the_right_hand_side(case):
    """A step's diagnostics pass attaches f(phi, t); the next steps reuse it unchanged."""
    make_state, config = STAGE_CASES[case]
    first = flow.step(make_state(), config)
    stage = flow._attached_stage(first, config)
    assert stage is not None and not stage.flags.writeable
    expected = reference_rhs(
        _full_phi(first, config), first.t, first,
        extended=config.extended, rescaled=config.rescaled,
    )
    assert np.array_equal(stage, expected)

    fresh = FlowState(first.t, first.phi, first.omega_hat_0, first.chi, first.volume_density)
    t2, phi2, dphidt_sup = reference_step(fresh, config)
    second, again = flow.step(first, config), flow.step(first, config)
    for new in (second, again):
        assert new.t == t2
        assert np.array_equal(new.phi.values, phi2)
        assert new.diagnostics.dphidt_sup == dphidt_sup
    assert second.diagnostics == again.diagnostics
    assert np.array_equal(flow._attached_stage(first, config), expected)
    assert "_stage" not in repr(first)


def _count_rhs_calls(monkeypatch):
    calls = []
    evaluate = flow._rhs_values

    def counted(*args, **kwargs):
        calls.append(args[1])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(flow, "_rhs_values", counted)
    return calls


@pytest.mark.parametrize("case", ["n1_basic", "n1_extended", "n2", "n1_leaf_constant"])
def test_three_rhs_evaluations_per_accepted_step(case, monkeypatch):
    make_state, config = STAGE_CASES[case]
    state = make_state()
    calls = _count_rhs_calls(monkeypatch)
    seen = []
    report = flow.run(
        state, replace(config, ricci_tolerance=1e-30, max_steps=3),
        progress=lambda k, row, current: seen.append(len(calls)),
    )
    assert report.steps == 3
    assert seen == [3 * k for k in range(4)]


@pytest.mark.parametrize("case", ["n1_basic", "n1_extended", "n1_leaf_constant"])
def test_a_run_binds_its_stencils_once(case, monkeypatch):
    """A run of three steps binds as many stencils as a run of one."""
    make_state, config = STAGE_CASES[case]
    bound = []
    bind = grid._Stencil.__init__

    def counted(self, *args, **kwargs):
        bound.append(args)
        bind(self, *args, **kwargs)

    counts = []
    for steps in (1, 3):
        state = make_state()
        monkeypatch.setattr(grid._Stencil, "__init__", counted)
        report = flow.run(state, replace(config, ricci_tolerance=1e-30, max_steps=steps))
        monkeypatch.undo()
        assert report.steps == steps
        counts.append(len(bound))
        bound.clear()
    assert counts[0] == counts[1] > 0


def test_stale_stage_is_never_reused(monkeypatch):
    """A new phi or t, or another flow variant, gets its diagnostics and first stage afresh.

    The step's dt then comes from the state's own metric, and its first
    stage from the new diagnostics pass, not from ``_rhs_values``.
    """
    first = flow.step(_n1_basic_state(), FlowConfig())
    leaf_constant = flow.step(_n1_leaf_constant_state(), FlowConfig())
    other_phi = ScalarField(first.phi.spec, 1.5 * first.phi.values)
    cases = [
        (replace(first, phi=other_phi), FlowConfig()),
        (replace(first, t=first.t + 0.25), FlowConfig()),
        (first, FlowConfig(rescaled=True)),
        (leaf_constant, FlowConfig(extended=True)),
    ]
    calls = _count_rhs_calls(monkeypatch)
    for state, config in cases:
        assert flow._attached_stage(state, config) is None
        del calls[:]
        new = flow.step(state, config)
        assert len(calls) == 3 and state.t not in calls
        t1, phi1, dphidt_sup = reference_step(state, config)
        assert new.t == t1
        assert np.array_equal(new.phi.values, phi1)
        assert new.diagnostics.dphidt_sup == dphidt_sup


def _state_with_phi(case, amplitude):
    """A state whose metric has its minimum away from the first axis-0 planes.

    The metric is about 1 - amplitude/4 sin x, so an amplitude above 4 makes
    it negative near x = pi/2; initial_state would refuse that, so the state
    is assembled directly.
    """
    if case == "n2":
        spec = basic_spec(n=2, res=8)
        fn = lambda a, b, c, d: amplitude * np.sin(a) + 0.5 * np.cos(c)  # noqa: E731
    elif case == "n1_basic":
        spec = basic_spec(res=32)
        fn = lambda x, y: amplitude * np.sin(x) + 0.5 * np.cos(y)  # noqa: E731
    else:
        spec = full_spec(res=32, leaf=8)
        fn = lambda x, y, u, v: (  # noqa: E731
            (amplitude + np.cos(u) + 0.5 * np.sin(v)) * np.sin(x) + 0.5 * np.cos(y)
        )
    extended = case == "n1_extended"
    base = initial_state(HermitianField.identity(spec))
    phi = ScalarField.from_function(spec, fn, basic=not extended)
    return FlowState(0.0, phi, base.omega_hat_0, base.chi, base.volume_density), extended


@pytest.mark.parametrize("case", ["n1_basic", "n1_extended", "n2"])
@pytest.mark.parametrize("forced_by_floor", [False, True])
def test_breach_reports_global_minimum_and_location(case, forced_by_floor):
    state, extended = _state_with_phi(case, amplitude=1.0 if forced_by_floor else 8.0)
    phi_values = np.array(state.phi.as_full_values())
    w = reference_min_eigenvalues(phi_values, 0.0, state, False, extended)
    if forced_by_floor:
        assert np.min(w) > 0
        floor = 0.5 * (float(np.min(w)) + float(np.max(w)))
    else:
        assert np.min(w) < 0
        floor = 1e-10
    location = tuple(int(i) for i in np.unravel_index(np.argmin(w), w.shape))
    if extended:
        assert location[0] >= 4  # beyond the first blocks of the sweep
    # A log of the breaching values would warn; the check must come first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PositivityLost) as err:
            (ma_rhs_extended if extended else ma_rhs)(state, positivity_floor=floor)
    assert err.value.min_eigenvalue == float(np.min(w))
    assert err.value.location == location


@pytest.mark.parametrize("case", ["n1_basic", "n1_extended", "n2"])
def test_entry_points_locate_a_non_positive_metric(case):
    """ricci_residual, step and run raise or report PositivityLost, and log no breach."""
    state, extended = _state_with_phi(case, 8.0)
    config = FlowConfig(extended=extended)
    w = reference_min_eigenvalues(np.array(state.phi.as_full_values()), 0.0, state, False, extended)
    expected = float(np.min(w)), tuple(int(i) for i in np.unravel_index(np.argmin(w), w.shape))
    assert expected[0] < 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (flow.ricci_residual, flow.step):
            with pytest.raises(PositivityLost) as err:
                call(state, config)
            assert (err.value.min_eigenvalue, err.value.location) == expected
        report = flow.run(state, config)
    assert (report.reason, report.steps, report.history) == ("positivity_lost", 0, [])
    assert (report.failure["min_eigenvalue"], report.failure["location"]) == expected


@pytest.mark.parametrize("case", ["n1_basic", "n1_extended", "n2"])
def test_run_stops_at_the_last_positive_state(case, monkeypatch):
    """A step whose result is not positive ends the run before it, with no row for it."""
    state, extended = _state_with_phi(case, 1.0)
    config = FlowConfig(extended=extended, ricci_tolerance=1e-30)
    phi0 = np.array(state.phi.as_full_values()) if extended else state.phi.values

    def steep(values, t, state, *, out=None, **kwargs):
        # Stages of -1e4 phi0 flip the sign of ddbar phi in the step's result.
        out = np.empty(values.shape) if out is None else out
        np.multiply(phi0, -1e4, out=out)
        return out

    monkeypatch.setattr(flow, "_rhs_values", steep)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = flow.run(state, config)
    assert (report.reason, report.steps, len(report.history)) == ("positivity_lost", 0, 1)
    assert report.final_state.t == 0.0 and report.final_state.phi is state.phi
    assert report.failure["min_eigenvalue"] < 0
    assert report.history[0]["min_eig"] > 0 and np.isfinite(report.history[0]["ricci_sup"])


@pytest.mark.parametrize("n", [1, 2])
def test_leafwise_defect_matches_roll_reference(n):
    """The public leaf defect equals the np.roll one, and is 0.0 on a leaf-constant phi."""
    spec = full_spec(n=n, res=16 if n == 1 else 8, leaf=8)
    base = initial_state(HermitianField.identity(spec))

    def state_of(fn):
        phi = ScalarField.from_function(spec, fn, basic=False)
        return FlowState(0.0, phi, base.omega_hat_0, base.chi, base.volume_density)

    varying = state_of(lambda *c: 0.1 * np.sin(c[0] + c[-2]) * np.cos(c[1] - 2 * c[-1]))
    hs, values = spec.spacings, varying.phi.values
    expected = sum(
        np.max(np.abs(reference_diff1(values, axis, hs[axis]))) for axis in (2 * n, 2 * n + 1)
    )
    assert flow.leafwise_defect(varying) == float(expected) > 0.0
    leaf_constant = state_of(lambda *c: 0.1 * np.sin(c[0]) * np.cos(c[1]) + 0.0 * c[-1])
    assert not leaf_constant.phi.basic
    assert flow.leafwise_defect(leaf_constant) == 0.0


# ---------------------------------------------------------------------------
# The sweep's two lanes
# ---------------------------------------------------------------------------

def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _lane_state(phi_values=None):
    """An extended state on 46 x 24 x 8^2, a sweep of 21-, 21- and 4-plane blocks.

    The first and the last block are the calling thread's lane, the middle
    one the worker's.  Without ``phi_values`` phi varies along the leaves;
    with them the state is assembled directly, so its metric may be anything.
    """
    spec = GridSpec(
        1, (46, 24), (TWO_PI, TWO_PI), leaf_resolution=(8, 8), leaf_periods=(TWO_PI, TWO_PI)
    )
    h = ScalarField.from_function(spec, lambda x, y: -0.3 * np.cos(x) + 0.1 * np.sin(2 * y))
    omega = metric_from_potential(h, HermitianField.identity(spec))
    if phi_values is None:
        phi = ScalarField.from_function(
            spec,
            lambda x, y, u, v: 0.05 * np.sin(x) * np.cos(2 * y) + 0.02 * np.cos(u) * np.sin(x + v),
            basic=False,
        )
        return initial_state(omega, phi=phi)
    base = initial_state(omega)
    phi = ScalarField(spec, phi_values, basic=False)
    return FlowState(0.0, phi, base.omega_hat_0, base.chi, base.volume_density)


_LANE_ROWS = [[slice(0, 21), slice(42, 46)], [slice(21, 42)]]


def _lane_workspace(state, config=FlowConfig(extended=True)):
    ws = flow._Workspace(state, config)
    sweep = ws.sweep(state.phi.spec.full_shape)
    assert [[block.rows for block in lane] for lane in sweep.lanes] == _LANE_ROWS
    return ws, sweep


@pytest.mark.parametrize("class_k", [0, -1])
def test_two_lanes_match_the_reference(class_k):
    """The stage, the kept metric, the Ricci sup and the leaf defect of a 3-block sweep."""
    state = _lane_state()
    config = FlowConfig(class_k=class_k, extended=True)
    ws, sweep = _lane_workspace(state, config)
    phi = np.array(state.phi.values)
    for t in (0.0, 0.3):
        expected = reference_rhs(phi, t, state, extended=True, rescaled=False)
        stage = np.empty(phi.shape)
        flow._evaluate(phi, t, ws, 1e-10, True, stage)
        assert np.array_equal(_bits(stage), _bits(expected))

        k1 = np.empty(phi.shape)
        g, ld, lows, highs = flow._evaluate(phi, t, ws, 0.0, True, k1, keep=True)
        metric = reference_metric(phi, t, state, False, True)
        assert np.array_equal(_bits(g), _bits(metric))
        assert np.array_equal(_bits(ld), _bits(np.log(metric)))
        assert np.array_equal(_bits(k1), _bits(expected))
        ric_sup, lo, hi, defect = reference_diagnostics(phi, t, state, config)
        assert _bits(np.min(lows)) == _bits(lo) and _bits(np.max(highs)) == _bits(hi)
        assert _bits(sweep.ricci_sup(class_k)) == _bits(ric_sup)
        assert _bits(sweep.leaf_defect()) == _bits(defect) and defect > 0.0


def test_a_breach_in_the_worker_lane_is_located():
    """A metric negative only in the worker's block reports the global minimum and location."""
    spike = _lane_state().phi.values.copy()
    spike[30, 5, 3, 2] += 2.0  # ddbar of the spike is negative on rows 28-32 only
    state = _lane_state(spike)
    w = reference_min_eigenvalues(spike, 0.0, state, False, True)
    breached = np.nonzero(np.min(w, axis=(1, 2, 3)) < 0)[0]
    assert 21 <= breached.min() and breached.max() < 42
    location = tuple(int(i) for i in np.unravel_index(np.argmin(w), w.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no log of a breach
        with pytest.raises(PositivityLost) as err:
            ma_rhs_extended(state)
    assert err.value.min_eigenvalue == float(np.min(w))
    assert err.value.location == location == (30, 5, 3, 2)


@pytest.mark.parametrize("failing", [0, 21], ids=["calling_lane", "worker_lane"])
def test_a_lane_raises_only_after_the_other_lane_has_finished(failing, monkeypatch):
    """A fault in one lane's block propagates once the other lane has written its rows.

    The other lane's blocks are slowed down, so a fault that did not wait
    for them would leave their rows unwritten.  The next evaluation on the
    same sweep is bit-identical to the reference again.
    """
    state = _lane_state()
    ws, sweep = _lane_workspace(state)
    phi = np.array(state.phi.values)
    expected = reference_rhs(phi, 0.0, state, extended=True, rescaled=False)
    other_rows = [rows for lane in _LANE_ROWS if lane[0].start != failing for rows in lane]
    metric = flow._metric_n1

    def planted(block, ref, out):
        if block.rows.start == failing:
            raise RuntimeError("planted fault")
        time.sleep(0.2)
        metric(block, ref, out)

    monkeypatch.setattr(flow, "_metric_n1", planted)
    out = np.full(phi.shape, np.nan)
    with pytest.raises(RuntimeError, match="planted fault"):
        flow._evaluate(phi, 0.0, ws, 1e-10, True, out)
    for rows in other_rows:
        assert np.array_equal(_bits(out[rows]), _bits(expected[rows]))
    monkeypatch.undo()
    again = np.empty(phi.shape)
    flow._evaluate(phi, 0.0, ws, 1e-10, True, again)
    assert np.array_equal(_bits(again), _bits(expected))


def test_concurrent_callers_share_the_lane_worker():
    """Three threads sweep their own workspaces at once, with frequent switches, all exact."""
    state = _lane_state()
    phi = np.array(state.phi.values)
    expected = _bits(reference_rhs(phi, 0.0, state, extended=True, rescaled=False))
    faults = []

    def caller():
        try:
            ws, _ = _lane_workspace(state)
            out = np.empty(phi.shape)
            for _ in range(10):
                out.fill(np.nan)
                flow._evaluate(phi, 0.0, ws, 1e-10, True, out)
                if not np.array_equal(_bits(out), expected):
                    faults.append("a lane result differs from the reference")
        except Exception as exc:  # reported by the main thread below
            faults.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller) for _ in range(3)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert faults == []


def _script_output(*lines):
    """The standard output of a fresh interpreter that runs ``lines`` with this package."""
    src = str(Path(vaisflow.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    result = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_a_one_block_flow_starts_no_thread():
    """A 64^2 run is one block: it starts no thread and imports no concurrent.futures."""
    assert _script_output(
        "import sys, threading",
        "import numpy as np",
        "from vaisflow.flow import FlowConfig, initial_state, run",
        "from vaisflow.grid import GridSpec, ScalarField",
        "from vaisflow.transverse import HermitianField, metric_from_potential",
        "spec = GridSpec(1, (64, 64), (2 * np.pi, 2 * np.pi))",
        "h = ScalarField.from_function(spec, lambda x, y: -0.4 * np.cos(x))",
        "state = initial_state(metric_from_potential(h, HermitianField.identity(spec)))",
        "report = run(state, FlowConfig(ricci_tolerance=1e-30, max_steps=5))",
        "print(report.steps, threading.active_count(), 'concurrent.futures' in sys.modules)",
    ) == ["5", "1", "False"]


def test_a_forked_child_sweeps_on_its_own_worker():
    """The parent's lane worker does not exist in a forked child, which starts its own.

    The child gives up after 30 s (exit status -14) instead of waiting on
    the parent's worker forever.
    """
    assert _script_output(
        "import os, signal",
        "import numpy as np",
        "from vaisflow.flow import initial_state, ma_rhs_extended",
        "from vaisflow.grid import GridSpec, ScalarField",
        "from vaisflow.transverse import HermitianField",
        "spec = GridSpec(1, (32, 32), (6.0, 6.0), leaf_resolution=(8, 8), leaf_periods=(6.0, 6.0))",
        "phi = ScalarField.from_function(",
        "    spec, lambda x, y, u, v: 0.01 * np.cos(u) * np.sin(x + v), basic=False)",
        "state = initial_state(HermitianField.identity(spec), phi=phi)",
        "expected = ma_rhs_extended(state).values  # two blocks: starts the worker",
        "pid = os.fork()",
        "if pid == 0:",
        "    signal.alarm(30)",
        "    os._exit(0 if np.array_equal(ma_rhs_extended(state).values, expected) else 1)",
        "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))",
    ) == ["0"]


def _public_functions():
    """(owner, name, function) for every public function and method of the package's modules."""
    for info in pkgutil.iter_modules(vaisflow.__path__):
        module = importlib.import_module(f"vaisflow.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_") or not getattr(value, "__module__", "").startswith("vaisflow"):
                continue
            if inspect.isfunction(value):
                yield module, name, value
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, method in vars(value).items():
                    if not attr.startswith("_") and inspect.isfunction(method):
                        yield value, attr, method


def test_extended_run_calls_every_public_function_on_the_calling_thread(monkeypatch):
    """The worker lane runs bound stencils and numpy only; a tracer sees one thread."""
    threads = {}

    def recorded(key, function):
        def wrapper(*args, **kwargs):
            threads.setdefault(key, set()).add(threading.get_ident())
            return function(*args, **kwargs)
        return wrapper

    for owner, name, function in list(_public_functions()):
        monkeypatch.setattr(owner, name, recorded(f"{owner.__name__}.{name}", function))
    monkeypatch.setattr(flow, "_metric_n1", recorded("lanes", flow._metric_n1))
    state = _lane_state()
    report = flow.run(state, FlowConfig(extended=True, ricci_tolerance=1e-30, max_steps=2))
    assert report.steps == 2
    lanes = threads.pop("lanes")
    assert len(lanes) == 2  # the sweep did run on a second thread
    assert {"vaisflow.flow.run", "vaisflow.flow.step", "vaisflow.transverse.diff2"} <= set(threads)
    assert {key: ids for key, ids in threads.items() if ids != {threading.get_ident()}} == {}


# ---------------------------------------------------------------------------
# The run-scoped workspace
# ---------------------------------------------------------------------------

def _history_of_steps(state, config, steps):
    """History rows 1..steps and the final state of separate public ``step`` calls."""
    rows = []
    for k in range(1, steps + 1):
        state = flow.step(state, config)
        rows.append({"step": k, "t": state.t, **vars(state.diagnostics)})
    return rows, state


@pytest.mark.parametrize("case", sorted(FLOW_CASES))
def test_run_matches_public_steps(case):
    """A run on one workspace equals steps that each make their own."""
    make_state, config = FLOW_CASES[case]
    config = replace(config, ricci_tolerance=1e-30, max_steps=25)
    state = make_state()
    report = flow.run(state, config)
    assert report.steps == 25
    rows, final = _history_of_steps(state, config, 25)
    assert report.history[1:] == rows
    assert np.array_equal(report.final_state.phi.values, final.phi.values)


@pytest.mark.parametrize("case", sorted(STAGE_CASES))
def test_progress_states_stay_valid(case):
    """No array attached to a state that ``run`` hands out is written again."""
    make_state, config = STAGE_CASES[case]
    seen = []

    def keep(k, row, current):
        stage = flow._attached_stage(current, config)
        assert stage is not None
        seen.append((current, current.phi.values.copy(), stage.copy()))

    flow.run(make_state(), replace(config, ricci_tolerance=1e-30, max_steps=6), progress=keep)
    assert len(seen) == 7
    for current, phi, stage in seen:
        assert np.array_equal(current.phi.values, phi)
        assert np.array_equal(flow._attached_stage(current, config), stage)


def test_each_run_builds_a_workspace_for_its_own_inputs(monkeypatch):
    """Runs on other volume_density, chi or config objects each get their own workspace."""
    state = _n1_basic_state()
    spec = state.phi.spec
    bumpy = initial_state(metric_from_potential(
        ScalarField.from_function(spec, lambda x, y: 0.2 * np.cos(y)), HermitianField.identity(spec)
    ))
    built = []
    build = flow._Workspace.__init__

    def recorded(self, for_state, config):
        built.append((for_state, config))
        build(self, for_state, config)

    monkeypatch.setattr(flow._Workspace, "__init__", recorded)
    config = FlowConfig(ricci_tolerance=1e-30, max_steps=1)
    cases = [
        (state, config),
        (FlowState(0.0, state.phi, state.omega_hat_0, state.chi, bumpy.volume_density), config),
        (FlowState(0.0, state.phi, state.omega_hat_0, bumpy.omega_hat_0, state.volume_density),
         config),
        (state, replace(config, rescaled=True)),
        (state, replace(config, class_k=-1)),
        (state, replace(config, dt_initial=0.001)),
    ]
    for other, other_config in cases:
        built.clear()
        report = flow.run(other, other_config)
        assert len(built) == 1
        assert built[0][0] is other and built[0][1] is other_config
        t1, phi1, _ = reference_step(other, other_config)
        assert report.final_state.t == t1
        assert np.array_equal(report.final_state.phi.values, phi1)
        assert report.history[1:] == _history_of_steps(other, other_config, 1)[0]


def _n3_state():
    """n = 3 on its smallest legal grid, 8^6 points."""
    spec = basic_spec(n=3, res=8)
    phi = ScalarField.from_function(spec, lambda *c: 0.02 * np.sin(c[0] - c[5]) * np.cos(c[2]))
    return initial_state(HermitianField.identity(spec), phi=phi)


@pytest.mark.parametrize("make_state", [_n2_state, _n3_state], ids=["n2", "n3"])
def test_n_ge_2_steps_build_no_hermitian_field(make_state, monkeypatch):
    """The n >= 2 step and its diagnostics run on raw arrays: no field is built or validated."""
    state = make_state()
    built = []
    validate = HermitianField.__post_init__

    def counted(self):
        built.append(self.matrices.shape)
        validate(self)

    monkeypatch.setattr(HermitianField, "__post_init__", counted)
    new = flow.step(state, FlowConfig())  # diagnoses state, steps, diagnoses the result
    assert new.diagnostics.min_eig > 0
    assert built == []
