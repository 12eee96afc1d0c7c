"""The transverse Kahler-Ricci flow as a potential-level parabolic evolution.

The metric trajectory omega(t) = omega_hat(t) + i ddbar phi(t) is driven by
the scalar log Monge-Ampere equation

    d phi / dt = log( det(ghat(t) + phi_{j kbar}) / density ),

where the density is e^F det(g_0) with F chosen so that the coefficient form
of i ddbar log(density) equals chi (see :func:`build_volume_form`).  The
leafwise-extended variant adds (phi_xx + phi_yy)/2 on a full grid and reads
the transverse Hesse coefficients at fixed leaf coordinates, so the two
right-hand sides coincide whenever phi is basic.

The rescaled flow integrates d phi/dt = rhs - phi (plus a zero-mean
calibration constant) against the reference schedule
omega_hat(t) = chi + e^{-t} (omega_hat_0 - chi); under
omega_bar(s) = e^t omega(t), s = e^t - 1 its metric trajectory maps exactly
onto the unrescaled one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._kernels import HAVE_NUMBA, rhs_n1
from .exceptions import GridError, InexactClass, PositivityLost, StepFloor
from .grid import GridSpec, ScalarField, diff1, diff2, diff2_into, integrate
from .transverse import HermitianField, ddbar, log_det, ricci

__all__ = [
    "FlowConfig",
    "FlowState",
    "FlowDiagnostics",
    "FlowReport",
    "HISTORY_COLUMNS",
    "build_volume_form",
    "initial_state",
    "reference_form",
    "transverse_metric",
    "ricci_residual",
    "ma_rhs",
    "ma_rhs_extended",
    "leafwise_defect",
    "step",
    "run",
]

DT_FLOOR = 1e-12
DIVERGENCE_FACTOR = 1e6
# Axis-0 planes per block of the extended n = 1 right-hand side.  On the
# 64^2 x 16^2 grid a block's arrays are 256 KiB each, so the whole block
# evaluation stays in a 2 MiB L2 cache instead of streaming 8 MiB arrays.
_SLAB_PLANES = 2
_HALO = 2  # reach of the fourth-order stencils

HISTORY_COLUMNS = (
    "step",
    "t",
    "dt",
    "ricci_sup",
    "dphidt_sup",
    "min_eig",
    "max_eig",
    "leafwise_defect",
)


@dataclass(frozen=True)
class FlowConfig:
    """Parameters of one flow run.

    ``class_k`` is the proportionality sign k in c_1^b = k [omega_0]
    (0 or -1); convergence is measured on sup || Ric(omega) - k omega ||.
    """

    class_k: int = 0
    dt_initial: float = 0.05
    dt_safety: float = 0.5
    max_steps: int = 100_000
    ricci_tolerance: float = 1e-6
    rescaled: bool = False
    extended: bool = False
    positivity_floor: float = 1e-10

    def __post_init__(self):
        if self.class_k not in (-1, 0):
            raise GridError(f"class_k must be -1 or 0, got {self.class_k}")
        if not self.dt_initial > 0:
            raise GridError("dt_initial must be positive")
        if not 0 < self.dt_safety <= 1:
            raise GridError("dt_safety must lie in (0, 1]")
        if self.max_steps < 1:
            raise GridError("max_steps must be >= 1")
        if not self.ricci_tolerance > 0:
            raise GridError("ricci_tolerance must be positive")
        if not self.positivity_floor > 0:
            raise GridError("positivity_floor must be positive")


@dataclass(frozen=True)
class FlowDiagnostics:
    ricci_sup: float
    dphidt_sup: float
    min_eig: float
    max_eig: float
    leafwise_defect: float
    dt: float = 0.0


@dataclass(frozen=True)
class FlowState:
    """Immutable snapshot of the flow at time ``t``.

    ``volume_density`` is the positive density of the transverse volume form
    against the coordinate volume, normalized so its integral matches that
    of det(g_0).
    """

    t: float
    phi: ScalarField
    omega_hat_0: HermitianField
    chi: HermitianField
    volume_density: ScalarField
    diagnostics: FlowDiagnostics | None = None

    def __post_init__(self):
        if np.any(self.volume_density.values <= 0):
            raise GridError("volume density must be strictly positive")


# ---------------------------------------------------------------------------
# Volume form
# ---------------------------------------------------------------------------

def _transverse_fft_symbol(spec: GridSpec) -> np.ndarray:
    """Fourier symbol of the ddbar-trace operator 0.25 * sum_j (Sx_j + Sy_j).

    Uses the symbol of the discrete fourth-order second-derivative stencil,
    so inverting it reproduces grid-exact potentials.
    """
    total = np.zeros(spec.transverse_shape)
    for a in range(2 * spec.n):
        N = spec.transverse_resolution[a]
        h = spec.transverse_periods[a] / N
        kappa = 2.0 * np.pi * np.fft.fftfreq(N)
        c = np.cos(kappa)
        s_axis = -((1.0 - c) * (7.0 - c) / 3.0) / (h * h)
        shape = [1] * (2 * spec.n)
        shape[a] = N
        total = total + s_axis.reshape(shape)
    return 0.25 * total


def build_volume_form(
    omega0: HermitianField,
    chi: HermitianField,
    exactness_tol: float = 1e-8,
) -> tuple[ScalarField, ScalarField]:
    """Solve for F with ddbar F = chi - ddbar log det(g_0); return (F, density).

    The scalar Poisson problem for F is obtained by tracing the coefficient
    matrices and inverted with the discrete stencil symbol on the periodic
    grid (zero-mean gauge).  F is then shifted by a constant so that the
    density e^F det(g_0) integrates to the same value as det(g_0).

    Raises
    ------
    InexactClass
        If the trace source has a nonzero mean or the full matrix residual
        sup || ddbar F - (chi - ddbar log det g_0) || exceeds
        ``exactness_tol``: chi is not ddbar-exact on this chart.
    """
    spec = omega0.spec
    ld0 = log_det(omega0)
    source = chi - ddbar(ld0)
    trace = np.trace(source.matrices, axis1=-2, axis2=-1).real

    scale = max(1.0, float(np.max(np.abs(source.matrices))))
    mean = float(np.mean(trace))
    if abs(mean) > exactness_tol * scale:
        raise InexactClass(
            f"trace of (chi - ddbar log det g0) has mean {mean:.3e}; "
            "the class is not ddbar-exact on this chart"
        )

    symbol = _transverse_fft_symbol(spec)
    rhs_hat = np.fft.fftn(trace)
    with np.errstate(divide="ignore", invalid="ignore"):
        sol_hat = np.where(symbol != 0.0, rhs_hat / symbol, 0.0)
    sol_hat.flat[0] = 0.0
    f_vals = np.fft.ifftn(sol_hat).real
    f_field = ScalarField(spec, f_vals, basic=True)

    residual = float(np.max(np.abs(ddbar(f_field).matrices - source.matrices)))
    if residual > exactness_tol * scale:
        raise InexactClass(
            f"ddbar F misses the target by {residual:.3e} (tolerance {exactness_tol:.1e}); "
            "chi is not ddbar-exact on this chart"
        )

    det0 = ScalarField(spec, np.exp(ld0.values), basic=True)
    target = integrate(det0)
    current = integrate(ScalarField(spec, np.exp(f_vals) * det0.values, basic=True))
    f_vals = f_vals + np.log(target / current)
    density = ScalarField(spec, np.exp(f_vals) * det0.values, basic=True)
    return ScalarField(spec, f_vals, basic=True), density


def initial_state(
    omega_hat_0: HermitianField,
    chi: HermitianField | None = None,
    phi: ScalarField | None = None,
    exactness_tol: float = 1e-8,
) -> FlowState:
    """Assemble an admissible flow state at t = 0."""
    spec = omega_hat_0.spec
    omega_hat_0 = omega_hat_0.checked_positive()
    if chi is None:
        chi = HermitianField.zeros(spec)
    if phi is None:
        phi = ScalarField.zeros(spec, basic=True)
    _, density = build_volume_form(omega_hat_0, chi, exactness_tol)
    state = FlowState(0.0, phi, omega_hat_0, chi, density)
    transverse_metric(state).checked_positive()
    return state


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------

def reference_form(state: FlowState, t: float) -> HermitianField:
    """omega_hat(t) = omega_hat_0 + t chi (unrescaled reference schedule)."""
    return HermitianField(
        state.omega_hat_0.spec,
        state.omega_hat_0.matrices + t * state.chi.matrices,
        basic=True,
    )


def _reference_matrices(state: FlowState, t: float, rescaled: bool) -> np.ndarray:
    if rescaled:
        w = np.exp(-t)
        return state.chi.matrices + w * (state.omega_hat_0.matrices - state.chi.matrices)
    if t == 0.0:
        return state.omega_hat_0.matrices
    return state.omega_hat_0.matrices + t * state.chi.matrices


def _hesse_matrices(phi_values: np.ndarray, spec: GridSpec) -> np.ndarray:
    """ddbar coefficients of a raw real array; transverse axes only."""
    n = spec.n
    hs = spec.spacings
    out = np.zeros(phi_values.shape + (n, n), dtype=np.complex128)
    for j in range(n):
        ax, ay = 2 * j, 2 * j + 1
        out[..., j, j] = 0.25 * (diff2(phi_values, ax, hs[ax]) + diff2(phi_values, ay, hs[ay]))
    for j in range(n):
        for k in range(j + 1, n):
            jx, jy = 2 * j, 2 * j + 1
            kx, ky = 2 * k, 2 * k + 1
            dk = 0.5 * (diff1(phi_values, kx, hs[kx]) + 1j * diff1(phi_values, ky, hs[ky]))
            entry = 0.5 * (diff1(dk, jx, hs[jx]) - 1j * diff1(dk, jy, hs[jy]))
            out[..., j, k] = entry
            out[..., k, j] = np.conj(entry)
    return out


class _Scratch:
    """Grid-sized arrays that one caller allocates and lends down its calls.

    :meth:`take` hands out a free float64 array of the requested shape,
    allocating only when none is free, and :meth:`give` returns arrays for
    reuse.  A step thereby runs its four stages and its diagnostics on the
    same few buffers.
    """

    def __init__(self):
        self._free: dict[tuple[int, ...], list[np.ndarray]] = {}

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        free = self._free.get(shape)
        return free.pop() if free else np.empty(shape)

    def give(self, *arrays: np.ndarray) -> None:
        for a in arrays:
            self._free.setdefault(a.shape, []).append(a)


def _metric_n1(src, halo, ref, hs, out, tmp, tmp1, tmp2):
    """out = ref + 0.25 (phi_xx + phi_yy), the n = 1 evolving metric.

    ``src`` holds phi with ``halo`` extra axis-0 planes at each end (none
    for a whole-grid evaluation, which wraps periodically).
    """
    diff2_into(src, 0, hs[0], out, tmp1, tmp2, halo)
    core = src[halo:src.shape[0] - halo] if halo else src
    diff2_into(core, 1, hs[1], tmp, tmp1, tmp2)
    out += tmp
    out *= 0.25
    out += ref


def _add_half_leaf_laplacian(phi, out, hs, tmp, tmp1, tmp2):
    """out += 0.5 phi_xx, then out += 0.5 phi_yy along the two leaf axes."""
    for axis in (phi.ndim - 2, phi.ndim - 1):
        diff2_into(phi, axis, hs[axis], tmp, tmp1, tmp2)
        tmp *= 0.5
        out += tmp


def _metric_values_n1(
    phi_values: np.ndarray, t: float, state: FlowState, rescaled: bool, extended: bool,
    scratch: _Scratch,
) -> np.ndarray:
    """Values of the evolving n = 1 metric, in an array taken from ``scratch``."""
    spec = state.phi.spec
    ref = _reference_matrices(state, t, rescaled)[..., 0, 0].real
    if extended:
        ref = ref.reshape(spec.transverse_shape + (1, 1))
    return _whole_metric_n1(phi_values, ref, spec.spacings, scratch)


def _whole_metric_n1(phi, ref, hs, scratch):
    g, tmp, tmp1, tmp2 = (scratch.take(phi.shape) for _ in range(4))
    _metric_n1(phi, 0, ref, hs, g, tmp, tmp1, tmp2)
    scratch.give(tmp, tmp1, tmp2)
    return g


def _floor_check(values_min: float, floor: float, values: np.ndarray | None = None):
    """Raise PositivityLost unless ``values_min`` > ``floor``.

    ``values`` holds the checked values per grid point; on failure the grid
    index of their minimum becomes the error's ``location``.
    """
    if not values_min > floor:
        location = None
        if values is not None:
            location = tuple(int(i) for i in np.unravel_index(np.argmin(values), values.shape))
        raise PositivityLost(
            f"evolving metric eigenvalue {values_min:.6e} <= floor {floor:.1e}"
            + ("" if location is None else f" at grid index {location}"),
            min_eigenvalue=values_min,
            location=location,
        )


def _log_det_positive(matrices: np.ndarray, n: int, floor: float) -> np.ndarray:
    w = np.linalg.eigvalsh(matrices)
    # eigvalsh sorts ascending, so w[..., 0] is the smallest eigenvalue per point.
    _floor_check(float(np.min(w)), floor, w[..., 0])
    return np.sum(np.log(w), axis=-1)


def _rhs_n1(phi, ref, log_density, hs, floor, extended, out, scratch):
    """n = 1 right-hand side into ``out``.

    It computes g = ref + 0.25 (phi_xx + phi_yy), checks g against the
    floor, then takes log g - log_density and, when extended, adds
    0.5 phi_xx and 0.5 phi_yy along the leaves.  The basic grid is small and
    is evaluated whole; the extended grid is swept in blocks of
    ``_SLAB_PLANES`` axis-0 planes.  Each block reads its axis-0 halo from
    phi itself, or from a wrapped copy at the two ends of the axis.  Every
    value is bit-identical to a whole-grid evaluation.
    """
    if not extended:
        tmp, tmp1, tmp2 = (scratch.take(phi.shape) for _ in range(3))
        _metric_n1(phi, 0, ref, hs, out, tmp, tmp1, tmp2)
        _floor_check(float(np.min(out)), floor, out)
        np.log(out, out=out)
        out -= log_density
        scratch.give(tmp, tmp1, tmp2)
        return
    n0 = phi.shape[0]
    block_shape = (_SLAB_PLANES,) + phi.shape[1:]
    tmp, tmp1, tmp2 = (scratch.take(block_shape) for _ in range(3))
    window = scratch.take((_SLAB_PLANES + 2 * _HALO,) + phi.shape[1:])
    for i0 in range(0, n0, _SLAB_PLANES):
        i1 = i0 + _SLAB_PLANES
        if _HALO <= i0 and i1 + _HALO <= n0:
            src = phi[i0 - _HALO:i1 + _HALO]
        else:
            src = np.take(phi, range(i0 - _HALO, i1 + _HALO), axis=0, out=window, mode="wrap")
        block = out[i0:i1]
        _metric_n1(src, _HALO, ref[i0:i1], hs, block, tmp, tmp1, tmp2)
        if not float(np.min(block)) > floor:
            # Report the minimum and its location over the whole grid, as an
            # unblocked evaluation would, and take no log of the breach.
            whole = _whole_metric_n1(phi, ref, hs, scratch)
            _floor_check(float(np.min(whole)), floor, whole)
        np.log(block, out=block)
        block -= log_density[i0:i1]
        _add_half_leaf_laplacian(src[_HALO:_HALO + _SLAB_PLANES], block, hs, tmp, tmp1, tmp2)
    scratch.give(tmp, tmp1, tmp2, window)


def _rhs_values(
    phi_values: np.ndarray,
    t: float,
    state: FlowState,
    *,
    extended: bool,
    rescaled: bool,
    positivity_floor: float,
    out: np.ndarray | None = None,
    scratch: _Scratch | None = None,
) -> np.ndarray:
    """The flow's right-hand side, written into ``out`` (when given) and returned.

    ``phi_values`` is C-contiguous and does not overlap ``out``; ``scratch``
    lends the temporaries.
    """
    spec = state.phi.spec
    n = spec.n
    log_density = np.log(state.volume_density.values)
    if n == 1 and HAVE_NUMBA:
        ref = np.ascontiguousarray(_reference_matrices(state, t, rescaled)[..., 0, 0].real)
        rhs, min_g = rhs_n1(
            phi_values, ref, log_density, spec.spacings, positivity_floor, extended
        )
        _floor_check(min_g, positivity_floor)
        if rescaled:
            f = rhs - phi_values
            return f - np.mean(f)
        return rhs
    if out is None:
        out = np.empty(phi_values.shape)
    if scratch is None:
        scratch = _Scratch()
    if extended:
        log_density = log_density.reshape(spec.transverse_shape + (1, 1))
    if n == 1:
        ref = _reference_matrices(state, t, rescaled)[..., 0, 0].real
        if extended:
            ref = ref.reshape(spec.transverse_shape + (1, 1))
        _rhs_n1(phi_values, ref, log_density, spec.spacings, positivity_floor, extended, out, scratch)
    else:
        ref = _reference_matrices(state, t, rescaled)
        if extended:
            ref = ref.reshape(spec.transverse_shape + (1, 1, n, n))
        gt = ref + _hesse_matrices(phi_values, spec)
        np.subtract(_log_det_positive(gt, n, positivity_floor), log_density, out=out)
        if extended:
            temps = [scratch.take(out.shape) for _ in range(3)]
            _add_half_leaf_laplacian(phi_values, out, spec.spacings, *temps)
            scratch.give(*temps)
    if rescaled:
        out -= phi_values
        out -= np.mean(out)
    return out


def ma_rhs(state: FlowState, t: float | None = None, positivity_floor: float = 1e-10) -> ScalarField:
    """Right-hand side log(det(ghat(t) + phi_{j kbar}) / density) at ``t``.

    phi must be basic here; the result is a basic real field.  Adding a
    constant to phi leaves the result unchanged bit for bit whenever the
    shifted values are exactly representable, because the stencils are
    written in difference form.
    """
    if not state.phi.basic:
        raise GridError("ma_rhs expects a basic potential; use ma_rhs_extended")
    tt = state.t if t is None else t
    vals = _rhs_values(
        state.phi.values, tt, state, extended=False, rescaled=False,
        positivity_floor=positivity_floor,
    )
    return ScalarField(state.phi.spec, vals, basic=True)


def ma_rhs_extended(
    state: FlowState, t: float | None = None, positivity_floor: float = 1e-10
) -> ScalarField:
    """Leafwise-extended right-hand side on a full grid.

    The transverse Hesse coefficients of phi are taken at fixed leaf
    coordinates and the Euclidean leaf Laplacian (phi_xx + phi_yy)/2 is
    added.  For basic phi every added term vanishes identically and the
    result equals :func:`ma_rhs` broadcast over the leaves.
    """
    spec = state.phi.spec
    if not spec.has_leaf:
        raise GridError("ma_rhs_extended needs a spec with leaf axes")
    tt = state.t if t is None else t
    phi_values = np.ascontiguousarray(state.phi.as_full_values())
    vals = _rhs_values(
        phi_values, tt, state, extended=True, rescaled=False,
        positivity_floor=positivity_floor,
    )
    return ScalarField(spec, vals, basic=False)


def transverse_metric(
    state: FlowState, t: float | None = None, rescaled: bool = False
) -> HermitianField:
    """The evolving transverse metric ghat(t) + phi_{j kbar}."""
    spec = state.phi.spec
    tt = state.t if t is None else t
    phi_values = state.phi.values if state.phi.basic else state.phi.as_full_values()
    ref = _reference_matrices(state, tt, rescaled)
    if not state.phi.basic:
        ref = ref.reshape(spec.transverse_shape + (1, 1, spec.n, spec.n))
    return HermitianField(spec, ref + _hesse_matrices(phi_values, spec), basic=state.phi.basic)


def leafwise_defect(state: FlowState) -> float:
    """sup |d phi/dx| + sup |d phi/dy| along the leaf axes.

    Exactly zero for basic potentials: a basic field carries no leaf axes,
    and the leaf stencils annihilate leaf-constant data bit for bit.
    """
    spec = state.phi.spec
    if state.phi.basic or not spec.has_leaf:
        return 0.0
    hs = spec.spacings
    ax_x, ax_y = 2 * spec.n, 2 * spec.n + 1
    vals = state.phi.values
    dx = diff1(vals, ax_x, hs[ax_x])
    dy = diff1(vals, ax_y, hs[ax_y])
    return float(np.max(np.abs(dx)) + np.max(np.abs(dy)))


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

def _metric_eig_range(
    state: FlowState, t: float, rescaled: bool, phi_values: np.ndarray
) -> tuple[float, float]:
    spec = state.phi.spec
    if spec.n == 1:
        g = _metric_values_n1(phi_values, t, state, rescaled, not state.phi.basic, _Scratch())
        return float(np.min(g)), float(np.max(g))
    ref = _reference_matrices(state, t, rescaled)
    if not state.phi.basic:
        ref = ref.reshape(spec.transverse_shape + (1, 1, spec.n, spec.n))
    w = np.linalg.eigvalsh(ref + _hesse_matrices(phi_values, spec))
    return float(np.min(w)), float(np.max(w))


def _select_dt(state: FlowState, config: FlowConfig) -> float:
    spec = state.phi.spec
    d = state.diagnostics
    # Diagnostics attached by a previous step() already hold this metric's
    # eigenvalue range; the initial state (dt == 0) recomputes.
    if d is not None and d.dt > 0.0 and d.min_eig > 0.0:
        lo, hi = d.min_eig, d.max_eig
    else:
        phi_values = state.phi.values if state.phi.basic else state.phi.as_full_values()
        lo, hi = _metric_eig_range(state, state.t, config.rescaled, phi_values)
    if not lo > config.positivity_floor:
        raise PositivityLost(
            f"metric eigenvalue {lo:.6e} at or below the positivity floor",
            min_eigenvalue=lo,
        )
    h_min = min(spec.spacings)
    return min(config.dt_initial, config.dt_safety * h_min * h_min * lo / hi)


def step(state: FlowState, config: FlowConfig, dt_cap: float | None = None) -> FlowState:
    """One classical RK4 step with diffusive step-size control.

    dt = min(dt_initial, dt_safety * h_min^2 * lambda_min / lambda_max); a
    PositivityLost at any internal stage halves dt and retries, down to a
    floor of 1e-12 (then :class:`StepFloor`).  The potential is re-gauged to
    zero spatial mean after the step (a pure additive constant, invisible to
    the metric).
    """
    dt = _select_dt(state, config)
    if dt_cap is not None:
        dt = min(dt, dt_cap)

    extended = config.extended
    if extended and not state.phi.spec.has_leaf:
        raise GridError("extended flow needs a spec with leaf axes")
    phi0 = np.ascontiguousarray(state.phi.as_full_values()) if extended else state.phi.values
    # The stages, their arguments and the final combination all live in
    # these buffers, which the diagnostics reuse afterwards.
    scratch = _Scratch()
    k1, k2, k3, k4, arg = (scratch.take(phi0.shape) for _ in range(5))

    def f(values: np.ndarray, t: float, out: np.ndarray) -> np.ndarray:
        return _rhs_values(
            values, t, state,
            extended=extended, rescaled=config.rescaled,
            positivity_floor=config.positivity_floor,
            out=out, scratch=scratch,
        )

    def stage_argument(k: np.ndarray, c: float) -> np.ndarray:
        np.multiply(k, c, out=arg)
        return np.add(arg, phi0, out=arg)

    t0 = state.t
    while True:
        try:
            k1 = f(phi0, t0, k1)
            k2 = f(stage_argument(k1, 0.5 * dt), t0 + 0.5 * dt, k2)
            k3 = f(stage_argument(k2, 0.5 * dt), t0 + 0.5 * dt, k3)
            k4 = f(stage_argument(k3, dt), t0 + dt, k4)
            break
        except PositivityLost:
            dt *= 0.5
            if dt < DT_FLOOR:
                raise StepFloor(f"time step fell below {DT_FLOOR:.0e} while retrying")

    dphidt_sup = float(np.max(np.abs(k1, out=arg)))
    # phi0 + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), in that order of operations.
    k2 *= 2.0
    k1 += k2
    k3 *= 2.0
    k1 += k3
    k1 += k4
    k1 *= dt / 6.0
    k1 += phi0
    k1 -= np.mean(k1)
    new_phi = ScalarField(state.phi.spec, k1, basic=not extended and state.phi.basic)
    scratch.give(k1, k2, k3, k4, arg)

    new_state = FlowState(
        t0 + dt, new_phi, state.omega_hat_0, state.chi, state.volume_density
    )
    diag = _diagnostics(new_state, config, dphidt_sup=dphidt_sup, dt=dt, scratch=scratch)
    return replace(new_state, diagnostics=diag)


def ricci_residual(state: FlowState, config: FlowConfig) -> float:
    """sup || Ric(omega(t)) - k omega(t) ||, the convergence functional."""
    d = _diagnostics(state, config, dphidt_sup=0.0, dt=0.0)
    return d.ricci_sup


def _leaf_constant_slice(phi: ScalarField) -> np.ndarray | None:
    """The transverse slice of a full field that is bitwise leaf-constant.

    Returns None when the field actually varies along the leaves.  When it
    does not, every leaf slice carries identical values, so diagnostics
    computed on one slice equal the full-grid ones exactly.
    """
    if phi.basic:
        return phi.values
    vals = phi.values
    slice0 = vals[..., :1, :1]
    if np.array_equal(vals, np.broadcast_to(slice0, vals.shape)):
        return vals[..., 0, 0]
    return None


def _diagnostics(
    state: FlowState, config: FlowConfig, dphidt_sup: float, dt: float,
    scratch: _Scratch | None = None,
) -> FlowDiagnostics:
    spec = state.phi.spec
    defect = leafwise_defect(state)
    if not state.phi.basic:
        slice_values = _leaf_constant_slice(state.phi)
        if slice_values is not None:
            reduced = replace(
                state, phi=ScalarField(spec, slice_values, basic=True), diagnostics=None
            )
            inner = _diagnostics(reduced, replace(config, extended=False), dphidt_sup, dt, scratch)
            return replace(inner, leafwise_defect=defect)
    phi_values = state.phi.values if state.phi.basic else state.phi.as_full_values()
    if spec.n == 1:
        if scratch is None:
            scratch = _Scratch()
        g = _metric_values_n1(
            phi_values, state.t, state, config.rescaled, not state.phi.basic, scratch
        )
        lo, hi = float(np.min(g)), float(np.max(g))
        hs = spec.spacings
        ld, ric, tmp, tmp1, tmp2 = (scratch.take(g.shape) for _ in range(5))
        np.log(g, out=ld)
        # ric = -0.25 (ld_xx + ld_yy); ric_sup = sup |ric - k g|.
        diff2_into(ld, 0, hs[0], ric, tmp1, tmp2)
        diff2_into(ld, 1, hs[1], tmp, tmp1, tmp2)
        ric += tmp
        ric *= -0.25
        np.multiply(g, config.class_k, out=tmp)
        ric -= tmp
        ric_sup = float(np.max(np.abs(ric, out=ric)))
        scratch.give(g, ld, ric, tmp, tmp1, tmp2)
    else:
        g = transverse_metric(state, rescaled=config.rescaled)
        lo, hi = _metric_eig_range(state, state.t, config.rescaled, phi_values)
        r = ricci(g)
        ric_sup = float(np.max(np.abs(r.matrices - config.class_k * g.matrices)))
    return FlowDiagnostics(
        ricci_sup=ric_sup,
        dphidt_sup=dphidt_sup,
        min_eig=lo,
        max_eig=hi,
        leafwise_defect=defect,
        dt=dt,
    )


@dataclass
class FlowReport:
    """Outcome of a flow run, with one history row per recorded step."""

    converged: bool
    reason: str  # converged | not_converged | positivity_lost | step_floor | diverged
    final_t: float
    steps: int
    history: list[dict]
    final_state: FlowState

    def history_csv_lines(self) -> list[str]:
        lines = [",".join(HISTORY_COLUMNS)]
        for row in self.history:
            lines.append(",".join(_csv_cell(row[c]) for c in HISTORY_COLUMNS))
        return lines


def _csv_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def run(
    initial: FlowState,
    config: FlowConfig,
    t_final: float | None = None,
    progress: Callable[[int, dict, FlowState], None] | None = None,
) -> FlowReport:
    """Advance the flow until convergence, breakdown, max_steps, or t_final.

    The history records the initial diagnostics as step 0, then one row per
    accepted step.  Breakdown modes land in ``reason`` instead of raising,
    so callers can tell them apart without exception handling.
    """
    state = initial
    try:
        rhs0 = _initial_dphidt(state, config)
    except PositivityLost:
        return FlowReport(False, "positivity_lost", state.t, 0, [], state)
    diag = _diagnostics(state, config, dphidt_sup=rhs0, dt=0.0)
    state = replace(state, diagnostics=diag)
    history = [_history_row(0, state)]
    if progress is not None:
        progress(0, history[0], state)

    initial_max_eig = diag.max_eig
    if diag.ricci_sup < config.ricci_tolerance:
        return FlowReport(True, "converged", state.t, 0, history, state)

    for k in range(1, config.max_steps + 1):
        dt_cap = None
        if t_final is not None:
            dt_cap = t_final - state.t
            if dt_cap <= DT_FLOOR:
                return FlowReport(False, "not_converged", state.t, k - 1, history, state)
        try:
            state = step(state, config, dt_cap=dt_cap)
        except PositivityLost:
            return FlowReport(False, "positivity_lost", state.t, k - 1, history, state)
        except StepFloor:
            return FlowReport(False, "step_floor", state.t, k - 1, history, state)
        row = _history_row(k, state)
        history.append(row)
        if progress is not None:
            progress(k, row, state)
        if state.diagnostics.max_eig > DIVERGENCE_FACTOR * initial_max_eig:
            return FlowReport(False, "diverged", state.t, k, history, state)
        if state.diagnostics.ricci_sup < config.ricci_tolerance:
            return FlowReport(True, "converged", state.t, k, history, state)
        if t_final is not None and state.t >= t_final - DT_FLOOR:
            return FlowReport(False, "not_converged", state.t, k, history, state)

    return FlowReport(False, "not_converged", state.t, config.max_steps, history, state)


def _initial_dphidt(state: FlowState, config: FlowConfig) -> float:
    phi0 = (
        np.ascontiguousarray(state.phi.as_full_values()) if config.extended else state.phi.values
    )
    vals = _rhs_values(
        phi0, state.t, state,
        extended=config.extended, rescaled=config.rescaled,
        positivity_floor=config.positivity_floor,
    )
    return float(np.max(np.abs(vals)))


def _history_row(k: int, state: FlowState) -> dict:
    d = state.diagnostics
    return {
        "step": k,
        "t": state.t,
        "dt": d.dt,
        "ricci_sup": d.ricci_sup,
        "dphidt_sup": d.dphidt_sup,
        "min_eig": d.min_eig,
        "max_eig": d.max_eig,
        "leafwise_defect": d.leafwise_defect,
    }
