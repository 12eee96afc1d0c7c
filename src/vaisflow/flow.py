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

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .exceptions import GridError, InexactClass, NonFinitePotential, PositivityLost, StepFloor
from .grid import GridSpec, ScalarField, _Stencil, diff1, diff2_into, integrate
from .transverse import HermitianField, _ddbar_matrices, _ricci_matrices, ddbar, log_det

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
        # Messages start with the field name, which config errors report as flow.<field>.
        if self.class_k not in (-1, 0):
            raise GridError(f"class_k: must be -1 or 0, got {self.class_k}")
        if not self.dt_initial > 0:
            raise GridError(f"dt_initial: must be positive, got {self.dt_initial}")
        if not 0 < self.dt_safety <= 1:
            raise GridError(f"dt_safety: must lie in (0, 1], got {self.dt_safety}")
        if self.max_steps < 1:
            raise GridError(f"max_steps: must be >= 1, got {self.max_steps}")
        if not self.ricci_tolerance > 0:
            raise GridError(f"ricci_tolerance: must be positive, got {self.ricci_tolerance}")
        if not self.positivity_floor > 0:
            raise GridError(f"positivity_floor: must be positive, got {self.positivity_floor}")


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
    # (phi, t, extended, rescaled, f(phi, t) or None) from the diagnostics
    # pass, which attaches it; ``replace`` and the constructor leave it None.
    _stage: tuple | None = field(default=None, init=False, repr=False, compare=False)

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


def _reference_matrices(state, t: float, rescaled: bool, full: bool = False) -> np.ndarray:
    """omega_hat(t) of a FlowState or _Workspace, with unit leaf axes when ``full``."""
    if rescaled:
        w = np.exp(-t)
        m = state.chi.matrices + w * (state.omega_hat_0.matrices - state.chi.matrices)
    elif t == 0.0:
        m = state.omega_hat_0.matrices
    else:
        m = state.omega_hat_0.matrices + t * state.chi.matrices
    if full:
        m = m.reshape(m.shape[:-2] + (1, 1) + m.shape[-2:])
    return m


def _core(src, halo):
    """The planes of a block, without its halo."""
    return src[halo:src.shape[0] - halo]


def _laplacian(src, halo, hs, out, tmp, tmp1, tmp2):
    """A call that sets out = f_xx + f_yy for f in the n = 1 block ``src``.

    ``src`` has ``halo`` extra axis-0 planes at each end (none on a whole grid).
    """
    xx = _Stencil(2, src, 0, hs[0], out, tmp1, tmp2, halo)
    yy = _Stencil(2, _core(src, halo), 1, hs[1], tmp, tmp1, tmp2)

    def laplacian():
        xx()
        yy()
        np.add(out, tmp, out=out)
    return laplacian


class _Workspace:
    """What one flow run keeps from step to step, for one state's inputs and config.

    log(volume_density), the reference metric at the last t asked for, the
    step buffers ``k2``, ``k3``, ``k4``, ``arg`` (``x`` unless extended) and
    those of the extended block sweeps, and for n = 1 the whole-grid
    Laplacians of ``x`` into ``g`` and of ``ld`` into ``ric``, bound once.
    No array it holds is attached to a state.
    """

    def __init__(self, state: FlowState, config: FlowConfig):
        spec = state.phi.spec
        if config.extended and not spec.has_leaf:
            raise GridError("extended flow needs a spec with leaf axes")
        self.omega_hat_0, self.chi, self.rescaled = state.omega_hat_0, state.chi, config.rescaled
        self.spec, self.hs = spec, spec.spacings
        self.log_density = np.log(state.volume_density.values)
        self.log_density_full = self.log_density.reshape(spec.transverse_shape + (1, 1))
        self._ref_t = self._ref = self._ref_full = None
        shape = spec.full_shape if config.extended else spec.transverse_shape
        self.k2, self.k3, self.k4 = (np.empty(shape) for _ in range(3))
        if spec.n == 1:
            self.x, self.g, self.ld, self.ric, self.tmp, *tmp12 = (
                np.empty(spec.transverse_shape) for _ in range(7)
            )
            self.metric_laplacian = _laplacian(self.x, 0, self.hs, self.g, self.tmp, *tmp12)
            self.ricci_laplacian = _laplacian(self.ld, 0, self.hs, self.ric, self.tmp, *tmp12)
        self.arg = self.x if spec.n == 1 and not config.extended else np.empty(shape)
        if spec.has_leaf:  # buffers a run never writes take no memory
            sweep = (_SLAB_PLANES,) + spec.full_shape[1:] if spec.n == 1 else spec.full_shape
            self.temps = [np.empty(sweep) for _ in range(4)]
            self.window = np.empty((_SLAB_PLANES + 2 * _HALO,) + spec.full_shape[1:])

    def reference(self, t: float, full: bool = False) -> np.ndarray:
        """The reference metric at ``t`` (real for n = 1), with unit leaf axes when ``full``."""
        if t != self._ref_t:
            m = _reference_matrices(self, t, self.rescaled)
            self._ref = ref = np.ascontiguousarray(m[..., 0, 0].real) if self.spec.n == 1 else m
            full_shape = self.log_density_full.shape + ref.shape[self.log_density.ndim:]
            self._ref_full = ref.reshape(full_shape)  # unit leaf axes before any matrix axes
            self._ref_t = t
        return self._ref_full if full else self._ref


def _blocks(values, window):
    """Yield ``(rows, src)`` for the ``_SLAB_PLANES``-plane axis-0 blocks of ``values``.

    ``src`` adds ``_HALO`` planes on each side: a view of ``values``, or at
    the ends a wrapped copy in ``window``, valid until the next block.
    """
    n0 = values.shape[0]
    for i0 in range(0, n0, _SLAB_PLANES):
        i1 = i0 + _SLAB_PLANES
        if _HALO <= i0 and i1 + _HALO <= n0:
            src = values[i0 - _HALO:i1 + _HALO]
        else:
            src = np.take(values, range(i0 - _HALO, i1 + _HALO), axis=0, out=window, mode="wrap")
        yield slice(i0, i1), src


def _metric_n1(laplacian, out, ref):
    """out = ref + 0.25 (phi_xx + phi_yy), the n = 1 metric, from a :func:`_laplacian` into out."""
    laplacian()
    out *= 0.25
    out += ref


def _add_half_leaf_laplacian(phi, out, hs, tmp, tmp1, tmp2):
    """out += 0.5 phi_xx, then out += 0.5 phi_yy along the two leaf axes."""
    for axis in (phi.ndim - 2, phi.ndim - 1):
        diff2_into(phi, axis, hs[axis], tmp, tmp1, tmp2)
        tmp *= 0.5
        out += tmp


def _leaf_slopes(values, hs, tmp):
    """(sup |values_x|, sup |values_y|) along the two leaf axes, the last two."""
    return tuple(
        np.max(np.abs(diff1(values, axis, hs[axis], out=tmp), out=tmp))
        for axis in (values.ndim - 2, values.ndim - 1)
    )


def _floor_check(values_min: float, floor: float, values: np.ndarray):
    """Raise PositivityLost unless ``values_min`` > ``floor``.

    ``values`` holds the checked values per grid point; on failure the grid
    index of their minimum becomes the error's ``location``.
    """
    if not values_min > floor:
        location = tuple(int(i) for i in np.unravel_index(np.argmin(values), values.shape))
        raise PositivityLost(
            f"evolving metric eigenvalue {values_min:.6e} <= floor {floor:.1e}"
            f" at grid index {location}",
            min_eigenvalue=values_min,
            location=location,
        )


def _log_det_positive(w: np.ndarray, floor: float) -> np.ndarray:
    """sum(log w) per point, after checking the eigenvalues ``w`` against the floor."""
    # eigvalsh sorts ascending, so w[..., 0] is the smallest eigenvalue per point.
    _floor_check(float(np.min(w)), floor, w[..., 0])
    return np.sum(np.log(w), axis=-1)


def _metric_blocks(phi, ref, ws, g=None):
    """Yield ``(rows, g block, phi block)`` with g = ref + 0.25 (phi_xx + phi_yy).

    Without ``g``, phi is the whole transverse grid, one block on the bound
    Laplacian into ``ws.g``; with it, the blocks of :func:`_blocks` into ``g``.
    """
    if g is None:
        if phi is not ws.x:
            np.copyto(ws.x, phi)
        _metric_n1(ws.metric_laplacian, ws.g, ref)
        yield slice(None), ws.g, ws.x
        return
    for rows, src in _blocks(phi, ws.window):
        gb = g[rows]
        _metric_n1(_laplacian(src, _HALO, ws.hs, gb, *ws.temps[:3]), gb, ref[rows])
        yield rows, gb, _core(src, _HALO)


def _rhs_sweep_n1(phi, ref, log_density, floor, extended, out, ws):
    """n = 1 right-hand side into ``out``: log g - log_density for the metric g
    checked against the floor, plus 0.5 (phi_xx + phi_yy) along the leaves
    when extended, which is swept in blocks bit-identical to a whole grid.
    """
    for rows, g, core in _metric_blocks(phi, ref, ws, out if extended else None):
        if not float(np.min(g)) > floor:
            # Report the minimum and its location over the whole grid, as an
            # unblocked evaluation would, and take no log of the breach.
            whole = g
            if extended:
                whole, *temps = (np.empty(phi.shape) for _ in range(4))
                _metric_n1(_laplacian(phi, 0, ws.hs, whole, *temps), whole, ref)
            _floor_check(float(np.min(whole)), floor, whole)
        block = out[rows]
        np.log(g, out=block)
        block -= log_density[rows]
        if extended:
            _add_half_leaf_laplacian(core, block, ws.hs, *ws.temps[:3])


def _rhs_values(
    phi_values: np.ndarray,
    t: float,
    state: FlowState,
    *,
    extended: bool,
    rescaled: bool,
    positivity_floor: float,
    out: np.ndarray | None = None,
    workspace: _Workspace | None = None,
) -> np.ndarray:
    """The flow's right-hand side, written into ``out`` (when given) and returned.

    ``phi_values`` is C-contiguous and does not overlap ``out``.  Buffers and
    invariants come from ``workspace``, built for ``state`` and this flow
    variant, or from one made for the call.
    """
    spec = state.phi.spec
    n = spec.n
    if workspace is None:
        workspace = _Workspace(state, FlowConfig(extended=extended, rescaled=rescaled))
    if out is None:
        out = np.empty(phi_values.shape)
    ref = workspace.reference(t, extended)
    log_density = workspace.log_density_full if extended else workspace.log_density
    if n == 1:
        _rhs_sweep_n1(phi_values, ref, log_density, positivity_floor, extended, out, workspace)
    else:
        w = np.linalg.eigvalsh(ref + _ddbar_matrices(phi_values, spec))
        np.subtract(_log_det_positive(w, positivity_floor), log_density, out=out)
        if extended:
            _add_half_leaf_laplacian(phi_values, out, workspace.hs, *workspace.temps[:3])
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
    basic = state.phi.basic
    ref = _reference_matrices(state, tt, rescaled, full=not basic)
    return HermitianField(spec, ref + _ddbar_matrices(state.phi.values, spec), basic=basic)


def leafwise_defect(state: FlowState) -> float:
    """sup |d phi/dx| + sup |d phi/dy| along the leaf axes.

    Exactly zero for basic potentials: a basic field carries no leaf axes,
    and the leaf stencils annihilate leaf-constant data bit for bit.
    """
    spec = state.phi.spec
    if state.phi.basic or not spec.has_leaf:
        return 0.0
    vals = state.phi.values
    dx, dy = _leaf_slopes(vals, spec.spacings, np.empty(vals.shape))
    return float(dx + dy)


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

def _phi_operand(state: FlowState, extended: bool) -> np.ndarray:
    """The array the flow steps: phi, on the full grid (C-contiguous) when extended."""
    return np.ascontiguousarray(state.phi.as_full_values()) if extended else state.phi.values


def _select_dt(state: FlowState, config: FlowConfig, h_min: float) -> float:
    """The CFL step from the diagnostics' eigenvalue range; a floor breach raises, located."""
    d = state.diagnostics
    if not d.min_eig > config.positivity_floor:
        transverse_metric(state, rescaled=config.rescaled).checked_positive(
            config.positivity_floor
        )
    return min(config.dt_initial, config.dt_safety * h_min * h_min * d.min_eig / d.max_eig)


def _diagnosed(state: FlowState, config: FlowConfig) -> bool:
    """Whether the state's diagnostics come from a pass over its own phi and t for ``config``."""
    record = state._stage
    return record is not None and record[0] is state.phi and record[1] == state.t and (
        record[2:4] == (config.extended, config.rescaled)
    )


def _attached_stage(state: FlowState, config: FlowConfig) -> np.ndarray | None:
    """The read-only f(phi, t) attached to ``state`` for ``config``, or None."""
    return state._stage[4] if _diagnosed(state, config) else None


def step(
    state: FlowState, config: FlowConfig, dt_cap: float | None = None, *, _workspace=None
) -> FlowState:
    """One classical RK4 step with diffusive step-size control.

    dt = min(dt_initial, dt_safety * h_min^2 * lambda_min / lambda_max); a
    PositivityLost at any internal stage halves dt and retries, down to a
    floor of 1e-12 (then :class:`StepFloor`).  The potential is re-gauged to
    zero spatial mean after the step (a pure additive constant, invisible to
    the metric); a NaN or infinity in it raises :class:`NonFinitePotential`.

    The first stage is the one the state's diagnostics pass attached for
    ``config``, so a step evaluates the right-hand side three times; the
    returned state carries the first stage of the next step.  A state whose
    diagnostics that pass did not attach for its own phi, t and flow
    variant gets them afresh.
    :func:`run` passes its workspace, built for the same inputs and
    config, as ``_workspace``; otherwise one is made for the call.
    """
    ws = _workspace or _Workspace(state, config)
    if not _diagnosed(state, config):
        state = _with_diagnostics(state, config, dphidt_sup=0.0, dt=0.0, workspace=ws)
    dt = _select_dt(state, config, min(ws.hs))
    if dt_cap is not None:
        dt = min(dt, dt_cap)

    extended = config.extended
    phi0 = _phi_operand(state, extended)
    k1 = _attached_stage(state, config)  # read-only
    k2, k3, k4, arg = ws.k2, ws.k3, ws.k4, ws.arg

    def f(values: np.ndarray, t: float, out: np.ndarray | None) -> np.ndarray:
        return _rhs_values(
            values, t, state,
            extended=extended, rescaled=config.rescaled,
            positivity_floor=config.positivity_floor,
            out=out, workspace=ws,
        )

    def stage_argument(k: np.ndarray, c: float) -> np.ndarray:
        np.multiply(k, c, out=arg)
        return np.add(arg, phi0, out=arg)

    t0 = state.t
    while True:
        try:
            if k1 is None:  # no stage attached for this config
                k1 = f(phi0, t0, None)
            k2 = f(stage_argument(k1, 0.5 * dt), t0 + 0.5 * dt, k2)
            k3 = f(stage_argument(k2, 0.5 * dt), t0 + 0.5 * dt, k3)
            k4 = f(stage_argument(k3, dt), t0 + dt, k4)
            break
        except PositivityLost:
            dt *= 0.5
            if dt < DT_FLOOR:
                raise StepFloor(f"time step fell below {DT_FLOOR:.0e} while retrying")

    dphidt_sup = float(np.max(np.abs(k1, out=arg)))
    # phi0 + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), in that order of operations,
    # summed into k2 so that k1 stays as it is.
    k2 *= 2.0
    np.add(k1, k2, out=k2)
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    k2 += phi0
    mean = np.mean(k2)
    if not np.isfinite(mean):  # as is any mean over a NaN or an infinity
        raise NonFinitePotential(f"the step to t = {t0 + dt!r} made the potential non-finite")
    k2 -= mean
    new_phi = ScalarField(state.phi.spec, k2, basic=not extended and state.phi.basic)  # a copy

    new_state = FlowState(t0 + dt, new_phi, state.omega_hat_0, state.chi, state.volume_density)
    return _with_diagnostics(new_state, config, dphidt_sup=dphidt_sup, dt=dt, workspace=ws)


def ricci_residual(state: FlowState, config: FlowConfig) -> float:
    """sup || Ric(omega(t)) - k omega(t) ||, the convergence functional."""
    return _with_diagnostics(state, config, dphidt_sup=0.0, dt=0.0).diagnostics.ricci_sup


def _leaf_constant_slice(phi: ScalarField) -> np.ndarray | None:
    """The transverse slice of a bitwise leaf-constant field, or None if it varies along them.

    Diagnostics computed on that one slice equal the full-grid ones exactly.
    """
    if phi.basic:
        return phi.values
    vals = phi.values
    slice0 = vals[..., :1, :1]
    if np.array_equal(vals, np.broadcast_to(slice0, vals.shape)):
        return np.ascontiguousarray(vals[..., 0, 0])
    return None


def _sweep_metric_n1(phi, ref, log_density, leaf_varying, ws):
    """The first n = 1 sweep: ``(g, log g, stage, min g, max g, defect)``.

    The new array ``stage`` is log g - log_density, plus 0.5 (phi_xx + phi_yy)
    along the leaves of a ``leaf_varying`` phi, which is swept in blocks like
    :func:`_rhs_sweep_n1` and also yields its :func:`leafwise_defect` (else None).
    """
    if not leaf_varying:
        g, ld, stage = None, ws.ld, np.empty(phi.shape)
    elif ws.k3.shape == phi.shape:  # the stage takes over ``arg``, faster than new memory
        g, ld, stage = ws.k3, ws.k4, ws.arg
        ws.arg = np.empty(stage.shape)
    else:  # a leaf-varying phi diagnosed for a flow that is not extended
        g, ld, stage = (np.empty(phi.shape) for _ in range(3))
    lows, highs, slopes = [], [], []
    for rows, gb, core in _metric_blocks(phi, ref, ws, g):
        lows.append(np.min(gb))
        highs.append(np.max(gb))
        lb, kb = ld[rows], stage[rows]
        np.log(gb, out=lb)
        np.subtract(lb, log_density[rows], out=kb)
        if leaf_varying:
            _add_half_leaf_laplacian(core, kb, ws.hs, *ws.temps[:3])
            slopes.append(_leaf_slopes(core, ws.hs, ws.temps[0]))
    defect = None
    if leaf_varying:
        dx, dy = zip(*slopes)
        defect = float(np.max(dx) + np.max(dy))
    return ws.g if g is None else g, ld, stage, float(np.min(lows)), float(np.max(highs)), defect


def _ricci_sup_n1(laplacian, ric, g, class_k, tmp):
    """sup |Ric - k g| with Ric = -0.25 (ld_xx + ld_yy), from the Laplacian into ``ric``."""
    laplacian()
    ric *= -0.25
    np.multiply(g, class_k, out=tmp)
    ric -= tmp
    return np.max(np.abs(ric, out=ric))


def _sweep_ricci_n1(g, ld, class_k, blocked, ws):
    """The second n = 1 sweep: sup |Ric - k g| from g and ld = log g of :func:`_sweep_metric_n1`."""
    if not blocked:
        return float(_ricci_sup_n1(ws.ricci_laplacian, ws.ric, g, class_k, ws.tmp))
    ric, tmp, tmp1, tmp2 = ws.temps
    sups = []
    for rows, src in _blocks(ld, ws.window):
        laplacian = _laplacian(src, _HALO, ws.hs, ric, tmp, tmp1, tmp2)
        sups.append(_ricci_sup_n1(laplacian, ric, g[rows], class_k, tmp))
    return float(np.max(sups))


def _with_diagnostics(
    state: FlowState, config: FlowConfig, dphidt_sup: float | None, dt: float,
    workspace: _Workspace | None = None,
) -> FlowState:
    """``state`` with its diagnostics and, from the same pass, its first RK4 stage.

    The stage f(phi, t) for ``config``, bit-identical to :func:`_rhs_values`,
    comes from the diagnostics' own operands (log g for n = 1, the
    eigenvalues for n >= 2).  It is attached read-only with the phi, t and
    flow variant the diagnostics belong to; it is None below the positivity
    floor and for a full phi that ``config`` does not extend.
    ``dphidt_sup=None`` (the step-0 row) takes sup |f(phi, t)| from the
    stage, or evaluates f afresh, raising :class:`PositivityLost`.
    """
    ws = workspace or _Workspace(state, config)
    spec = state.phi.spec
    n = spec.n
    floor = config.positivity_floor
    values = _leaf_constant_slice(state.phi)
    leaf_varying = values is None
    if leaf_varying:
        values = state.phi.values
    ref = ws.reference(state.t, full=leaf_varying)
    log_density = ws.log_density_full if leaf_varying else ws.log_density
    if n == 1:
        g, ld, k1, lo, hi, defect = _sweep_metric_n1(values, ref, log_density, leaf_varying, ws)
    else:
        defect = None
        g = HermitianField(spec, ref + _ddbar_matrices(values, spec), basic=not leaf_varying)
        w = np.linalg.eigvalsh(g.matrices)
        lo, hi = float(np.min(w)), float(np.max(w))
        k1 = None
        if lo > floor:
            k1 = _log_det_positive(w, floor) - log_density
            if leaf_varying:
                _add_half_leaf_laplacian(values, k1, ws.hs, *ws.temps[:3])
    if defect is None:
        defect = leafwise_defect(state)

    stage = None
    if lo > floor and (spec.has_leaf if config.extended else state.phi.basic):
        if config.extended and not leaf_varying:
            # The leaf terms of a leaf-constant phi vanish bit for bit.
            k1 = np.broadcast_to(k1.reshape(k1.shape + (1, 1)), spec.full_shape).copy()
        if config.rescaled:
            k1 -= _phi_operand(state, config.extended)
            k1 -= np.mean(k1)
        k1.flags.writeable = False
        stage = k1
    if dphidt_sup is None:
        rhs = stage
        if rhs is None:
            rhs = _rhs_values(
                _phi_operand(state, config.extended), state.t, state,
                extended=config.extended, rescaled=config.rescaled, positivity_floor=floor,
                workspace=ws,
            )
        dphidt_sup = float(np.max(np.abs(rhs)))

    if n == 1:
        ric_sup = _sweep_ricci_n1(g, ld, config.class_k, leaf_varying, ws)
    else:
        ric = _ricci_matrices(g.matrices, spec)
        ric_sup = float(np.max(np.abs(ric - config.class_k * g.matrices)))
    new = replace(state, diagnostics=FlowDiagnostics(
        ricci_sup=ric_sup, dphidt_sup=dphidt_sup, min_eig=lo, max_eig=hi,
        leafwise_defect=defect, dt=dt,
    ))
    object.__setattr__(new, "_stage", (new.phi, new.t, config.extended, config.rescaled, stage))
    return new


@dataclass
class FlowReport:
    """Outcome of a flow run, with one history row per recorded step.

    After ``positivity_lost``, ``failure`` holds the breach's ``min_eigenvalue``
    and grid ``location`` (None where unknown); otherwise it is None.
    """

    converged: bool
    # converged | not_converged | positivity_lost | step_floor | diverged | non_finite
    reason: str
    final_t: float
    steps: int
    history: list[dict]
    final_state: FlowState
    failure: dict | None = None

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
    so callers can tell them apart without exception handling.  Every step
    of the run executes on one workspace built for ``initial`` and
    ``config``.
    """
    state = initial
    if not np.all(np.isfinite(state.phi.values)):
        return FlowReport(False, "non_finite", state.t, 0, [], state)
    workspace = _Workspace(state, config)
    try:
        state = _with_diagnostics(state, config, dphidt_sup=None, dt=0.0, workspace=workspace)
    except PositivityLost as exc:
        return FlowReport(False, "positivity_lost", state.t, 0, [], state, _failure(exc))
    diag = state.diagnostics
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
            state = step(state, config, dt_cap=dt_cap, _workspace=workspace)
        except PositivityLost as exc:
            return FlowReport(
                False, "positivity_lost", state.t, k - 1, history, state, _failure(exc)
            )
        except StepFloor:
            return FlowReport(False, "step_floor", state.t, k - 1, history, state)
        except NonFinitePotential:
            return FlowReport(False, "non_finite", state.t, k - 1, history, state)
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


def _failure(exc: PositivityLost) -> dict:
    return {"min_eigenvalue": exc.min_eigenvalue, "location": exc.location}


def _history_row(k: int, state: FlowState) -> dict:
    return {"step": k, "t": state.t, **vars(state.diagnostics)}
