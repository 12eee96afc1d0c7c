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

import math
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import GridError, InexactClass, NonFinitePotential, PositivityLost, StepFloor
from .grid import GridSpec, ScalarField, _Stencil, diff1, diff2, integrate
from .transverse import (
    HermitianField,
    _argmin_location,
    _assemble,
    _ddbar_parts,
    _metric_with_ddbar,
    _parts,
    _spectrum,
    _spectrum_2x2,
    ddbar,
    log_det,
)

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
# Bytes per float64 array of one axis-0 block of an n = 1 sweep: a block has
# as many planes as fit, at least one.  On the 64^2 x 16^2 grid a block is 2
# planes, so its whole evaluation stays in a 2 MiB L2 cache instead of
# streaming 8 MiB arrays (one whole-grid block there is slower and larger; see
# ROADMAP), and a 64^2 grid is one block.
_BLOCK_BYTES = 256 * 1024
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


def _derived(state: FlowState, **changes) -> FlowState:
    """``replace(state, **changes)`` without rescanning the density ``state`` validated.

    The copy carries no attached stage unless ``changes`` names one.
    """
    new = object.__new__(FlowState)
    new.__dict__.update({**vars(state), "_stage": None, **changes})
    return new


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


def _reference_matrices(state, t: float, rescaled: bool) -> np.ndarray:
    """omega_hat(t) of a FlowState or _Workspace."""
    if rescaled:
        w = np.exp(-t)
        return state.chi.matrices + w * (state.omega_hat_0.matrices - state.chi.matrices)
    if t == 0.0:
        return state.omega_hat_0.matrices
    return state.omega_hat_0.matrices + t * state.chi.matrices


class _Block(NamedTuple):
    """The rows of one axis-0 block of a :class:`_Sweep`, and its stencils, bound once.

    ``metric`` and ``ricci`` are the (xx, yy) pairs of phi and of log g into
    the block's temporaries (``lap``, ``tmp``); ``leaf2`` and ``leaf1`` the
    leaf-axis second and first derivatives of phi into ``tmp`` (none on a
    transverse grid).
    """

    rows: slice
    lap: np.ndarray
    tmp: np.ndarray
    metric: tuple
    ricci: tuple
    leaf2: tuple
    leaf1: tuple


class _Sweep:
    """The n = 1 evaluation of one grid shape, in axis-0 blocks whose stencils are bound once.

    The operand ``phi`` and ``ld`` (log g) are the cores of buffers with
    ``_HALO`` more axis-0 planes at each end, copied from the other end
    before a sweep, so a block reads its neighbours' planes through a view.
    ``g`` holds the metric.  The blocks alternate between two ``lanes``
    (even and odd blocks), each with its own block-sized temporaries, and
    :meth:`in_lanes` sweeps the second lane on a pool worker; a one-block
    sweep has one lane.
    """

    def __init__(self, shape: tuple[int, ...], hs: tuple[float, ...]):
        n0, plane = shape[0], shape[1:]
        padded_phi, padded_ld = (np.empty((n0 + 2 * _HALO,) + plane) for _ in range(2))
        self.phi, self.ld = padded_phi[_HALO:-_HALO], padded_ld[_HALO:-_HALO]
        # (padding, the planes at the other end of the core that it holds)
        self._phi_halo, self._ld_halo = (
            ((p[:_HALO], p[n0:n0 + _HALO]), (p[n0 + _HALO:], p[_HALO:2 * _HALO]))
            for p in (padded_phi, padded_ld)
        )
        self.g = np.empty(shape)
        planes = max(1, min(n0, _BLOCK_BYTES // (8 * math.prod(plane))))
        leaf_axes = range(2, len(shape))
        self.lanes = []
        for first in range(0, min(n0, 2 * planes), planes):
            # The lane's first block is its largest: only the last block of the axis is short.
            temps = [np.empty((min(planes, n0 - first),) + plane) for _ in range(4)]
            lane = []
            for i0 in range(first, n0, 2 * planes):
                rows = slice(i0, min(i0 + planes, n0))
                padded = slice(i0, rows.stop + 2 * _HALO)
                lap, tmp, tmp1, tmp2 = (t[:rows.stop - i0] for t in temps)
                phi = self.phi[rows]
                lane.append(_Block(
                    rows, lap, tmp,
                    metric=(_Stencil(2, padded_phi[padded], 0, hs[0], lap, tmp1, tmp2, _HALO),
                            _Stencil(2, phi, 1, hs[1], tmp, tmp1, tmp2)),
                    ricci=(_Stencil(2, padded_ld[padded], 0, hs[0], lap, tmp1, tmp2, _HALO),
                           _Stencil(2, self.ld[rows], 1, hs[1], tmp, tmp1, tmp2)),
                    leaf2=tuple(_Stencil(2, phi, a, hs[a], tmp, tmp1, tmp2) for a in leaf_axes),
                    leaf1=tuple(_Stencil(1, phi, a, hs[a], tmp, tmp1) for a in leaf_axes),
                ))
            self.lanes.append(lane)
        self.blocks = [block for lane in self.lanes for block in lane]

    def in_lanes(self, body: Callable[[list], list]) -> list:
        """The lists ``body(blocks)`` of each lane, concatenated in lane order.

        The first lane runs here, a second one on the pool worker.  Both have
        finished before this returns or re-raises an exception of either
        (the calling lane's first), so the caller reads and writes the
        sweep's buffers alone again.  ``body`` runs only bound stencils and
        numpy; callers merge its per-block results in a way that lane order
        cannot change (``np.min``, ``np.max``, ``all``).
        """
        if len(self.lanes) == 1:
            return body(self.lanes[0])
        first, second = self.lanes
        future = _lane_worker().submit(body, second)
        try:
            mine = body(first)
        finally:
            future.exception()  # waits for the worker's lane, without raising
        return mine + future.result()

    def load(self, phi: np.ndarray) -> None:
        """Make ``phi`` the operand (no copy when it is ``self.phi``), with its halo."""
        if phi is not self.phi:
            np.copyto(self.phi, phi)
        for padding, planes in self._phi_halo:
            padding[...] = planes

    def ricci_sup(self, class_k: int) -> float:
        """sup |Ric - k g| with Ric = -0.25 (ld_xx + ld_yy), from a kept :func:`_evaluate`."""
        for padding, planes in self._ld_halo:
            padding[...] = planes
        g = self.g

        def lane(blocks):
            sups = []
            for block in blocks:
                lap, tmp = block.lap, block.tmp
                _laplacian(block.ricci, lap, tmp)
                lap *= -0.25
                if class_k:  # else lap - 0 g is lap bit for bit: g > 0, lap is NaN where g = inf
                    np.multiply(g[block.rows], class_k, out=tmp)
                    lap -= tmp
                sups.append(np.max(np.abs(lap, out=lap)))
            return sups

        return float(np.max(self.in_lanes(lane)))

    def leaf_defect(self) -> float:
        """sup |phi_x| + sup |phi_y| along the leaves of the loaded operand of a full grid."""

        def lane(blocks):
            sups = []
            for block in blocks:
                tmp, row = block.tmp, []
                for derivative in block.leaf1:
                    derivative()
                    row.append(np.max(np.abs(tmp, out=tmp)))
                sups.append(row)
            return sups

        dx, dy = np.max(self.in_lanes(lane), axis=0)
        return float(dx + dy)


_lane_workers: dict = {}  # process id -> its lane worker


def _lane_worker():
    """The one pool worker that sweeps the second lane of every _Sweep, started on first use.

    It is kept per process id, because a forked child has no thread of its
    parent's pool and starts its own.  The import is here, so a process
    whose sweeps are all one block starts no thread and imports no executor.
    """
    pid = os.getpid()
    worker = _lane_workers.get(pid)
    if worker is None:
        from concurrent.futures import ThreadPoolExecutor

        # Of two threads that get here at once both use the first pool; the
        # other pool is never submitted to, so it starts no thread.
        worker = _lane_workers.setdefault(
            pid, ThreadPoolExecutor(1, thread_name_prefix="vaisflow-lane")
        )
    return worker


def _laplacian(stencils, lap, tmp) -> None:
    """lap = f_xx + f_yy from a block's bound (xx into ``lap``, yy into ``tmp``) pair."""
    xx, yy = stencils
    xx()
    yy()
    lap += tmp


class _Workspace:
    """What one flow run keeps from step to step, for one state's inputs and config.

    log(volume_density), the reference metric at the last t asked for (its
    entry for n = 1, its parts for n >= 2), the step buffers ``k2``, ``k3``,
    ``k4``, ``arg`` and, for n = 1, a :class:`_Sweep` per grid shape, built
    on first use.  For n = 1 the
    config's sweep lends the step ``arg`` (its operand, so a stage argument
    is evaluated where it is written), ``k3`` and ``k4`` (its ``g`` and
    ``ld``, which only the diagnostics write, after the step).  No array it
    holds is attached to a state.
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
        self._sweeps = {}
        shape = spec.full_shape if config.extended else spec.transverse_shape
        self.k2 = np.empty(shape)
        if spec.n == 1:
            sweep = self.sweep(shape)
            self.k3, self.k4, self.arg = sweep.g, sweep.ld, sweep.phi
        else:
            self.k3, self.k4, self.arg = (np.empty(shape) for _ in range(3))

    def sweep(self, shape: tuple[int, ...]) -> _Sweep:
        """The n = 1 sweep of ``shape``, built on the first call for it."""
        if shape not in self._sweeps:
            self._sweeps[shape] = _Sweep(shape, self.hs)
        return self._sweeps[shape]

    def reference(self, t: float, full: bool = False) -> np.ndarray:
        """The reference metric at ``t`` (see the class), with unit leaf axes when ``full``."""
        if t != self._ref_t:
            m = _reference_matrices(self, t, self.rescaled)
            ref = np.ascontiguousarray(m[..., 0, 0].real) if self.spec.n == 1 else _parts(m)
            self._ref = ref
            self._ref_full = ref.reshape(ref.shape + (1, 1))
            self._ref_t = t
        return self._ref_full if full else self._ref


def _metric_n1(block: _Block, ref: np.ndarray, out: np.ndarray) -> None:
    """out = ref + 0.25 (phi_xx + phi_yy), the n = 1 metric on the rows of ``block``."""
    lap = block.lap
    _laplacian(block.metric, lap, block.tmp)
    lap *= 0.25
    np.add(lap, ref, out=out)


def _floor_check(values_min: float, floor: float, values: np.ndarray):
    """Raise PositivityLost unless ``values_min`` > ``floor``.

    ``values`` holds the checked values per grid point; on failure the grid
    index of their minimum becomes the error's ``location``.
    """
    if not values_min > floor:
        location = _argmin_location(values)
        raise PositivityLost(
            f"evolving metric eigenvalue {values_min:.6e} <= floor {floor:.1e}"
            f" at grid index {location}",
            min_eigenvalue=values_min,
            location=location,
        )


def _evaluate(phi, t, ws, floor, full, out, keep=False):
    """The flow at ``phi``, ``t``: the one place that forms the metric g and takes its log det.

    g = ghat(t) + ddbar phi is checked against ``floor`` before any log; a
    breach raises :class:`PositivityLost` with the minimum and its location
    over the whole grid.  f = log det g - log density, plus 0.5 (phi_xx +
    phi_yy) along the leaves of a ``full`` phi, goes into ``out``.  Returns
    ``(g, log det g, lows, highs)``: the least of ``lows`` (per block for
    n = 1, per point for n >= 2) is the minimum eigenvalue, ``highs`` the
    maximum per point.  For n >= 2, g holds the real parts of the metric,
    laid out as by :func:`transverse._ddbar_parts`: n = 2 takes its spectrum
    from them, n >= 3 from its matrices, assembled once.  For n = 1 phi is
    swept block by block, in the lanes of the workspace's sweep of its
    shape, bit-identical to a whole grid; g and log g go into ``out`` unless
    ``keep`` (the diagnostics) puts them into the sweep's ``g`` and ``ld``,
    where its Ricci sweep reads them.
    """
    ref = ws.reference(t, full)
    log_density = ws.log_density_full if full else ws.log_density
    n = ws.spec.n
    if n > 1:
        g = ref + _ddbar_parts(phi, ws.spec)
        if n == 2:
            lows, highs, ld = _spectrum_2x2(g[0, 0], g[1, 1], g[0, 1], g[1, 0], floor)
        else:
            lows, highs, ld = _spectrum(_assemble(g), n, floor)
        if ld is None:  # a floor breach, which this raises located
            _floor_check(float(np.min(lows)), floor, lows)
        np.subtract(ld, log_density, out=out)
        if full:  # 0.5 phi_xx, then 0.5 phi_yy along the leaves
            for axis in (phi.ndim - 2, phi.ndim - 1):
                tmp = diff2(phi, axis, ws.hs[axis])
                tmp *= 0.5
                out += tmp
        return g, ld, lows, highs
    sweep = ws.sweep(phi.shape)
    sweep.load(phi)
    g, ld = (sweep.g, sweep.ld) if keep else (out, out)

    def lane(blocks):
        lows = []
        for block in blocks:
            rows = block.rows
            gb = g[rows]
            _metric_n1(block, ref[rows], gb)
            lows.append(float(np.min(gb)))
            if not lows[-1] > floor:
                break  # no log of a breach; the whole grid locates it below
            lb, fb = ld[rows], out[rows]
            np.log(gb, out=lb)
            np.subtract(lb, log_density[rows], out=fb)
            tmp = block.tmp
            for leaf in block.leaf2:  # 0.5 phi_xx, then 0.5 phi_yy along the leaves
                leaf()
                tmp *= 0.5
                fb += tmp
        return lows

    lows = sweep.in_lanes(lane)
    if not all(low > floor for low in lows):
        # Report the minimum and its location over the whole grid, as an
        # unblocked evaluation would.
        for block in sweep.blocks:
            _metric_n1(block, ref[block.rows], g[block.rows])
        _floor_check(float(np.min(g)), floor, g)
    return g, ld, lows, g


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
    if workspace is None:
        workspace = _Workspace(state, FlowConfig(extended=extended, rescaled=rescaled))
    if out is None:
        out = np.empty(phi_values.shape)
    _evaluate(phi_values, t, workspace, positivity_floor, extended, out)
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
    """The evolving transverse metric ghat(t) + phi_{j kbar}.

    As in :func:`transverse.metric_from_potential`, the parts of the two are
    summed and assembled once, so the matrices are Hermitian by construction
    and their parts are exactly the sums.
    """
    tt = state.t if t is None else t
    ref = _reference_matrices(state, tt, rescaled)
    return _metric_with_ddbar(state.phi.spec, ref, state.phi.values, state.phi.basic)


def leafwise_defect(state: FlowState) -> float:
    """sup |d phi/dx| + sup |d phi/dy| along the leaf axes.

    Exactly zero for basic potentials: a basic field carries no leaf axes,
    and the leaf stencils annihilate leaf-constant data bit for bit.
    """
    spec = state.phi.spec
    if state.phi.basic or not spec.has_leaf:
        return 0.0
    vals, hs = state.phi.values, spec.spacings
    dx, dy = (np.max(np.abs(diff1(vals, a, hs[a]))) for a in (vals.ndim - 2, vals.ndim - 1))
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


def _check_steppable(state: FlowState, config: FlowConfig) -> None:
    """Raise :class:`GridError` when ``config`` cannot step ``state``'s phi."""
    if not (config.extended or state.phi.basic):
        raise GridError("a potential that is not basic is stepped only by the extended flow")


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
    variant gets them afresh.  A metric that is not positive, in the given
    state or in the result of the step, raises :class:`PositivityLost`
    with its global minimum eigenvalue and grid location; no log of it is
    taken, and the result is not retried.
    A phi that is not basic under a config that is not extended raises
    :class:`GridError`.  :func:`run` passes its workspace, built for the
    same inputs and config, as ``_workspace``; otherwise one is made for the
    call.
    """
    _check_steppable(state, config)
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

    new_state = _derived(state, t=t0 + dt, phi=new_phi, diagnostics=None)
    return _with_diagnostics(new_state, config, dphidt_sup=dphidt_sup, dt=dt, workspace=ws)


def ricci_residual(state: FlowState, config: FlowConfig) -> float:
    """sup || Ric(omega(t)) - k omega(t) ||, the convergence functional.

    A metric that is not positive somewhere raises :class:`PositivityLost`
    with its global minimum eigenvalue and grid location, before any log.
    """
    return _with_diagnostics(state, config, dphidt_sup=0.0, dt=0.0).diagnostics.ricci_sup


def _sup_norm(parts: np.ndarray) -> float:
    """max |entry| of the Hermitian field with these parts; off the diagonal |b| = hypot(Re b, Im b)."""
    n = parts.shape[0]
    return float(max(
        np.max(np.abs(parts[j, j]) if j == k else np.hypot(parts[j, k], parts[k, j]))
        for j in range(n) for k in range(j, n)
    ))


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


def _with_diagnostics(
    state: FlowState, config: FlowConfig, dphidt_sup: float | None, dt: float,
    workspace: _Workspace | None = None,
) -> FlowState:
    """``state`` with its diagnostics and, from the same pass, its first RK4 stage.

    Both come from one :func:`_evaluate` at floor 0, so a metric that is
    not positive raises :class:`PositivityLost`, located.  The stage
    f(phi, t) for ``config``, bit-identical to :func:`_rhs_values`, is
    attached read-only with the phi, t and flow variant the diagnostics
    belong to; it is None at or below ``config``'s positivity floor and for
    a full phi that ``config`` does not extend.
    ``dphidt_sup=None`` (the step-0 row) takes sup |f(phi, t)| from the
    stage, or evaluates f afresh, raising :class:`PositivityLost`.
    """
    ws = workspace or _Workspace(state, config)
    spec = state.phi.spec
    floor = config.positivity_floor
    values = _leaf_constant_slice(state.phi)
    leaf_varying = values is None
    if leaf_varying:
        values = state.phi.values
    k1 = np.empty(values.shape)
    g, ld, lows, highs = _evaluate(values, state.t, ws, 0.0, leaf_varying, k1, keep=True)
    if spec.n == 1:
        sweep = ws.sweep(values.shape)
        ric_sup = sweep.ricci_sup(config.class_k)
        defect = sweep.leaf_defect() if leaf_varying else 0.0
    else:
        ric = _ddbar_parts(ld, spec)
        np.negative(ric, out=ric)
        ric -= config.class_k * g
        ric_sup = _sup_norm(ric)
        defect = leafwise_defect(state) if leaf_varying else 0.0
    lo, hi = float(np.min(lows)), float(np.max(highs))

    stage = None
    if lo > floor and (config.extended or state.phi.basic):
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

    diagnostics = FlowDiagnostics(
        ricci_sup=ric_sup, dphidt_sup=dphidt_sup, min_eig=lo, max_eig=hi,
        leafwise_defect=defect, dt=dt,
    )
    record = (state.phi, state.t, config.extended, config.rescaled, stage)
    return _derived(state, diagnostics=diagnostics, _stage=record)


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
    so callers can tell them apart without exception handling; a step whose
    result is not positive ends the run in ``positivity_lost`` at the last
    positive state, with no row for the result.  Every step
    of the run executes on one workspace built for ``initial`` and
    ``config``.  A phi that is not basic under a config that is not
    extended raises :class:`GridError`.
    """
    _check_steppable(initial, config)
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
